import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from ersc.discretize import build_grid
from ersc.simulate import SimulationConfig, simulate
from ersc.variational import (
    FiniteNoiseSpace,
    drift_class_gap,
    gibbs_identity_check,
    kl_divergence,
    tilted_optimizer,
)


def test_gibbs_constant_function():
    space = FiniteNoiseSpace(np.array([0.3, 0.7]))
    lhs, rhs, gap = gibbs_identity_check(space, np.array([2.5, 2.5]))
    assert np.isclose(lhs, 2.5)
    assert np.isclose(rhs, 2.5)
    assert gap <= 1e-14


def test_gibbs_two_atoms_closed_form():
    space = FiniteNoiseSpace(np.array([0.5, 0.5]))
    f = np.array([0.0, 1.0])
    lhs, rhs, gap = gibbs_identity_check(space, f)
    assert np.isclose(lhs, np.log((1.0 + np.e) / 2.0))
    assert gap <= 1e-14
    q = tilted_optimizer(space, f)
    assert np.allclose(q, [1.0 / (1.0 + np.e), np.e / (1.0 + np.e)])


def test_gibbs_identity_random_battery():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 65))
        p = rng.dirichlet(np.ones(m))
        p = np.maximum(p, 1e-9)
        p /= p.sum()
        f = rng.uniform(-20.0, 20.0, size=m)
        _, _, gap = gibbs_identity_check(FiniteNoiseSpace(p), f)
        worst = max(worst, gap)
    assert worst <= 1e-12


def test_gibbs_sides_equal_scipy_logsumexp_bit_for_bit():
    # the log-sum-exp is numpy-only; scipy stays the oracle
    rng = np.random.default_rng(2)
    for _ in range(200):
        m = int(rng.integers(2, 65))
        space = FiniteNoiseSpace(rng.dirichlet(np.ones(m)))
        f = rng.uniform(-20.0, 20.0, size=m)
        logq = np.log(space.probs) + f
        expected = np.exp(logq - scipy_logsumexp(logq))
        assert tilted_optimizer(space, f).tobytes() == expected.tobytes()
        assert gibbs_identity_check(space, f)[0] == float(scipy_logsumexp(logq))


def test_gibbs_inequality_direction():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        m = int(rng.integers(2, 33))
        p = rng.dirichlet(np.ones(m))
        p = np.maximum(p, 1e-9)
        p /= p.sum()
        f = rng.uniform(-10.0, 10.0, size=m)
        lhs, _, _ = gibbs_identity_check(FiniteNoiseSpace(p), f)
        q = rng.dirichlet(np.ones(m))
        assert q @ f - kl_divergence(q, p) <= lhs + 1e-10


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteNoiseSpace(np.array([0.5, 0.0, 0.5]))
    with pytest.raises(ValueError):
        FiniteNoiseSpace(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        gibbs_identity_check(FiniteNoiseSpace(np.array([0.5, 0.5])), np.array([np.inf, 0.0]))


def test_kl_off_support_is_infinite():
    assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == np.inf


LINEAR_THETAS = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75)


def _linear_family(thetas=LINEAR_THETAS, k=1.0):
    return [
        (f"theta={t}", (lambda t_: lambda x: k * t_ * np.asarray(x, dtype=float))(t))
        for t in thetas
    ]


def test_drift_class_gap_zero_cost():
    from ersc.model import builtin_ou_lq

    m = builtin_ou_lq(a=-1, sigma=1, q=0.0, c=0.0, u_max=0.0, n_controls=1)
    grid = build_grid([6.0], [121])
    cfg = SimulationConfig(dt=0.01, horizon=20.0, n_paths=32, seed=0, x0=[0.0])
    rep = drift_class_gap(m, None, cfg, _linear_family((0.0, 0.25)), grid)
    assert abs(rep.log_mgf_estimate) <= 1e-6
    assert rep.best_label == "theta=0.0"
    assert abs(rep.best_inner_value) <= 1e-6


def test_drift_class_gap_ou_linear_family(ou_uncontrolled, grid_241):
    cfg = SimulationConfig(dt=2e-3, horizon=60.0, n_paths=96, seed=1, x0=[0.0])
    rep = drift_class_gap(ou_uncontrolled, None, cfg, _linear_family(), grid_241)
    # optimal feedback slope is 0.5; the restricted sup comes close to 0.25
    assert rep.best_label == "theta=0.5"
    assert abs(rep.best_inner_value - 0.25) <= 0.02
    assert rep.gap >= -3.0 * (rep.log_mgf_stderr + rep.best_inner_stderr)
    # every candidate stays below the log-moment rate (lower-bound direction)
    for _, value, stderr in rep.inner_values:
        assert value <= rep.log_mgf_estimate + 3.0 * (stderr + rep.log_mgf_stderr)


def test_drift_class_gap_constants_strictly_suboptimal(ou_uncontrolled, grid_241):
    cfg = SimulationConfig(dt=2e-3, horizon=60.0, n_paths=96, seed=2, x0=[0.0])
    consts = [
        (f"c={c}", (lambda c_: lambda x: np.full_like(np.asarray(x, dtype=float), c_))(c))
        for c in (-0.5, 0.0, 0.5)
    ]
    rep = drift_class_gap(ou_uncontrolled, None, cfg, consts, grid_241)
    # best constant drift is 0 with value 0.1875 < 0.25 by a clear margin
    assert rep.best_label == "c=0.0"
    assert rep.gap >= 0.03


def test_scaling_equivalence_of_penalized_families(ou_uncontrolled, grid_241):
    # replacing w by k*w with penalty k^2 |w|^2 / 2 reindexes the same family:
    # with matched parameter grids the optimized inner value is unchanged
    cfg = SimulationConfig(dt=5e-3, horizon=30.0, n_paths=64, seed=3, x0=[0.0])
    base = drift_class_gap(ou_uncontrolled, None, cfg, _linear_family(), grid_241)
    for k in (2.0, 0.5):
        scaled_thetas = tuple(t / k for t in LINEAR_THETAS)
        fam = _linear_family(scaled_thetas, k=k)
        rep = drift_class_gap(ou_uncontrolled, None, cfg, fam, grid_241)
        assert abs(rep.best_inner_value - base.best_inner_value) <= 1e-12
