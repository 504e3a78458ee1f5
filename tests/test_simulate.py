import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator
from scipy.special import logsumexp as scipy_logsumexp

import ersc
from ersc.discretize import Grid, build_grid
from ersc.eigensolve import policy_value
import ersc.simulate as simulate_module
from ersc.hjb import MarkovPolicy, value_gradient_field
from ersc.model import ControlSet, DiffusionModel, builtin_ou_lq, sigma_times
from ersc.simulate import (
    _PRODUCER_MIN_NORMALS,
    SimulationConfig,
    _euler_maruyama,
    _logsumexp,
    _step_normals,
    check_stochastic_representation,
    estimate_rsc_cost,
    grid_interpolator,
    importance_sampled_cost,
    mem_tightness_report,
    simulate,
)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which a child process survives, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child at all
    pytest.fail(f"a child process survived the test (waitpid returned pid {pid})")


def brownian_model(dim=1, sigma=1.0):
    return DiffusionModel(
        dim=dim,
        drift=lambda x, u: np.zeros(np.shape(np.asarray(x, dtype=float))),
        sigma=lambda x: sigma * np.eye(dim),
        cost=lambda x, u: np.zeros(np.shape(np.asarray(x))[:-1]),
        controls=ControlSet(np.array([[0.0]])),
        name="bm",
    )


def test_scheme_identity_two_steps():
    # b = 0, sigma = I: Z_T = x0 + sqrt(dt) (xi_1 + xi_2) for the drawn normals
    m = brownian_model()
    cfg = SimulationConfig(dt=0.5, horizon=1.0, n_paths=1, seed=42, x0=[0.3])
    ens = simulate(m, None, cfg)
    xi0 = _step_normals(42, 0, 1, 1, False)
    xi1 = _step_normals(42, 1, 1, 1, False)
    expected = 0.3 + np.sqrt(0.5) * (xi0 + xi1)
    assert np.allclose(ens.terminal, expected)


def test_constant_aux_drift_shift():
    m = brownian_model()
    c, T = 0.7, 2.0
    cfg = SimulationConfig(dt=0.01, horizon=T, n_paths=4000, seed=1, x0=[0.0])
    ens = simulate(m, None, cfg, aux=lambda x: np.full((x.shape[0], 1), c))
    mean = ens.terminal.mean()
    se = ens.terminal.std(ddof=1) / np.sqrt(ens.n_paths)
    assert abs(mean - c * T) <= 3 * se
    assert np.allclose(ens.aux_penalty_integral, 0.5 * c**2 * T)


def test_seed_reproducibility(ou_uncontrolled):
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=64, seed=9, x0=[0.5])
    d1 = simulate(ou_uncontrolled, None, cfg).digest()
    d2 = simulate(ou_uncontrolled, None, cfg).digest()
    assert d1 == d2
    cfg2 = SimulationConfig(dt=0.01, horizon=1.0, n_paths=64, seed=10, x0=[0.5])
    assert simulate(ou_uncontrolled, None, cfg2).digest() != d1


def test_antithetic_pairs():
    m = brownian_model()
    cfg = SimulationConfig(dt=0.5, horizon=0.5, n_paths=6, seed=5, x0=[0.0], antithetic=True)
    ens = simulate(m, None, cfg)
    z = ens.terminal.ravel()
    assert np.allclose(z[:3], -z[3:])


def test_blowup_paths_excluded():
    # supercritical drift x^3 explodes; affected paths are dropped and counted
    m = DiffusionModel(
        dim=1,
        drift=lambda x, u: np.asarray(x, dtype=float) ** 3,
        sigma=lambda x: np.array([[1.0]]),
        cost=lambda x, u: np.zeros(np.shape(np.asarray(x))[:-1]),
        controls=ControlSet(np.array([[0.0]])),
        name="explode",
    )
    cfg = SimulationConfig(dt=0.5, horizon=40.0, n_paths=16, seed=2, x0=[2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        ens = simulate(m, None, cfg)
    assert ens.excluded > 0
    assert np.all(np.isfinite(ens.terminal))
    assert np.all(np.isfinite(ens.cost_integral))


def explode_model():
    # supercritical drift x^3: paths started at x = 2 leave every bound
    return DiffusionModel(
        dim=1,
        drift=lambda x, u: np.asarray(x, dtype=float) ** 3,
        sigma=lambda x: np.array([[1.0]]),
        cost=lambda x, u: np.zeros(np.shape(np.asarray(x))[:-1]),
        controls=ControlSet(np.array([[0.0]])),
        name="explode",
    )


def test_blowup_paths_fail_importance_sampling_loudly():
    # a non-finite twisted path has no weight: the estimate must not be NaN
    m = explode_model()
    g = build_grid([2.0], [9])
    pair = policy_value(m, g, MarkovPolicy.constant(0, g.n_nodes), tol=1e-10)
    cfg = SimulationConfig(dt=0.5, horizon=40.0, n_paths=16, seed=2, x0=[2.0])
    with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=r"\d+ of 16 importance-sampled paths"):
            importance_sampled_cost(m, None, pair, cfg)
        rows = check_stochastic_representation(
            m, None, pair.vector, pair.value, 0.5, [[2.0]], cfg, g
        )
    # excluded paths count as non-hitting
    assert rows[0]["nonhit"] > 0.0
    assert rows[0]["inconclusive"]


def test_clipped_aux_field_lookups_are_counted():
    # Brownian paths leave the box [-0.5, 0.5]; a zero aux field leaves the
    # paths unchanged, so the out-of-box states can be counted independently
    m = brownian_model()
    g = build_grid([0.5], [11])
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=32, seed=3, x0=[0.0])
    with pytest.warns(UserWarning, match=r"state evaluations clipped") as rec:
        ens = simulate(m, None, cfg, aux=np.zeros((g.n_nodes, 1)), grid=g)
    counted = int(re.search(r"(\d+) state evaluations clipped", str(rec[0].message)).group(1))
    steps = [_step_normals(3, k, 32, 1, False) for k in range(cfg.n_steps)]
    X = np.sqrt(cfg.dt) * np.cumsum(np.stack(steps), axis=0)
    outside = int((np.abs(X[:-1]) > 0.5).sum())  # states looked up at steps 1..n-1
    assert counted == outside > 0
    assert np.allclose(ens.terminal, X[-1])


# PathEnsemble.digest() and the occupation histogram of small runs, pinned so
# that any change to the stepper's arithmetic shows up in the test suite
PINNED = {
    "plain": ("fb1525b136bcf84dca50892fe503404550e00873717d2d53b2809e36f2d8699f", None),
    "antithetic": ("7e5de99bba9e30ea9beb8614fe13d46354a1235474a695f655faeebfb6d3bfe0", None),
    "aux_callable": ("4f01b703d81b3650d819eb2f48e9efa66e8063f606610b9f83c247c08c39f097", None),
    "aux_field": ("49f0aee527febe48bdd29a7164be6f748e9b9ccee03089ee869ce460840c2c6e", None),
    "record_mem": (
        "fb1525b136bcf84dca50892fe503404550e00873717d2d53b2809e36f2d8699f",
        "2787f1ccca0f3e4c12d3f53ca543776bfe0d390ec43bb30fabd182f2fe3d0045",
    ),
    "markov_policy": ("6cd6e221351487d49048bfb3a9d0f8feb220ce9a2c418ff5680495c18ceb33ea", None),
    "state_sigma_aux": ("dc00792562e915471da98cb8c1eccf654a8ad09197bdc448925640e8cd7a896b", None),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_digests(case, ou_uncontrolled, grid_241):
    base = dict(dt=0.01, horizon=1.0, n_paths=64, seed=9, x0=[0.5])
    model, policy, kw = ou_uncontrolled, None, {}
    if case == "antithetic":
        base.update(n_paths=63, antithetic=True)
    elif case == "aux_callable":
        kw = {"aux": lambda x: -0.5 * x}
    elif case == "aux_field":
        kw = {"aux": 0.5 * np.tanh(grid_241.coords()), "grid": grid_241}
    elif case == "record_mem":
        base.update(record_mem=True, mem_stride=5)
        kw = {"grid": grid_241}
    elif case == "markov_policy":
        model = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=2.0, u_max=5.0, n_controls=5)
        policy = MarkovPolicy(np.arange(grid_241.n_nodes) % 5)
        kw = {"grid": grid_241}
    elif case == "state_sigma_aux":
        model = DiffusionModel(
            dim=1,
            drift=lambda x, u: -np.asarray(x, dtype=float),
            sigma=lambda x: np.sqrt(1.0 + 0.1 * np.asarray(x, dtype=float) ** 2)[..., None],
            cost=lambda x, u: 0.5 * np.asarray(x, dtype=float)[..., 0] ** 2,
            controls=ControlSet(np.array([[0.0]])),
            name="state_sigma",
        )
        kw = {"aux": lambda x: 0.3 * np.ones_like(x)}
    ens = simulate(model, policy, SimulationConfig(**base), **kw)
    digest, mem = PINNED[case]
    assert ens.digest() == digest
    if mem is None:
        assert ens.mem_masses is None
    else:
        assert hashlib.sha256(ens.mem_masses.tobytes()).hexdigest() == mem


def test_estimate_constant_cost_exact():
    m = DiffusionModel(
        dim=1,
        drift=lambda x, u: -np.asarray(x, dtype=float),
        sigma=lambda x: np.array([[1.0]]),
        cost=lambda x, u: np.full(np.shape(np.asarray(x))[:-1], 1.7),
        controls=ControlSet(np.array([[0.0]])),
        name="constcost",
    )
    cfg = SimulationConfig(dt=0.01, horizon=2.0, n_paths=50, seed=3, x0=[0.0])
    est = estimate_rsc_cost(simulate(m, None, cfg))
    assert abs(est.estimate - 1.7) <= 1e-12
    assert est.stderr <= 1e-12


def test_estimate_reorder_invariance(ou_uncontrolled):
    cfg = SimulationConfig(dt=0.01, horizon=2.0, n_paths=128, seed=4, x0=[0.0])
    ens = simulate(ou_uncontrolled, None, cfg)
    base = estimate_rsc_cost(ens).estimate
    rng = np.random.default_rng(0)
    perm = rng.permutation(ens.n_paths)
    ens.cost_integral = ens.cost_integral[perm]
    ens.terminal = ens.terminal[perm]
    assert np.isclose(estimate_rsc_cost(ens).estimate, base, rtol=0, atol=1e-13)


def test_truncated_estimate_tail_scan(ou_uncontrolled):
    cfg = SimulationConfig(dt=0.005, horizon=4.0, n_paths=4000, seed=8, x0=[0.0])
    ens = simulate(ou_uncontrolled, None, cfg)
    S = ens.cost_integral
    T = cfg.horizon
    L_hi = float(np.quantile(S, 0.999)) / T
    L_lo = float(np.quantile(S, 0.95)) / T
    est_hi = estimate_rsc_cost(ens, truncation_L=L_hi)
    est_lo = estimate_rsc_cost(ens, truncation_L=L_lo)
    # truncated estimates increase with L toward the full estimate
    assert est_lo.truncated_estimate <= est_hi.truncated_estimate <= est_hi.estimate
    assert est_lo.tail_mass >= est_hi.tail_mass >= 0.0
    assert est_hi.estimate - est_hi.truncated_estimate <= 0.05


def test_ground_diffusion_stationary_variance(ou_uncontrolled, grid_241):
    # twisted drift -x + 0.5x = -0.5x gives stationary variance 1.0
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    omega = value_gradient_field(pair.vector, grid_241, model=ou_uncontrolled)
    cfg = SimulationConfig(dt=0.005, horizon=12.0, n_paths=4000, seed=6, x0=[0.0])
    ens = simulate(ou_uncontrolled, None, cfg, aux=omega, grid=grid_241)
    var = float(np.var(ens.terminal))
    se = var * np.sqrt(2.0 / ens.n_paths)
    assert abs(var - 1.0) <= 4 * se + 0.02


def test_importance_sampling_matches_eigenvalue(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    cfg = SimulationConfig(dt=1e-3, horizon=8.0, n_paths=1000, seed=12, x0=[0.0])
    est, se = importance_sampled_cost(ou_uncontrolled, None, pair, cfg)
    assert se <= 1e-3
    assert abs(est - 0.25) <= 1e-2


def test_importance_sampling_zero_cost(grid_241):
    m = builtin_ou_lq(a=-1, sigma=1, q=0.0, c=0.0, u_max=0.0, n_controls=1)
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(m, grid_241, pol, tol=1e-11)
    cfg = SimulationConfig(dt=0.01, horizon=2.0, n_paths=200, seed=13, x0=[0.0])
    est, se = importance_sampled_cost(m, None, pair, cfg)
    assert abs(est) <= 1e-8
    assert se <= 1e-8


def test_is_and_plain_mc_agree_on_matched_functional(ou_uncontrolled, grid_241):
    # without the terminal eigen factor both estimators target the same
    # finite-horizon log-moment quantity
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    cfg = SimulationConfig(dt=2e-3, horizon=6.0, n_paths=6000, seed=14, x0=[0.0])
    plain = estimate_rsc_cost(simulate(ou_uncontrolled, None, cfg))
    is_est, is_se = importance_sampled_cost(
        ou_uncontrolled, None, pair, cfg, terminal_eigen_correction=False
    )
    assert abs(is_est - plain.estimate) <= 3 * (plain.stderr + is_se)


def test_rep_check_boundary_point_is_exact(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=10, seed=1, x0=[0.0])
    rows = check_stochastic_representation(
        ou_uncontrolled, None, pair.vector, pair.value, 1.0, [[0.5]], cfg, grid_241
    )
    assert rows[0]["ratio"] == 1.0
    assert rows[0]["nonhit"] == 0.0


def test_rep_check_ou(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    cfg = SimulationConfig(dt=1e-3, horizon=12.0, n_paths=2000, seed=15, x0=[0.0])
    rows = check_stochastic_representation(
        ou_uncontrolled, None, pair.vector, pair.value, 1.0, [[2.0]], cfg, grid_241
    )
    r = rows[0]
    assert not r["inconclusive"]
    assert abs(r["ratio"] - 1.0) <= 0.05


def test_rep_check_inflated_value_biases_down(ou_uncontrolled, grid_241):
    # replacing Lambda by Lambda + 0.1 discounts harder: ratio < 1
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    cfg = SimulationConfig(dt=1e-3, horizon=12.0, n_paths=2000, seed=16, x0=[0.0])
    rows = check_stochastic_representation(
        ou_uncontrolled, None, pair.vector, pair.value + 0.1, 1.0, [[2.0]], cfg, grid_241
    )
    assert rows[0]["ratio"] < 1.0 - 0.02


def test_rep_check_twisted_sampling_tight_and_sharp(ou_uncontrolled, grid_241):
    # sampling under the twisted dynamics with exact reweighting keeps the
    # estimator unbiased while collapsing the weight variance; a corrupted
    # Lambda is still flagged decisively
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    log_psi = np.log(pair.vector)
    cfg = SimulationConfig(dt=1e-3, horizon=12.0, n_paths=1500, seed=21, x0=[0.0])
    rows = check_stochastic_representation(
        ou_uncontrolled, None, pair.vector, pair.value, 1.0, [[2.0], [-1.5]], cfg, grid_241,
        twist_log_psi=log_psi,
    )
    for r in rows:
        assert abs(r["ratio"] - 1.0) <= 0.01
        assert r["nonhit"] == 0.0
    bad = check_stochastic_representation(
        ou_uncontrolled, None, pair.vector, pair.value + 0.1, 1.0, [[2.0]], cfg, grid_241,
        twist_log_psi=log_psi,
    )
    assert bad[0]["ratio"] < 1.0 - 0.05
    assert bad[0]["stderr"] <= 0.01


def test_mem_tightness_stationary_ou(ou_uncontrolled, grid_241):
    cfg = SimulationConfig(
        dt=0.01, horizon=30.0, n_paths=400, seed=17, x0=[0.0], record_mem=True, mem_stride=5
    )
    ens = simulate(ou_uncontrolled, None, cfg, grid=grid_241)
    # stationary std is sqrt(1/2); mass beyond 4 std is tiny
    rep = mem_tightness_report(ens, [0.5, 1.0, 2.0, 4.0 * np.sqrt(0.5)])
    assert rep["tight"]
    assert rep["mass_beyond"][-1] <= 1e-3


@pytest.mark.parametrize("stride", [0, -1])
def test_nonpositive_mem_stride_rejected(stride):
    # 0 used to run until the first recording step and then divide by zero
    with pytest.raises(ValueError, match="mem_stride must be >= 1"):
        SimulationConfig(dt=0.5, horizon=1.0, n_paths=1, record_mem=True, mem_stride=stride)


@pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "1", True])
def test_seed_outside_philox_keys_rejected(seed):
    # -1 and 2**128 used to fail inside the first step; 1.5 and True ran as seed 1
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
        SimulationConfig(dt=0.5, horizon=1.0, n_paths=1, seed=seed)
    SimulationConfig(dt=0.5, horizon=1.0, n_paths=1, seed=2**128 - 1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(dt=float("nan")), "need finite 0 < dt <= horizon"),
        (dict(horizon=float("inf")), "need finite 0 < dt <= horizon"),
        (dict(dt=float("inf"), horizon=float("inf")), "need finite 0 < dt <= horizon"),
        (dict(n_paths=8.5), "n_paths must be an integer"),
        (dict(n_paths=8.0), "n_paths must be an integer"),
        (dict(n_paths=True), "n_paths must be an integer"),
        (dict(n_paths="8"), "n_paths must be an integer"),
        (dict(mem_stride=2.5), "mem_stride must be an integer"),
        (dict(mem_stride=True), "mem_stride must be an integer"),
    ],
)
def test_non_finite_times_and_non_integer_counts_rejected(bad, message):
    # inf used to overflow in n_steps, NaN to fail in int(), and 8.5 paths ran as 8
    with pytest.raises(ValueError, match=re.escape(message)):
        SimulationConfig(**dict(dict(dt=0.5, horizon=1.0, n_paths=8), **bad))
    SimulationConfig(dt=0.5, horizon=1.0, n_paths=np.int64(8), mem_stride=np.int32(2))


def _bits(x):
    return type(x), np.asarray(x).tobytes()


def _quiet_logsumexp(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _logsumexp(a)


@pytest.mark.parametrize("size", [1, 2, 7, 1000, 10000])
@pytest.mark.parametrize("scale", [1.0, 50.0, 800.0])
def test_logsumexp_equals_scipy_bit_for_bit(size, scale):
    rng = np.random.default_rng(size)
    a = scale * rng.standard_normal(size)
    cases = [a]
    if size > 1:
        picks = rng.integers(size, size=max(2, size // 10))
        tied, holes = a.copy(), a.copy()
        tied[picks] = a.max()
        holes[picks[1:]] = -np.inf
        cases += [tied, holes]
    for x in cases:
        assert _bits(_quiet_logsumexp(x)) == _bits(scipy_logsumexp(x))


@pytest.mark.parametrize(
    "a",
    [
        [-np.inf],
        [-np.inf, -np.inf, -np.inf],
        [np.inf, 0.0],
        [np.inf, np.inf, -np.inf],
        [np.nan, 0.0],
        [0.0, np.nan, np.inf],
        [-np.inf, 0.0, -np.inf],
        [3.0, 3.0],
    ],
    ids=["one-neg-inf", "all-neg-inf", "pos-inf", "two-pos-inf", "nan-first", "nan-and-inf",
         "neg-inf-entries", "tie"],
)
def test_logsumexp_non_finite_cases_equal_scipy(a):
    # all -inf: the split-off formula gives NaN, scipy's fallback gives -inf
    a = np.array(a, dtype=float)
    with np.errstate(all="ignore"):
        expected = scipy_logsumexp(a)
    assert _bits(_quiet_logsumexp(a)) == _bits(expected)


def test_truncated_estimate_equals_scipy_logsumexp(ou_uncontrolled):
    cfg = SimulationConfig(dt=0.01, horizon=2.0, n_paths=10_000, seed=11, x0=[2.0])
    ens = simulate(ou_uncontrolled, None, cfg)
    est = estimate_rsc_cost(ens, truncation_L=1.5)
    S, T = ens.cost_integral, cfg.horizon
    keep = S <= 1.5 * T
    assert 0 < (~keep).sum() < S.size
    plain = estimate_rsc_cost(ens)
    assert (est.estimate, est.stderr) == (plain.estimate, plain.stderr)
    trunc = (scipy_logsumexp(S[keep]) - np.log(S.size)) / T
    tail = float(np.exp(scipy_logsumexp(S[~keep]) - scipy_logsumexp(S)))
    assert _bits(est.truncated_estimate) == _bits(trunc)
    assert _bits(est.tail_mass) == _bits(tail)


def test_monte_carlo_path_never_imports_scipy(tmp_path):
    # the test process already holds scipy, so a fresh interpreter checks the rule
    config = {
        "model": {
            "name": "ou_lq",
            "params": {"a": -1.0, "sigma": 1.0, "q": 0.75, "c": 0.0, "u_max": 0.0, "n_controls": 1},
        },
        "simulation": {"dt": 0.1, "horizon": 1.0, "n_paths": 64, "x0": [1.0], "truncation_L": 0.5},
        "verify": {"n_spaces": 20},
    }
    (tmp_path / "mc.yaml").write_text(json.dumps(config))  # JSON is YAML
    code = """
import sys
import numpy as np
import ersc.cli
from ersc.model import builtin_ou_lq
from ersc.simulate import SimulationConfig, estimate_rsc_cost, simulate
from ersc.variational import FiniteNoiseSpace, gibbs_identity_check
m = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=64, seed=1, x0=[1.0])
ens = simulate(m, None, cfg)
est = estimate_rsc_cost(ens, truncation_L=float(np.median(ens.cost_integral)) / cfg.horizon)
assert 0.0 < est.tail_mass < 1.0
assert gibbs_identity_check(FiniteNoiseSpace([0.25, 0.75]), [1.0, -2.0])[2] < 1e-12
for command in ("simulate", "verify-var"):
    assert ersc.cli.main([command, "--config", "mc.yaml", "--out", command]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(ersc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_mem_deterministic_contraction(grid_241):
    m = builtin_ou_lq(a=-1, sigma=1e-3, q=0.0, c=0.0, u_max=0.0, n_controls=1)
    cfg = SimulationConfig(
        dt=0.01, horizon=20.0, n_paths=50, seed=18, x0=[0.0], record_mem=True, mem_stride=2
    )
    ens = simulate(m, None, cfg, grid=grid_241)
    rep = mem_tightness_report(ens, [0.5, 1.0, 2.0])
    assert rep["mass_beyond"][0] <= 1e-12  # all occupation inside radius 0.5
    assert np.isclose(ens.mem_masses.sum(), 1.0, atol=1e-12)


def test_discretization_bias_richardson(ou_uncontrolled, grid_241):
    # bias of the twisted estimator is ~linear in dt: extrapolating from two
    # step sizes predicts the third within a few standard errors
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    ests, ses = [], []
    for dt in (8e-3, 4e-3, 2e-3):
        cfg = SimulationConfig(dt=dt, horizon=8.0, n_paths=4000, seed=19, x0=[0.0])
        e, s = importance_sampled_cost(ou_uncontrolled, None, pair, cfg)
        ests.append(e)
        ses.append(s)
    # linear-in-dt fit through the first two points, checked at the third
    slope = (ests[0] - ests[1]) / (8e-3 - 4e-3)
    predict = ests[1] + slope * (2e-3 - 4e-3)
    assert abs(ests[2] - predict) <= 5 * (ses[2] + ses[1] + ses[0])


@pytest.mark.parametrize(
    "radii, counts, trailing",
    [
        ([6.0], [241], ()),
        ([6.0], [241], (1,)),  # the (n, d) gradient field of a 1D grid
        ([2.0], [7], (3,)),
        ([1.5, 2.0], [7, 9], ()),  # scipy's compiled 2D path
        ([1.5, 2.0], [7, 9], (2,)),
        ([1.0, 2.0, 3.0], [5, 6, 7], ()),
        ([1.0, 2.0, 3.0], [5, 6, 7], (3,)),
    ],
)
def test_grid_interpolator_equals_scipy_bit_for_bit(radii, counts, trailing):
    # scipy is the oracle: same cell, same corner order, same weight products
    g = build_grid(radii, counts)
    rng = np.random.default_rng(len(counts) * 10 + len(trailing))
    values = rng.standard_normal((g.n_nodes,) + trailing)
    values[: g.n_nodes // 3] = -0.0  # scipy's sum from 0.0 gives these +0.0
    oracle = RegularGridInterpolator(
        g.axes, values.reshape(g.shape + trailing), method="linear", bounds_error=False,
        fill_value=None,
    )
    nodes = g.coords()
    upper = nodes.copy()
    upper[:, -1] = g.radii[-1]  # on the upper face of the last axis
    inside = rng.uniform(-1.0, 1.0, (5000, g.dim)) * g.radii
    outside = rng.uniform(1.05, 2.0, (500, g.dim)) * g.radii * rng.choice([-1, 1], (500, g.dim))
    interp = grid_interpolator(g, values)

    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    for x in (inside, nodes, upper, inside[:0]):
        assert same_bits(interp(x), oracle(x))
        assert interp(x).shape == (x.shape[0],) + trailing
    assert same_bits(interp(outside), oracle(np.clip(outside, -g.radii, g.radii)))
    assert np.array_equal(interp(nodes), values)
    # a NaN coordinate reads NaN, inside the box or out of it, without a warning
    nan = np.concatenate([inside[:40], outside[:40]])
    nan[::3, 0] = np.nan
    nan[1::4, -1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = interp(nan)
    with np.errstate(invalid="ignore"):
        want = oracle(np.clip(nan, -g.radii, g.radii))
    assert np.isnan(want).any() and not np.isnan(want).all()
    assert same_bits(got, want)


def test_rep_check_batched_points_match_single_point_calls(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    cfg = SimulationConfig(dt=1e-2, horizon=3.0, n_paths=200, seed=23, x0=[0.0])
    points = [[2.0], [0.5], [-1.6]]
    args = (ou_uncontrolled, pol, pair.vector, pair.value, 1.0)
    kw = dict(cfg=cfg, grid=grid_241, twist_log_psi=np.log(pair.vector))
    together = check_stochastic_representation(*args, points, **kw)
    for pt, row in zip(points, together):
        alone = check_stochastic_representation(*args, [pt], **kw)[0]
        for key in ("ratio", "stderr", "nonhit"):
            assert row[key] == alone[key], key
    assert together[1]["ratio"] == 1.0  # inside R: no paths run


def test_stepper_evaluates_only_moving_paths(ou_uncontrolled):
    # a counting cost sees one row per moving path-step: a path moves until
    # its hit, or through every step when it never hits
    R = 1.0
    seen = []

    def cost(x, u):
        x = np.asarray(x, dtype=float)
        assert np.all(np.linalg.norm(x, axis=-1) > R)  # no frozen row
        seen.append(x.shape[0])
        return ou_uncontrolled.cost(x, u)

    counted = dataclasses.replace(ou_uncontrolled, cost=cost)
    cfg = SimulationConfig(dt=1e-2, horizon=1.0, n_paths=300, seed=4, x0=[0.0])
    starts = np.array([[2.0], [-3.0]])
    paths = _euler_maruyama(counted, lambda x: np.zeros(1), cfg, starts, stop_radius=R)
    hit = paths.hit
    assert 0 < np.isnan(hit).sum() < hit.size
    steps = np.where(np.isnan(hit), cfg.n_steps, np.rint(hit / cfg.dt))
    assert sum(seen) == int(steps.sum())
    assert sum(seen) < hit.size * len(seen)
    # each start's block reproduces the single-start run bit for bit
    for b, x0 in enumerate(starts):
        alone = _euler_maruyama(ou_uncontrolled, lambda x: np.zeros(1), cfg, x0, stop_radius=R)
        mine = slice(b * cfg.n_paths, (b + 1) * cfg.n_paths)
        for got, want in zip(paths, alone):
            if want is not None:
                assert np.array_equal(got[mine], want, equal_nan=True)


def test_one_control_markov_policy_makes_no_lookup(ou_uncontrolled, grid_241, monkeypatch):
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=64, seed=9, x0=[0.5])
    plain = simulate(ou_uncontrolled, None, cfg, grid=grid_241).digest()

    def no_lookup(self, x):
        raise AssertionError("nearest_node called for a one-control policy")

    monkeypatch.setattr(Grid, "nearest_node", no_lookup)
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    assert simulate(ou_uncontrolled, pol, cfg, grid=grid_241).digest() == plain


def test_policy_is_none_or_a_markov_policy(ou_uncontrolled, grid_241):
    cfg = SimulationConfig(dt=0.01, horizon=0.1, n_paths=8, seed=9, x0=[0.5])
    u = ou_uncontrolled.controls.points[0]
    pair = policy_value(ou_uncontrolled, grid_241, MarkovPolicy.constant(0, grid_241.n_nodes))
    V = np.ones(grid_241.n_nodes)
    for policy in (lambda x: u, u, [0.0], 0):
        with pytest.raises(TypeError, match="None or a MarkovPolicy"):
            simulate(ou_uncontrolled, policy, cfg, grid=grid_241)
        with pytest.raises(TypeError, match="None or a MarkovPolicy"):
            importance_sampled_cost(ou_uncontrolled, policy, pair, cfg)
        with pytest.raises(TypeError, match="None or a MarkovPolicy"):
            check_stochastic_representation(
                ou_uncontrolled, policy, V, 0.0, 1.0, [[2.0]], cfg, grid_241
            )


def test_auxiliary_policy_reads_as_its_field(ou_uncontrolled):
    from ersc.game import sup_w_fixed_policy

    g = build_grid([6.0], [121])
    w_policy = sup_w_fixed_policy(
        ou_uncontrolled, g, MarkovPolicy.constant(0, g.n_nodes), 0.0, l=1.0
    ).w_policy
    assert np.abs(w_policy.field).max() > 0.1
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=64, seed=9, x0=[0.5])
    via_policy = simulate(ou_uncontrolled, None, cfg, aux=w_policy, grid=g).digest()
    assert via_policy == simulate(ou_uncontrolled, None, cfg, aux=w_policy.field, grid=g).digest()
    assert via_policy != simulate(ou_uncontrolled, None, cfg).digest()


def test_representation_radius_must_be_finite_and_positive(ou_uncontrolled, grid_241):
    cfg = SimulationConfig(dt=0.01, horizon=0.1, n_paths=8, seed=9, x0=[0.5])
    V = np.ones(grid_241.n_nodes)
    for R in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match="R must be finite and positive"):
            check_stochastic_representation(ou_uncontrolled, None, V, 0.0, R, [[2.0]], cfg, grid_241)


@pytest.mark.parametrize("points", [[[2.0], [np.nan], [-2.0]], [[np.nan]], [[np.inf], [0.5]]])
def test_representation_test_points_must_be_finite(ou_uncontrolled, grid_241, points):
    def cost(x, u):
        raise AssertionError("simulated before the test points were checked")

    m = dataclasses.replace(ou_uncontrolled, cost=cost)
    cfg = SimulationConfig(dt=0.01, horizon=0.1, n_paths=8, seed=9, x0=[0.5])
    V = np.ones(grid_241.n_nodes)
    bad = [pt for pt in points if not np.isfinite(pt).all()]
    with pytest.raises(ValueError, match=re.escape(f"test points must be finite, got {bad}")):
        check_stochastic_representation(m, None, V, 0.0, 1.0, points, cfg, grid_241)


def consumed_blocks(monkeypatch, model, cfg, starts, **kwargs):
    """The normal blocks the stepper hands to Sigma, one per step."""
    seen = []

    def record(S, xi):
        seen.append(xi.copy())
        return sigma_times(S, xi)

    monkeypatch.setattr(simulate_module, "sigma_times", record)
    _euler_maruyama(model, lambda x: np.zeros(1), cfg, starts, **kwargs)
    return seen


@pytest.mark.parametrize(
    "n, d, antithetic, n_starts",
    [
        (64, 1, False, 1),  # inline
        (_PRODUCER_MIN_NORMALS - 1, 1, False, 1),  # inline, just below the gate
        (_PRODUCER_MIN_NORMALS, 1, False, 1),  # producer process
        (5000, 1, False, 1),
        (33, 2, False, 1),
        (2100, 2, False, 1),  # 4200 normals: producer process
        (65, 1, True, 1),  # antithetic, odd n
        (4097, 1, True, 1),
        (40, 1, False, 3),  # batched starts: N > n
        (4100, 1, False, 2),
    ],
)
def test_stepper_blocks_equal_step_normals(monkeypatch, n, d, antithetic, n_starts):
    assert_stepper_blocks(monkeypatch, n, d, antithetic, n_starts)


def assert_stepper_blocks(monkeypatch, n, d, antithetic, n_starts):
    # twenty steps: the producer's ring of slots is reused more than twice
    cfg = SimulationConfig(dt=0.1, horizon=2.0, n_paths=n, seed=17, antithetic=antithetic)
    assert cfg.n_steps > 2 * simulate_module._RING_SLOTS
    starts = np.zeros((n_starts, d))
    seen = consumed_blocks(monkeypatch, brownian_model(dim=d), cfg, starts)
    assert len(seen) == cfg.n_steps
    for k, xi in enumerate(seen):
        want = np.tile(_step_normals(17, k, n, d, antithetic), (n_starts, 1))
        assert np.array_equal(xi, want), k


def test_frozen_and_dead_paths_read_their_rows_of_the_block(monkeypatch, ou_uncontrolled):
    assert_frozen_rows(monkeypatch, ou_uncontrolled)


def assert_frozen_rows(monkeypatch, model):
    # after compaction each moving path still reads its own row of the block;
    # 5000 paths: the blocks come from the producer process
    cfg = SimulationConfig(dt=0.1, horizon=3.0, n_paths=5000, seed=6)
    assert cfg.n_paths >= _PRODUCER_MIN_NORMALS
    assert cfg.n_steps > 2 * simulate_module._RING_SLOTS
    starts = np.array([[1.5]])
    paths = _euler_maruyama(model, lambda x: np.zeros(1), cfg, starts, stop_radius=1.0)
    seen = consumed_blocks(monkeypatch, model, cfg, starts, stop_radius=1.0)
    steps = np.where(np.isnan(paths.hit), cfg.n_steps, np.rint(paths.hit / cfg.dt))
    for k, xi in enumerate(seen):
        rows = np.flatnonzero(steps > k)
        assert np.array_equal(xi, _step_normals(6, k, cfg.n_paths, 1, False)[rows]), k


def count_forks(monkeypatch):
    """Record every ``os.fork`` the program makes (in the parent) and fork as usual."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_producer_process_only_for_large_runs(monkeypatch, ou_uncontrolled):
    forks = count_forks(monkeypatch)
    n = _PRODUCER_MIN_NORMALS
    small = SimulationConfig(dt=0.1, horizon=1.0, n_paths=n - 1, seed=1)
    simulate(ou_uncontrolled, None, small)
    assert forks == []
    large = dataclasses.replace(small, n_paths=n)
    simulate(ou_uncontrolled, None, large)
    assert len(forks) == 1
    # a 2-D block of n / 2 rows holds n normals
    simulate(brownian_model(dim=2), None, dataclasses.replace(small, n_paths=n // 2, x0=[0, 0]))
    assert len(forks) == 2
    # runs whose paths freeze at a hit use it too, one process per run
    _euler_maruyama(ou_uncontrolled, lambda x: np.zeros(1), large, np.array([[2.0]]), stop_radius=1.0)
    assert len(forks) == 3


def test_failed_or_missing_fork_draws_inline(monkeypatch, ou_uncontrolled):
    cfg = SimulationConfig(dt=0.01, horizon=0.3, n_paths=_PRODUCER_MIN_NORMALS, seed=12)
    want = simulate(ou_uncontrolled, None, cfg).digest()

    def fails():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fails)
    assert simulate(ou_uncontrolled, None, cfg).digest() == want
    monkeypatch.delattr(os, "fork")
    assert simulate(ou_uncontrolled, None, cfg).digest() == want


def bounded(call, timeout=60.0):
    """Run ``call`` on a helper thread; fail instead of hanging if it does not end."""
    out = {}

    def target():
        try:
            out["value"] = call()
        except Exception as exc:
            out["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "the call did not return: producer not joined?"
    return out


def test_producer_is_joined_on_early_break():
    # every path turns non-finite at the first step, and the loop breaks at
    # once; the slow step lets the producer fill its ring and wait first
    calls = []

    def drift(x, u):
        calls.append(x.shape[0])
        time.sleep(0.05)
        return np.full(np.shape(x), np.inf)

    m = dataclasses.replace(brownian_model(), drift=drift)
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=5000, seed=2)

    def run():
        with np.errstate(invalid="ignore"):
            return simulate(m, None, cfg)

    ens = bounded(run)["value"]
    assert calls == [5000] and ens.excluded == 5000


def test_producer_is_joined_when_a_callback_raises(ou_uncontrolled):
    calls = []

    def cost(x, u):
        calls.append(1)
        if len(calls) == 4:
            time.sleep(0.05)
            raise RuntimeError("cost failed at step 3")
        return ou_uncontrolled.cost(x, u)

    m = dataclasses.replace(ou_uncontrolled, cost=cost)
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=5000, seed=2)
    out = bounded(lambda: simulate(m, None, cfg))
    assert str(out["error"]) == "cost failed at step 3"


def test_producer_error_reaches_the_caller(monkeypatch, ou_uncontrolled):
    drawer = simulate_module._block_drawer

    def failing(*args):
        draw = drawer(*args)

        def at(step, out):
            if step == 5:
                raise FloatingPointError("draw failed at step 5")
            return draw(step, out)

        return at

    forks = count_forks(monkeypatch)
    monkeypatch.setattr(simulate_module, "_block_drawer", failing)
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=5000, seed=2)
    with pytest.raises(FloatingPointError, match="^draw failed at step 5$"):
        simulate(ou_uncontrolled, None, cfg)
    assert len(forks) == 1  # raised in the producer process, not inline


def test_producer_that_dies_is_an_error(monkeypatch, ou_uncontrolled):
    drawer = simulate_module._block_drawer

    def dying(*args):
        draw = drawer(*args)

        def at(step, out):
            if step == 5:
                os._exit(3)  # no exception to send: the caller sees EOF
            return draw(step, out)

        return at

    monkeypatch.setattr(simulate_module, "_block_drawer", dying)
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=5000, seed=2)
    with pytest.raises(RuntimeError, match="producer process exited early"):
        simulate(ou_uncontrolled, None, cfg)


def test_concurrent_prefetched_runs_under_fast_thread_switching(monkeypatch, ou_uncontrolled):
    # three runs at once, each forking its own producer from its own thread,
    # switching every 10 us; a block handed over out of order or twice would
    # change a digest
    cfg = SimulationConfig(dt=0.01, horizon=0.2, n_paths=4096, seed=8, antithetic=True)
    want = simulate(ou_uncontrolled, None, cfg).digest()
    forks = count_forks(monkeypatch)
    outs = [{} for _ in range(3)]

    def run(out):
        out["digest"] = simulate(ou_uncontrolled, None, cfg).digest()

    runners = [threading.Thread(target=run, args=(out,), daemon=True) for out in outs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(60.0)
            assert not runner.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [out.get("digest") for out in outs] == [want] * 3
    assert len(forks) == 3


def hook_draws(monkeypatch, in_parent=None, in_child=None):
    """Call ``in_parent(step)`` before each draw of this process, ``in_child(step)`` in the producer."""
    drawer = simulate_module._block_drawer
    parent = os.getpid()

    def hooked(*args):
        draw = drawer(*args)

        def at(step, out):
            hook = in_parent if os.getpid() == parent else in_child
            if hook is not None:
                hook(step)
            return draw(step, out)

        return at

    monkeypatch.setattr(simulate_module, "_block_drawer", hooked)


def slow_producer(monkeypatch, delay=2e-3):
    """Slow every draw of the producer process; return the steps this process draws."""
    drawn = []
    hook_draws(monkeypatch, drawn.append, lambda step: time.sleep(delay))
    return drawn


@pytest.mark.parametrize(
    "n, d, antithetic, n_starts",
    [
        (5000, 1, False, 1),
        (2100, 2, False, 1),
        (4097, 1, True, 1),  # antithetic, odd n
        (4100, 1, False, 2),  # batched starts: N > n
    ],
)
def test_blocks_the_stepper_draws_itself_equal_step_normals(monkeypatch, n, d, antithetic, n_starts):
    assert n * d >= _PRODUCER_MIN_NORMALS
    drawn = slow_producer(monkeypatch)
    assert_stepper_blocks(monkeypatch, n, d, antithetic, n_starts)
    # only blocks past the first ring, each at most once
    assert drawn and min(drawn) >= simulate_module._RING_SLOTS
    assert len(set(drawn)) == len(drawn)


def test_frozen_rows_of_blocks_the_stepper_draws_itself(monkeypatch, ou_uncontrolled):
    drawn = slow_producer(monkeypatch)
    assert_frozen_rows(monkeypatch, ou_uncontrolled)
    assert drawn


def test_stepper_bound_run_draws_no_block_itself(monkeypatch):
    # a producer ahead of a slow stepper always has the next block ready; only
    # the first read, right after the fork, may find the pipe empty
    def drift(x, u):
        time.sleep(2e-3)
        return np.zeros(np.shape(x))

    drawn = slow_producer(monkeypatch, delay=0.0)
    m = dataclasses.replace(brownian_model(), drift=drift)
    cfg = SimulationConfig(dt=0.1, horizon=4.0, n_paths=5000, seed=3)
    assert cfg.n_steps == 40
    simulate(m, None, cfg)
    assert len(drawn) <= 1


def past_the_ring(fault):
    """``fault`` for the blocks from ``_RING_SLOTS`` on, which the stepper may also draw."""
    return lambda step: step >= simulate_module._RING_SLOTS and fault()


def test_producer_error_past_the_ring_reaches_the_caller_whole(monkeypatch, ou_uncontrolled):
    # the pickled exception is larger than a pipe buffer, and arrives on the
    # pipe the stepper otherwise reads without blocking
    message = "x" * 200_000

    def fail():
        raise FloatingPointError(message)

    hook_draws(monkeypatch, in_child=past_the_ring(fail))
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=5000, seed=2)
    with pytest.raises(FloatingPointError) as info:
        simulate(ou_uncontrolled, None, cfg)
    assert str(info.value) == message


def test_producer_that_dies_past_the_ring_is_an_error(monkeypatch, ou_uncontrolled):
    hook_draws(monkeypatch, in_child=past_the_ring(lambda: os._exit(3)))
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=5000, seed=2)
    with pytest.raises(RuntimeError, match="producer process exited early"):
        simulate(ou_uncontrolled, None, cfg)


def test_stepper_draw_error_kills_the_producer(monkeypatch, ou_uncontrolled):
    def fail(step):
        raise FloatingPointError(f"draw failed at step {step}")

    forks = count_forks(monkeypatch)
    hook_draws(monkeypatch, fail, lambda step: time.sleep(2e-3))
    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=5000, seed=2)
    out = bounded(lambda: simulate(ou_uncontrolled, None, cfg))
    step = int(re.fullmatch(r"draw failed at step (\d+)", str(out["error"]))[1])
    assert step >= simulate_module._RING_SLOTS
    assert len(forks) == 1
