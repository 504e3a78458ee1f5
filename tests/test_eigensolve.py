import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ersc.discretize import OperatorKernel, build_grid
from ersc.eigensolve import (
    EigenSolveError,
    bracket_floor,
    foster_lyapunov_certificate,
    policy_value,
    principal_eigenpair,
)
from ersc.game import average_cost_solve
from ersc.hjb import MarkovPolicy, solve_hjb

GOLDEN = (-1.0 + np.sqrt(5.0)) / 2.0  # root of l^2 + l - 1 = 0

TWO_STATE = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_two_state_zero_cost():
    pair = principal_eigenpair(TWO_STATE, np.zeros(2), tol=1e-12)
    assert abs(pair.value) <= 1e-12
    assert np.allclose(pair.vector, 1.0, atol=1e-10)


def test_two_state_golden_ratio():
    pair = principal_eigenpair(TWO_STATE, np.array([0.0, 1.0]), tol=1e-12)
    assert abs(pair.value - GOLDEN) <= 1e-11
    assert pair.bracket_width <= 1e-12
    assert pair.cw_lower <= pair.value <= pair.cw_upper
    assert np.all(pair.vector > 0)
    assert pair.vector[0] == 1.0


def test_reducible_rejected():
    Q = sp.csr_matrix(np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(EigenSolveError, match="reducible"):
        principal_eigenpair(Q, np.zeros(3))


def test_nonfinite_cost_rejected():
    with pytest.raises(EigenSolveError):
        principal_eigenpair(TWO_STATE, np.array([0.0, np.inf]))


def test_constant_shift_equivariance():
    rng = np.random.default_rng(5)
    r = rng.uniform(0, 2, size=2)
    for c in rng.uniform(-3, 3, size=5):
        base = principal_eigenpair(TWO_STATE, r, tol=1e-12)
        shifted = principal_eigenpair(TWO_STATE, r + c, tol=1e-12)
        assert abs(shifted.value - base.value - c) <= 1e-10
        assert np.allclose(shifted.vector, base.vector, atol=1e-9)


def test_perron_monotonicity_in_cost():
    rng = np.random.default_rng(6)
    n = 12
    for _ in range(20):
        rates = rng.uniform(0.1, 2.0, size=(n, n))
        np.fill_diagonal(rates, 0.0)
        Q = rates - np.diag(rates.sum(axis=1))
        r = rng.uniform(0, 1, size=n)
        bump = r + rng.uniform(0, 1, size=n)
        lo = principal_eigenpair(sp.csr_matrix(Q), r, tol=1e-11)
        hi = principal_eigenpair(sp.csr_matrix(Q), bump, tol=1e-11)
        assert hi.value >= lo.value - 1e-10


def test_ou_benchmark_value_and_eigenfunction(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    assert abs(pair.value - 0.25) <= 2e-3
    # eigenfunction matches exp(x^2/4) after origin normalization
    x = grid_241.coords().ravel()
    inner = np.abs(x) <= 3.0
    exact = np.exp(0.25 * x**2)
    rel = np.abs(pair.vector[inner] - exact[inner]) / exact[inner]
    assert np.max(rel) <= 1e-2
    # symmetric model: psi(x) = psi(-x)
    assert np.allclose(pair.vector, pair.vector[::-1], rtol=1e-8, atol=1e-10)


def test_policy_value_zero_cost(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(
        ou_uncontrolled, grid_241, pol, cost_fn=lambda x, u: np.zeros(np.shape(x)[:-1])
    )
    assert abs(pair.value) <= 1e-10
    assert np.allclose(pair.vector, 1.0, atol=1e-8)


def test_policy_value_kappa_scaling(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    kappa = 0.5
    scaled = policy_value(ou_uncontrolled, grid_241, pol, cost_scale=kappa, tol=1e-11)
    # same as the eigenpair of Q + kappa diag(r) by definition
    Q = OperatorKernel(ou_uncontrolled, grid_241).assemble_policy(pol)
    r = kappa * ou_uncontrolled.cost(grid_241.coords(), ou_uncontrolled.controls.points[0])
    direct = principal_eigenpair(Q, r, tol=1e-11, origin_node=grid_241.origin_node)
    assert abs(scaled.value - direct.value) <= 1e-10


def test_collatz_wielandt_bracket_encloses(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-8)
    assert pair.cw_lower <= pair.value <= pair.cw_upper
    assert pair.bracket_width <= 1e-8


def test_foster_certificate_constant_h():
    # constant h shifts the spectrum: lambda = scale, W = 1
    pair = principal_eigenpair(TWO_STATE, 0.0625 * np.ones(2), tol=1e-12)
    assert abs(pair.value - 0.0625) <= 1e-11
    assert np.allclose(pair.vector, 1.0, atol=1e-10)


def test_foster_certificate_ou(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    h = lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)
    cert = foster_lyapunov_certificate(
        ou_uncontrolled, grid_241, pol, h, scale=0.0625, core_radius=2.0
    )
    assert np.isfinite(cert.eigenpair.value)
    assert np.all(cert.eigenpair.vector > 0)
    assert cert.drift_margin > 0  # inward drift outside the core ball


def test_foster_certificate_zero_scale(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    cert = foster_lyapunov_certificate(
        ou_uncontrolled, grid_241, pol, lambda x, u: 1.0 + 0.0 * np.sum(x, axis=-1), scale=0.0
    )
    assert abs(cert.eigenpair.value) <= 1e-10
    assert np.allclose(cert.eigenpair.vector, 1.0, atol=1e-8)


def test_foster_certificate_core_covering_grid_raises(ou_uncontrolled, grid_241, monkeypatch):
    def no_factorization(*args, **kwargs):
        raise AssertionError("factorized before checking the core ball")

    monkeypatch.setattr(spla, "splu", no_factorization)
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    h = lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)
    with pytest.raises(ValueError, match="covers every node"):
        foster_lyapunov_certificate(ou_uncontrolled, grid_241, pol, h, scale=0.0625, core_radius=6.0)


def _ou_chain(model, grid):
    kernel = OperatorKernel(model, grid)
    Q = kernel.assemble_policy(MarkovPolicy.constant(0, grid.n_nodes))
    return Q, model.cost_table(kernel.coords)[0]


def test_tolerance_below_rounding_floor_raises_at_once(ou_uncontrolled, grid_241, monkeypatch):
    Q, r = _ou_chain(ou_uncontrolled, grid_241)
    floor = bracket_floor(Q, r)
    row_sums = np.abs(Q.toarray() + np.diag(r)).sum(axis=1)
    assert np.isclose(floor, 8.0 * np.finfo(float).eps * row_sums.max(), rtol=1e-12)

    def no_factorization(*args, **kwargs):
        raise AssertionError("factorized before checking the tolerance")

    monkeypatch.setattr(spla, "splu", no_factorization)
    named = re.escape(f"rounding floor {floor:g}")
    with pytest.raises(EigenSolveError, match=named):
        principal_eigenpair(Q, r, tol=0.5 * floor)


def test_tolerance_not_finite_and_positive_raises_before_factorization(
    ou_uncontrolled, lq_model, grid_241, monkeypatch
):
    Q, r = _ou_chain(ou_uncontrolled, grid_241)

    def no_factorization(*args, **kwargs):
        raise AssertionError("factorized before checking the tolerance")

    monkeypatch.setattr(spla, "splu", no_factorization)
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    for tol in (np.nan, np.inf, -1.0, 0.0):
        for solve in (
            lambda: principal_eigenpair(Q, r, tol=tol),
            lambda: policy_value(ou_uncontrolled, grid_241, pol, tol=tol),
            lambda: solve_hjb(lq_model, grid_241, tol=tol),
            lambda: average_cost_solve(lq_model, grid_241, tol=tol),
        ):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                solve()


def test_small_kappa_lq_bracket_is_edge_difference_ratio(lq_model):
    # kappa = 0.01 on 481 nodes puts the bracket width near its rounding floor
    kappa, grid = 0.01, build_grid([6.0], [481])
    sol = solve_hjb(lq_model, grid, tol=1e-11, cost_scale=kappa)
    # Riccati: k solves (1/2 - 1/(4 kappa)) k^2 - k + kappa/2 = 0, value k/(2 kappa)
    k = kappa / (1.0 + np.sqrt(1.0 - 2.0 * (0.5 - 0.25 / kappa) * kappa))
    assert abs(sol.value / kappa - k / (2.0 * kappa)) <= 1e-3
    # the bracket is min/max of the row ratios of OperatorKernel.apply
    kernel = OperatorKernel(lq_model, grid)
    V, pol = sol.V, sol.policy
    rows = kernel.apply(*map(pol.pick, kernel.rates()), V)
    ratios = (rows + pol.pick(sol.cost_table) * V) / V
    assert abs(sol.eigenpair.cw_lower - ratios.min()) <= 1e-15
    assert abs(sol.eigenpair.cw_upper - ratios.max()) <= 1e-15


def test_w_network_converges_below_old_stall(w_network):
    # COLAMD with partial pivoting stalled near 5.8e-10 on this chain and
    # MMD with pivoting near 9e-12; the no-pivot M-matrix elimination
    # reaches 2.6e-13 (floor 2.8e-13) in 65 iterations
    grid = build_grid([4.0] * 3, [15] * 3)
    pol = MarkovPolicy.constant(0, grid.n_nodes)
    loose = policy_value(w_network, grid, pol, tol=1e-9)
    tight = policy_value(w_network, grid, pol, tol=1e-12)
    assert tight.bracket_width <= 1e-12
    assert loose.cw_lower <= tight.cw_lower <= tight.cw_upper <= loose.cw_upper


def test_failed_factorization_backs_off(ou_uncontrolled, grid_241, monkeypatch):
    Q, r = _ou_chain(ou_uncontrolled, grid_241)
    origin = grid_241.origin_node
    plain = principal_eigenpair(Q, r, tol=1e-10, origin_node=origin)
    orig, calls = spla.splu, []

    def fail_once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("Factor is exactly singular")
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", fail_once)
    pair = principal_eigenpair(Q, r, tol=1e-10, origin_node=origin)
    assert len(calls) >= 2
    # the retry runs at a larger shift, so the iterates differ in rounding
    # only: both are certified to the same eigenvalue
    assert pair.bracket_width <= 1e-10
    assert max(pair.cw_lower, plain.cw_lower) <= min(pair.cw_upper, plain.cw_upper)
    assert np.allclose(pair.vector, plain.vector, rtol=1e-8, atol=0.0)


def test_start_vector_validated_before_factorization(ou_uncontrolled, grid_241, monkeypatch):
    Q, r = _ou_chain(ou_uncontrolled, grid_241)
    n = grid_241.n_nodes

    def no_factorization(*args, **kwargs):
        raise AssertionError("factorized before checking the start vector")

    monkeypatch.setattr(spla, "splu", no_factorization)
    bad = [np.ones(n - 1), np.ones((n, 1)), np.full(n, np.nan), np.full(n, np.inf)]
    bad += [np.where(np.arange(n) == 7, v, 1.0) for v in (0.0, -1.0)]
    for start in bad:
        with pytest.raises(ValueError):
            principal_eigenpair(Q, r, tol=1e-10, start=start)


def test_start_from_converged_vector(ou_uncontrolled, grid_241):
    Q, r = _ou_chain(ou_uncontrolled, grid_241)
    origin = grid_241.origin_node
    cold = principal_eigenpair(Q, r, tol=1e-10, origin_node=origin)
    warm = principal_eigenpair(Q, r, tol=1e-10, origin_node=origin, start=cold.vector)
    assert warm.iterations <= 2
    assert warm.bracket_width <= 1e-10
    assert warm.cw_lower <= warm.value <= warm.cw_upper
    assert abs(warm.value - cold.value) <= 1e-10
    assert warm.vector[origin] == 1.0


def test_ou_factorization_count(ou_uncontrolled, grid_241, monkeypatch):
    # a 1D factor costs about one solve, so every move pays and the
    # five-solve floor sets the pace: 6 factors, as with a fixed period of five
    Q, r = _ou_chain(ou_uncontrolled, grid_241)
    orig, calls = spla.splu, []

    def spy(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    pair = principal_eigenpair(Q, r, tol=1e-10, origin_node=grid_241.origin_node)
    assert len(calls) <= 6
    assert pair.bracket_width <= 1e-10


def test_refactor_rule_is_deterministic(w_network):
    # the rule reads the factor's fill and the bracket widths, never a clock
    grid = build_grid([4.0] * 3, [11] * 3)
    pol = MarkovPolicy.constant(0, grid.n_nodes)
    a, b = (policy_value(w_network, grid, pol, tol=1e-10) for _ in range(2))
    assert (a.value, a.cw_lower, a.cw_upper, a.iterations) == (
        b.value, b.cw_lower, b.cw_upper, b.iterations
    )
    assert np.array_equal(a.vector, b.vector)
