import itertools
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import ersc
from ersc.discretize import OperatorKernel, build_grid
from ersc.eigensolve import policy_value
from ersc.hjb import (
    HjbError,
    MarkovPolicy,
    check_optimality_condition,
    solve_hjb,
    value_gradient_field,
)
from ersc.model import ControlSet, DiffusionModel, builtin_ou_lq

P_RICCATI = 2.0 - np.sqrt(2.0)  # root of P^2/4 - P + 1/2 = 0
W15_VALUE = 5.699585487809  # W network on 15^3, radius 4, tol 1e-7


def brute_force_value(model, grid, tol=0.0):
    """Exhaustive minimum of the dense Perron value over all precise policies."""
    kernel = OperatorKernel(model, grid, "hybrid")
    n, k = kernel.n, model.controls.n_controls
    mats = []
    for i, u in enumerate(model.controls.points):
        Q = kernel.assemble_policy(MarkovPolicy.constant(i, n)).toarray()
        r = np.asarray(model.cost(kernel.coords, u), dtype=float)
        mats.append((Q, r))
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        A = np.empty((n, n))
        for i, a in enumerate(assign):
            A[i] = mats[a][0][i]
            A[i, i] += mats[a][1][i]
        eigs = np.linalg.eigvals(A)
        best = min(best, float(np.max(eigs.real)))
    return best


def test_single_control_reduces_to_policy_value(ou_uncontrolled, grid_241):
    sol = solve_hjb(ou_uncontrolled, grid_241, tol=1e-9)
    pair = policy_value(
        ou_uncontrolled, grid_241, MarkovPolicy.constant(0, grid_241.n_nodes), tol=1e-10
    )
    assert abs(sol.value - pair.value) <= 1e-9
    assert sol.residual <= 1e-9


def test_lq_benchmark(lq_model, grid_241):
    sol = solve_hjb(lq_model, grid_241, tol=1e-9)
    assert abs(sol.value - P_RICCATI / 2.0) <= 1e-2
    # induced policy tracks u(x) = -(P/c) x within one control-grid step inside
    x = grid_241.coords().ravel()
    u = sol.policy.control_values(lq_model.controls.points).ravel()
    step = 10.0 / 200.0
    inner = np.abs(x) <= 3.0
    assert np.max(np.abs(u[inner] + (P_RICCATI / 2.0) * x[inner])) <= step
    # history is non-increasing
    assert all(b <= a + 1e-12 for a, b in zip(sol.history, sol.history[1:]))


def test_brute_force_small_instances():
    instances = [
        (builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=0.5, u_max=2.0, n_controls=2), [2.0], [7]),
        (builtin_ou_lq(a=-0.5, sigma=0.8, q=0.6, c=0.2, u_max=1.5, n_controls=3), [1.5], [6]),
        (builtin_ou_lq(a=-1.2, sigma=1.1, q=0.9, c=0.4, u_max=1.0, n_controls=2), [2.5], [10]),
    ]
    for model, radii, counts in instances:
        grid = build_grid(radii, counts)
        sol = solve_hjb(model, grid, tol=1e-12)
        oracle = brute_force_value(model, grid)
        assert abs(sol.value - oracle) <= 1e-8


def _cheap_control_cost(x, u):
    x = np.asarray(x, dtype=float)
    u = np.broadcast_to(np.asarray(u, dtype=float), np.shape(x))
    return 0.5 * np.sum(x * x, axis=-1) + 0.25 * np.sum(u * u, axis=-1)


def test_optimality_condition_at_solution(lq_model, grid_241):
    # the check scores rows with the running cost the solve used, so cost
    # overrides and scalings are certified against their own HJB equation
    for cost_fn, cost_scale in ((None, 1.0), (None, 0.5), (None, 0.1), (_cheap_control_cost, 1.0)):
        sol = solve_hjb(lq_model, grid_241, tol=1e-9, cost_fn=cost_fn, cost_scale=cost_scale)
        gaps, ok = check_optimality_condition(sol, sol.policy, tol=1e-8)
        assert ok, (cost_fn, cost_scale, np.max(gaps))
        assert np.max(gaps) <= 1e-8

        # corrupting the policy at one interior node produces a strictly positive gap
        bad = sol.policy.assignment.copy()
        node = grid_241.n_nodes // 4
        bad[node] = (bad[node] + 37) % lq_model.controls.n_controls
        gaps, ok = check_optimality_condition(sol, MarkovPolicy(bad), tol=1e-8)
        assert not ok
        assert gaps[node] > 1e-6


def test_optimality_condition_relaxed_tie(lq_model, grid_241):
    # mixing a control with itself is a tie by construction; gap stays ~0
    sol = solve_hjb(lq_model, grid_241, tol=1e-9)
    n, k = grid_241.n_nodes, lq_model.controls.n_controls
    W = np.zeros((n, k))
    W[np.arange(n), sol.policy.assignment] = 1.0
    gaps, ok = check_optimality_condition(sol, MarkovPolicy(W), tol=1e-8)
    assert ok


def test_hjb_below_random_policies(lq_model, grid_241):
    sol = solve_hjb(lq_model, grid_241, tol=1e-9)
    rng = np.random.default_rng(11)
    # random policies carve metastable wells whose Perron gap can be tiny, so
    # ask for a bracket commensurate with that; the optimality margin is huge
    for _ in range(50):
        assign = rng.integers(lq_model.controls.n_controls, size=grid_241.n_nodes)
        val = policy_value(
            lq_model, grid_241, MarkovPolicy(assign), tol=1e-5, max_iter=2000
        ).value
        assert sol.value <= val + 1e-5


def test_restart_stability():
    # fixed point independent of the initial policy (uniqueness surrogate)
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=2.0, u_max=4.0, n_controls=21)
    grid = build_grid([4.0], [61])
    rng = np.random.default_rng(2)
    ref = solve_hjb(model, grid, tol=1e-10)
    for _ in range(20):
        start = MarkovPolicy(rng.integers(21, size=grid.n_nodes))
        sol = solve_hjb(model, grid, tol=1e-10, initial_policy=start)
        assert abs(sol.value - ref.value) <= 1e-9
        assert np.max(np.abs(sol.V - ref.V) / ref.V) <= 1e-7


def test_negative_control_index_raises():
    # a negative index wrapped to the last control: policy_value of index -1
    # on a 3-control LQ model returned control 2's value
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=1.0, u_max=2.0, n_controls=3)
    g = build_grid([2.0], [21])
    with pytest.raises(ValueError, match="nonnegative"):
        policy_value(m, g, MarkovPolicy(np.full(g.n_nodes, -1)))
    with pytest.raises(ValueError, match="nonnegative"):
        MarkovPolicy.constant(-1, g.n_nodes)


def test_value_gradient_field_constant():
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.0, c=0.0, u_max=0.0, n_controls=1)
    grid = build_grid([2.0], [41])
    omega = value_gradient_field(np.ones(grid.n_nodes), grid, model=model)
    assert np.max(np.abs(omega)) <= 1e-12


def test_value_gradient_field_gaussian():
    # central differences are exact on the quadratic log of the ansatz
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
    gamma = 0.5
    grid = build_grid([2.0], [41])
    x = grid.coords().ravel()
    V = np.exp(0.5 * gamma * x**2)
    omega = value_gradient_field(V, grid, model=model).ravel()
    assert np.max(np.abs(omega - gamma * x)) <= 1e-12


def test_value_gradient_field_second_order():
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
    errs = []
    for count in (41, 81):
        grid = build_grid([2.0], [count])
        x = grid.coords().ravel()
        V = np.exp(np.sin(x))
        omega = value_gradient_field(V, grid, model=model).ravel()
        errs.append(np.max(np.abs(omega - np.cos(x))))
    assert errs[1] <= errs[0] / 3.0  # O(h^2)


def test_value_gradient_field_odd_symmetry(ou_uncontrolled, grid_241):
    sol = solve_hjb(ou_uncontrolled, grid_241, tol=1e-9)
    omega = value_gradient_field(sol, grid_241).ravel()
    assert np.max(np.abs(omega + omega[::-1])) <= 1e-8


def _spy_splu(monkeypatch):
    orig, calls = spla.splu, []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    return calls


def test_w_network_factorization_count(w_network, monkeypatch):
    # a fixed policy's value on a 3D grid is still a pivot-free MMD LU solve
    calls = _spy_splu(monkeypatch)
    grid = build_grid([4.0] * 3, [15] * 3)
    model_cost = w_network.cost_table(grid.coords())
    pair = policy_value(w_network, grid, MarkovPolicy(np.argmin(model_cost, axis=0)), tol=1e-8)
    assert pair.bracket_width <= 1e-8
    assert 1 <= len(calls) <= 5
    assert set(calls) == {"MMD_AT_PLUS_A"}


def test_w_network_solve_factors_nothing(w_network, monkeypatch):
    # the HJB solve on a 3D grid is LU-free modified policy iteration
    calls = _spy_splu(monkeypatch)
    sol = solve_hjb(w_network, build_grid([4.0] * 3, [15] * 3), tol=1e-7)
    assert calls == []
    assert sol.evaluation == "modified_policy_iteration"
    assert abs(sol.value - W15_VALUE) <= 1e-8
    assert sol.residual <= 1e-7 and sol.eigenpair.bracket_width <= 1e-8


def test_w_network_9_solves(w_network):
    # Howard stalled here at residual 4.61859: its rows of Q^u V lost every
    # digit to cancellation where V spans 20 decades; the uniformized
    # products are subtraction-free.  Value iteration brackets the optimal
    # value in [6.8919243841, 6.8919244799].
    sol = solve_hjb(w_network, build_grid([4.0] * 3, [9] * 3), tol=1e-7)
    assert sol.residual <= 1e-7 and sol.eigenpair.bracket_width <= 1e-8
    assert abs(sol.value - 6.8919244320) <= 5e-8
    assert sol.V.max() / sol.V.min() > 1e20


@pytest.mark.parametrize("count", [11, 15])
def test_w_network_bracket_meets_its_policy_value(w_network, count):
    # [cw_lower, cw_upper] brackets both the optimal value and the returned
    # policy's Perron value, which the LU path certifies independently
    grid = build_grid([4.0] * 3, [count] * 3)
    sol = solve_hjb(w_network, grid, tol=1e-7)
    pair = policy_value(w_network, grid, sol.policy, tol=1e-10)
    assert pair.cw_lower <= sol.eigenpair.cw_upper
    assert sol.eigenpair.cw_lower <= pair.cw_upper


def _separable_lq(dim, a=-1.0, sigma=1.0, q=1.0, c=2.0, u_max=1.0, per_axis=3):
    """builtin_ou_lq on every axis: product controls, separable cost."""
    axis = np.linspace(-u_max, u_max, per_axis)
    points = np.array(list(itertools.product(axis, repeat=dim)))

    def drift(x, u):
        return a * np.asarray(x, dtype=float) + u

    def cost(x, u):
        x = np.asarray(x, dtype=float)
        u = np.broadcast_to(u, x.shape)
        return 0.5 * q * np.sum(x * x, axis=-1) + 0.5 * c * np.sum(u * u, axis=-1)

    return DiffusionModel(dim, drift, lambda x: sigma * np.eye(dim), cost, ControlSet(points))


def test_separable_lq_3d_is_three_times_1d():
    # the 3D generator and cost are the Kronecker sums of the 1D ones, so the
    # discrete value is exactly three times the 1D value
    one = solve_hjb(builtin_ou_lq(-1.0, 1.0, 1.0, 2.0, 1.0, 3), build_grid([3.0], [15]), tol=1e-10)
    three = solve_hjb(_separable_lq(3), build_grid([3.0] * 3, [15] * 3), tol=1e-7)
    assert (one.evaluation, three.evaluation) == ("howard", "modified_policy_iteration")
    slack = 0.5 * three.eigenpair.bracket_width + 1.5 * one.eigenpair.bracket_width
    assert abs(three.value - 3.0 * one.value) <= slack + 1e-12


def test_w_network_history_is_non_increasing(w_network):
    # each greedy step's upper bound is at most the last one in exact
    # arithmetic; each is read to about eps times the largest exit rate
    # (about 1e-13 here)
    sol = solve_hjb(w_network, build_grid([4.0] * 3, [11] * 3), tol=1e-7)
    assert len(sol.history) >= 3
    assert all(b <= a + 1e-12 for a, b in zip(sol.history, sol.history[1:]))
    assert sol.history[-1] == sol.eigenpair.cw_upper


def test_w_network_budget_error(w_network):
    with pytest.raises(HjbError, match=r"residual (\S+) \(tol 1e-07\) after 1 greedy steps") as err:
        solve_hjb(w_network, build_grid([4.0] * 3, [11] * 3), tol=1e-7, max_iter=1)
    assert float(re.search(r"residual (\S+) ", str(err.value)).group(1)) >= 1e-7


def test_w_network_tol_below_rounding_floor_raises(w_network):
    with pytest.raises(HjbError, match=r"rounding floor"):
        solve_hjb(w_network, build_grid([4.0] * 3, [7] * 3), tol=1e-15)


def test_3d_reducible_chain_raises():
    # no diffusion or drift along axis 1: every slice x1 = c is closed, and
    # the slices grow at different rates until V leaves the float range
    m = DiffusionModel(
        3,
        lambda x, u: -np.asarray(x) * np.array([1.0, 0.0, 1.0]),
        lambda x: np.diag([1.0, 0.0, 1.0]),
        lambda x, u: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1),
        ControlSet(np.zeros((1, 1))),
    )
    with np.errstate(invalid="ignore"), pytest.raises(HjbError, match="not irreducible"):
        solve_hjb(m, build_grid([2.0] * 3, [5] * 3), tol=1e-7)


def test_3d_solve_never_imports_sparse_linalg(tmp_path):
    # the test process already holds scipy.sparse.linalg, so a fresh
    # interpreter checks that the LU-free path loads no factorization code
    code = """
import sys
import numpy as np
from ersc.discretize import build_grid
from ersc.hjb import solve_hjb
from ersc.model import builtin_w_network
w = builtin_w_network([1.0] * 3, np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 1.5]]), [-0.5] * 3,
                      [1.0, 2.0, 3.0], 1)
assert solve_hjb(w, build_grid([4.0] * 3, [7] * 3), tol=1e-7).residual <= 1e-7
print(sorted(name for name in sys.modules if name.startswith("scipy.sparse.linalg")))
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


def test_repeated_policy_above_tol_raises(ou_uncontrolled, grid_241):
    # the one control repeats with unchanged value at a residual of about
    # 1e-13; its rounding digits depend on the shift path
    with pytest.raises(HjbError, match=r"residual (\S+) \(tol 1e-14\)") as err:
        solve_hjb(ou_uncontrolled, grid_241, tol=1e-14)
    residual = float(re.search(r"residual (\S+) ", str(err.value)).group(1))
    assert 1e-14 <= residual < 1e-12


def test_lq_481_factorization_count(lq_model, monkeypatch):
    # a 1D factor costs about one solve, so every shift move pays and the
    # five-solve floor sets the pace: 19 factors, as with a fixed period of five
    orig, calls = spla.splu, []

    def spy(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    sol = solve_hjb(lq_model, build_grid([6.0], [481]))
    assert len(calls) <= 19
    assert sol.residual <= 1e-8


def test_budget_error_names_its_residual(lq_model, grid_241):
    with pytest.raises(HjbError, match=r"residual (\S+) \(tol 1e-08\) after 1 steps") as err:
        solve_hjb(lq_model, grid_241, max_iter=1)
    residual = float(re.search(r"residual (\S+) ", str(err.value)).group(1))
    assert residual >= 1e-8
