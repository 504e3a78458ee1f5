import itertools

import numpy as np

from ersc.discretize import OperatorKernel, build_grid
from ersc.eigensolve import policy_value
from ersc.hjb import (
    MarkovPolicy,
    check_optimality_condition,
    solve_hjb,
    value_gradient_field,
)
from ersc.model import builtin_ou_lq

P_RICCATI = 2.0 - np.sqrt(2.0)  # root of P^2/4 - P + 1/2 = 0


def brute_force_value(model, grid, tol=0.0):
    """Exhaustive minimum of the dense Perron value over all precise policies."""
    kernel = OperatorKernel(model, grid, "hybrid")
    n, k = kernel.n, model.controls.n_controls
    mats = []
    for u in model.controls.points:
        Q = kernel.assemble(kernel.control_drift(u)).matrix.toarray()
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
