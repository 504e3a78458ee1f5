import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ersc import game
from ersc.discretize import OperatorKernel, build_grid
from ersc.eigensolve import policy_value
from ersc.game import (
    AuxiliaryPolicy,
    GameSolveError,
    average_cost_solve,
    default_truncation_rule,
    game_value_sweep,
    inner_max_w,
    radial_cutoff,
    solve_ergodic_game,
    solve_poisson,
    sup_w_fixed_policy,
)
from ersc.hjb import MarkovPolicy, solve_hjb, value_gradient_field
from ersc.model import builtin_ou_lq
from ersc.perturb import kappa_sweep


def test_inner_max_examples():
    w, p = inner_max_w(np.zeros(2), 5.0)
    assert np.allclose(w, 0.0) and p == 0.0

    w, p = inner_max_w(np.array([3.0, 4.0]), 10.0)
    assert np.allclose(w, [3.0, 4.0])
    assert np.isclose(p, 12.5)

    w, p = inner_max_w(np.array([3.0, 4.0]), 1.0)
    assert np.allclose(w, [0.6, 0.8])
    assert np.isclose(p, 4.5)


def test_nan_drift_bound_raises_before_any_poisson_solve(monkeypatch):
    # NaN fails every comparison, so a bound check must not be written as "l < 0"
    with pytest.raises(ValueError, match="nonnegative"):
        inner_max_w(np.ones(2), np.nan)

    def no_solve(*args, **kwargs):
        raise AssertionError("a Poisson solve ran")

    monkeypatch.setattr(game, "solve_poisson", no_solve)
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_ergodic_game(m, build_grid([6.0], [61]), 0.0, np.nan, 20.0)


def test_bad_payoff_cap_raises_before_any_poisson_solve(monkeypatch):
    # a NaN or negative L* is a bad input, not a solver failure; L* = inf (no
    # cap, as in the average-cost solve) still runs
    def no_solve(*args, **kwargs):
        raise AssertionError("a Poisson solve ran")

    monkeypatch.setattr(game, "solve_poisson", no_solve)
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
    grid = build_grid([6.0], [61])
    pol = MarkovPolicy.constant(0, grid.n_nodes)
    for L_star in (np.nan, -1.0):
        with pytest.raises(ValueError, match="L_star must be nonnegative"):
            solve_ergodic_game(m, grid, 0.0, 4.0, L_star)
        with pytest.raises(ValueError, match="L_star must be nonnegative"):
            sup_w_fixed_policy(m, grid, pol, 0.0, 4.0, L_star=L_star)
    monkeypatch.undo()
    assert np.isfinite(average_cost_solve(m, grid).value)


def test_inner_max_beats_sampling():
    rng = np.random.default_rng(4)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        g = rng.normal(scale=3, size=d)
        l = rng.uniform(0.2, 6.0)
        w_star, p_star = inner_max_w(g, l)
        assert np.linalg.norm(w_star) <= l + 1e-12
        dirs = rng.normal(size=(10_000, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = l * rng.uniform(0, 1, size=(10_000, 1)) ** (1.0 / d)
        ws = dirs * radii
        vals = ws @ g - 0.5 * np.einsum("ni,ni->n", ws, ws)
        assert p_star >= vals.max() - 1e-6


def test_radial_cutoff_plateaus():
    x = np.linspace(-10, 10, 201).reshape(-1, 1)
    chi = radial_cutoff(x, 8.0)
    r = np.abs(x).ravel()
    assert np.all(chi[r <= 4.0] == 1.0)
    assert np.all(chi[r >= 8.0] == 0.0)
    assert np.all((chi >= 0) & (chi <= 1))
    assert np.all(np.diff(chi[x.ravel() >= 0]) <= 1e-12)


def test_poisson_two_state():
    Q = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    rho, psi = solve_poisson(Q, np.array([0.0, 1.0]), origin_node=0)
    # stationary law is uniform, so the average cost is 1/2
    assert np.isclose(rho, 0.5)
    assert psi[0] == 0.0


def _bordered_poisson(G, f, origin):
    """Dense solve of [[G, -1], [e_origin', 0]] [Psi; rho] = [-f; 0]."""
    n = G.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = G.toarray()
    M[:n, n] = -1.0
    M[n, origin] = 1.0
    sol = np.linalg.solve(M, np.concatenate([-f, [0.0]]))
    return sol[n], sol[:n]


def test_poisson_matches_bordered_system(lq_model, w_network):
    lq_grid, w_grid = build_grid([6.0], [121]), build_grid([4.0] * 3, [11] * 3)
    cases = []
    for model, grid, aux in (
        (lq_model, lq_grid, 0.5 * np.sin(lq_grid.coords())),
        (w_network, w_grid, None),
    ):
        cost = model.cost_table(grid.coords())
        myopic = MarkovPolicy(np.argmin(cost, axis=0))
        G = OperatorKernel(model, grid).assemble_policy(myopic, aux_drift=aux)
        cases.append((G, myopic.pick(cost), grid.origin_node))
    for G, f, origin in cases:
        rho, psi = solve_poisson(G, f, origin)
        rho_ref, psi_ref = _bordered_poisson(G, f, origin)
        assert abs(rho - rho_ref) <= 1e-12
        assert np.max(np.abs(psi - psi_ref)) <= 1e-10
        assert psi[origin] == 0.0


def test_poisson_needs_every_node_to_reach_the_origin():
    Q = sp.csr_matrix(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 1.0, -1.0]]))
    f = np.array([0.0, 1.0, 2.0])
    # {1, 2} is closed and misses the origin 0
    with pytest.raises(GameSolveError, match="2 of 3 nodes"):
        solve_poisson(Q, f, origin_node=0)
    # an explicitly stored zero rate 1 -> 0 is no edge
    stored = sp.csr_matrix(
        ([-1.0, 1.0, 0.0, -1.0, 1.0, 1.0, -1.0], [0, 1, 0, 1, 2, 1, 2], [0, 2, 5, 7]),
        shape=(3, 3),
    )
    with pytest.raises(GameSolveError, match="2 of 3 nodes"):
        solve_poisson(stored, f, origin_node=0)
    # the transient node 0 reaches the recurrent origin 1
    rho, psi = solve_poisson(Q, f, origin_node=1)
    assert np.isclose(rho, 1.5) and psi[1] == 0.0
    assert np.allclose(Q @ psi + f, rho)


def test_every_factorization_is_pivot_free_mmd(lq_model, monkeypatch):
    orig, calls = spla.splu, []

    def spy(*args, **kwargs):
        calls.append((kwargs.get("permc_spec"), kwargs.get("diag_pivot_thresh")))
        return orig(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    grid = build_grid([6.0], [121])
    solve_hjb(lq_model, grid, tol=1e-8)
    n_hjb = len(calls)
    solve_ergodic_game(lq_model, grid, 0.0, 2.0, default_truncation_rule(2.0))
    assert 0 < n_hjb < len(calls)
    assert set(calls) == {("MMD_AT_PLUS_A", 0.0)}


def test_auxiliary_policy_invariants():
    chi = np.array([1.0, 0.5, 0.0])
    AuxiliaryPolicy(field=np.array([[1.0], [0.5], [0.0]]), bound=2.0, cutoff=chi)
    with pytest.raises(ValueError, match="norm bound"):
        AuxiliaryPolicy(field=np.array([[3.0], [0.0], [0.0]]), bound=2.0, cutoff=chi)
    with pytest.raises(ValueError, match="vanish"):
        AuxiliaryPolicy(field=np.array([[1.0], [0.0], [0.4]]), bound=2.0, cutoff=chi)


def test_game_zero_cost(grid_241):
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.0, c=0.0, u_max=0.0, n_controls=1)
    sol = solve_ergodic_game(model, grid_241, 0.0, l=4.0, L_star=10.0, tol=1e-10)
    assert abs(sol.value) <= 1e-9
    assert np.max(np.abs(sol.w_policy.field)) <= 1e-6
    assert np.max(np.abs(sol.bias)) <= 1e-6


def test_game_small_l_reduces_to_average_cost(ou_uncontrolled, grid_241):
    sol = solve_ergodic_game(ou_uncontrolled, grid_241, 0.0, l=1e-6, L_star=50.0, tol=1e-10)
    rho = average_cost_solve(
        ou_uncontrolled, grid_241, cost_fn=lambda x, u: np.minimum(
            ou_uncontrolled.cost(x, u), 50.0
        )
    ).value
    assert abs(sol.value - rho) <= 1e-6
    assert np.max(np.linalg.norm(sol.w_policy.field, axis=1)) <= 1e-6


def test_sup_w_matches_eigenvalue(ou_uncontrolled, grid_241):
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    sol = sup_w_fixed_policy(
        ou_uncontrolled, grid_241, pol, epsilon=0.0, l=8.0, L_star=26.0, tol=1e-10
    )
    val, aux = sol.value, sol.w_policy
    assert abs(val - 0.25) <= 1e-2
    # maximizer tracks the twisted-drift field Sigma' grad(log psi) inside
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    omega = value_gradient_field(pair.vector, grid_241, model=ou_uncontrolled)
    x = grid_241.coords().ravel()
    inner = np.abs(x) <= 3.0
    dev = np.abs(aux.field[inner, 0] - omega[inner, 0])
    assert np.max(dev) <= 5e-2
    # support confinement
    chi = radial_cutoff(grid_241.coords(), 8.0)
    assert np.all(np.linalg.norm(aux.field, axis=1)[chi == 0.0] == 0.0)


def test_game_value_monotone_in_l(ou_uncontrolled, grid_241):
    entries = game_value_sweep(ou_uncontrolled, grid_241, 0.0, [2.0, 4.0, 6.0, 8.0], tol=1e-10)
    vals = [v for _, v in entries]
    assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))
    hjb_val = solve_hjb(ou_uncontrolled, grid_241, tol=1e-9).value
    assert abs(vals[-1] - hjb_val) <= 1e-2


def test_game_value_sweep_rejects_unsorted(ou_uncontrolled, grid_241):
    with pytest.raises(ValueError):
        game_value_sweep(ou_uncontrolled, grid_241, 0.0, [4.0, 2.0])


def test_isaacs_fixed_point_swap_invariance(lq_model):
    # the payoff couples u and w additively, so min-max and max-min coincide;
    # at the fixed point neither player can improve and the node values match
    # the game constant regardless of update order
    grid = build_grid([4.0], [81])
    sol = solve_ergodic_game(lq_model, grid, 0.0, l=6.0, L_star=22.0, tol=1e-9)
    from ersc.game import _GameIteration

    r_all = lq_model.cost_table(grid.coords())
    it = _GameIteration(lq_model, grid, r_all, 6.0, 22.0, "hybrid")
    w = sol.w_policy.field
    # u-player cannot improve given (Psi, w*)
    rows = it.improve_v(sol.bias, w)
    minmax = np.min(rows, axis=0) - it.penalty(w)
    assert np.max(np.abs(minmax - sol.value)) <= 1e-7
    # w-player cannot improve given Psi: re-deriving the maximizer is a no-op
    w_again = it.improve_w(sol.bias)
    assert np.max(np.linalg.norm(w_again - w, axis=1)) <= 1e-7
    # evaluating the pair reproduces the value (either order of play)
    rho_eval, _ = it.evaluate(sol.v_policy, w)
    assert abs(rho_eval - sol.value) <= 1e-9


def test_default_truncation_rule():
    assert default_truncation_rule(8.0) == 26.0


def test_consistency_sup_w_below_eigenvalue(lq_model):
    # for a fixed stable policy the truncated game value sits below the
    # eigenvalue up to the O(h^2) difference between the two discretizations,
    # and closes the gap as l grows
    grid = build_grid([5.0], [101])
    pol = solve_hjb(lq_model, grid, tol=1e-10).policy
    pair = policy_value(lq_model, grid, pol, tol=1e-10)
    tol_h2 = 5e-3
    vals = []
    for l in (2.0, 4.0, 8.0):
        val = sup_w_fixed_policy(lq_model, grid, pol, 0.0, l, tol=1e-10).value
        vals.append(val)
        assert val <= pair.value + tol_h2
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - pair.value) <= 1e-2


def test_sup_w_stops_on_fixed_policy_residual(ou_uncontrolled):
    # the policy's Bellman row at the adversary's best reply to the returned
    # bias, recomputed from the assembled generator, meets the tolerance
    grid = build_grid([6.0], [121])
    pol = MarkovPolicy.constant(0, 121)
    sol = sup_w_fixed_policy(ou_uncontrolled, grid, pol, 0.0, l=8.0, tol=1e-9)
    coords = grid.coords()
    chi = radial_cutoff(coords, 8.0)
    sig = ou_uncontrolled.sigma(coords)  # constant (1, 1)
    y, _ = inner_max_w(grid.gradient(sol.bias) @ sig, 8.0 * chi)
    w = np.zeros_like(y)
    w[chi > 1e-12] = y[chi > 1e-12] / chi[chi > 1e-12, None]
    G = OperatorKernel(ou_uncontrolled, grid).assemble_policy(
        pol, aux_drift=chi[:, None] * (w @ sig.T)
    )
    r = np.minimum(ou_uncontrolled.cost_table(coords)[0], default_truncation_rule(8.0))
    penalty = 0.5 * np.sum((chi[:, None] * w) ** 2, axis=1)
    residual = np.max(np.abs(G @ sol.bias + r - penalty - sol.value))
    assert residual < 1e-9
    assert sol.residual < 1e-9 and sol.iterations == len(sol.history)


def test_sup_w_raises_when_max_iter_runs_out(ou_uncontrolled):
    grid = build_grid([6.0], [121])
    with pytest.raises(GameSolveError):
        sup_w_fixed_policy(
            ou_uncontrolled, grid, MarkovPolicy.constant(0, 121), 0.0, l=8.0, tol=1e-9,
            max_iter=1,
        )


def test_game_raises_when_max_iter_runs_out(ou_uncontrolled, grid_241):
    # five steps leave the residual near 7e-10, above tol = 1e-10
    with pytest.raises(GameSolveError):
        solve_ergodic_game(
            ou_uncontrolled, grid_241, 0.0, l=8.0, L_star=26.0, tol=1e-10, max_iter=5
        )


def test_average_cost_raises_when_max_iter_runs_out(lq_model, grid_241):
    with pytest.raises(GameSolveError):
        average_cost_solve(lq_model, grid_241, max_iter=1)


def test_game_loop_raises_at_once_when_it_stalls(monkeypatch):
    # on 4801 nodes the residual's rounding floor (2.1e-10) is above the
    # default tol; (v, w, rho) repeat bit for bit from step 3 on
    calls = []
    real = game.solve_poisson

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(game, "solve_poisson", counted)
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=2.0, u_max=5.0, n_controls=41)
    with pytest.raises(GameSolveError, match="stalled at residual"):
        average_cost_solve(model, build_grid([6.0], [4801]))
    assert len(calls) <= 5


def test_zero_l_game_reads_the_kernels_cached_rates(lq_model, monkeypatch):
    # with l = 0 the adversary adds no drift, so the average-cost loop and the
    # kappa sweep that calls it never difference the model's drift table
    grid = build_grid([6.0], [121])
    want = average_cost_solve(lq_model, grid)
    sweep = kappa_sweep(lq_model, grid, [1.0, 0.1])

    def forbidden(self):
        raise AssertionError("drift_table read")

    monkeypatch.setattr(OperatorKernel, "drift_table", property(forbidden))
    got = average_cost_solve(lq_model, grid)
    assert got.value == want.value and np.array_equal(got.bias, want.bias)
    again = kappa_sweep(lq_model, grid, [1.0, 0.1])
    assert again.lambda_zero == sweep.lambda_zero and again.entries == sweep.entries
    monkeypatch.undo()
    # the held-policy row needs no auxiliary drift either: at l = 0 the
    # optimal policy's fixed-policy value is the average cost
    held = sup_w_fixed_policy(lq_model, grid, want.v_policy, 0.0, l=0.0, L_star=np.inf, tol=1e-10)
    assert abs(held.value - want.value) <= 1e-9


def test_iterations_count_poisson_solves(lq_model, ou_uncontrolled, monkeypatch):
    calls = []
    real = game.solve_poisson

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(game, "solve_poisson", counted)
    grid = build_grid([6.0], [121])
    runs = {
        "game": lambda n: solve_ergodic_game(lq_model, grid, 0.0, 4.0, 18.0, max_iter=n),
        "sup_w": lambda n: sup_w_fixed_policy(
            ou_uncontrolled, grid, MarkovPolicy.constant(0, 121), 0.0, l=8.0, max_iter=n
        ),
        "average": lambda n: average_cost_solve(lq_model, grid, max_iter=n),
    }
    for name, solve in runs.items():
        calls.clear()
        sol = solve(200)
        assert sol.iterations == len(calls) == len(sol.history), name
        assert sol.history[-1] == sol.value, name
        # max_iter caps the Poisson solves
        assert solve(sol.iterations).value == sol.value, name
        calls.clear()
        with pytest.raises(GameSolveError, match=r"stopped at residual \S+ \(tol"):
            solve(sol.iterations - 1)
        assert len(calls) == sol.iterations - 1, name
