"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured runtime.  Tolerances are fixed here, not
tuned at run time."""

import itertools
import time

import numpy as np
import scipy.sparse as sp

from ersc.discretize import OperatorKernel, build_grid
from ersc.eigensolve import policy_value, principal_eigenpair
from ersc.game import game_value_sweep, radial_cutoff, sup_w_fixed_policy
from ersc.hjb import MarkovPolicy, solve_hjb
from ersc.model import QuadraticLyapLog, builtin_ou_lq, check_assumptions
from ersc.perturb import epsilon_sweep, family_from_h, kappa_sweep
from ersc.simulate import (
    SimulationConfig,
    check_stochastic_representation,
    estimate_rsc_cost,
    importance_sampled_cost,
    simulate,
)
from ersc.variational import FiniteNoiseSpace, gibbs_identity_check, kl_divergence

GOLDEN = (-1.0 + np.sqrt(5.0)) / 2.0
P_RICCATI = 2.0 - np.sqrt(2.0)


def report(num, name, elapsed, limit, checks):
    ok = all(checks.values()) and elapsed < limit
    status = "PASS" if ok else "FAIL"
    detail = "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
    print(f"[criterion {num:2d}] {status}  {name}  ({elapsed:.3f}s < {limit:g}s)  {detail}")
    assert all(checks.values()), f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num}: runtime {elapsed:.3f}s exceeds {limit}s"


def test_criterion_01_exact_small_chain():
    Q = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    r = np.array([0.0, 1.0])
    principal_eigenpair(Q, r, tol=1e-12)  # warm up imports and kernels
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        pair = principal_eigenpair(Q, r, tol=1e-12)
        best = min(best, time.perf_counter() - t0)
    report(
        1,
        "two-state eigenvalue",
        best,
        1e-3,
        {
            "value_1e-10": abs(pair.value - GOLDEN) <= 1e-10,
            "bracket_1e-10": pair.bracket_width <= 1e-10,
        },
    )


def test_criterion_02_ou_closed_form(ou_uncontrolled):
    t0 = time.perf_counter()
    g1 = build_grid([6.0], [241])
    v1 = policy_value(ou_uncontrolled, g1, MarkovPolicy.constant(0, g1.n_nodes), tol=1e-10)
    g2 = build_grid([6.0], [481])
    v2 = policy_value(ou_uncontrolled, g2, MarkovPolicy.constant(0, g2.n_nodes), tol=1e-10)
    elapsed = time.perf_counter() - t0
    e1, e2 = abs(v1.value - 0.25), abs(v2.value - 0.25)
    report(
        2,
        "OU closed form",
        elapsed,
        1.0,
        {"value_2e-3": e1 <= 2e-3, "order": e1 / e2 >= 3.0},
    )


def test_criterion_03_risk_sensitive_lq(lq_model):
    t0 = time.perf_counter()
    grid = build_grid([6.0], [241])
    sol = solve_hjb(lq_model, grid, tol=1e-9)
    elapsed = time.perf_counter() - t0
    x = grid.coords().ravel()
    u = sol.policy.control_values(lq_model.controls.points).ravel()
    inner = np.abs(x) <= 3.0
    step = 10.0 / 200.0
    dev = np.max(np.abs(u[inner] + (P_RICCATI / 2.0) * x[inner]))
    report(
        3,
        "risk-sensitive LQ",
        elapsed,
        30.0,
        {
            "value_1e-2": abs(sol.value - P_RICCATI / 2.0) <= 1e-2,
            "policy_one_step": dev <= step,
        },
    )


def _dense_perron(A):
    return float(np.max(np.linalg.eigvals(A).real))


def test_criterion_04_brute_force_equivalence():
    t0 = time.perf_counter()
    instances = [
        (builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=0.5, u_max=2.0, n_controls=2), [2.0], [7]),
        (builtin_ou_lq(a=-0.5, sigma=0.8, q=0.6, c=0.2, u_max=1.5, n_controls=3), [1.5], [6]),
        (builtin_ou_lq(a=-1.2, sigma=1.1, q=0.9, c=0.4, u_max=1.0, n_controls=2), [2.5], [10]),
    ]
    worst = 0.0
    from ersc.discretize import OperatorKernel

    for model, radii, counts in instances:
        grid = build_grid(radii, counts)
        kernel = OperatorKernel(model, grid, "hybrid")
        mats = []
        for i, u in enumerate(model.controls.points):
            Q = kernel.assemble_policy(MarkovPolicy.constant(i, grid.n_nodes)).toarray()
            r = np.asarray(model.cost(kernel.coords, u), dtype=float)
            mats.append(Q + np.diag(r))
        k, n = len(mats), grid.n_nodes
        best = np.inf
        for assign in itertools.product(range(k), repeat=n):
            A = np.array([mats[a][i] for i, a in enumerate(assign)])
            best = min(best, _dense_perron(A))
        sol = solve_hjb(model, grid, tol=1e-12)
        worst = max(worst, abs(sol.value - best))
    elapsed = time.perf_counter() - t0
    report(4, "brute-force equivalence", elapsed, 10.0, {"gap_1e-8": worst <= 1e-8})


def test_criterion_05_variational_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst_gap = 0.0
    ineq_ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 65))
        p = rng.dirichlet(np.ones(m))
        p = np.maximum(p, 1e-9)
        p /= p.sum()
        space = FiniteNoiseSpace(p)
        f = rng.uniform(-20.0, 20.0, size=m)
        lhs, _, gap = gibbs_identity_check(space, f)
        worst_gap = max(worst_gap, gap)
        q = rng.dirichlet(np.ones(m))
        if q @ f - kl_divergence(q, p) > lhs + 1e-10:
            ineq_ok = False
    elapsed = time.perf_counter() - t0
    report(
        5,
        "Gibbs variational oracle",
        elapsed,
        1.0,
        {"gap_1e-12": worst_gap <= 1e-12, "inequality": ineq_ok},
    )


def test_criterion_06_game_eigen_consistency(ou_uncontrolled, grid_241):
    t0 = time.perf_counter()
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    val = sup_w_fixed_policy(
        ou_uncontrolled, grid_241, pol, epsilon=0.0, l=8.0, L_star=26.0, tol=1e-10
    ).value
    entries = game_value_sweep(
        ou_uncontrolled, grid_241, 0.0, [2.0, 4.0, 6.0, 8.0], tol=1e-10
    )
    vals = [v for _, v in entries]
    hjb_val = solve_hjb(ou_uncontrolled, grid_241, tol=1e-9).value
    elapsed = time.perf_counter() - t0
    report(
        6,
        "game-eigenvalue consistency",
        elapsed,
        60.0,
        {
            "sup_w_1e-2": abs(val - 0.25) <= 1e-2,
            "monotone_1e-6": all(b >= a - 1e-6 for a, b in zip(vals, vals[1:])),
            "terminal_1e-2": abs(vals[-1] - hjb_val) <= 1e-2,
        },
    )


def test_criterion_07_perturbation_convergence(ou_uncontrolled, grid_241):
    t0 = time.perf_counter()
    fam = family_from_h(
        ou_uncontrolled,
        lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1),
        C3=0.5,
        grid=grid_241,
    )
    eps_list = [0.0] + [f * fam.eps0 for f in (0.05, 0.025, 0.0125)]
    res = epsilon_sweep(ou_uncontrolled, grid_241, fam, eps_list, tol=1e-9)
    elapsed = time.perf_counter() - t0
    report(
        7,
        "perturbation convergence",
        elapsed,
        60.0,
        {
            "gaps_strictly_decreasing": all(b < a for a, b in zip(res.gaps, res.gaps[1:])),
            "smallest_gap_1e-2": res.gaps[-1] <= 1e-2,
        },
    )


def test_criterion_08_kappa_limit(ou_uncontrolled):
    t0 = time.perf_counter()
    grid = build_grid([6.0], [481])
    res = kappa_sweep(ou_uncontrolled, grid, [1.0, 0.5, 0.1, 0.01])
    elapsed = time.perf_counter() - t0
    closed = lambda k: (1.0 - np.sqrt(1.0 - 0.75 * k)) / (2.0 * k)
    report(
        8,
        "risk-neutral kappa limit",
        elapsed,
        60.0,
        {
            "closed_form_1e-3": all(abs(v - closed(k)) <= 1e-3 for k, v in res.entries),
            "gap_vs_lambda0_5e-3": abs(res.entries[-1][1] - res.lambda_zero) <= 5e-3,
            "lambda0_is_0.1875": abs(res.lambda_zero - 0.1875) <= 1e-3,
        },
    )


def test_criterion_09_stochastic_representation(ou_uncontrolled, grid_241):
    t0 = time.perf_counter()
    sol = solve_hjb(ou_uncontrolled, grid_241, tol=1e-9)
    cfg = SimulationConfig(dt=1e-3, horizon=12.0, n_paths=3000, seed=101, x0=[0.0])
    # twisted sampling: unbiased for any (V, Lambda), tames the exponential
    # weights whose plain-dynamics second moment is infinite here
    rows = check_stochastic_representation(
        ou_uncontrolled,
        sol.policy,
        sol.V,
        sol.value,
        R=1.0,
        test_points=[[2.0], [-2.0], [1.5], [-1.5], [2.5]],
        cfg=cfg,
        grid=grid_241,
        twist_log_psi=np.log(sol.V),
    )
    elapsed = time.perf_counter() - t0
    report(
        9,
        "stochastic representation",
        elapsed,
        120.0,
        {
            "ratios_0.05": all(abs(r["ratio"] - 1.0) <= 0.05 for r in rows),
            "hitting_99pct": all(r["nonhit"] <= 0.01 for r in rows),
        },
    )


def test_criterion_10_importance_sampling(ou_uncontrolled, grid_241):
    t0 = time.perf_counter()
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    pair = policy_value(ou_uncontrolled, grid_241, pol, tol=1e-10)
    cfg = SimulationConfig(dt=1e-3, horizon=8.0, n_paths=10_000, seed=202, x0=[0.0])
    plain = estimate_rsc_cost(simulate(ou_uncontrolled, None, cfg))
    est, se = importance_sampled_cost(ou_uncontrolled, None, pair, cfg)
    elapsed = time.perf_counter() - t0
    report(
        10,
        "importance sampling",
        elapsed,
        120.0,
        {
            "value_1e-2": abs(est - 0.25) <= 1e-2,
            "stderr_10x": plain.stderr / se >= 10.0,
        },
    )


def test_criterion_11_structural_properties(ou_uncontrolled):
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    checks = {}

    rowsum_ok = offdiag_ok = positive_ok = True
    for _ in range(8):
        model = builtin_ou_lq(
            a=-rng.uniform(0.3, 2.0),
            sigma=rng.uniform(0.5, 1.5),
            q=rng.uniform(0.1, 2.0),
            c=rng.uniform(0.0, 1.0),
            u_max=rng.uniform(0.0, 2.0),
            n_controls=int(rng.integers(1, 5)),
        )
        grid = build_grid([rng.uniform(3, 6)], [int(rng.integers(31, 121))])
        pol = MarkovPolicy(rng.integers(model.controls.n_controls, size=grid.n_nodes))
        gm = OperatorKernel(model, grid).assemble_policy(pol)
        rowsum_ok &= bool(np.max(np.abs(gm.sum(axis=1))) <= 1e-12)
        offdiag_ok &= bool((gm - sp.diags(gm.diagonal())).min() >= 0.0)
        pair = policy_value(model, grid, pol, tol=1e-7, max_iter=3000)
        positive_ok &= bool(np.all(pair.vector > 0))
    checks["row_sums_1e-12"] = rowsum_ok
    checks["offdiag_nonneg"] = offdiag_ok
    checks["eigenvector_positive"] = positive_ok

    # constant-shift equivariance and Perron monotonicity on a random chain
    n = 15
    rates = rng.uniform(0.1, 1.5, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    Q = sp.csr_matrix(rates - np.diag(rates.sum(axis=1)))
    r = rng.uniform(0, 1, size=n)
    c = rng.uniform(-2, 2)
    base = principal_eigenpair(Q, r, tol=1e-11)
    shifted = principal_eigenpair(Q, r + c, tol=1e-11)
    checks["shift_equivariance"] = (
        abs(shifted.value - base.value - c) <= 1e-9
        and np.allclose(shifted.vector, base.vector, atol=1e-8)
    )
    bigger = principal_eigenpair(Q, r + rng.uniform(0, 1, size=n), tol=1e-11)
    checks["perron_monotone"] = bigger.value >= base.value - 1e-10

    lq = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=2.0, u_max=4.0, n_controls=41)
    grid = build_grid([5.0], [101])
    sol = solve_hjb(lq, grid, tol=1e-10)
    checks["policy_iteration_monotone"] = all(
        b <= a + 1e-12 for a, b in zip(sol.history, sol.history[1:])
    )

    aux = sup_w_fixed_policy(
        ou_uncontrolled, build_grid([6.0], [121]), MarkovPolicy.constant(0, 121), 0.0, l=8.0
    ).w_policy
    chi = radial_cutoff(build_grid([6.0], [121]).coords(), 8.0)
    norms = np.linalg.norm(aux.field, axis=1)
    checks["aux_support_confined"] = bool(
        np.all(norms[chi == 0.0] == 0.0) and np.all(norms <= 8.0 + 1e-9)
    )

    cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=64, seed=31, x0=[0.0])
    d1 = simulate(ou_uncontrolled, None, cfg).digest()
    d2 = simulate(ou_uncontrolled, None, cfg).digest()
    checks["seed_reproducible"] = d1 == d2

    elapsed = time.perf_counter() - t0
    report(11, "structural property suite", elapsed, 120.0, checks)


def test_criterion_12_w_network_smoke(w_network):
    t0 = time.perf_counter()
    grid = build_grid([4.0] * 3, [29] * 3)  # 41^3 capped to keep the run desk-scale
    lyap = QuadraticLyapLog(np.diag([0.2, 0.1, 0.1]))
    hbar = lambda x, u: 0.05 * np.sum(np.asarray(x) ** 2, axis=-1)
    samples = [(x, u) for x in grid.coords()[::24] for u in w_network.controls.points]
    rep = check_assumptions(w_network, lyap, hbar, (1.25, 5.5, 0.5), samples)
    tol = 1e-7
    sol = solve_hjb(w_network, grid, tol=tol, max_iter=40)
    elapsed = time.perf_counter() - t0
    print(f"    W-network value on 29^3 grid: {sol.value:.6f} (no external oracle)")
    report(
        12,
        "W-network smoke",
        elapsed,
        600.0,
        {
            "assumptions_zero_violations": rep.ok,
            "hjb_residual": sol.residual <= tol,
            "value_finite": np.isfinite(sol.value),
        },
    )
