import numpy as np
import pytest

import ersc.perturb
from ersc.discretize import build_grid
from ersc.eigensolve import policy_value
from ersc.hjb import MarkovPolicy, solve_hjb
from ersc.model import ControlSet, DiffusionModel, RegionSpec, builtin_ou_lq
from ersc.perturb import (
    PerturbationError,
    build_h,
    epsilon_sweep,
    family_from_h,
    kappa_sweep,
    perturbed_cost,
)


def mixed_region_model():
    """1D model whose cost is inf-compact only on K = {|x| > 1}."""

    def indicator(x):
        return np.abs(np.asarray(x)[..., 0]) > 1.0

    def blend(x):
        r = np.abs(np.asarray(x)[..., 0])
        return np.clip((r - 0.5) / 0.5, 0.0, 1.0)

    region = RegionSpec(indicator=indicator, blend=blend)
    return DiffusionModel(
        dim=1,
        drift=lambda x, u: -np.asarray(x, dtype=float),
        sigma=lambda x: np.array([[1.0]]),
        cost=lambda x, u: np.sum(np.asarray(x, dtype=float) ** 2, axis=-1),
        controls=ControlSet(np.array([[0.0]])),
        region_K=region,
        name="mixed1d",
    )


def test_eps0_value():
    m = builtin_ou_lq(a=-1, sigma=1, q=0.75, c=0, u_max=0, n_controls=1)
    fam = family_from_h(m, lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1), C3=0.5)
    assert np.isclose(fam.eps0, 0.0625)  # (1 - C3) / 8
    with pytest.raises(PerturbationError):
        family_from_h(m, lambda x, u: 1.0 + 0.0 * np.sum(x, axis=-1), C3=1.0)


def test_build_h_blend_bounds():
    m = mixed_region_model()
    grid = build_grid([4.0], [81])
    hbar = lambda x, u: 2.0 + np.sum(np.asarray(x) ** 4, axis=-1)
    fam = build_h(m, grid, hbar, C3=0.5, collar_width=1.0)
    coords = grid.coords()
    u = m.controls.points[0]
    r = m.cost(coords, u)
    hb = hbar(coords, u)
    h = fam.h(coords, u)
    assert np.all(h >= r - 1e-12)
    # deep inside H (on K): h = 1 + r
    on_K = np.abs(coords[:, 0]) > 1.5
    assert np.allclose(h[on_K], 1.0 + r[on_K])
    # well outside H and its collar (here r <= hbar near 0): h = 1 + hbar
    deep_out = np.abs(coords[:, 0]) <= 0.3
    assert np.allclose(h[deep_out], 1.0 + hb[deep_out])


def test_build_h_fails_loudly_on_shrinking_candidate():
    m = builtin_ou_lq(a=-1, sigma=1, q=0.0, c=0, u_max=0, n_controls=1)
    grid = build_grid([4.0], [41])
    with pytest.raises(PerturbationError, match="inf-compact"):
        family_from_h(m, lambda x, u: 2.0 / (1.0 + np.sum(np.asarray(x) ** 2, axis=-1)), 0.5, grid=grid)


def test_family_from_h_requires_domination():
    m = builtin_ou_lq(a=-1, sigma=1, q=0.75, c=0, u_max=0, n_controls=1)
    grid = build_grid([4.0], [41])
    with pytest.raises(PerturbationError, match="h < r"):
        family_from_h(m, lambda x, u: 0.1 * np.sum(np.asarray(x) ** 2, axis=-1), 0.5, grid=grid)


def test_perturbed_cost_endpoints():
    m = builtin_ou_lq(a=-1, sigma=1, q=0.75, c=0, u_max=0, n_controls=1)
    h = lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)
    fam = family_from_h(m, h, C3=0.5)
    x = np.array([[1.5], [0.0], [-2.0]])
    u = m.controls.points[0]
    r0 = perturbed_cost(fam, 0.0)
    assert np.allclose(r0(x, u), m.cost(x, u))
    eps = 0.03
    re = perturbed_cost(fam, eps)
    expected = (1 - eps / fam.eps0) * m.cost(x, u) + eps * h(x, u)
    assert np.allclose(re(x, u), expected)
    with pytest.raises(PerturbationError, match=r"\(1 - C3\)/8"):
        perturbed_cost(fam, fam.eps0)
    with pytest.raises(PerturbationError):
        perturbed_cost(fam, -0.01)


def test_perturbed_cost_degenerate_h_equals_r():
    # h = r collapses to the scalar multiple (1 - eps/eps0 + eps) r
    m = builtin_ou_lq(a=-1, sigma=1, q=0.75, c=0, u_max=0, n_controls=1)
    fam = family_from_h(m, m.cost, C3=0.5)
    eps = 0.02
    re = perturbed_cost(fam, eps)
    x = np.array([[1.2], [-0.4]])
    u = m.controls.points[0]
    factor = 1.0 - eps / fam.eps0 + eps
    assert np.allclose(re(x, u), factor * m.cost(x, u))


def test_perturbation_sandwich_on_grid(grid_241, ou_uncontrolled):
    h = lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)
    fam = family_from_h(ou_uncontrolled, h, C3=0.5, grid=grid_241)
    coords = grid_241.coords()
    u = ou_uncontrolled.controls.points[0]
    r = ou_uncontrolled.cost(coords, u)
    hv = h(coords, u)
    big = family_from_h(ou_uncontrolled, lambda x, uu: h(x, uu) + 1.0, C3=0.5)
    for eps in (0.01, 0.02, 0.04):
        re = perturbed_cost(fam, eps)(coords, u)
        assert np.all(re <= r + eps * hv + 1e-12)
        # pointwise non-decreasing in h
        re_big = perturbed_cost(big, eps)(coords, u)
        assert np.all(re_big >= re - 1e-12)
    # continuity in eps at 0
    re = perturbed_cost(fam, 1e-9)(coords, u)
    assert np.max(np.abs(re - r)) <= 1e-6


def test_epsilon_sweep_trivial_single_point(ou_uncontrolled, grid_241):
    h = lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)
    fam = family_from_h(ou_uncontrolled, h, C3=0.5)
    res = epsilon_sweep(ou_uncontrolled, grid_241, fam, [0.0], tol=1e-9)
    from ersc.hjb import solve_hjb

    assert abs(res.base_value - solve_hjb(ou_uncontrolled, grid_241, tol=1e-9).value) <= 1e-12
    assert res.gaps == []


def test_epsilon_sweep_convergence(ou_uncontrolled, grid_241):
    h = lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)
    fam = family_from_h(ou_uncontrolled, h, C3=0.5, grid=grid_241)
    eps_list = [0.0] + [f * fam.eps0 for f in (0.05, 0.025, 0.0125)]
    res = epsilon_sweep(ou_uncontrolled, grid_241, fam, eps_list, tol=1e-9)
    assert all(b < a for a, b in zip(res.gaps, res.gaps[1:]))
    assert res.gaps[-1] <= 1e-2
    assert res.slope > 0
    # no catastrophic drop of the optimal value along the sweep
    for _, v in res.entries:
        assert v >= res.base_value - 0.02


def test_epsilon_sweep_rejects_budget_violation(ou_uncontrolled, grid_241):
    h = lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)
    fam = family_from_h(ou_uncontrolled, h, C3=0.5)
    with pytest.raises(PerturbationError):
        epsilon_sweep(ou_uncontrolled, grid_241, fam, [0.0, fam.eps0], tol=1e-8)
    with pytest.raises(PerturbationError, match="include 0"):
        epsilon_sweep(ou_uncontrolled, grid_241, fam, [0.01], tol=1e-8)


def test_h_shift_moves_value_by_eps_times_c(ou_uncontrolled, grid_241):
    # adding a constant c to h shifts the perturbed cost by eps*c everywhere,
    # hence the eigenvalue by exactly eps*c
    eps, c = 0.02, 3.0
    h1 = lambda x, u: 1.0 + np.sum(np.asarray(x) ** 2, axis=-1)
    h2 = lambda x, u: h1(x, u) + c
    f1 = family_from_h(ou_uncontrolled, h1, C3=0.5)
    f2 = family_from_h(ou_uncontrolled, h2, C3=0.5)
    pol = MarkovPolicy.constant(0, grid_241.n_nodes)
    v1 = policy_value(ou_uncontrolled, grid_241, pol, cost_fn=perturbed_cost(f1, eps), tol=1e-11)
    v2 = policy_value(ou_uncontrolled, grid_241, pol, cost_fn=perturbed_cost(f2, eps), tol=1e-11)
    assert abs(v2.value - v1.value - eps * c) <= 1e-9


def test_kappa_sweep_closed_form(ou_uncontrolled):
    grid = build_grid([6.0], [481])
    res = kappa_sweep(ou_uncontrolled, grid, [1.0, 0.5, 0.1, 0.01])
    closed = lambda k: (1.0 - np.sqrt(1.0 - 0.75 * k)) / (2.0 * k)
    for k, v in res.entries:
        assert abs(v - closed(k)) <= 1e-3
    assert abs(res.lambda_zero - 0.1875) <= 1e-3
    assert abs(res.entries[-1][1] - res.lambda_zero) <= 5e-3
    # kappa -> Lambda_kappa non-decreasing
    vals = [v for _, v in res.entries][::-1]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_kappa_one_equals_hjb(ou_uncontrolled, grid_241):
    res = kappa_sweep(ou_uncontrolled, grid_241, [1.0])
    assert abs(res.entries[0][1] - solve_hjb(ou_uncontrolled, grid_241, tol=1e-9).value) <= 1e-9


def test_kappa_zero_cost(grid_241):
    m = builtin_ou_lq(a=-1, sigma=1, q=0.0, c=0.0, u_max=0.0, n_controls=1)
    res = kappa_sweep(m, grid_241, [1.0, 0.1])
    for _, v in res.entries:
        assert abs(v) <= 1e-8


def test_kappa_rejects_out_of_range(ou_uncontrolled, grid_241):
    with pytest.raises(PerturbationError):
        kappa_sweep(ou_uncontrolled, grid_241, [0.0])
    with pytest.raises(PerturbationError):
        kappa_sweep(ou_uncontrolled, grid_241, [1.5])


def _count_howard_steps(monkeypatch):
    steps = []

    def spy(*args, **kwargs):
        sol = solve_hjb(*args, **kwargs)
        steps.append(len(sol.history))
        return sol

    monkeypatch.setattr(ersc.perturb, "solve_hjb", spy)
    return steps


def test_warm_started_kappa_sweep(lq_model, monkeypatch):
    # each point starts from the previous point's policy: 25 Howard steps
    # on this sweep, against 33 when every point starts from the myopic policy
    grid = build_grid([6.0], [481])
    kappas = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
    steps = _count_howard_steps(monkeypatch)
    res = kappa_sweep(lq_model, grid, kappas, tol=1e-9)
    assert sum(steps) <= 25
    for k, v in res.entries:
        # the solve's tolerance 1e-9 k on lambda(k r) is 1e-9 on lambda / k
        cold = solve_hjb(lq_model, grid, tol=1e-9 * k, cost_scale=k)
        assert abs(v - cold.value / k) <= 1e-9


def test_warm_started_epsilon_sweep(lq_model, monkeypatch):
    # 15 Howard steps against 21 from the myopic policy
    grid = build_grid([6.0], [481])

    def h(x, u):
        u = np.broadcast_to(np.asarray(u, dtype=float), np.shape(x))
        return 1.0 + np.sum(np.asarray(x) ** 2, axis=-1) + np.sum(u * u, axis=-1)

    fam = family_from_h(lq_model, h, C3=0.5, grid=grid)
    eps_list = [0.0] + [f * fam.eps0 for f in (0.05, 0.025, 0.0125)]
    steps = _count_howard_steps(monkeypatch)
    res = epsilon_sweep(lq_model, grid, fam, eps_list, tol=1e-8)
    assert sum(steps) <= 15
    for e, v in res.entries:
        cold = solve_hjb(lq_model, grid, tol=1e-8, cost_fn=perturbed_cost(fam, e))
        assert abs(v - cold.value) <= 1e-8


def test_sweeps_hand_max_iter_to_every_solve(monkeypatch, ou_uncontrolled):
    import ersc.game

    seen = []

    def spy(real):
        def call(*args, **kwargs):
            seen.append((real.__name__, kwargs["max_iter"]))
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr(ersc.perturb, "solve_hjb", spy(solve_hjb))
    for name in ("average_cost_solve", "solve_ergodic_game"):
        monkeypatch.setattr(ersc.game, name, spy(getattr(ersc.game, name)))
    grid = build_grid([6.0], [61])
    kappa_sweep(ou_uncontrolled, grid, [1.0, 0.5], max_iter=50)
    family = family_from_h(ou_uncontrolled, lambda x, u: 1.0 + np.sum(x**2, axis=-1), 0.5, grid)
    epsilon_sweep(ou_uncontrolled, grid, family, [0.0, 0.01], max_iter=50)
    ersc.game.game_value_sweep(ou_uncontrolled, grid, 0.0, [2.0, 4.0], max_iter=50)
    names = ["solve_hjb"] * 2 + ["average_cost_solve"] + ["solve_hjb"] * 2 + ["solve_ergodic_game"] * 2
    assert seen == [(name, 50) for name in names]
