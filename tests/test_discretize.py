import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from ersc.discretize import (
    GridSchemeError,
    OperatorKernel,
    build_grid,
    is_irreducible,
)
from ersc.eigensolve import policy_value
from ersc.hjb import MarkovPolicy
from ersc.model import ControlSet, DiffusionModel, builtin_ou_lq


def make_1d_model(drift_fn, sigma=1.0, points=((0.0,),)):
    return DiffusionModel(
        dim=1,
        drift=lambda x, u: drift_fn(np.asarray(x, dtype=float)),
        sigma=lambda x: np.array([[sigma]]),
        cost=lambda x, u: np.zeros(np.shape(np.asarray(x))[:-1]),
        controls=ControlSet(np.asarray(points)),
        name="test1d",
    )


def test_build_grid_examples():
    g = build_grid([1.0], [3])
    assert np.allclose(g.coords().ravel(), [-1.0, 0.0, 1.0])
    assert g.spacings[0] == 1.0
    assert g.origin_node == 1

    g = build_grid([6.0], [241])
    assert np.isclose(g.spacings[0], 0.05)

    g = build_grid([1.0, 2.0], [3, 5])
    assert g.n_nodes == 15
    assert np.allclose(g.spacings, [1.0, 1.0])
    assert np.linalg.norm(g.coords()[g.origin_node]) <= g.spacings.max()


def test_build_grid_rejections():
    with pytest.raises(ValueError):
        build_grid([1.0], [2])
    with pytest.raises(ValueError):
        build_grid([-1.0], [5])
    with pytest.raises(ValueError):
        build_grid([1.0, 1.0, 1.0], [300, 300, 300])
    # counts are not truncated, and a radius must be finite
    with pytest.raises(ValueError, match="counts must be integers"):
        build_grid([6.0], [61.5])
    for radius in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            build_grid([radius], [61])


def test_pure_diffusion_stencil():
    # b = 0, sigma = 1: neighbors 1/(2h^2), diagonal -1/h^2
    m = make_1d_model(lambda x: 0.0 * x)
    g = build_grid([1.0], [5])
    h = g.spacings[0]
    Q = OperatorKernel(m, g).assemble_policy(MarkovPolicy.constant(0, g.n_nodes)).toarray()
    i = 2
    assert np.isclose(Q[i, i - 1], 0.5 / h**2)
    assert np.isclose(Q[i, i + 1], 0.5 / h**2)
    assert np.isclose(Q[i, i], -1.0 / h**2)


def test_upwind_drift_stencil():
    # b = 1, sigma = 1, upwind mode: right 1/(2h^2) + 1/h, left 1/(2h^2)
    m = make_1d_model(lambda x: np.ones_like(x))
    g = build_grid([1.0], [5])
    h = g.spacings[0]
    Q = OperatorKernel(m, g, "upwind").assemble_policy(MarkovPolicy.constant(0, g.n_nodes)).toarray()
    i = 2
    assert np.isclose(Q[i, i + 1], 0.5 / h**2 + 1.0 / h)
    assert np.isclose(Q[i, i - 1], 0.5 / h**2)
    assert np.isclose(Q[i].sum(), 0.0, atol=1e-13)


def test_hybrid_uses_central_when_admissible():
    m = make_1d_model(lambda x: np.ones_like(x))
    g = build_grid([1.0], [5])
    h = g.spacings[0]
    Q = OperatorKernel(m, g, "hybrid").assemble_policy(MarkovPolicy.constant(0, g.n_nodes)).toarray()
    i = 2
    assert np.isclose(Q[i, i + 1], 0.5 / h**2 + 0.5 / h)
    assert np.isclose(Q[i, i - 1], 0.5 / h**2 - 0.5 / h)


def test_hybrid_falls_back_to_upwind():
    # |b| h > sigma^2 forces the one-sided branch; off-diagonals stay >= 0
    m = make_1d_model(lambda x: 10.0 * np.ones_like(x), sigma=0.5)
    g = build_grid([1.0], [5])
    gm = OperatorKernel(m, g, "hybrid").assemble_policy(MarkovPolicy.constant(0, g.n_nodes))
    assert (gm - sp.diags(gm.diagonal())).min() >= 0.0
    assert np.max(np.abs(gm.sum(axis=1))) <= 1e-12


def test_hybrid_tie_keeps_every_edge(ou_uncontrolled):
    # h = 0.5 puts |b| = 2 h q_ax at x = +-2; central differencing there
    # zeroes one drift rate and cuts the chain
    grid = build_grid([3.0], [13])
    kernel = OperatorKernel(ou_uncontrolled, grid)
    b = ou_uncontrolled.drift_table(kernel.coords)
    assert np.count_nonzero(np.abs(b) == 2.0 * kernel.h * kernel.q_ax) == 2
    pair = policy_value(ou_uncontrolled, grid, MarkovPolicy.constant(0, grid.n_nodes))
    assert abs(pair.value - 0.272950712095156) <= 1e-10


def test_hybrid_tie_keeps_w_network_irreducible(w_network):
    # radius 5 on 26^3 (h = 0.4) has 3046 ties; four of the six controls'
    # generators were reducible when ties took central differences
    grid = build_grid([5.0] * 3, [26] * 3)
    kernel = OperatorKernel(w_network, grid)
    b_all = w_network.drift_table(kernel.coords)
    assert np.any(np.abs(b_all) == 2.0 * kernel.h * kernel.q_ax)
    policies = [MarkovPolicy.constant(i, grid.n_nodes) for i in range(len(b_all))]
    assert all(is_irreducible(kernel.assemble_policy(p)) for p in policies)


def test_generator_invariants_random_models():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = -rng.uniform(0.3, 2.0)
        sig = rng.uniform(0.5, 2.0)
        m = builtin_ou_lq(a=a, sigma=sig, q=rng.uniform(0, 2), c=0.1, u_max=1.0, n_controls=3)
        g = build_grid([rng.uniform(2, 6)], [int(rng.integers(11, 81))])
        pol = MarkovPolicy.constant(int(rng.integers(3)), g.n_nodes)
        gm = OperatorKernel(m, g).assemble_policy(pol)
        assert np.max(np.abs(gm.sum(axis=1))) <= 1e-12
        assert (gm - sp.diags(gm.diagonal())).min() >= 0.0
        assert is_irreducible(gm)


def test_policy_generator_matches_constant_control():
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=1.0, u_max=2.0, n_controls=3)
    g = build_grid([2.0], [21])
    kernel = OperatorKernel(m, g)
    Q_u = kernel.assemble(*_where_rates(kernel, m.drift(kernel.coords, m.controls.points[2])))
    pol = MarkovPolicy.constant(2, g.n_nodes)
    Q_p = kernel.assemble_policy(pol)
    assert np.allclose((Q_u - Q_p).toarray(), 0.0)


def test_relaxed_policy_mixes_rows():
    # the relaxed generator is the row mix of the per-control generators, also
    # under upwind/hybrid rates that are not linear in the drift: with controls
    # +-1 the mixed drift is 0, whose generator is off by 1/h = 4 per entry
    cases = [
        (builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=1.0, u_max=2.0, n_controls=3),
         build_grid([2.0], [21]), (0, 2)),
        (builtin_ou_lq(a=0.0, sigma=0.4, q=0.0, c=0.0, u_max=1.0, n_controls=2),
         build_grid([1.0], [9]), (0, 1)),
    ]
    for m, g, (i, j) in cases:
        n = g.n_nodes
        w = np.zeros((n, m.controls.n_controls))
        w[:, i] = 0.5
        w[:, j] = 0.5
        aux = 0.3 * np.sin(g.coords())
        for scheme in ("hybrid", "upwind"):
            kernel = OperatorKernel(m, g, scheme)
            for drift in (None, aux):
                def gen(pol):
                    return kernel.assemble_policy(pol, aux_drift=drift).toarray()

                Q_mix = gen(MarkovPolicy(w))
                Qi = gen(MarkovPolicy.constant(i, n))
                Qj = gen(MarkovPolicy.constant(j, n))
                assert np.allclose(Q_mix, 0.5 * (Qi + Qj), atol=1e-12)


def test_policy_flip_changes_upwind_direction():
    # controls +-1; policy flips sign at x = 0, so upwind directions flip
    m = builtin_ou_lq(a=0.0, sigma=0.4, q=0.0, c=0.0, u_max=1.0, n_controls=2)
    g = build_grid([1.0], [9])
    coords = g.coords().ravel()
    assign = np.where(coords < 0, 1, 0)  # drift +1 left of 0, -1 right of 0
    Q = OperatorKernel(m, g, "upwind").assemble_policy(MarkovPolicy(assign)).toarray()
    h = g.spacings[0]
    i_left, i_right = 1, 7
    assert np.isclose(Q[i_left, i_left + 1], 0.5 * 0.16 / h**2 + 1.0 / h)
    assert np.isclose(Q[i_left, i_left - 1], 0.5 * 0.16 / h**2)
    assert np.isclose(Q[i_right, i_right - 1], 0.5 * 0.16 / h**2 + 1.0 / h)
    assert np.isclose(Q[i_right, i_right + 1], 0.5 * 0.16 / h**2)


def _interior_consistency_error(model, grid, f, lf, scheme):
    kernel = OperatorKernel(model, grid, scheme)
    coords = kernel.coords
    V = f(coords)
    applied = kernel.control_rows(V)[0]
    exact = lf(coords)
    I = kernel.I
    interior = np.all((I >= 1) & (I <= np.asarray(grid.counts) - 2), axis=1)
    return float(np.max(np.abs(applied - exact)[interior]))


def _fit_slope(hs, errs):
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def test_consistency_upwind_first_order():
    m = make_1d_model(lambda x: np.ones_like(x))
    f = lambda c: c[:, 0] ** 3
    lf = lambda c: 3 * c[:, 0] ** 2 + 0.5 * 6 * c[:, 0]
    hs, errs = [], []
    for count in (21, 41, 81, 161):
        g = build_grid([1.0], [count])
        hs.append(g.spacings[0])
        errs.append(_interior_consistency_error(m, g, f, lf, "upwind"))
    assert _fit_slope(hs, errs) >= 0.9


def test_consistency_hybrid_second_order_with_drift():
    m = make_1d_model(lambda x: np.ones_like(x))
    f = lambda c: c[:, 0] ** 3
    lf = lambda c: 3 * c[:, 0] ** 2 + 0.5 * 6 * c[:, 0]
    hs, errs = [], []
    for count in (21, 41, 81, 161):
        g = build_grid([1.0], [count])
        hs.append(g.spacings[0])
        errs.append(_interior_consistency_error(m, g, f, lf, "hybrid"))
    assert _fit_slope(hs, errs) >= 1.8


def test_consistency_second_order_no_drift():
    m = make_1d_model(lambda x: 0.0 * x)
    f = lambda c: np.sin(c[:, 0])
    lf = lambda c: -0.5 * np.sin(c[:, 0])
    hs, errs = [], []
    for count in (21, 41, 81, 161):
        g = build_grid([1.0], [count])
        hs.append(g.spacings[0])
        errs.append(_interior_consistency_error(m, g, f, lf, "hybrid"))
    assert _fit_slope(hs, errs) >= 1.8


def make_2d_correlated(sig_mat):
    sig_mat = np.asarray(sig_mat, dtype=float)
    return DiffusionModel(
        dim=2,
        drift=lambda x, u: np.broadcast_to([0.5, -0.25], np.shape(np.asarray(x))),
        sigma=lambda x: sig_mat,
        cost=lambda x, u: np.zeros(np.shape(np.asarray(x))[:-1]),
        controls=ControlSet(np.array([[0.0]])),
        name="corr2d",
    )


def test_cross_terms_consistent_and_monotone():
    m = make_2d_correlated(np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.8]])))
    f = lambda c: np.exp(0.4 * c[:, 0] + 0.7 * c[:, 1])

    def lf(c):
        v = f(c)
        bx, by = 0.5, -0.25
        grad = (bx * 0.4 + by * 0.7) * v
        hess = (0.5 * (1.0 * 0.4**2 + 0.8 * 0.7**2) + 0.3 * 0.4 * 0.7) * v
        return grad + hess

    hs, errs = [], []
    for count in (11, 21, 41):
        g = build_grid([1.0, 1.0], [count, count])
        gm = OperatorKernel(m, g).assemble_policy(MarkovPolicy.constant(0, g.n_nodes))
        assert (gm - sp.diags(gm.diagonal())).min() >= 0.0
        assert np.max(np.abs(gm.sum(axis=1))) <= 1e-12
        hs.append(g.spacings[0])
        errs.append(_interior_consistency_error(m, g, f, lf, "hybrid"))
    assert _fit_slope(hs, errs) >= 1.8


def test_cross_term_monotonicity_failure_is_loud():
    # A = [[0.2, 0.3], [0.3, 1.0]] is PD but not grid-diagonally dominant
    A = np.array([[0.2, 0.3], [0.3, 1.0]])
    m = make_2d_correlated(np.linalg.cholesky(A))
    g = build_grid([1.0, 1.0], [11, 11])
    with pytest.raises(GridSchemeError, match="refine"):
        OperatorKernel(m, g)


def test_apply_matches_assembled_matrix():
    lq = builtin_ou_lq(a=-1.0, sigma=1.2, q=1.0, c=0.3, u_max=2.0, n_controls=4)
    g1 = build_grid([3.0], [41])
    # correlated noise puts the shared corner edges into both paths
    corr = make_2d_correlated(np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.8]])))
    g2 = build_grid([1.0, 1.0], [9, 11])
    rng = np.random.default_rng(3)
    for m, g in ((lq, g1), (corr, g2)):
        for scheme in ("hybrid", "upwind"):
            kernel = OperatorKernel(m, g, scheme)
            n, k = g.n_nodes, m.controls.n_controls
            V = rng.uniform(0.5, 2.0, size=n)
            # the model's own rates, then random auxiliary drifts, so both
            # drift signs and both hybrid branches occur
            for aux in (None, *rng.normal(scale=8.0, size=(3, n, g.dim))):
                minus, plus = kernel.rates(aux)
                stacked = kernel.apply(minus, plus, V)
                assert stacked.shape == (k, n)
                assert np.array_equal(kernel.control_rows(V, aux), stacked)
                for i, row in enumerate(stacked):
                    lhs = kernel.apply(minus[i], plus[i], V)
                    assert np.array_equal(row, lhs)
                    rhs = kernel.assemble_policy(MarkovPolicy.constant(i, n), aux) @ V
                    assert np.allclose(lhs, rhs, atol=1e-10)


def _where_rates(kernel, b):
    """Drift rates by the two-branch formulas, the reference for the
    one-division differencing behind ``OperatorKernel.rates``."""
    h = kernel.h
    if kernel.scheme == "upwind":
        central = np.zeros_like(b, dtype=bool)
    else:
        central = np.abs(b) < 2.0 * h * kernel.q_ax
    plus = np.where(central, b / (2.0 * h), np.maximum(b, 0.0) / h)
    minus = np.where(central, -b / (2.0 * h), np.maximum(-b, 0.0) / h)
    return minus, plus


def _table_model(m, table):
    """``m`` with one control per field of the (k, n, d) ``table``, whose
    drift on the grid nodes is that field."""
    points = np.arange(len(table), dtype=float)[:, None]
    return dataclasses.replace(m, drift=lambda x, u: table[int(u[0])], controls=ControlSet(points))


def test_drift_rates_bit_identical_to_where_formulas(ou_uncontrolled):
    # the 13-node, h = 0.5 grid puts |b| exactly at 2 h q_ax at x = +-2
    corr = make_2d_correlated(np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.8]])))
    rng = np.random.default_rng(5)
    for m, g in ((ou_uncontrolled, build_grid([3.0], [13])), (corr, build_grid([1.0, 1.0], [9, 11]))):
        for scheme in ("hybrid", "upwind"):
            ref = OperatorKernel(m, g, scheme)
            cap = 2.0 * ref.h * ref.q_ax
            zeros = np.zeros((g.n_nodes, g.dim))
            b_all = np.stack(
                [m.drift_table(ref.coords)[0], zeros, -zeros, cap, -cap,
                 rng.normal(scale=3.0, size=(g.n_nodes, g.dim))]
            )
            kernel = OperatorKernel(_table_model(m, b_all), g, scheme)
            aux = rng.normal(scale=3.0, size=(g.n_nodes, g.dim))
            for got, b in ((kernel.rates(), b_all), (kernel.rates(aux), b_all + aux)):
                want = _where_rates(kernel, b)
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
                assert got[0].shape == b.shape


def test_kernel_owned_rates_match_drift_table():
    lq = builtin_ou_lq(a=-1.0, sigma=1.2, q=1.0, c=0.3, u_max=2.0, n_controls=4)
    corr = make_2d_correlated(np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.8]])))
    rng = np.random.default_rng(7)
    for m, g in ((lq, build_grid([3.0], [41])), (corr, build_grid([1.0, 1.0], [9, 11]))):
        n, k = g.n_nodes, m.controls.n_controls
        precise = MarkovPolicy(rng.integers(k, size=n))
        relaxed = MarkovPolicy(rng.dirichlet(np.ones(k), size=n))
        V = rng.uniform(0.5, 2.0, size=n)
        zero = np.zeros((n, g.dim))
        for scheme in ("hybrid", "upwind"):
            own = OperatorKernel(m, g, scheme)
            # a second kernel that differences the drift table plus a zero
            # auxiliary drift on every call
            ref = OperatorKernel(m, g, scheme)
            assert np.array_equal(own.control_rows(V), ref.control_rows(V, zero))
            # picking the differenced table equals differencing the picked drift
            Q = own.assemble_policy(precise)
            want = ref.assemble(*_where_rates(ref, precise.pick(ref.drift_table)))
            assert np.array_equal(Q.toarray(), want.toarray())
            Q = own.assemble_policy(relaxed)
            want = ref.assemble_policy(relaxed, aux_drift=zero)
            assert np.array_equal(Q.toarray(), want.toarray())
            # the rates replace the table, they are not kept beside it
            assert "drift_table" not in own.__dict__


def test_last_auxiliary_rates_are_kept(ou_uncontrolled):
    kernel = OperatorKernel(ou_uncontrolled, build_grid([3.0], [13]))
    aux = np.full((13, 1), 0.5)
    first = kernel.rates(aux)
    assert kernel.rates(aux.copy()) is first
    # the kept drift is a copy, so a field changed in place is differenced anew
    aux[:] = -0.5
    assert np.array_equal(kernel.rates(aux)[1], _where_rates(kernel, kernel.drift_table + aux)[1])
    assert not np.array_equal(kernel.rates(aux)[1], first[1])
