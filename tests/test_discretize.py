import numpy as np
import pytest

from ersc.discretize import (
    GridSchemeError,
    OperatorKernel,
    assemble_generator,
    assemble_policy_generator,
    build_grid,
)
from ersc.hjb import MarkovPolicy
from ersc.model import ControlSet, DiffusionModel, builtin_ou_lq


def make_1d_model(drift_fn, sigma=1.0, points=((0.0,),)):
    return DiffusionModel(
        dim=1,
        drift=lambda x, u: drift_fn(np.asarray(x, dtype=float)),
        sigma=lambda x: np.array([[sigma]]),
        cost=lambda x, u: np.zeros(np.shape(np.asarray(x))[:-1]),
        controls=ControlSet(np.asarray(points)),
        nondeg_floor=sigma**2,
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
        build_grid([1.0, 1.0, 1.0], [300, 300, 300], node_cap=10**6)


def test_pure_diffusion_stencil():
    # b = 0, sigma = 1: neighbors 1/(2h^2), diagonal -1/h^2
    m = make_1d_model(lambda x: 0.0 * x)
    g = build_grid([1.0], [5])
    h = g.spacings[0]
    Q = assemble_generator(m, g, m.controls.points[0]).matrix.toarray()
    i = 2
    assert np.isclose(Q[i, i - 1], 0.5 / h**2)
    assert np.isclose(Q[i, i + 1], 0.5 / h**2)
    assert np.isclose(Q[i, i], -1.0 / h**2)


def test_upwind_drift_stencil():
    # b = 1, sigma = 1, upwind mode: right 1/(2h^2) + 1/h, left 1/(2h^2)
    m = make_1d_model(lambda x: np.ones_like(x))
    g = build_grid([1.0], [5])
    h = g.spacings[0]
    Q = assemble_generator(m, g, m.controls.points[0], scheme="upwind").matrix.toarray()
    i = 2
    assert np.isclose(Q[i, i + 1], 0.5 / h**2 + 1.0 / h)
    assert np.isclose(Q[i, i - 1], 0.5 / h**2)
    assert np.isclose(Q[i].sum(), 0.0, atol=1e-13)


def test_hybrid_uses_central_when_admissible():
    m = make_1d_model(lambda x: np.ones_like(x))
    g = build_grid([1.0], [5])
    h = g.spacings[0]
    Q = assemble_generator(m, g, m.controls.points[0], scheme="hybrid").matrix.toarray()
    i = 2
    assert np.isclose(Q[i, i + 1], 0.5 / h**2 + 0.5 / h)
    assert np.isclose(Q[i, i - 1], 0.5 / h**2 - 0.5 / h)


def test_hybrid_falls_back_to_upwind():
    # |b| h > sigma^2 forces the one-sided branch; off-diagonals stay >= 0
    m = make_1d_model(lambda x: 10.0 * np.ones_like(x), sigma=0.5)
    g = build_grid([1.0], [5])
    gm = assemble_generator(m, g, m.controls.points[0], scheme="hybrid")
    assert gm.min_offdiag() >= 0.0
    assert np.max(np.abs(gm.row_sums())) <= 1e-12
    with pytest.raises(GridSchemeError):
        assemble_generator(m, g, m.controls.points[0], scheme="central")


def test_generator_invariants_random_models():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = -rng.uniform(0.3, 2.0)
        sig = rng.uniform(0.5, 2.0)
        m = builtin_ou_lq(a=a, sigma=sig, q=rng.uniform(0, 2), c=0.1, u_max=1.0, n_controls=3)
        g = build_grid([rng.uniform(2, 6)], [int(rng.integers(11, 81))])
        u = m.controls.points[rng.integers(3)]
        gm = assemble_generator(m, g, u)
        assert np.max(np.abs(gm.row_sums())) <= 1e-12
        assert gm.min_offdiag() >= 0.0
        assert gm.is_irreducible()


def test_policy_generator_matches_constant_control():
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=1.0, u_max=2.0, n_controls=3)
    g = build_grid([2.0], [21])
    Q_u = assemble_generator(m, g, m.controls.points[2]).matrix
    pol = MarkovPolicy.constant(2, g.n_nodes)
    Q_p = assemble_policy_generator(m, g, pol).matrix
    assert np.allclose((Q_u - Q_p).toarray(), 0.0)


def test_relaxed_policy_mixes_rows():
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=1.0, u_max=2.0, n_controls=3)
    g = build_grid([2.0], [21])
    n = g.n_nodes
    w = np.zeros((n, 3))
    w[:, 0] = 0.5
    w[:, 2] = 0.5
    relaxed = MarkovPolicy(w)
    Q_mix = assemble_policy_generator(m, g, relaxed).matrix.toarray()
    Q0 = assemble_policy_generator(m, g, MarkovPolicy.constant(0, n)).matrix.toarray()
    Q2 = assemble_policy_generator(m, g, MarkovPolicy.constant(2, n)).matrix.toarray()
    assert np.allclose(Q_mix, 0.5 * (Q0 + Q2), atol=1e-12)


def test_policy_flip_changes_upwind_direction():
    # controls +-1; policy flips sign at x = 0, so upwind directions flip
    m = builtin_ou_lq(a=0.0, sigma=0.4, q=0.0, c=0.0, u_max=1.0, n_controls=2)
    g = build_grid([1.0], [9])
    coords = g.coords().ravel()
    assign = np.where(coords < 0, 1, 0)  # drift +1 left of 0, -1 right of 0
    Q = assemble_policy_generator(m, g, MarkovPolicy(assign), scheme="upwind").matrix.toarray()
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
    applied = kernel.apply(kernel.control_drift(model.controls.points[0]), V)
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
        nondeg_floor=float(np.min(np.linalg.eigvalsh(sig_mat @ sig_mat.T))),
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
        gm = assemble_generator(m, g, m.controls.points[0])
        assert gm.min_offdiag() >= 0.0
        assert np.max(np.abs(gm.row_sums())) <= 1e-12
        hs.append(g.spacings[0])
        errs.append(_interior_consistency_error(m, g, f, lf, "hybrid"))
    assert _fit_slope(hs, errs) >= 1.8


def test_cross_term_monotonicity_failure_is_loud():
    # A = [[0.2, 0.3], [0.3, 1.0]] is PD but not grid-diagonally dominant
    A = np.array([[0.2, 0.3], [0.3, 1.0]])
    m = make_2d_correlated(np.linalg.cholesky(A))
    g = build_grid([1.0, 1.0], [11, 11])
    with pytest.raises(GridSchemeError, match="refine"):
        assemble_generator(m, g, m.controls.points[0])


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
            V = rng.uniform(0.5, 2.0, size=g.n_nodes)
            # the model's per-control fields plus random ones, so both drift
            # signs and both hybrid branches occur
            b_all = np.concatenate(
                [m.drift_table(kernel.coords), rng.normal(scale=8.0, size=(3, g.n_nodes, g.dim))]
            )
            stacked = kernel.apply(b_all, V)
            assert stacked.shape == (b_all.shape[0], g.n_nodes)
            for b, row in zip(b_all, stacked):
                lhs = kernel.apply(b, V)
                assert np.array_equal(row, lhs)
                rhs = kernel.assemble(b).matrix @ V
                assert np.allclose(lhs, rhs, atol=1e-10)

    # a central-scheme monotonicity failure raised from the stacked rows names
    # the same node as the first failing control on its own
    kernel = OperatorKernel(lq, g1, "central")
    b_all = 4.0 * lq.drift_table(kernel.coords)
    V = np.ones(g1.n_nodes)
    single = []
    for b in b_all:
        try:
            kernel.apply(b, V)
        except GridSchemeError as exc:
            single.append(str(exc))
    assert single
    with pytest.raises(GridSchemeError, match=r"at node \d+ \(x=") as info:
        kernel.apply(b_all, V)
    assert str(info.value) == single[0]


def test_dump_coo_roundtrip(tmp_path):
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=0.0, u_max=0.0, n_controls=1)
    g = build_grid([1.0], [5])
    gm = assemble_generator(m, g, m.controls.points[0])
    path = tmp_path / "gen.coo"
    gm.dump_coo(path)
    rows = [line.split() for line in path.read_text().splitlines()]
    dense = np.zeros((5, 5))
    for r, c, v in rows:
        dense[int(r), int(c)] += float(v)
    assert np.allclose(dense, gm.matrix.toarray())
