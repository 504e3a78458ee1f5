import numpy as np
import pytest

from ersc.model import (
    ControlSet,
    ModelError,
    QuadraticLyapLog,
    RegionSpec,
    builtin_ou_lq,
    builtin_w_network,
    check_assumptions,
    sigma_t_times,
    sigma_times,
    w_network_matrices,
)


def test_ou_lq_forms():
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.5, u_max=2.0, n_controls=5)
    x = np.array([1.5])
    u = np.array([0.5])
    assert np.allclose(m.drift(x, u), -1.5 + 0.5)
    assert np.isclose(m.cost(x, u), 0.5 * 0.75 * 1.5**2 + 0.5 * 0.5 * 0.25)
    assert m.controls.n_controls == 5
    assert np.allclose(m.controls.points.ravel(), np.linspace(-2, 2, 5))


def test_ou_uncontrolled_closed_form_value():
    # Gaussian ansatz: lambda = (-a - sqrt(a^2 - sigma^2 q)) / 2
    a, sigma, q = -1.0, 1.0, 0.75
    lam = (-a - np.sqrt(a**2 - sigma**2 * q)) / 2.0
    assert np.isclose(lam, 0.25)
    gamma = 2.0 * lam / sigma**2
    # quadratic ansatz coefficient solves sigma^2 g^2 / 2 - g + q/2 = 0
    assert np.isclose(0.5 * sigma**2 * gamma**2 + a * gamma + 0.5 * q, 0.0)


def test_ou_single_control_is_zero():
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.0, c=0.0, u_max=0.0, n_controls=1)
    assert np.allclose(m.controls.points, 0.0)
    assert np.isclose(m.cost(np.array([3.0]), m.controls.points[0]), 0.0)


def test_ou_rejects_bad_sigma():
    with pytest.raises(ModelError):
        builtin_ou_lq(a=-1.0, sigma=0.0, q=1.0, c=1.0, u_max=1.0, n_controls=3)


def test_control_set_rejects_duplicates():
    with pytest.raises(ModelError):
        ControlSet(np.array([[0.0], [0.0]]))
    with pytest.raises(ModelError, match="at 0 and 1"):
        ControlSet(np.array([[0.0], [-0.0]]))
    with pytest.raises(ModelError, match="at 0 and 2"):
        ControlSet(np.array([[1.0], [2.0], [1.0]]))
    with pytest.raises(ModelError, match="at 0 and 4"):
        ControlSet(np.array([[5.0, 1.0], [1.0, 2.0], [5.0, 0.0], [1.0, 2.0], [5.0, 1.0]]))
    assert ControlSet(np.array([[np.nan], [np.nan]])).n_controls == 2


def test_control_set_duplicate_pair_matches_pairwise_scan():
    rng = np.random.default_rng(3)
    for _ in range(200):
        pts = rng.integers(-2, 3, size=(int(rng.integers(2, 9)), 2)).astype(float)
        pts *= rng.choice([-1.0, 1.0], size=pts.shape)  # 0.0 and -0.0 alike
        pts[rng.random(pts.shape) < 0.1] = np.nan
        pairs = [
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if np.all(pts[i] == pts[j])
        ]
        if pairs:
            with pytest.raises(ModelError, match=f"at {pairs[0][0]} and {pairs[0][1]}$"):
                ControlSet(pts)
        else:
            ControlSet(pts)


def test_w_network_matrices():
    mu = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 1.5]])
    m1, m2 = w_network_matrices(mu)
    assert np.allclose(m1[1], [mu[1, 1] - mu[1, 0], mu[1, 1], 0.0])
    assert np.isclose(m2[1, 0], mu[1, 0] - mu[1, 1])
    assert np.allclose(m1[0], [mu[0, 0], 0.0, 0.0])
    assert np.allclose(m1[2], [0.0, 0.0, mu[2, 1]])


def test_w_network_drift_on_balanced_states(w_network):
    # e.x = 0 kills both projection terms
    mu = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 1.5]])
    m1, _ = w_network_matrices(mu)
    lvec = np.array([-0.5, -0.5, -0.5])
    x = np.array([2.0, -3.0, 1.0])
    for u in w_network.controls.points:
        assert np.allclose(w_network.drift(x, u), lvec - m1 @ x)


def test_w_network_single_active_class_cost(w_network):
    # e.x = 1 with all weight on class 3 pays exactly c_3
    u = np.concatenate([[0.0, 0.0, 1.0], [0.5, 0.5]])
    x = np.array([0.25, 0.25, 0.5])
    assert np.isclose(w_network.cost(x, u), 3.0)


def test_w_network_drift_positively_homogeneous(w_network):
    lvec = np.array([-0.5, -0.5, -0.5])
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.normal(size=3)
        t = rng.uniform(0.1, 5.0)
        u = w_network.controls.points[rng.integers(w_network.controls.n_controls)]
        lhs = w_network.drift(t * x, u) - lvec
        rhs = t * (w_network.drift(x, u) - lvec)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_w_network_rejects_nonpositive_rates():
    mu = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ModelError):
        builtin_w_network([1, 1, 1], mu, [0, 0, 0], [1, 1, 1], 1)
    with pytest.raises(ModelError):
        builtin_w_network([1, 0, 1], np.array([[1, 0], [1, 2], [0, 1.5]]), [0, 0, 0], [1, 1, 1], 1)


def test_check_assumptions_ou_quadratic():
    # pure near-monotone case: K = R, log-Lyapunov gamma x^2 / 2, gamma = 0.25
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
    lyap = QuadraticLyapLog(np.array([[0.125]]))  # x' Q x = 0.125 x^2
    hbar = lambda x, u: np.zeros(np.shape(np.asarray(x))[:-1])
    xs = np.linspace(-8, 8, 41).reshape(-1, 1)
    samples = [(x, m.controls.points[0]) for x in xs]
    report = check_assumptions(m, lyap, hbar, (1.0, 1.0, 0.5), samples)
    assert report.ok
    assert report.worst_slack > 0


def test_check_assumptions_zero_cost_slacks():
    # with r = 0 and a flat candidate the slack is exactly C1 or C2 per side
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.0, c=0.0, u_max=0.0, n_controls=1)
    region = RegionSpec(indicator=lambda x: np.asarray(x)[..., 0] > 0)
    m = type(m)(
        dim=m.dim,
        drift=m.drift,
        sigma=m.sigma,
        cost=m.cost,
        controls=m.controls,
        region_K=region,
        name=m.name,
    )
    lyap = QuadraticLyapLog(np.array([[0.0]]))
    hbar = lambda x, u: np.zeros(np.shape(np.asarray(x))[:-1])
    C1, C2 = 0.7, 1.3
    samples = [(np.array([x]), m.controls.points[0]) for x in (-2.0, -1.0, 1.0, 2.0)]
    report = check_assumptions(m, lyap, hbar, (C1, C2, 0.5), samples)
    assert report.ok
    assert np.isclose(report.worst_slack, min(C1, C2))


def test_check_assumptions_rejects_bad_c3():
    m = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
    with pytest.raises(ModelError):
        check_assumptions(m, QuadraticLyapLog([[0.1]]), lambda x, u: 0.0, (1, 1, 1.0), [])
    # a candidate without exact derivatives is refused, not differenced
    with pytest.raises(ModelError, match="grad and hess"):
        check_assumptions(m, lambda x: 0.1 * float(np.sum(x**2)), lambda x, u: 0.0, (1, 1, 0.5), [])


def test_w_network_assumption_constants(w_network):
    # certified drift inequalities for the shipped parameter set
    from ersc.discretize import build_grid

    lyap = QuadraticLyapLog(np.diag([0.2, 0.1, 0.1]))
    hbar = lambda x, u: 0.05 * np.sum(np.asarray(x) ** 2, axis=-1)
    grid = build_grid([4.0] * 3, [9] * 3)
    samples = [(x, u) for x in grid.coords()[::3] for u in w_network.controls.points]
    report = check_assumptions(w_network, lyap, hbar, (1.25, 5.5, 0.5), samples)
    assert report.ok, f"worst slack {report.worst_slack} at {report.worst_point}"


def test_check_assumptions_counts_non_finite_slack_as_violation(w_network):
    # a NaN hbar certifies nothing off K: every sample there is a violation
    from ersc.discretize import build_grid

    lyap = QuadraticLyapLog(np.diag([0.2, 0.1, 0.1]))
    hbar = lambda x, u: np.nan * np.sum(np.asarray(x) ** 2, axis=-1)
    coords = build_grid([4.0] * 3, [7] * 3).coords()
    samples = [(x, u) for x in coords for u in w_network.controls.points]
    report = check_assumptions(w_network, lyap, hbar, (1.25, 5.5, 0.5), samples)
    assert not report.ok
    assert report.worst_slack == -np.inf
    off_K = ~np.asarray(w_network.region_K.inside(coords))
    assert len(report.violations) == off_K.sum() * len(w_network.controls.points)


def test_sigma_products_constant_and_per_node():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(3, 3))
    v = rng.normal(size=(5, 3))
    per_node = np.broadcast_to(S, (5, 3, 3))
    for Sig in (S, per_node):
        assert np.allclose(sigma_times(Sig, v), [S @ row for row in v], rtol=0, atol=1e-14)
        assert np.allclose(sigma_t_times(Sig, v), [S.T @ row for row in v], rtol=0, atol=1e-14)
