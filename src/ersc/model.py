"""Controlled diffusion models, running costs, and structural checks.

A model bundles the drift b(x,u), the diffusion factor Sigma(x), the running
cost r(x,u), a finite control set, and the open region on which the cost is
inf-compact.  All evaluators follow a vectorized convention:

    drift(x, u)  : x with shape (..., dim), u a control point (m,) or an
                   array (..., m) -> (..., dim)
    sigma(x)     : (dim, dim) constant or (..., dim, dim)
    cost(x, u)   : (...,) nonnegative

Model objects are frozen after construction; evaluators must be pure so they
can be called concurrently.

Two benchmark families are built in: a scalar linear-quadratic model with a
closed-form risk-sensitive value, and the three-dimensional heavy-traffic
limit of the "W" parallel-server network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ControlSet",
    "RegionSpec",
    "DiffusionModel",
    "AssumptionReport",
    "QuadraticLyapLog",
    "builtin_ou_lq",
    "builtin_w_network",
    "check_assumptions",
    "sigma_times",
    "sigma_t_times",
]


class ModelError(ValueError):
    """Raised for invalid model parameters."""


@dataclass(frozen=True)
class ControlSet:
    """Finite discretization of the compact control space.

    Attributes:
        points: (k, m) array, one control point per row.
        description: free-text label of what the discretization represents.
    """

    points: np.ndarray
    description: str = ""

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] == 0:
            raise ModelError("control set must be non-empty")
        # pairwise distinct (exact ==): equal rows are neighbours after a stable
        # sort, in index order, so the least first index names the least pair
        order = np.lexsort(pts.T[::-1])
        same = np.flatnonzero(np.all(pts[order[1:]] == pts[order[:-1]], axis=1))
        if same.size:
            k = same[np.argmin(order[same])]
            raise ModelError(f"duplicate control points at {order[k]} and {order[k + 1]}")
        object.__setattr__(self, "points", pts)

    @property
    def n_controls(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class RegionSpec:
    """Open region of the state space plus an optional continuous blend.

    ``indicator(x)`` returns a boolean array (True = inside).  ``blend`` is a
    continuous surrogate equal to 1 strictly inside and 0 strictly outside,
    transitioning over a collar; it defaults to the sharp indicator cast to
    float.
    """

    indicator: Callable[[np.ndarray], np.ndarray]
    blend: Optional[Callable[[np.ndarray], np.ndarray]] = None
    description: str = ""

    def inside(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.indicator(np.asarray(x, dtype=float)))

    def blend_value(self, x: np.ndarray) -> np.ndarray:
        if self.blend is None:
            return self.inside(x).astype(float)
        return np.clip(np.asarray(self.blend(np.asarray(x, dtype=float))), 0.0, 1.0)

    @staticmethod
    def full_space() -> "RegionSpec":
        return RegionSpec(
            indicator=lambda x: np.ones(np.shape(x)[:-1], dtype=bool),
            description="all of R^d",
        )


@dataclass(frozen=True)
class DiffusionModel:
    """Nondegenerate controlled diffusion dX = b(X,U)dt + Sigma(X)dW.

    Attributes:
        dim: state dimension.
        drift: vectorized drift evaluator b(x, u).
        sigma: diffusion factor evaluator Sigma(x).
        cost: vectorized nonnegative running cost r(x, u).
        controls: finite control set.
        region_K: open set on which the running cost is inf-compact.
        name: a label for the reader, shown in the repr; nothing reads it.
    """

    dim: int
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
    controls: ControlSet
    region_K: RegionSpec = field(default_factory=RegionSpec.full_space)
    name: str = "model"

    def __post_init__(self):
        if self.dim < 1:
            raise ModelError("dim must be >= 1")

    def diffusion_matrix(self, x: np.ndarray) -> np.ndarray:
        """A(x) = Sigma(x) Sigma(x)^T, broadcast over leading axes of x."""
        s = np.asarray(self.sigma(np.asarray(x, dtype=float)), dtype=float)
        if s.ndim == 2:
            return s @ s.T
        return np.einsum("...ij,...kj->...ik", s, s)

    def cost_table(self, x: np.ndarray, cost: Optional[Callable] = None) -> np.ndarray:
        """(k, n) table of r(x_i, u_k) over all controls for states x (n, d).

        ``cost`` replaces the model's running cost (perturbed, capped or
        comparison costs share the same per-control layout).
        """
        cost = self.cost if cost is None else cost
        x = np.asarray(x, dtype=float)
        rows = [np.asarray(cost(x, u), dtype=float) for u in self.controls.points]
        return np.stack(rows, axis=0)

    def drift_table(self, x: np.ndarray) -> np.ndarray:
        """(k, n, d) table of b(x_i, u_k) over all controls."""
        x = np.asarray(x, dtype=float)
        rows = [
            np.asarray(self.drift(x, u), dtype=float).reshape(x.shape)
            for u in self.controls.points
        ]
        return np.stack(rows, axis=0)


def sigma_times(S, w: np.ndarray) -> np.ndarray:
    """Sigma w, row-wise for w (n, d); S is Sigma constant (d, d) or per row (n, d, d)."""
    S = np.asarray(S, dtype=float)
    if S.shape == (1, 1):
        return w * S[0, 0] + 0.0  # w @ S.T bit for bit (it sums from +0.0), 5x faster
    if S.ndim == 2:
        return w @ S.T
    return np.einsum("nij,nj->ni", S, w)


def sigma_t_times(S, g: np.ndarray) -> np.ndarray:
    """Sigma' g, row-wise for g (n, d); S is Sigma constant (d, d) or per row (n, d, d)."""
    S = np.asarray(S, dtype=float)
    if S.shape == (1, 1):
        return sigma_times(S, g)
    if S.ndim == 2:
        return g @ S
    return np.einsum("nij,ni->nj", S, g)


# ---------------------------------------------------------------------------
# Built-in benchmarks
# ---------------------------------------------------------------------------


def builtin_ou_lq(
    a: float,
    sigma: float,
    q: float,
    c: float,
    u_max: float,
    n_controls: int,
) -> DiffusionModel:
    """Scalar linear-quadratic benchmark.

    Dynamics dX = (a X + u) dt + sigma dW with running cost
    r(x,u) = q x^2 / 2 + c u^2 / 2 and controls equispaced in
    [-u_max, u_max].  For the uncontrolled stable case (u_max = 0, a < 0)
    the risk-sensitive value has the closed form
    (-a - sqrt(a^2 - sigma^2 q)) / 2 with a Gaussian-shaped eigenfunction.

    Raises:
        ModelError: if sigma <= 0 or the control parameters are invalid.
    """
    if sigma <= 0:
        raise ModelError("sigma must be positive")
    if n_controls < 1:
        raise ModelError("n_controls must be >= 1")
    if u_max < 0:
        raise ModelError("u_max must be >= 0")
    if q < 0 or c < 0:
        raise ModelError("cost weights must be nonnegative")

    if n_controls == 1:
        points = np.zeros((1, 1))
    else:
        points = np.linspace(-u_max, u_max, n_controls).reshape(-1, 1)
    controls = ControlSet(points, description=f"{n_controls} points in [-{u_max}, {u_max}]")

    sig = float(sigma)

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        return a * x + u

    def sigma_fn(x):
        return np.array([[sig]])

    def cost(x, u):
        # scalar state and control: x.x and u.u are the squares of the one column
        x = np.asarray(x, dtype=float)[..., 0]
        u = np.asarray(u, dtype=float)[..., 0]
        return 0.5 * q * (x * x) + 0.5 * c * (u * u)

    return DiffusionModel(
        dim=1,
        drift=drift,
        sigma=sigma_fn,
        cost=cost,
        controls=controls,
        region_K=RegionSpec.full_space(),
        name="ou_lq",
    )


def _simplex_grid(n_points: int, n_divisions: int) -> np.ndarray:
    """All compositions of n_divisions into n_points parts, scaled to sum 1."""
    if n_divisions == 0:
        return np.full((1, n_points), 1.0 / n_points)
    combos = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            combos.append(prefix + [remaining])
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], n_divisions, n_points)
    return np.asarray(combos, dtype=float) / n_divisions


def w_network_matrices(service_rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Routing matrices of the W network from class-by-pool service rates.

    ``service_rates`` is a 3x2 array mu[class, pool]; only mu[0,0], mu[1,0],
    mu[1,1], mu[2,1] enter (class 1 <-> pool 1, class 2 <-> both pools,
    class 3 <-> pool 2).
    """
    mu = np.asarray(service_rates, dtype=float)
    if mu.shape != (3, 2):
        raise ModelError("service_rates must be a 3x2 class-by-pool matrix")
    mu11, mu21, mu22, mu32 = mu[0, 0], mu[1, 0], mu[1, 1], mu[2, 1]
    m1 = np.array(
        [
            [mu11, 0.0, 0.0],
            [mu22 - mu21, mu22, 0.0],
            [0.0, 0.0, mu32],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.0],
            [mu21 - mu22, 0.0],
            [0.0, 0.0],
        ]
    )
    return m1, m2


def builtin_w_network(
    arrival_rates: Sequence[float],
    service_rates: np.ndarray,
    l_vec: Sequence[float],
    cost_weights: Sequence[float],
    n_controls: int,
    region_delta: float = 0.2,
) -> DiffusionModel:
    """Diffusion limit of the W parallel-server network in heavy traffic.

    Drift b(x,u) = l - M1 (x - (e.x)^+ u^c) + (e.x)^- M2 u^s with the
    scheduling control u = (u^c, u^s) on the product of a 2-simplex and a
    1-simplex, Sigma = diag(sqrt(2 lambda_i)), and queueing cost
    r(x,u) = sum_i c_i (e.x)^+ u_i^c.

    ``n_controls`` sets the number of subdivisions per simplex; the control
    set is the cross product of the two simplex grids.
    """
    lam = np.asarray(arrival_rates, dtype=float)
    lv = np.asarray(l_vec, dtype=float)
    cw = np.asarray(cost_weights, dtype=float)
    if lam.shape != (3,) or lv.shape != (3,) or cw.shape != (3,):
        raise ModelError("arrival_rates, l_vec, cost_weights must be 3-vectors")
    if np.any(lam <= 0):
        raise ModelError("arrival rates must be positive")
    mu = np.asarray(service_rates, dtype=float)
    if np.any(mu[np.nonzero(mu)] <= 0) or np.any(mu < 0):
        raise ModelError("service rates must be nonnegative, active ones positive")
    for key in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        if mu[key] <= 0:
            raise ModelError(f"service rate mu{key} must be positive")
    if n_controls < 1:
        raise ModelError("n_controls must be >= 1")

    m1, m2 = w_network_matrices(mu)
    sig = np.diag(np.sqrt(2.0 * lam))

    uc = _simplex_grid(3, n_controls)
    us = _simplex_grid(2, n_controls)
    pts = np.array([np.concatenate([a, b]) for a in uc for b in us])
    controls = ControlSet(pts, description=f"simplex product, {n_controls} divisions")

    def drift(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        uc_part = u[..., :3]
        us_part = u[..., 3:]
        ex = np.sum(x, axis=-1, keepdims=True)
        pos = np.maximum(ex, 0.0)
        neg = np.maximum(-ex, 0.0)
        work = x - pos * np.broadcast_to(uc_part, np.shape(x))
        idle = neg * np.broadcast_to(us_part, np.shape(x)[:-1] + (2,))
        return lv - work @ m1.T + idle @ m2.T

    def sigma_fn(x):
        return sig

    def cost(x, u):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        pos = np.maximum(np.sum(x, axis=-1), 0.0)
        return pos * (np.broadcast_to(u[..., :3], np.shape(x)) @ cw)

    delta = float(region_delta)

    def k_indicator(x):
        x = np.asarray(x, dtype=float)
        ex = np.abs(np.sum(x, axis=-1))
        return ex > delta * np.linalg.norm(x, axis=-1)

    def k_blend(x):
        x = np.asarray(x, dtype=float)
        ex = np.abs(np.sum(x, axis=-1))
        nrm = np.linalg.norm(x, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(nrm > 0, ex / np.maximum(nrm, 1e-300), 0.0)
        return np.clip(2.0 * ratio / delta - 1.0, 0.0, 1.0)

    region = RegionSpec(
        indicator=k_indicator,
        blend=k_blend,
        description=f"|e.x| > {delta} |x|",
    )

    return DiffusionModel(
        dim=3,
        drift=drift,
        sigma=sigma_fn,
        cost=cost,
        controls=controls,
        region_K=region,
        name="w_network",
    )


# ---------------------------------------------------------------------------
# Structural assumption checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the pointwise drift-inequality certification.

    ``violations`` holds (x, u, which, slack) tuples with slack < 0; the
    worst (most negative) slack over all checked points is recorded even
    when no violation occurred.
    """

    checked_points: int
    violations: list
    constants: tuple
    worst_slack: float
    worst_point: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


class QuadraticLyapLog:
    """log-Lyapunov candidate F(x) = log V(x) = x' Q x, given by its exact derivatives."""

    def __init__(self, Q: np.ndarray):
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return x @ (self.Q + self.Q.T)

    def hess(self, x):
        return self.Q + self.Q.T


def check_assumptions(
    model: DiffusionModel,
    lyap_log,
    hbar: Callable[[np.ndarray, np.ndarray], np.ndarray],
    constants: tuple,
    sample_points: Sequence[tuple],
) -> AssumptionReport:
    """Certify the mixed drift inequalities pointwise on user samples.

    With F = log V the certified inequalities are, in logarithmic form,

        L^u F(x) + |Sigma(x)' grad F(x)|^2 / 2  <=  C1 - hbar(x,u)   off K,
        L^u F(x) + |Sigma(x)' grad F(x)|^2 / 2  <=  C2 + C3 r(x,u)   on K,

    recorded as slack = RHS - LHS at each sample; a slack that is not finite
    (a NaN hbar, say) is recorded as -inf, a violation.  ``lyap_log`` must expose
    exact ``grad``/``hess`` evaluators, as ``QuadraticLyapLog`` does.

    Raises:
        ModelError: if C3 is outside (0, 1), C1 or C2 is nonpositive, or
            ``lyap_log`` lacks ``grad`` or ``hess``.
    """
    C1, C2, C3 = (float(c) for c in constants)
    if not (0 < C3 < 1):
        raise ModelError("C3 must lie in (0, 1)")
    if min(C1, C2) <= 0:
        raise ModelError("C1, C2 must be positive")

    missing = [name for name in ("grad", "hess") if not hasattr(lyap_log, name)]
    if missing:
        raise ModelError(
            f"log-Lyapunov candidate lacks exact {' and '.join(missing)} evaluator(s)"
        )
    violations = []
    worst = math.inf
    worst_pt = None

    for x, u in sample_points:
        x = np.asarray(x, dtype=float).reshape(model.dim)
        u = np.asarray(u, dtype=float)
        g = np.asarray(lyap_log.grad(x), dtype=float)
        H = np.asarray(lyap_log.hess(x), dtype=float)
        A = model.diffusion_matrix(x)
        b = np.asarray(model.drift(x, u), dtype=float)
        gen = float(b @ g + 0.5 * np.sum(A * H))
        quad = 0.5 * float(g @ A @ g)
        lhs = gen + quad
        inside = bool(model.region_K.inside(x))
        if inside:
            rhs = C2 + C3 * float(model.cost(x, u))
            which = "on_K"
        else:
            rhs = C1 - float(hbar(x, u))
            which = "off_K"
        slack = rhs - lhs
        # a non-finite slack certifies nothing: it is a violation, ranked worst
        if not -math.inf < slack < math.inf:
            slack = -math.inf
        if slack < worst:
            worst = slack
            worst_pt = (x.copy(), u.copy(), which)
        if slack < 0:
            violations.append((x.copy(), u.copy(), which, slack))

    return AssumptionReport(
        checked_points=len(sample_points),
        violations=violations,
        constants=(C1, C2, C3),
        worst_slack=worst,
        worst_point=worst_pt,
    )
