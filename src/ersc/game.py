"""Ergodic zero-sum game between the control and an auxiliary drift.

The risk-sensitive value of a policy admits a long-run-average representation:
an adversary w pushes the extended diffusion

    dZ = b(Z, u) dt + chi_l(Z) Sigma(Z) w dt + Sigma(Z) dW

and collects payoff (r ^ L*) - |chi_l w|^2 / 2, with w confined to the ball
of radius l and switched off outside B_l by the radial cutoff chi_l.  Because
the payoff couples u and w additively, the minimax and maximin of the
discrete Isaacs equation coincide, and alternating Howard updates on the
average-cost Poisson equation converge to the saddle point.

The w-maximization is available in closed form (quadratic penalty against a
linear reward over a ball); the cutoff is folded in exactly by the
substitution y = chi_l w.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import Grid, OperatorKernel
from .hjb import MarkovPolicy

__all__ = [
    "AuxiliaryPolicy",
    "GameSolution",
    "GameSolveError",
    "inner_max_w",
    "radial_cutoff",
    "solve_poisson",
    "solve_ergodic_game",
    "sup_w_fixed_policy",
    "game_value_sweep",
    "average_cost_solve",
    "default_truncation_rule",
]


class GameSolveError(RuntimeError):
    pass


def default_truncation_rule(l: float) -> float:
    """Default pairing of the payoff cap with the drift bound: L*(l) = 2l + 10."""
    return 2.0 * l + 10.0


def radial_cutoff(x: np.ndarray, l: float) -> np.ndarray:
    """Continuous cutoff: 1 on the ball of radius l/2, 0 outside radius l.

    Cosine taper in between; only continuity and the two plateaus matter.
    """
    s = np.linalg.norm(np.atleast_2d(x), axis=-1)
    out = np.zeros_like(s)
    out[s <= l / 2.0] = 1.0
    mid = (s > l / 2.0) & (s < l)
    out[mid] = 0.5 * (1.0 + np.cos(np.pi * (s[mid] - l / 2.0) / (l / 2.0)))
    return out


@dataclass(frozen=True)
class AuxiliaryPolicy:
    """Stationary Markov auxiliary drift field on grid nodes.

    Invariants: |field(x)| <= bound everywhere and field = 0 wherever the
    cutoff vanishes.
    """

    field: np.ndarray
    bound: float
    cutoff: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.field, dtype=float)
        object.__setattr__(self, "field", f)
        norms = np.linalg.norm(f, axis=-1)
        if np.any(norms > self.bound * (1 + 1e-9)):
            raise ValueError("auxiliary field exceeds its norm bound")
        dead = np.asarray(self.cutoff) <= 0.0
        if np.any(norms[dead] > 0.0):
            raise ValueError("auxiliary field must vanish where the cutoff is zero")


@dataclass(frozen=True)
class GameSolution:
    """Saddle point of the truncated ergodic game."""

    value: float
    bias: np.ndarray
    v_policy: MarkovPolicy
    w_policy: AuxiliaryPolicy
    residual: float
    iterations: int
    history: list
    l: float
    L_star: float
    grid: Optional[Grid] = field(repr=False, default=None)


def inner_max_w(g, l: float):
    """Closed-form maximizer of g.w - |w|^2/2 over the ball |w| <= l.

    Vectorized over leading axes of g.  Returns (w_star, payoff):
    w* = g when |g| <= l, else l g / |g|; payoff |g|^2/2 inside,
    l|g| - l^2/2 on the boundary.
    """
    if np.any(np.asarray(l) < 0):
        raise ValueError("l must be nonnegative")
    g = np.asarray(g, dtype=float)
    norms = np.linalg.norm(g, axis=-1)
    lb = np.broadcast_to(np.asarray(l, dtype=float), norms.shape)
    inside = norms <= lb
    scale = np.where(inside, 1.0, lb / np.maximum(norms, 1e-300))
    w = g * scale[..., None]
    payoff = np.where(inside, 0.5 * norms**2, lb * norms - 0.5 * lb**2)
    return w, payoff


def solve_poisson(G, f: np.ndarray, origin_node: int):
    """Average-cost Poisson equation G Psi + f = rho on a unichain generator.

    Solved as one augmented sparse system with the normalization
    Psi(origin) = 0, which pins the bias uniquely.
    Returns (rho, Psi).
    """
    Gm = G.matrix if hasattr(G, "matrix") else sp.csr_matrix(G)
    n = Gm.shape[0]
    f = np.asarray(f, dtype=float).ravel()
    ones = -np.ones((n, 1))
    norm_row = sp.coo_matrix((np.ones(1), ([0], [origin_node])), shape=(1, n))
    M = sp.bmat([[Gm, sp.csc_matrix(ones)], [norm_row, None]], format="csc")
    rhs = np.concatenate([-f, [0.0]])
    try:
        sol = spla.splu(M).solve(rhs)
    except RuntimeError as exc:  # singular factorization: reducible chain
        raise GameSolveError(f"Poisson solve failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise GameSolveError("Poisson solve returned non-finite values")
    return float(sol[n]), sol[:n]


def _sigma_fields(model, coords):
    s = np.asarray(model.sigma(coords), dtype=float)
    if s.ndim == 2:
        n = coords.shape[0]
        s = np.broadcast_to(s, (n,) + s.shape)
    return s


class _GameIteration:
    """Shared machinery for the saddle-point and fixed-policy iterations."""

    def __init__(self, model, grid, epsilon, l, L_star, family, scheme):
        self.kernel = OperatorKernel(model, grid, scheme)
        self.grid = grid
        self.model = model
        self.l = float(l)
        self.L_star = float(L_star)
        if self.l <= 0:
            raise ValueError("l must be positive")
        coords = self.kernel.coords
        self.chi = radial_cutoff(coords, self.l)
        self.sig = _sigma_fields(model, coords)

        if epsilon == 0.0:
            cost = model.cost
        else:
            if family is None:
                raise ValueError("epsilon > 0 requires a perturbation family")
            from .perturb import perturbed_cost

            cost = perturbed_cost(family, epsilon)
        self.rc_all = np.minimum(model.cost_table(coords, cost), self.L_star)
        self.b_all = model.drift_table(coords)

    def aux_drift(self, w: np.ndarray) -> np.ndarray:
        # Delta_l(x, w) = chi_l(x) Sigma(x) w(x)
        return self.chi[:, None] * np.einsum("nij,nj->ni", self.sig, w)

    def penalty(self, w: np.ndarray) -> np.ndarray:
        return 0.5 * np.einsum("ni,ni->n", self.chi[:, None] * w, self.chi[:, None] * w)

    def evaluate(self, v: MarkovPolicy, w: np.ndarray):
        G = self.kernel.assemble_policy(v, self.b_all, self.aux_drift(w))
        f = v.pick(self.rc_all) - self.penalty(w)
        return solve_poisson(G, f, self.grid.origin_node)

    def improve_w(self, psi: np.ndarray) -> np.ndarray:
        # exact inner maximization with the cutoff folded in: y = chi w
        gtilde = np.einsum("nij,ni->nj", self.sig, self.grid.gradient(psi))
        y, _ = inner_max_w(gtilde, self.chi * self.l)
        w = np.zeros_like(y)
        alive = self.chi > 1e-12
        w[alive] = y[alive] / self.chi[alive, None]
        return w

    def improve_v(self, psi: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self.kernel.apply(self.b_all + self.aux_drift(w), psi) + self.rc_all

    def bellman_residual(self, psi, rho, w) -> float:
        rows = self.improve_v(psi, w)
        best = np.min(rows, axis=0) - self.penalty(w)
        return float(np.max(np.abs(best - rho)))


def solve_ergodic_game(
    model,
    grid: Grid,
    epsilon: float,
    l: float,
    L_star: float,
    tol: float = 1e-9,
    max_iter: int = 200,
    family=None,
    scheme: str = "hybrid",
    v_init: Optional[MarkovPolicy] = None,
) -> GameSolution:
    """Saddle point of the truncated ergodic game by alternating Howard updates.

    For the current pair (v, w) the average-cost Poisson system
    Q^{v,w} Psi + f = rho, Psi(origin) = 0 is solved exactly; then w is
    refreshed by the closed-form ball maximization on chi_l Sigma' grad Psi
    and v by the pointwise row minimization.  Stops when the Isaacs residual
    (Bellman defect of the coupled system) falls below tol.

    ``epsilon`` = 0 runs the game on the raw running cost; positive epsilon
    requires the perturbation ``family`` that defines the inf-compact blend.
    """
    it = _GameIteration(model, grid, epsilon, l, L_star, family, scheme)
    n = it.kernel.n
    v = v_init or MarkovPolicy(np.argmin(it.rc_all, axis=0), tag="myopic")
    w = np.zeros((n, grid.dim))

    history = []
    residual = np.inf
    rho, psi = it.evaluate(v, w)
    k = 0
    for k in range(1, max_iter + 1):
        history.append(rho)
        w_new = it.improve_w(psi)
        rows = it.improve_v(psi, w_new)
        v_new = MarkovPolicy(np.argmin(rows, axis=0), tag=f"game[{k}]")
        rho_new, psi_new = it.evaluate(v_new, w_new)
        residual = it.bellman_residual(psi_new, rho_new, it.improve_w(psi_new))
        moved = max(
            float(np.max(np.linalg.norm(w_new - w, axis=-1))), abs(rho_new - rho)
        )
        v, w, rho, psi = v_new, w_new, rho_new, psi_new
        if residual < tol and moved < max(tol, 1e-12) ** 0.5:
            break
    else:
        if residual > tol * 100:
            raise GameSolveError(
                f"game iteration stalled at residual {residual:g} after {max_iter} steps"
            )

    aux = AuxiliaryPolicy(field=w, bound=it.l, cutoff=it.chi)
    return GameSolution(
        value=rho,
        bias=psi,
        v_policy=v,
        w_policy=aux,
        residual=residual,
        iterations=k,
        history=history,
        l=it.l,
        L_star=it.L_star,
        grid=grid,
    )


def sup_w_fixed_policy(
    model,
    grid: Grid,
    policy: MarkovPolicy,
    epsilon: float,
    l: float,
    tol: float = 1e-9,
    L_star: Optional[float] = None,
    max_iter: int = 200,
    family=None,
    scheme: str = "hybrid",
):
    """Adversary-only iteration: approximates the policy's risk-sensitive value
    from below, increasing in l.  Returns (value, AuxiliaryPolicy).
    """
    if L_star is None:
        L_star = default_truncation_rule(l)
    it = _GameIteration(model, grid, epsilon, l, L_star, family, scheme)
    if policy.is_relaxed:
        raise GameSolveError("fixed-policy game expects a precise policy")
    n = it.kernel.n
    w = np.zeros((n, grid.dim))
    rho_prev = -np.inf
    rho, psi = it.evaluate(policy, w)
    for _ in range(max_iter):
        w_new = it.improve_w(psi)
        rho_new, psi_new = it.evaluate(policy, w_new)
        moved = float(np.max(np.linalg.norm(w_new - w, axis=-1)))
        w, psi = w_new, psi_new
        rho_prev, rho = rho, rho_new
        if abs(rho - rho_prev) < tol and moved < max(tol, 1e-12) ** 0.5:
            break
    aux = AuxiliaryPolicy(field=w, bound=it.l, cutoff=it.chi)
    return rho, aux


def game_value_sweep(
    model,
    grid: Grid,
    epsilon: float,
    l_list: Sequence[float],
    L_rule: Optional[Callable[[float], float]] = None,
    tol: float = 1e-9,
    family=None,
    scheme: str = "hybrid",
):
    """Game values along an increasing list of drift bounds l.

    Returns a list of (l, rho_l); the sequence is non-decreasing up to solver
    tolerance and stabilizes near the optimal risk-sensitive value.
    """
    l_list = list(l_list)
    if any(b <= a for a, b in zip(l_list, l_list[1:])):
        raise ValueError("l_list must be strictly increasing")
    rule = L_rule or default_truncation_rule

    def value(l):
        return solve_ergodic_game(
            model, grid, epsilon, l, rule(l), tol=tol, family=family, scheme=scheme
        ).value

    return [(l, value(l)) for l in l_list]


def average_cost_solve(
    model,
    grid: Grid,
    cost_fn=None,
    cost_scale: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 200,
    scheme: str = "hybrid",
):
    """Conventional ergodic control value by average-cost policy iteration.

    The w-player is frozen at zero, leaving plain Howard iteration on the
    Poisson equation.  Returns (rho, Psi, policy).
    """
    kernel = OperatorKernel(model, grid, scheme)
    r_all = cost_scale * model.cost_table(kernel.coords, cost_fn)
    b_all = model.drift_table(kernel.coords)
    v = MarkovPolicy(np.argmin(r_all, axis=0), tag="myopic")
    rho_prev = np.inf
    for k in range(1, max_iter + 1):
        G = kernel.assemble_policy(v, b_all)
        rho, psi = solve_poisson(G, v.pick(r_all), grid.origin_node)
        rows = kernel.apply(b_all, psi) + r_all
        v_new = MarkovPolicy(np.argmin(rows, axis=0), tag=f"avg[{k}]")
        residual = float(np.max(np.abs(np.min(rows, axis=0) - rho)))
        if np.array_equal(v_new.assignment, v.assignment) or (
            abs(rho_prev - rho) < tol and residual < max(tol, 1e-9)
        ):
            return rho, psi, v
        v = v_new
        rho_prev = rho
    raise GameSolveError(f"average-cost policy iteration did not settle in {max_iter} steps")
