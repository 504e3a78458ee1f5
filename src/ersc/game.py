"""Ergodic zero-sum game between the control and an auxiliary drift.

The risk-sensitive value of a policy admits a long-run-average representation:
an adversary w pushes the extended diffusion

    dZ = b(Z, u) dt + chi_l(Z) Sigma(Z) w dt + Sigma(Z) dW

and collects payoff (r ^ L*) - |chi_l w|^2 / 2, with w confined to the ball
of radius l and switched off outside B_l by the radial cutoff chi_l.  Because
the payoff couples u and w additively, the minimax and maximin of the
discrete Isaacs equation coincide, and alternating Howard updates on the
average-cost Poisson equation converge to the saddle point.  ``solve_poisson``
solves it in renewal form on the pivot-free M-matrix LU of ``eigensolve``.

The w-maximization is available in closed form (quadratic penalty against a
linear reward over a ball); the cutoff is folded in exactly by the
substitution y = chi_l w.

One alternating loop computes three values and returns its GameSolution
(value, bias, both policies, residual, iterations, history): the saddle point
(``solve_ergodic_game``), the risk-sensitive cost of a fixed policy
(``sup_w_fixed_policy``, v held fixed) and the conventional average cost
(``average_cost_solve``, l = 0 so w = 0, no payoff cap).  It is the Howard
driver ``hjb._howard`` on the pair (v, w), one Poisson solve per step: a step
has settled when it moved rho and w by less than sqrt(tol), and the stop,
stall and budget rule is the driver's, raising GameSolveError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .discretize import Grid, OperatorKernel
from .eigensolve import _factor_m_matrix
from .hjb import MarkovPolicy, _howard
from .model import sigma_t_times, sigma_times
from .perturb import perturbed_cost

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
    """Result of the game loop: the saddle point of the truncated ergodic
    game, or its fixed-policy or w = 0 (average-cost) restriction.
    ``iterations`` counts its Poisson solves and ``history`` holds their
    values, the last being ``value``."""

    value: float
    bias: np.ndarray
    v_policy: MarkovPolicy
    w_policy: AuxiliaryPolicy
    residual: float
    iterations: int
    history: list
    l: float
    L_star: float


def inner_max_w(g, l: float):
    """Closed-form maximizer of g.w - |w|^2/2 over the ball |w| <= l.

    Vectorized over leading axes of g.  Returns (w_star, payoff):
    w* = g when |g| <= l, else l g / |g|; payoff |g|^2/2 inside,
    l|g| - l^2/2 on the boundary.
    """
    # NaN fails the comparison, so this rejects it too
    if not np.all(np.asarray(l) >= 0):
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
    """Average-cost Poisson equation G Psi + f = rho, Psi(origin) = 0, in
    renewal form; returns (rho, Psi).  Without the origin row and column,
    T = -G is a nonsingular M-matrix, as every node must reach the origin
    (else GameSolveError, for a transient origin too: grid chains are
    irreducible).  One pivot-free LU gives [a, b] = T^-1 [f', 1], b the mean
    hitting times of the origin; rho = (G_o a + f_o) / (1 + G_o b), Psi = a - rho b.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import breadth_first_order

    Gm = sp.csr_matrix(G)
    n = Gm.shape[0]
    f = np.asarray(f, dtype=float).ravel()
    reached = breadth_first_order((Gm != 0).T, origin_node, return_predecessors=False)
    if reached.size < n:
        raise GameSolveError(f"{n - reached.size} of {n} nodes do not reach the origin node")
    rest = np.delete(np.arange(n), origin_node)
    lu = _factor_m_matrix(-Gm[rest][:, rest].tocsc())
    ab = lu.solve(np.column_stack([f[rest], np.ones(n - 1)]))
    a_o, b_o = (Gm[origin_node][:, rest] @ ab).ravel()
    rho = float((a_o + f[origin_node]) / (1.0 + b_o))
    psi = np.insert(ab[:, 0] - rho * ab[:, 1], origin_node, 0.0)
    if not np.all(np.isfinite(psi)):
        raise GameSolveError("Poisson solve returned non-finite values")
    return rho, psi


class _GameIteration:
    """The alternating Howard loop on the average-cost Poisson equation.

    ``r_all`` is the (k, n) running-cost table; the payoff caps it at L*.
    Every row and generator comes from the kernel's rates under the current
    auxiliary drift.  l = 0 leaves the adversary no room, so w stays 0 and
    adds no drift: the rates are the kernel's cached ones.
    """

    def __init__(self, model, grid, r_all, l, L_star, scheme):
        # NaN fails both comparisons; L* = inf (no payoff cap) passes
        if not l >= 0:
            raise ValueError(f"l must be nonnegative, got {l!r}")
        if not L_star >= 0:
            raise ValueError(f"L_star must be nonnegative, got {L_star!r}")
        self.kernel = OperatorKernel(model, grid, scheme)
        self.grid = grid
        self.l = float(l)
        self.L_star = float(L_star)
        coords = self.kernel.coords
        self.chi = radial_cutoff(coords, self.l)
        self.sig = model.sigma(coords)
        self.rc_all = np.minimum(r_all, self.L_star)

    def aux_drift(self, w: np.ndarray) -> Optional[np.ndarray]:
        # Delta_l(x, w) = chi_l(x) Sigma(x) w(x), None where l = 0 forces w = 0
        if self.l == 0.0:
            return None
        return self.chi[:, None] * sigma_times(self.sig, w)

    def penalty(self, w: np.ndarray) -> np.ndarray:
        return 0.5 * np.einsum("ni,ni->n", self.chi[:, None] * w, self.chi[:, None] * w)

    def evaluate(self, v: MarkovPolicy, w: np.ndarray):
        G = self.kernel.assemble_policy(v, self.aux_drift(w))
        f = v.pick(self.rc_all) - self.penalty(w)
        return solve_poisson(G, f, self.grid.origin_node)

    def improve_w(self, psi: np.ndarray) -> np.ndarray:
        # exact inner maximization with the cutoff folded in: y = chi w
        gtilde = sigma_t_times(self.sig, self.grid.gradient(psi))
        y, _ = inner_max_w(gtilde, self.chi * self.l)
        w = np.zeros_like(y)
        alive = self.chi > 1e-12
        w[alive] = y[alive] / self.chi[alive, None]
        return w

    def improve_v(self, psi: np.ndarray, w: np.ndarray, held=None) -> np.ndarray:
        """The (k, n) rows of every control, or the (n,) row of a held policy."""
        minus, plus = self.kernel.rates(self.aux_drift(w))
        if held is None:
            return self.kernel.apply(minus, plus, psi) + self.rc_all
        return self.kernel.apply(held.pick(minus), held.pick(plus), psi) + held.pick(self.rc_all)

    def solve(self, v: MarkovPolicy, tol: float, max_iter: int, hold_v: bool = False):
        """Howard's driver on the pair (v, w) from (v, w = 0), stepped as in
        ``solve_ergodic_game``.  ``hold_v`` keeps v, and the residual is then
        v's own row, the only row evaluated."""
        last = {"rho": np.inf, "w": np.zeros((self.kernel.n, self.grid.dim))}

        def step(policy):
            v, w = policy
            rho, psi = self.evaluate(v, w)
            w_next = self.improve_w(psi)
            rows = self.improve_v(psi, w_next, v if hold_v else None)
            best = rows if hold_v else np.min(rows, axis=0)
            residual = float(np.max(np.abs(best - self.penalty(w_next) - rho)))
            moved = max(
                float(np.max(np.linalg.norm(w - last["w"], axis=-1))), abs(rho - last["rho"])
            )
            last.update(rho=rho, w=w, psi=psi)
            v_next = v if hold_v else MarkovPolicy(np.argmin(rows, axis=0))
            return rho, residual, moved < max(tol, 1e-12) ** 0.5, (v_next, w_next)

        (v, w), residual, history = _howard(
            step, (v, last["w"]), tol, max_iter, GameSolveError
        )
        return GameSolution(
            value=last["rho"],
            bias=last["psi"],
            v_policy=v,
            w_policy=AuxiliaryPolicy(field=w, bound=self.l, cutoff=self.chi),
            residual=residual,
            iterations=len(history),
            history=history,
            l=self.l,
            L_star=self.L_star,
        )


def _cost_table(model, grid: Grid, epsilon: float, family):
    """The (k, n) running-cost table, perturbed by ``family`` when epsilon > 0."""
    if epsilon != 0.0 and family is None:
        raise ValueError("epsilon > 0 requires a perturbation family")
    cost = perturbed_cost(family, epsilon) if epsilon != 0.0 else None
    return model.cost_table(grid.coords(), cost)


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
) -> GameSolution:
    """Saddle point of the truncated ergodic game by alternating Howard updates.

    For the current pair (v, w) the average-cost Poisson system
    Q^{v,w} Psi + f = rho, Psi(origin) = 0 is solved exactly; then w is
    refreshed by the closed-form ball maximization on chi_l Sigma' grad Psi
    and v by the pointwise row minimization.  The residual is the Isaacs
    residual (Bellman defect of the coupled system); ``max_iter`` caps the
    Poisson solves; stop, stall and budget rule as in the module docstring.

    ``epsilon`` = 0 runs the game on the raw running cost; positive epsilon
    requires the perturbation ``family`` that defines the inf-compact blend.
    """
    r_all = _cost_table(model, grid, epsilon, family)
    it = _GameIteration(model, grid, r_all, l, L_star, scheme)
    return it.solve(MarkovPolicy(np.argmin(it.rc_all, axis=0)), tol, max_iter)


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
) -> GameSolution:
    """Adversary-only iteration: approximates the policy's risk-sensitive value
    from below, increasing in l.

    The game loop with v held at ``policy``; its residual is the policy's own
    Bellman row; stop, stall and budget rule as in the module docstring.
    """
    if policy.is_relaxed:
        raise GameSolveError("fixed-policy game expects a precise policy")
    if L_star is None:
        L_star = default_truncation_rule(l)
    r_all = _cost_table(model, grid, epsilon, family)
    it = _GameIteration(model, grid, r_all, l, L_star, scheme)
    return it.solve(policy, tol, max_iter, hold_v=True)


def game_value_sweep(
    model,
    grid: Grid,
    epsilon: float,
    l_list: Sequence[float],
    tol: float = 1e-9,
    max_iter: int = 200,
    family=None,
    scheme: str = "hybrid",
):
    """Game values along an increasing list of drift bounds l, each with the
    payoff cap L* = ``default_truncation_rule(l)``.

    Returns a list of (l, rho_l); the sequence is non-decreasing up to solver
    tolerance and stabilizes near the optimal risk-sensitive value.
    ``max_iter`` caps the Poisson solves of each game.
    """
    l_list = list(l_list)
    if any(b <= a for a, b in zip(l_list, l_list[1:])):
        raise ValueError("l_list must be strictly increasing")

    def value(l):
        return solve_ergodic_game(
            model, grid, epsilon, l, default_truncation_rule(l), tol=tol, max_iter=max_iter,
            family=family, scheme=scheme,
        ).value

    return [(l, value(l)) for l in l_list]


def average_cost_solve(
    model,
    grid: Grid,
    cost_fn=None,
    tol: float = 1e-10,
    max_iter: int = 200,
    scheme: str = "hybrid",
) -> GameSolution:
    """Conventional ergodic control value by average-cost policy iteration.

    The game loop with l = 0, which freezes the w-player at zero, and no
    payoff cap (L* = inf): plain Howard iteration on the Poisson equation,
    with the stop, stall and budget rule of the module docstring.
    """
    r_all = model.cost_table(grid.coords(), cost_fn)
    it = _GameIteration(model, grid, r_all, 0.0, np.inf, scheme)
    return it.solve(MarkovPolicy(np.argmin(r_all, axis=0)), tol, max_iter)
