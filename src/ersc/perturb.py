"""Inf-compact cost perturbations and the limit studies they support.

Under the mixed structural hypothesis the running cost need not be
inf-compact on the whole space, which obstructs a direct eigenvalue
treatment.  The repair is a comparison function h with

    r <= h <= 2 + 2 hbar 1_{H^c} + 2 r 1_H,      H = (K x U) u {r > hbar},

inf-compact jointly in (x, u), from which the perturbed cost

    r_eps = (1 - eps/eps0) r + eps h,   eps0 = (1 - C3) / 8,

is inf-compact for every 0 < eps < eps0 and its optimal value converges to
the unperturbed one as eps -> 0.  This module builds a concrete h by
continuous blending, certifies the required bounds on the grid (failing
loudly otherwise), and runs the eps -> 0 and risk-neutral kappa -> 0 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .discretize import Grid
from .hjb import solve_hjb

__all__ = [
    "PerturbationFamily",
    "PerturbationError",
    "build_h",
    "family_from_h",
    "perturbed_cost",
    "epsilon_sweep",
    "kappa_sweep",
    "EpsilonSweepResult",
    "KappaSweepResult",
]


class PerturbationError(RuntimeError):
    """Raised when the blended h fails its certification checks."""


@dataclass(frozen=True)
class PerturbationFamily:
    """Inf-compact perturbation data: h, its budget eps0 = (1 - C3)/8, and context."""

    model: object = field(repr=False)
    C3: float = 0.5
    h: Callable = None
    hbar: Optional[Callable] = None

    def __post_init__(self):
        if not (0.0 < self.C3 < 1.0):
            raise PerturbationError("C3 must lie in (0, 1)")

    @property
    def eps0(self) -> float:
        return (1.0 - self.C3) / 8.0


def build_h(
    model,
    grid: Grid,
    hbar: Callable,
    C3: float,
    collar_width: float = 1.0,
) -> PerturbationFamily:
    """Blend an inf-compact comparison function h and certify its bounds.

    h(x,u) = max(r, 1 + zeta r + (1 - zeta) hbar) with zeta the continuous
    indicator surrogate of H = (K x U) u {r > hbar}: zeta = 1 on H, 0 once
    hbar - r exceeds the collar width and x is outside the region blend.

    Certification on grid x controls:
      * r <= h <= 2 + 2 hbar off H + 2 r on H pointwise;
      * min_u h non-decreasing across radial shells (inf-compact surrogate).

    Raises:
        PerturbationError: naming the offending point when a check fails.
    """
    if collar_width <= 0:
        raise PerturbationError("collar_width must be positive")

    def zeta(x, u):
        s = np.clip(
            1.0
            - (np.asarray(hbar(x, u)) - np.asarray(model.cost(x, u))) / collar_width,
            0.0,
            1.0,
        )
        return np.maximum(model.region_K.blend_value(x), s)

    def h(x, u):
        r = np.asarray(model.cost(x, u), dtype=float)
        z = zeta(x, u)
        return np.maximum(r, 1.0 + z * r + (1.0 - z) * np.asarray(hbar(x, u)))

    family = PerturbationFamily(model=model, C3=C3, h=h, hbar=hbar)
    _certify(family, grid)
    return family


def family_from_h(model, h: Callable, C3: float, grid: Optional[Grid] = None) -> PerturbationFamily:
    """Wrap a user-supplied h (already inf-compact) into a family.

    When a grid is given, the lower bound r <= h and the shell surrogate are
    still certified; the upper blend bound is skipped since no hbar is
    declared.
    """
    family = PerturbationFamily(model=model, C3=C3, h=h, hbar=None)
    if grid is not None:
        _certify(family, grid)
    return family


def _certify(family: PerturbationFamily, grid: Grid) -> None:
    model = family.model
    coords = grid.coords()
    radii = np.linalg.norm(coords, axis=1)
    pts = model.controls.points
    r = model.cost_table(coords)
    hv = model.cost_table(coords, family.h)
    bad = np.argwhere(hv < r - 1e-12)
    if bad.size:
        k, i = bad[0]
        raise PerturbationError(
            f"h < r at x={coords[i]}, u={pts[k]}: h={hv[k, i]:.6g}, r={r[k, i]:.6g}"
        )
    if family.hbar is not None:
        hb = model.cost_table(coords, family.hbar)
        on_H = np.asarray(model.region_K.inside(coords))[None, :] | (r > hb)
        cap = 2.0 + 2.0 * np.where(on_H, r, hb)
        bad = np.argwhere(hv > cap + 1e-9)
        if bad.size:
            k, i = bad[0]
            raise PerturbationError(
                f"h exceeds its blend bound at x={coords[i]}, u={pts[k]}: "
                f"h={hv[k, i]:.6g}, cap={cap[k, i]:.6g}"
            )
    h_min = hv.min(axis=0)

    # inf-compactness surrogate: in the far field (outer half of the box)
    # the shell minima of min_u h must be non-decreasing; interior dips are
    # compatible with compact sublevel sets and are allowed
    rmax = float(radii.max())
    edges = np.linspace(0.0, rmax, 9)
    shell_mins = []
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (radii >= a) & (radii < b if b < edges[-1] else radii <= b)
        if np.any(mask) and a >= 0.5 * rmax - 1e-12:
            shell_mins.append((a, float(h_min[mask].min())))
    for (a0, m0), (a1, m1) in zip(shell_mins[:-1], shell_mins[1:]):
        if m1 < m0 - 1e-9:
            raise PerturbationError(
                "inf-compactness surrogate failed: min_u h decreases between "
                f"outer radial shells at {a0:.3g} and {a1:.3g} "
                f"({m0:.6g} -> {m1:.6g})"
            )


def perturbed_cost(family: PerturbationFamily, epsilon: float) -> Callable:
    """The perturbed running cost r_eps = (1 - eps/eps0) r + eps h.

    eps = 0 returns the raw cost; eps >= eps0 is rejected (strict budget).
    """
    eps0 = family.eps0
    if epsilon < 0:
        raise PerturbationError("epsilon must be nonnegative")
    if epsilon >= eps0:
        raise PerturbationError(
            f"epsilon must be strictly below eps0 = (1 - C3)/8 = {eps0:g}"
        )
    model = family.model
    if epsilon == 0.0:
        return model.cost
    frac = 1.0 - epsilon / eps0
    h = family.h

    def r_eps(x, u):
        return frac * np.asarray(model.cost(x, u), dtype=float) + epsilon * np.asarray(
            h(x, u), dtype=float
        )

    return r_eps


@dataclass(frozen=True)
class EpsilonSweepResult:
    entries: list  # (eps, value)
    base_value: float
    gaps: list  # |value(eps) - value(0)| for eps > 0
    slope: float  # least-squares slope of gap vs eps


def epsilon_sweep(
    model,
    grid: Grid,
    family: PerturbationFamily,
    eps_list: Sequence[float],
    tol: float = 1e-8,
    max_iter: int = 60,
    scheme: str = "hybrid",
) -> EpsilonSweepResult:
    """Optimal values along a perturbation schedule, with convergence gaps.

    ``eps_list`` must contain 0 (the unperturbed reference) and stay inside
    [0, eps0).  Reports |Lambda(r_eps) - Lambda(r)| per positive eps and a
    fitted linear rate; the rate is reported, not asserted, because only
    convergence of the values is guaranteed.

    Each point's Howard iteration starts from the previous point's optimal
    policy, which the next point's optimum is close to; the values agree
    with cold per-point solves within ``tol``; ``max_iter`` caps each one's steps.
    """
    eps_list = [float(e) for e in eps_list]
    if 0.0 not in eps_list:
        raise PerturbationError("eps_list must include 0 as the reference point")
    for e in eps_list:
        if e < 0 or e >= family.eps0:
            raise PerturbationError(
                f"epsilon {e} outside [0, eps0), eps0 = (1 - C3)/8 = {family.eps0:g}"
            )

    entries, policy = [], None
    for e in eps_list:
        sol = solve_hjb(
            model,
            grid,
            tol=tol,
            max_iter=max_iter,
            initial_policy=policy,
            cost_fn=perturbed_cost(family, e),
            scheme=scheme,
        )
        entries.append((e, sol.value))
        policy = sol.policy

    base = next(v for e, v in entries if e == 0.0)
    pos = [(e, v) for e, v in entries if e > 0.0]
    gaps = [abs(v - base) for _, v in pos]
    if len(pos) >= 2:
        es = np.array([e for e, _ in pos])
        gs = np.array(gaps)
        slope = float(np.polyfit(es, gs, 1)[0])
    else:
        slope = float("nan")
    return EpsilonSweepResult(entries=entries, base_value=base, gaps=gaps, slope=slope)


@dataclass(frozen=True)
class KappaSweepResult:
    entries: list  # (kappa, value)
    lambda_zero: float
    gaps: list  # value(kappa) - lambda_zero


def kappa_sweep(
    model,
    grid: Grid,
    kappa_list: Sequence[float],
    tol: float = 1e-9,
    max_iter: int = 200,
    scheme: str = "hybrid",
) -> KappaSweepResult:
    """Risk-neutral limit study: Lambda_kappa = lambda(kappa r) / kappa.

    Each kappa in (0, 1] is solved through the HJB with scaled cost at
    tolerance ``tol * kappa``, its Howard iteration started from the previous
    kappa's optimal policy; each Lambda_kappa agrees with a cold per-point
    solve within ``tol``.  The conventional ergodic value Lambda_0 is computed
    independently by average-cost policy iteration and reported with the
    gaps Lambda_kappa - Lambda_0.  ``max_iter`` caps the steps of every solve.
    """
    from .game import average_cost_solve

    kappa_list = [float(k) for k in kappa_list]
    for k in kappa_list:
        if not (0.0 < k <= 1.0):
            raise PerturbationError(f"kappa {k} outside (0, 1]")

    entries, policy = [], None
    for k in kappa_list:
        sol = solve_hjb(
            model, grid, tol=tol * k, max_iter=max_iter, initial_policy=policy, cost_scale=k,
            scheme=scheme,
        )
        entries.append((k, sol.value / k))
        policy = sol.policy
    lam0 = average_cost_solve(model, grid, tol=tol, max_iter=max_iter, scheme=scheme).value
    gaps = [v - lam0 for _, v in entries]
    return KappaSweepResult(entries=entries, lambda_zero=lam0, gaps=gaps)
