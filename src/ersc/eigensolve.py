"""Principal eigenpair of the cost-twisted generator Q^v + diag(r^v).

The rightmost eigenvalue of an irreducible Metzler matrix is real and simple
with a strictly positive eigenvector (Perron structure); it equals the
long-run exponential growth rate of the multiplicative semigroup and hence
the risk-sensitive value of the fixed policy on the truncated chain.

Two engines compute it.  Grids of dimension ``_LU_FREE_DIM`` and more take
the LU-free loop, smaller grids and direct calls the inverse iteration;
``policy_value`` and ``hjb.solve_hjb`` both read this one gate.

Shifted inverse power iteration (``principal_eigenpair``), one sparse LU per
shift: with shift s above the eigenvalue, (sI - A) is a nonsingular M-matrix,
so every solve maps positive vectors to positive vectors and the iteration
converges geometrically.  Every symmetric permutation of a nonsingular
M-matrix is one too, and Gaussian elimination on it needs no pivoting: the
pivots stay positive and the elimination is stable (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002, ch. 9).  The LU therefore uses a
fill-reducing minimum-degree ordering of the pattern of A + A' (A's pattern
is structurally symmetric on nearest-neighbour grids), applied to rows and
columns alike, with pivoting off; ``game.solve_poisson`` factors its M-matrix
the same way.  The shift chases the eigenvalue from above: a factor serves at
least five solves, and the shift then moves to up + max(3 width, 10 tol),
one new factor, whenever that target lies below s - (s - up) / 4.  The rule
reads no clock, so results are bit-reproducible, and it never changes the
M-matrix argument: every shift is still a CW upper bound plus a positive
pad.  A positive start vector, such as the previous Howard step's
eigenfunction, replaces psi = 1.

LU-free modified policy iteration (``_uniformized_perron``), over the
generators Q^u of k controls.  Each is uniformized,

    B_u = I + dt (Q^u + diag r^u),   dt = 1 / max_{u,i} (exit_i - r^u_i),

and the maps are stacked into one (k n, n) CSR matrix.  Every B_u is
nonnegative, so each product B_u V is subtraction-free and componentwise
accurate however many decades V spans.  T V = min_u B_u V is monotone and
positively homogeneous, and its iterates are the finite-horizon
multiplicative dynamic program over all non-anticipative controls, so for
every positive V the nonlinear Collatz-Wielandt bounds (Gaubert &
Gunawardena, *Trans. AMS* 356, 2004)

    lo = min_i ((T V)_i / V_i - 1) / dt  <=  Lambda*  <=  up = max_i (...)

bracket the optimal value.  The greedy policy pi, the row argmin of T V, has
B_pi V = T V: its own CW bracket at V is this same bracket, which therefore
holds pi's Perron value too.  A greedy step (one product with the stacked
matrix) gives T V, pi and the bracket; power steps V <- B_pi V / (B_pi V)[origin]
follow until pi's own CW width is at most ``_POWER_SHARE`` of the bracket
(Puterman & Shin, *Management Sci.* 24, 1978, with the number of power steps
set by that share).  B_pi V <= (1 + dt up) V carries over to B_pi^m V, so the
greedy ``up`` never rises.  With one generator (``policy_value``) the greedy
step only reads the bracket.  No factorization is made and
``scipy.sparse.linalg`` is never imported.

Why a gate by dimension: the LU-free iteration count grows like h^-2 in every
dimension, while the LU fill grows superlinearly only in 3D.  Seconds per
``hjb.solve_hjb`` at tol 1e-7 (best of two calls, one process per path,
shared 2-vCPU host, one BLAS thread), Howard + LU / LU-free:

    1D LQ, 5 controls, 241 / 481 nodes         0.006 / 0.016   against  0.29 / 1.21
    2D separable LQ, 9 controls, 41^2          0.082           against  0.058
                                 81^2 / 121^2  0.34 / 0.87     against  0.42 / 1.88
    3D separable LQ, 27 controls, 15^3 / 21^3  0.35 / 2.97     against  0.14 / 0.52
    W network, 6 controls, 11^3 / 15^3         0.070 / 0.27    against  0.026 / 0.12
                           21^3 / 29^3         2.04 / 8.99     against  0.27 / 0.85

and per ``policy_value`` at tol 1e-8, inverse iteration / LU-free:

    W constant policy, 15^3 / 21^3 / 29^3      0.14 / 0.99 / 5.7  against  0.086 / 0.17 / 1.8

Either engine returns the Collatz-Wielandt enclosure of its vector psi,

    min_i (A psi)_i / psi_i  <=  lambda  <=  max_i (A psi)_i / psi_i,

certified for every positive vector, so a tight bracket is a proof of the
discrete eigenvalue independent of the iteration path.  The inverse
iteration reads the ratios as edge differences r_i + sum_j q_ij (psi_j -
psi_i) / psi_i, the LU-free loop as ((B psi)_i / psi_i - 1) / dt; a
tolerance below their rounding floor raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretize import Grid, OperatorKernel, is_irreducible

__all__ = [
    "Eigenpair",
    "EigenSolveError",
    "bracket_floor",
    "principal_eigenpair",
    "policy_value",
]

# grids of this dimension and more are solved by the LU-free loop
_LU_FREE_DIM = 3
# a power sweep ends once its policy's own CW width is this share of the
# greedy bracket it started from
_POWER_SHARE = 0.01
# the most power steps one sweep takes; a policy too slow to reach the share
# hands over to the next greedy step (the longest sweep on W 41^3 took 1,058)
_POWER_CAP = 100_000


class EigenSolveError(RuntimeError):
    """Raised on non-convergence, a reducible Q or a tolerance below the floor."""


@dataclass(frozen=True)
class Eigenpair:
    """Principal eigenpair, normalized so the eigenvector is 1 at the origin node.

    ``value`` is the midpoint of the certified Collatz-Wielandt bracket.
    ``iterations`` counts the inverse-iteration solves, or the power steps of
    the LU-free loop.
    """

    value: float
    vector: np.ndarray
    cw_lower: float
    cw_upper: float
    iterations: int
    origin_node: int
    grid: Optional[Grid] = None

    @property
    def bracket_width(self) -> float:
        return self.cw_upper - self.cw_lower


def _check_tol(tol):
    # NaN fails the comparison, so this rejects it too
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _edges(Q, r_vec):
    """Q as CSR, its off-diagonal (rows, cols, rates), r_vec plus the row sums of Q
    (reading its diagonal as minus the exit rates) and the ``bracket_floor``."""
    import scipy.sparse as sp

    m = sp.csr_matrix(Q)
    r = np.asarray(r_vec, dtype=float).ravel()
    if r.shape != (m.shape[0],):
        raise ValueError("r_vec length does not match matrix size")
    rows = np.repeat(np.arange(r.size), np.diff(m.indptr))
    off = m.indices != rows
    r = r + np.bincount(rows, m.data, r.size)
    rows, cols, rates = rows[off], m.indices[off], m.data[off]
    row_abs = 2.0 * np.bincount(rows, rates, r.size) + np.abs(r)
    return m, rows, cols, rates, r, 8.0 * np.finfo(float).eps * float(np.max(row_abs))


def _factor_m_matrix(M):
    """Pivot-free MMD LU of a nonsingular CSC M-matrix (module docstring)."""
    import scipy.sparse.linalg as spla

    return spla.splu(
        M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )


def bracket_floor(Q, r_vec) -> float:
    """Rounding floor 8 eps max_i sum_j |A_ij| of the Collatz-Wielandt width of
    A = Q + diag(r_vec).  Measured stalls lie at 0.3-7.6 eps max_i sum_j |A_ij|
    on 1D chains of up to 7681 nodes and small dense chains; the 3D W network
    reaches the floor on 11^3 and 15^3 grids."""
    return _edges(Q, r_vec)[-1]


def principal_eigenpair(
    Q,
    r_vec,
    tol: float = 1e-10,
    max_iter: int = 500,
    origin_node: int = 0,
    grid: Optional[Grid] = None,
    start: Optional[np.ndarray] = None,
) -> Eigenpair:
    """Perron pair of A = Q + diag(r_vec) by sparse shifted inverse power iteration.

    Each shift s factors sI - A by ``_factor_m_matrix``.  Every shift is a
    CW upper bound of the current iterate (at first the start vector) plus a
    positive pad, so s > lambda and sI - A is a nonsingular M-matrix: the
    elimination exists without pivoting, with positive pivots.  A factor that
    fails anyway (``RuntimeError``) backs the shift off like a non-positive
    solve does.  The shift moves down toward the eigenvalue (a new factor)
    only after five solves with the current factor (module docstring).

    Args:
        Q: sparse rate matrix (row sums fold into r).
        r_vec: per-node cost values.
        tol: bracket width required on exit, at least ``bracket_floor``.
        max_iter: iteration budget.
        origin_node: node at which the eigenvector is normalized to 1.
        start: positive finite vector to iterate from in place of psi = 1;
            the CW bracket certifies any positive vector, so a start changes
            the iteration count only.

    Raises:
        ValueError: on a tol that is not finite and positive, and on a start
        vector of the wrong length, with a non-finite or a non-positive entry.
        EigenSolveError: at once on a tolerance below the floor, reducible Q
        or non-finite data; after max_iter iterations on non-convergence.
    """
    import scipy.sparse as sp

    _check_tol(tol)
    m, rows, cols, rates, r, floor = _edges(Q, r_vec)
    n = r.size
    if start is None:
        psi = np.ones(n)
    else:
        psi = np.array(start, dtype=float)
        if psi.shape != (n,):
            raise ValueError(f"start has shape {psi.shape}, expected ({n},)")
        if not (np.all(np.isfinite(psi)) and psi.min() > 0.0):
            raise ValueError("start must be finite and positive")
    if not np.all(np.isfinite(r)):
        raise EigenSolveError("r_vec contains non-finite entries")
    if tol < floor:
        raise EigenSolveError(f"bracket tolerance {tol:g} is below the rounding floor {floor:g}")
    if not is_irreducible(m):
        raise EigenSolveError("generator is reducible; Perron pair is ill-posed")

    # sI - A in sorted CSC order; each shift s rewrites the diagonal s + exit_i - r_i
    i, j = np.concatenate([rows, np.arange(n)]), np.concatenate([cols, np.arange(n)])
    order = np.lexsort((i, j))
    entries = np.concatenate([-rates, np.bincount(rows, rates, n) - r])[order]
    diag = (i == j)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(j, minlength=n))])
    M = sp.csc_matrix((entries.copy(), i[order], indptr), shape=(n, n))

    pad = max(1.0, 1e-2 * float(np.max(np.abs(r))))

    def ratios(v):
        return r + np.bincount(rows, rates * (v[cols] - v[rows]), n) / v

    rat = ratios(psi)
    lo, up = float(rat.min()), float(rat.max())
    shift = up + pad
    solver = None
    backoff = pad
    uses = 0  # solves made with the current factor

    for it in range(1, max_iter + 1):
        if solver is None:
            M.data[diag] = entries[diag] + shift
            uses = 0
            try:
                solver = _factor_m_matrix(M)
            except RuntimeError:
                pass  # a failed factor (zero pivot) backs off below
        new = None if solver is None else solver.solve(psi)
        ok = new is not None and np.isfinite(new).all() and new[origin_node] != 0.0
        if ok:
            new = new / new[origin_node]
            ok = new.min() > 0.0
        if not ok:
            # shift drifted too close to the eigenvalue or the factor failed;
            # back off and refactor
            backoff *= 2.0
            shift = up + backoff
            solver = None
            continue
        psi = new
        uses += 1
        rat = ratios(psi)
        lo, up = float(rat.min()), float(rat.max())
        width = up - lo
        if width <= tol:
            return Eigenpair(
                value=0.5 * (lo + up), vector=psi, cw_lower=lo, cw_upper=up, iterations=it,
                origin_node=origin_node, grid=grid,
            )
        if uses < 5:
            continue
        # chase the eigenvalue from above: the CW upper bound certifies
        # shift > lambda, so the solve stays an M-matrix solve
        target = up + max(3.0 * width, 10.0 * tol)
        if target < shift - 0.25 * (shift - up):
            shift = target
            solver = None
            backoff = max(pad, 3.0 * width)

    raise EigenSolveError(
        f"inverse power iteration did not reach bracket width {tol:g} in "
        f"{max_iter} iterations (current width {up - lo:g})"
    )


def _uniformized_perron(generators, r_all, assignment, tol, max_iter, grid, error, share=1.0):
    """LU-free modified policy iteration (module docstring): (eigenpair, greedy
    assignment, residual, history).

    ``generators`` yields k CSR generators, each row storing its diagonal as
    ``OperatorKernel.assemble`` does (a lazy iterable frees each once stacked);
    ``r_all`` is their (k, n) cost table.  The first power sweep, under
    ``assignment`` from V = 1, runs to ``_POWER_SHARE`` of the spread of its
    running cost, its own CW width at V = 1.  Every power target is raised to
    the rounding floor 8 eps max_{u,i} (2 exit_i + |r^u_i|), and the loop stops
    at the first greedy bracket at most max(share tol, floor).  The eigenpair
    holds that bracket, the V it certifies and the power steps; the residual
    max_i |ratio_i - value| is at most half the bracket; the history holds
    each greedy step's ``up``.  ValueError on a tol that is not finite and
    positive; ``error`` at once on a tol below the floor or a non-finite cost,
    and when V leaves the finite positive range (a greedy policy's chain is
    not irreducible) or ``max_iter`` greedy steps run out.
    """
    import scipy.sparse as sp

    _check_tol(tol)
    k, n = r_all.shape
    r = r_all.ravel()
    if not np.all(np.isfinite(r)):
        raise error("the running-cost table contains non-finite entries")
    B = sp.vstack(list(generators), format="csr")
    rows = np.repeat(np.arange(k * n), np.diff(B.indptr))
    diag = B.indices == rows % n
    exit_rate = np.zeros(k * n)
    exit_rate[rows[diag]] = -B.data[diag]
    peak = float(np.max(exit_rate - r))
    dt = 1.0 / (peak if peak > 0.0 else float(np.max(exit_rate)))
    B.data *= dt
    B.data[diag] = np.maximum(1.0 + dt * (r - exit_rate), 0.0)[rows[diag]]
    floor = 8.0 * np.finfo(float).eps * float(np.max(2.0 * exit_rate + np.abs(r)))
    if tol < floor:
        raise error(f"tolerance {tol:g} is below the rounding floor {floor:g}")
    origin, nodes = grid.origin_node, np.arange(n)

    def sweep(assignment, V, target):
        # power steps under one policy until its own CW width is at most target
        B_pi = B[assignment * n + nodes]
        for steps in range(1, _POWER_CAP + 1):
            W = B_pi @ V
            ratio = W / V
            V = W / W[origin]
            # a NaN width (V left the finite positive range) ends the sweep too
            if not (ratio.max() - ratio.min()) / dt > target:
                break
        return V, steps

    spread = float(np.ptp(r_all[assignment, nodes]))
    V, powers = sweep(assignment, np.ones(n), max(_POWER_SHARE * spread, floor))
    stop, history, residual = max(share * tol, floor), [], np.inf
    for _ in range(max_iter):
        W = (B @ V).reshape(k, n)
        greedy = np.argmin(W, axis=0)
        ratio = (W[greedy, nodes] / V - 1.0) / dt
        lo, up = float(ratio.min()), float(ratio.max())
        value = 0.5 * (lo + up)
        residual = float(np.max(np.abs(ratio - value)))
        if not np.isfinite(residual):
            raise error(
                "modified policy iteration: V left the finite positive range, "
                "so the chain of a greedy policy is not irreducible"
            )
        history.append(up)
        if up - lo <= stop:
            break
        V, steps = sweep(greedy, V, max(_POWER_SHARE * (up - lo), floor))
        powers += steps
    else:
        raise error(
            f"modified policy iteration stopped at residual {residual:g} (tol {tol:g}) "
            f"after {max_iter} greedy steps"
        )
    pair = Eigenpair(
        value=value, vector=V, cw_lower=lo, cw_upper=up, iterations=powers,
        origin_node=origin, grid=grid,
    )
    return pair, greedy, residual, history


def policy_value(
    model,
    grid: Grid,
    policy,
    tol: float = 1e-10,
    max_iter: int = 500,
    cost_fn=None,
    cost_scale: float = 1.0,
    scheme: str = "hybrid",
) -> Eigenpair:
    """Risk-sensitive value of a fixed stationary Markov policy.

    Assembles Q^v and r^v = r(., v(.)) and returns the principal eigenpair of
    Q^v + diag(cost_scale * r^v).  ``cost_fn`` substitutes a different running
    cost (perturbed or scaled variants) with the same policy.

    Grids of dimension ``_LU_FREE_DIM`` and more take the LU-free loop over
    Q^v: it stops at a bracket of width at most tol, ``max_iter`` caps its
    greedy steps and ``iterations`` counts its power steps.  Smaller grids
    take ``principal_eigenpair``.  Either way a reducible Q^v, a non-finite
    cost or a tol below the rounding floor raises ``EigenSolveError`` at
    once, and so does a missed budget.
    """
    kernel = OperatorKernel(model, grid, scheme)
    Q = kernel.assemble_policy(policy)
    r = cost_scale * policy.pick(model.cost_table(kernel.coords, cost_fn))
    if grid.dim < _LU_FREE_DIM:
        return principal_eigenpair(
            Q, r, tol=tol, max_iter=max_iter, origin_node=grid.origin_node, grid=grid
        )
    if not is_irreducible(Q):
        raise EigenSolveError("generator is reducible; Perron pair is ill-posed")
    start = np.zeros(grid.n_nodes, dtype=np.int64)
    return _uniformized_perron([Q], r[None], start, tol, max_iter, grid, EigenSolveError)[0]
