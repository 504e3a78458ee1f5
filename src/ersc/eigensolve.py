"""Principal eigenpair of the cost-twisted generator Q^v + diag(r^v).

The rightmost eigenvalue of an irreducible Metzler matrix is real and simple
with a strictly positive eigenvector (Perron structure); it equals the
long-run exponential growth rate of the multiplicative semigroup and hence
the risk-sensitive value of the fixed policy on the truncated chain.

We compute it by shifted inverse power iteration, one sparse LU per shift:
with shift s above the eigenvalue, (sI - A) is a nonsingular M-matrix, so
every solve maps positive vectors to positive vectors and the iteration
converges geometrically.  Every symmetric permutation of a nonsingular
M-matrix is one too, and Gaussian elimination on it needs no pivoting: the
pivots stay positive and the elimination is stable (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2002, ch. 9).  The LU therefore uses a
fill-reducing minimum-degree ordering of the pattern of A + A' (A's pattern
is structurally symmetric on nearest-neighbour grids), applied to rows and
columns alike, with pivoting off; ``game.solve_poisson`` factors its M-matrix
the same way.

The shift chases the eigenvalue from above, and every move costs a new
factor, so a move is made only when it pays.  A factor serves at least five
solves.  After that, the contraction rho of the bracket width per solve at
shift s puts the next eigenvalue about (s - lambda) / rho below s; from that
gap follow the solves still needed to reach the tolerance at s and at the
target up + max(3 width, 10 tol).  The shift moves when the predicted saving
exceeds the factor's cost in solves, nnz(LU) / (4 n), the factor-to-solve time
ratio measured on 3D grids (58 at 21^3).  On 1D chains a factor costs
about one solve, every move pays, and the five-solve floor sets the pace.
The rule reads no clock, so results are bit-reproducible, and it never
changes the M-matrix argument: every shift is still a CW upper bound plus a
positive pad.  A positive start vector, such as the previous Howard step's
eigenfunction, replaces psi = 1.  The returned bracket is the Collatz-Wielandt
enclosure

    min_i (A psi)_i / psi_i  <=  lambda  <=  max_i (A psi)_i / psi_i,

certified for every positive vector, so a tight bracket is a proof of the
discrete eigenvalue independent of the iteration path.  The ratios are the
edge differences r_i + sum_j q_ij (psi_j - psi_i) / psi_i of
``OperatorKernel.apply``; a tolerance below their rounding floor raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretize import Grid, OperatorKernel, is_irreducible

__all__ = [
    "Eigenpair",
    "FosterCertificate",
    "EigenSolveError",
    "bracket_floor",
    "principal_eigenpair",
    "policy_value",
    "foster_lyapunov_certificate",
]

class EigenSolveError(RuntimeError):
    """Raised on non-convergence, a reducible Q or a tolerance below the floor."""


@dataclass(frozen=True)
class Eigenpair:
    """Principal eigenpair, normalized so the eigenvector is 1 at the origin node.

    ``value`` is the midpoint of the certified Collatz-Wielandt bracket.
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


@dataclass(frozen=True)
class FosterCertificate:
    """Discrete Foster-Lyapunov function with its drift margin outside a core ball."""

    eigenpair: Eigenpair
    drift_margin: float
    core_radius: float


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


def _move_pays(rho, shift, target, lam, width, tol, cost):
    """Whether moving the shift to ``target`` saves more solves than ``cost``.

    ``rho`` is the contraction of the CW width per solve at ``shift``; it puts
    the next eigenvalue about (shift - lam) / rho below the shift.  From that
    gap follow the solves still needed to shrink ``width`` to ``tol`` at either
    shift.  No contraction at all (rho >= 1) gives no gap, and any move pays.
    """
    if not rho < 1.0:
        return True
    gap = (shift - lam) * (1.0 / rho - 1.0)
    rho_target = (target - lam) / (target - lam + gap)
    decades = np.log(width / tol)
    return decades / -np.log(rho) - decades / -np.log(rho_target) > cost


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
    only after five solves with the current factor, and only when the solves
    the move is predicted to save, read from the observed contraction of the
    bracket width, exceed the factor's cost ``nnz(LU) / (4 n)`` in solves
    (module docstring).

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

    # NaN fails the comparison, so this rejects it too
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
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
    width = up - lo
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
        prev_width = width
        rat = ratios(psi)
        lo, up = float(rat.min()), float(rat.max())
        width = up - lo
        if width <= tol:
            return Eigenpair(
                value=0.5 * (lo + up),
                vector=psi,
                cw_lower=lo,
                cw_upper=up,
                iterations=it,
                origin_node=origin_node,
                grid=grid,
            )
        if uses < 5:
            continue
        # chase the eigenvalue from above: the CW upper bound certifies
        # shift > lambda, so the solve stays an M-matrix solve
        target = up + max(3.0 * width, 10.0 * tol)
        if target < shift - 0.25 * (shift - up) and _move_pays(
            width / prev_width, shift, target, 0.5 * (lo + up), width, tol, solver.nnz / (4.0 * n)
        ):
            shift = target
            solver = None
            backoff = max(pad, 3.0 * width)

    raise EigenSolveError(
        f"inverse power iteration did not reach bracket width {tol:g} in "
        f"{max_iter} iterations (current width {up - lo:g})"
    )


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
    """
    kernel = OperatorKernel(model, grid, scheme)
    Q = kernel.assemble_policy(policy)
    r = cost_scale * policy.pick(model.cost_table(kernel.coords, cost_fn))
    return principal_eigenpair(
        Q, r, tol=tol, max_iter=max_iter, origin_node=grid.origin_node, grid=grid
    )


def foster_lyapunov_certificate(
    model,
    grid: Grid,
    policy,
    h_fn,
    scale: float,
    core_radius: float = 1.0,
    tol: float = 1e-10,
    max_iter: int = 500,
    scheme: str = "hybrid",
) -> FosterCertificate:
    """Stability certificate from the eigenpair of Q^v + scale * diag(h^v).

    ``h_fn(x, u)`` must be the inf-compact comparison function; the returned
    eigenvector W is the discrete Foster-Lyapunov function, and the drift
    margin is min over nodes outside the core ball of (scale * h^v - lambda).
    A positive margin certifies inward drift of W there.

    Raises:
        ValueError: on a negative ``scale``, or before the eigensolve when the
        core ball covers every node (no node to take the margin over).
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    outside = np.linalg.norm(grid.coords(), axis=1) > core_radius
    if not np.any(outside):
        raise ValueError(
            f"core ball of radius {core_radius:g} covers every node; drift margin undefined"
        )
    pair = policy_value(
        model, grid, policy, tol, max_iter, cost_fn=h_fn, cost_scale=scale, scheme=scheme
    )
    hv = policy.pick(model.cost_table(grid.coords(), h_fn))
    margin = float(np.min(scale * hv[outside] - pair.value))
    return FosterCertificate(eigenpair=pair, drift_margin=margin, core_radius=core_radius)
