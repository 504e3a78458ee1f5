"""Principal eigenpair of the cost-twisted generator Q^v + diag(r^v).

The rightmost eigenvalue of an irreducible Metzler matrix is real and simple
with a strictly positive eigenvector (Perron structure); it equals the
long-run exponential growth rate of the multiplicative semigroup and hence
the risk-sensitive value of the fixed policy on the truncated chain.

We compute it by shifted inverse power iteration: with shift s above the
eigenvalue, (sI - A) is a nonsingular M-matrix, so every solve maps positive
vectors to positive vectors and the iteration converges geometrically.  The
returned bracket is the Collatz-Wielandt enclosure

    min_i (A psi)_i / psi_i  <=  lambda  <=  max_i (A psi)_i / psi_i,

certified for every positive vector, so a tight bracket is a proof of the
discrete eigenvalue independent of the iteration path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretize import GeneratorMatrix, Grid, OperatorKernel

__all__ = [
    "Eigenpair",
    "FosterCertificate",
    "EigenSolveError",
    "principal_eigenpair",
    "policy_value",
    "foster_lyapunov_certificate",
]

_DENSE_CUTOFF = 600


class EigenSolveError(RuntimeError):
    """Raised when the Perron iteration cannot converge or Q is reducible."""


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


def _as_csr(Q):
    if isinstance(Q, GeneratorMatrix):
        return Q.matrix
    return sp.csr_matrix(Q)


def principal_eigenpair(
    Q,
    r_vec,
    tol: float = 1e-10,
    max_iter: int = 500,
    check_irreducible: bool = True,
    origin_node: int = 0,
    grid: Optional[Grid] = None,
) -> Eigenpair:
    """Perron pair of A = Q + diag(r_vec) by shifted inverse power iteration.

    Args:
        Q: GeneratorMatrix or sparse matrix (conservative rate matrix).
        r_vec: per-node nonnegative cost values.
        tol: Collatz-Wielandt bracket width required on exit.
        max_iter: iteration budget.
        check_irreducible: verify strong connectivity of the rate graph.
        origin_node: node at which the eigenvector is normalized to 1.

    Raises:
        EigenSolveError: on reducible Q, non-finite data, or non-convergence.
    """
    Qm = _as_csr(Q)
    r = np.asarray(r_vec, dtype=float).ravel()
    n = Qm.shape[0]
    if r.shape != (n,):
        raise ValueError("r_vec length does not match matrix size")
    if not np.all(np.isfinite(r)):
        raise EigenSolveError("r_vec contains non-finite entries")
    if check_irreducible and n > 1:
        gm = Q if isinstance(Q, GeneratorMatrix) else GeneratorMatrix(matrix=Qm)
        if not gm.is_irreducible():
            raise EigenSolveError("generator is reducible; Perron pair is ill-posed")

    dense = n <= _DENSE_CUTOFF
    if dense:
        # the entries and the column-major layout of the sparse sum below,
        # without its sparse-format round trips
        A_dense = Qm.toarray(order="F")
        A_dense[np.diag_indices(n)] += r
        eye = np.eye(n)
    else:
        A = (Qm + sp.diags(r)).tocsc()

    pad = max(1.0, 1e-2 * float(np.max(np.abs(r))) if r.size else 1.0)
    psi = np.ones(n)
    psi /= psi[origin_node]

    def ratios(v):
        Av = A_dense @ v if dense else A @ v
        return Av / v

    rat = ratios(psi)
    lo, up = float(rat.min()), float(rat.max())
    shift = up + pad
    solver = None
    refresh = 5
    backoff = pad

    for it in range(1, max_iter + 1):
        if solver is None:
            if dense:
                solver = sla.lu_factor(shift * eye - A_dense)
            else:
                solver = spla.splu((shift * sp.identity(n, format="csc")) - A)
        if dense:
            new = sla.lu_solve(solver, psi)
        else:
            new = solver.solve(psi)
        ok = np.all(np.isfinite(new)) and new[origin_node] != 0.0
        if ok:
            new = new / new[origin_node]
            ok = new.min() > 0.0
        if not ok:
            # shift drifted too close to the eigenvalue; back off and refactor
            backoff *= 2.0
            shift = up + backoff
            solver = None
            continue
        psi = new
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
        if it % refresh == 0:
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


def policy_value(
    model,
    grid: Grid,
    policy,
    tol: float = 1e-10,
    max_iter: int = 500,
    cost_fn=None,
    cost_scale: float = 1.0,
    scheme: str = "hybrid",
    kernel: Optional[OperatorKernel] = None,
) -> Eigenpair:
    """Risk-sensitive value of a fixed stationary Markov policy.

    Assembles Q^v and r^v = r(., v(.)) and returns the principal eigenpair of
    Q^v + diag(cost_scale * r^v).  ``cost_fn`` substitutes a different running
    cost (perturbed or scaled variants) with the same policy.
    """
    if kernel is None:
        kernel = OperatorKernel(model, grid, scheme)
    Q = kernel.assemble_policy(policy, model.drift_table(kernel.coords))
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
    """
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    kernel = OperatorKernel(model, grid, scheme)
    Q = kernel.assemble_policy(policy, model.drift_table(kernel.coords))
    hv = policy.pick(model.cost_table(kernel.coords, h_fn))
    pair = principal_eigenpair(
        Q, scale * hv, tol=tol, max_iter=max_iter, origin_node=grid.origin_node, grid=grid
    )
    outside = np.linalg.norm(kernel.coords, axis=1) > core_radius
    if not np.any(outside):
        warnings.warn("core ball covers the whole grid; drift margin undefined")
        margin = float("nan")
    else:
        margin = float(np.min(scale * hv[outside] - pair.value))
    return FosterCertificate(eigenpair=pair, drift_margin=margin, core_radius=core_radius)
