"""Truncated tensor grids and conservative generator matrices.

The controlled generator

    L^u f = b(x,u) . grad f + (1/2) sum_ij A_ij(x) d2f/dx_i dx_j,   A = Sigma Sigma'

is discretized on a rectangular grid with reflecting boundary so that each
matrix is the rate matrix of a continuous-time Markov chain: off-diagonal
entries nonnegative, rows summing to zero.  Second derivatives use central
differences; mixed derivatives use the sign-aware corner splitting, which
fails loudly when it cannot keep off-diagonals nonnegative.  First-order
terms are differenced per the ``scheme`` argument:

    "hybrid"  central where the diffusion dominates the cell drift
              (second-order, still monotone), upwind elsewhere;
    "upwind"  one-sided on the sign of b_i (first-order, always monotone);
    "central" central everywhere, raising if monotonicity fails.

One list of stencil edges (axial +/- per axis, four corner edges per
correlated axis pair) drives both sparse assembly and direct row-application
to a vector, so policy-improvement sweeps and assembled matrices agree to
rounding.  Row-application takes a stack of per-control drift fields and
returns the rows of every control in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Grid",
    "GeneratorMatrix",
    "GridSchemeError",
    "OperatorKernel",
    "build_grid",
    "assemble_generator",
    "assemble_policy_generator",
]


class GridSchemeError(RuntimeError):
    """Raised when the difference scheme cannot preserve monotonicity."""


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid on the box prod_i [-radius_i, radius_i].

    Row-major node indexing; ``origin_node`` is the node nearest the origin.
    """

    radii: np.ndarray
    counts: np.ndarray
    spacings: np.ndarray
    axes: tuple
    origin_node: int

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple:
        return tuple(int(c) for c in self.counts)

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.counts))

    def coords(self) -> np.ndarray:
        """(n, d) array of node coordinates in index order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def multi_indices(self) -> np.ndarray:
        """(n, d) integer multi-indices in index order."""
        mesh = np.meshgrid(*[np.arange(c) for c in self.counts], indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def strides(self) -> np.ndarray:
        s = np.ones(self.dim, dtype=np.int64)
        for i in range(self.dim - 2, -1, -1):
            s[i] = s[i + 1] * self.counts[i + 1]
        return s

    def nearest_node(self, x: np.ndarray) -> np.ndarray:
        """Indices of grid nodes nearest to points x (..., d), clipped to the box."""
        x = np.asarray(x, dtype=float)
        idx = np.zeros(x.shape[:-1], dtype=np.int64)
        strides = self.strides()
        for i in range(self.dim):
            k = np.rint((x[..., i] + self.radii[i]) / self.spacings[i]).astype(np.int64)
            np.clip(k, 0, self.counts[i] - 1, out=k)
            idx += k * strides[i]
        return idx


def build_grid(radii, counts, node_cap: int = 2_000_000) -> Grid:
    """Build a grid; rejects counts < 3, nonpositive radii, or too many nodes."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    counts = np.atleast_1d(np.asarray(counts, dtype=np.int64))
    if radii.shape != counts.shape:
        raise ValueError("radii and counts must have matching length")
    if np.any(counts < 3):
        raise ValueError("need at least 3 nodes per axis")
    if np.any(radii <= 0):
        raise ValueError("radii must be positive")
    total = int(np.prod(counts))
    if total > node_cap:
        raise ValueError(f"grid would have {total} nodes, above cap {node_cap}")
    spacings = 2.0 * radii / (counts - 1)
    axes = tuple(np.linspace(-r, r, int(c)) for r, c in zip(radii, counts))
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    origin = int(np.argmin(np.einsum("nd,nd->n", coords, coords)))
    return Grid(radii=radii, counts=counts, spacings=spacings, axes=axes, origin_node=origin)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Sparse rate matrix of the discretized generator for one control choice."""

    matrix: sp.csr_matrix
    control: str = ""
    boundary_policy: str = "reflecting"

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def min_offdiag(self) -> float:
        coo = self.matrix.tocoo()
        off = coo.data[coo.row != coo.col]
        return float(off.min()) if off.size else 0.0

    def is_irreducible(self) -> bool:
        coo = self.matrix.tocoo()
        mask = coo.row != coo.col
        adj = sp.coo_matrix(
            (np.ones(mask.sum()), (coo.row[mask], coo.col[mask])), shape=self.matrix.shape
        )
        ncomp, _ = connected_components(adj, directed=True, connection="strong")
        return ncomp == 1

    def dump_coo(self, path) -> None:
        """Write the matrix in coordinate text format: row col value."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            for r, c, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{int(r)} {int(c)} {float(v)!r}\n")


class _Edge(NamedTuple):
    """One stencil edge: every node's move to ``target`` (itself where invalid).

    ``rate`` is the diffusive rate, already zero where ``ok`` is False.
    Axial edges also carry the drift axis and side (+1 / -1) whose
    first-order rate they add; corner edges have ``side`` 0.
    """

    target: np.ndarray
    ok: np.ndarray
    rate: np.ndarray
    axis: int = -1
    side: int = 0


class OperatorKernel:
    """Precomputed stencil data for one (model, grid, scheme) triple.

    Splits the generator into a control-independent diffusion part and a
    drift part parametrized by per-node drift vectors, so a policy sweep can
    evaluate (Q^u V) for every control without assembling matrices.
    """

    def __init__(self, model, grid: Grid, scheme: str = "hybrid"):
        if scheme not in ("hybrid", "upwind", "central"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.model = model
        self.grid = grid
        self.scheme = scheme
        self.n = grid.n_nodes
        self.dim = grid.dim
        self.h = grid.spacings
        self.coords = grid.coords()
        self.I = grid.multi_indices()
        self.strides = grid.strides()

        A = model.diffusion_matrix(self.coords)
        A = np.broadcast_to(np.asarray(A, dtype=float), (self.n, self.dim, self.dim))
        self.A_diag = np.ascontiguousarray(A[:, np.arange(self.dim), np.arange(self.dim)])

        # axial diffusive rates with the mixed-derivative reduction
        q_ax = self.A_diag / (2.0 * self.h**2)
        for i in range(self.dim):
            for j in range(self.dim):
                if i == j:
                    continue
                q_ax[:, i] -= np.abs(A[:, i, j]) / (2.0 * self.h[i] * self.h[j])
        bad = np.where(q_ax < -1e-14)
        if bad[0].size:
            node = int(bad[0][0])
            axis = int(bad[1][0])
            raise GridSchemeError(
                f"mixed-derivative splitting loses monotonicity at node {node} "
                f"(x={self.coords[node]}, axis {axis}); refine the grid along that axis"
            )
        self.q_ax = np.maximum(q_ax, 0.0)

        # the stencil: axial +/- edges per axis, then the four corner edges of
        # each correlated axis pair (sign-aware splitting of A_ij)
        base = np.arange(self.n, dtype=np.int64)
        valid = [
            {1: self.I[:, i] < grid.counts[i] - 1, -1: self.I[:, i] > 0}
            for i in range(self.dim)
        ]

        def edge(steps, rate, axis=-1, side=0):
            ok = np.logical_and.reduce([valid[i][s] for i, s in steps])
            shift = sum(s * int(self.strides[i]) for i, s in steps)
            return _Edge(np.where(ok, base + shift, base), ok, rate * ok, axis, side)

        self.edges = [
            edge([(i, side)], self.q_ax[:, i], i, side)
            for i in range(self.dim)
            for side in (1, -1)
        ]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                aij = A[:, i, j]
                if not np.any(aij):
                    continue
                pos = np.maximum(aij, 0.0) / (2.0 * self.h[i] * self.h[j])
                neg = np.maximum(-aij, 0.0) / (2.0 * self.h[i] * self.h[j])
                for rate, si, sj in ((pos, 1, 1), (pos, -1, -1), (neg, 1, -1), (neg, -1, 1)):
                    self.edges.append(edge([(i, si), (j, sj)], rate))

    # -- drift differencing -------------------------------------------------

    def drift_rates(self, b_vals: np.ndarray):
        """Per-node transition-rate contributions (minus, plus) of a drift field.

        ``b_vals`` is one (n, d) field or a (k, n, d) stack of them; the rates
        have the same shape.
        """
        b = np.asarray(b_vals, dtype=float)
        if b.ndim < 3:
            b = b.reshape(self.n, self.dim)
        if self.scheme == "upwind":
            central = np.zeros_like(b, dtype=bool)
        elif self.scheme == "central":
            central = np.ones_like(b, dtype=bool)
        else:
            central = np.abs(b) <= 2.0 * self.h * self.q_ax
        plus = np.where(central, b / (2.0 * self.h), np.maximum(b, 0.0) / self.h)
        minus = np.where(central, -b / (2.0 * self.h), np.maximum(-b, 0.0) / self.h)
        if self.scheme == "central":
            viol = np.minimum(self.q_ax + plus, self.q_ax + minus)
            bad = np.argwhere(viol < -1e-14)
            if bad.size:
                node = int(bad[0][-2])
                raise GridSchemeError(
                    f"central drift differencing loses monotonicity at node {node} "
                    f"(x={self.coords[node]}); use scheme='hybrid' or refine the grid"
                )
        return minus, plus

    # -- application to a vector --------------------------------------------

    def apply_diffusion(self, V: np.ndarray) -> np.ndarray:
        """Control-independent second-order part of Q V, shape (n,)."""
        V = np.asarray(V, dtype=float)
        out = np.zeros(self.n)
        for e in self.edges:
            out += e.rate * (V[e.target] - V)
        return out

    def apply_drift(self, b_vals: np.ndarray, V: np.ndarray) -> np.ndarray:
        """First-order part of Q V for the drift field ``b_vals``.

        A (n, d) field gives shape (n,); a (k, n, d) stack of per-control
        fields gives the (k, n) rows of every control at once.
        """
        V = np.asarray(V, dtype=float)
        minus, plus = self.drift_rates(b_vals)
        out = np.zeros(plus.shape[:-1])
        for e in self.edges:
            if e.side:
                rates = plus if e.side > 0 else minus
                out += rates[..., e.axis] * e.ok * (V[e.target] - V)
        return out

    def apply(self, b_vals: np.ndarray, V: np.ndarray) -> np.ndarray:
        """(Q V) for a (n, d) drift field, or its (k, n) rows for a (k, n, d) stack."""
        return self.apply_diffusion(V) + self.apply_drift(b_vals, V)

    # -- sparse assembly ------------------------------------------------------

    def assemble(self, b_vals: np.ndarray, control_tag: str = "") -> GeneratorMatrix:
        """Assemble the sparse generator for the drift field ``b_vals``."""
        minus, plus = self.drift_rates(b_vals)
        rows, cols, vals = [], [], []
        diag = np.zeros(self.n)
        base = np.arange(self.n, dtype=np.int64)
        for e in self.edges:
            rate = e.rate
            if e.side:
                rate = rate + (plus if e.side > 0 else minus)[:, e.axis] * e.ok
            m = e.ok & (rate != 0.0)
            rows.append(base[m])
            cols.append(e.target[m])
            vals.append(rate[m])
            diag -= rate
        rows.append(base)
        cols.append(base)
        vals.append(diag)
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n),
        ).tocsr()
        return GeneratorMatrix(matrix=mat, control=control_tag)

    def control_drift(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.asarray(self.model.drift(self.coords, u), dtype=float).reshape(
            self.n, self.dim
        )


def assemble_generator(model, grid: Grid, u, scheme: str = "hybrid") -> GeneratorMatrix:
    """Generator matrix of L^u for a fixed control point u."""
    if grid.dim != model.dim:
        raise ValueError("grid dimension does not match model dimension")
    kernel = OperatorKernel(model, grid, scheme)
    b = kernel.control_drift(u)
    return kernel.assemble(b, control_tag=np.array2string(np.atleast_1d(np.asarray(u))))


def assemble_policy_generator(
    model, grid: Grid, policy, aux_drift: Optional[np.ndarray] = None, scheme: str = "hybrid"
) -> GeneratorMatrix:
    """Generator matrix under a Markov policy, optionally with an added drift field.

    Relaxed policies produce the per-row convex combination of the precise
    rows via the mixed drift and the linearity of the generator in b.
    ``aux_drift`` (n, d) is added to the policy drift before differencing so
    the combined operator keeps the monotone structure.
    """
    if grid.dim != model.dim:
        raise ValueError("grid dimension does not match model dimension")
    kernel = OperatorKernel(model, grid, scheme)
    b = policy.pick(model.drift_table(kernel.coords))
    if aux_drift is not None:
        b = b + np.asarray(aux_drift, dtype=float).reshape(kernel.n, kernel.dim)
    return kernel.assemble(b, control_tag=getattr(policy, "tag", "policy"))
