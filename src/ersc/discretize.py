"""Truncated tensor grids and conservative generator matrices.

The controlled generator

    L^u f = b(x,u) . grad f + (1/2) sum_ij A_ij(x) d2f/dx_i dx_j,   A = Sigma Sigma'

is discretized on a rectangular grid with reflecting boundary so that each
matrix is the rate matrix of a continuous-time Markov chain: off-diagonal
entries nonnegative, rows summing to zero.  Second derivatives use central
differences; mixed derivatives use the sign-aware corner splitting, which
fails loudly when it cannot keep off-diagonals nonnegative.  First-order
terms are differenced per the ``scheme`` argument, monotone either way:

    "hybrid"  central where the diffusion strictly dominates the cell drift
              (second-order, no rate vanishes), upwind elsewhere;
    "upwind"  one-sided on the sign of b_i (first-order).

One list of stencil edges (axial +/- per axis, four corner edges per
correlated axis pair) drives both sparse assembly and direct row-application
to a vector, so policy-improvement sweeps and assembled matrices agree to
rounding.

``OperatorKernel`` keeps one table of per-control transition rates, the
(minus, plus) drift rates of every control (``rates``), and reads every HJB
row and every generator from it: the rows min_u (Q^u V + r^u V) apply the
whole table, and a policy's generator is assembled, as a plain
``scipy.sparse.csr_matrix``, from the rates the policy picks.  A relaxed
policy mixes the per-control rates by its weights, as in the Markov-chain
approximation of Kushner & Dupuis (*Numerical Methods for Stochastic Control
Problems in Continuous Time*, 2001): its rows are the weighted rows of the
precise generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "Grid",
    "GridSchemeError",
    "OperatorKernel",
    "build_grid",
    "is_irreducible",
]


class GridSchemeError(RuntimeError):
    """Raised when the mixed-derivative splitting cannot preserve monotonicity."""


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

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """(n, d) central-difference gradient of per-node values.

        Second-order one-sided differences at the box faces.
        """
        arr = np.asarray(values, dtype=float).reshape(self.shape)
        grads = np.gradient(arr, *self.axes, edge_order=2)
        if self.dim == 1:
            grads = [grads]
        return np.stack([g.ravel() for g in grads], axis=-1)

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


# the most nodes a grid may have; one float per node is 16 MB at the cap
_NODE_CAP = 2_000_000


def build_grid(radii, counts) -> Grid:
    """Build a grid; rejects counts that are not integers >= 3, radii that are
    not finite and positive, or too many nodes."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    counts = np.atleast_1d(np.asarray(counts, dtype=float))
    if radii.shape != counts.shape:
        raise ValueError("radii and counts must have matching length")
    # counts are not truncated (61.5 is an error, not 61); NaN and inf fail too
    if not np.all((np.mod(counts, 1.0) == 0) & (counts >= 3)):
        raise ValueError(f"counts must be integers >= 3, got {counts.tolist()}")
    if not np.all((radii > 0) & (radii < np.inf)):
        raise ValueError(f"radii must be finite and positive, got {radii.tolist()}")
    total = np.prod(counts)
    if total > _NODE_CAP:
        raise ValueError(f"grid would have {total:.0f} nodes, above cap {_NODE_CAP}")
    counts = counts.astype(np.int64)
    spacings = 2.0 * radii / (counts - 1)
    axes = tuple(np.linspace(-r, r, int(c)) for r, c in zip(radii, counts))
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    origin = int(np.argmin(np.einsum("nd,nd->n", coords, coords)))
    return Grid(radii=radii, counts=counts, spacings=spacings, axes=axes, origin_node=origin)


def is_irreducible(Q) -> bool:
    """Whether the stored entries of the sparse matrix Q form one strong component
    (self-loops leave the components unchanged)."""
    from scipy.sparse.csgraph import connected_components

    return connected_components(Q, directed=True, connection="strong")[0] == 1


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
    """Precomputed stencil data and per-control rate table for one
    (model, grid, scheme) triple.

    The generator splits into a control-independent diffusion part and a
    drift part.  ``rates(aux_drift)`` is the one source of drift rates: the
    (minus, plus) rates of every control, (k, n, d) each, differenced from
    the model's drift table plus an optional auxiliary drift.  Without one
    they are differenced once, on first use, and the table is not kept.
    Every row and generator is read from these rates: ``apply`` evaluates
    (Q V) for all controls' (k, n, d) rates or a policy's (n, d) pick of
    them, and ``assemble`` builds a plain ``scipy.sparse.csr_matrix`` from a
    policy's pick; ``control_rows`` and ``assemble_policy`` do both for
    callers that pass policies and auxiliary drifts, never rates.  A grid
    whose dimension differs from the model's raises ValueError.
    """

    def __init__(self, model, grid: Grid, scheme: str = "hybrid"):
        if scheme not in ("hybrid", "upwind"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if grid.dim != model.dim:
            raise ValueError(
                f"grid dimension {grid.dim} does not match model dimension {model.dim}"
            )
        self.model = model
        self.grid = grid
        self.scheme = scheme
        self.n = grid.n_nodes
        self.dim = grid.dim
        self.h = grid.spacings
        self.coords = grid.coords()
        self.I = grid.multi_indices()
        self.strides = grid.strides()
        self._own_rates = self._aux_rates = None

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
        # hybrid switch: central differencing keeps both rates positive below it
        self.q_ax_2h = 2.0 * self.h * self.q_ax

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

    @functools.cached_property
    def drift_table(self) -> np.ndarray:
        """(k, n, d) drift b(x_i, u_k) of every control, computed on first use.

        Only ``rates`` with an auxiliary drift reads it.
        """
        return self.model.drift_table(self.coords)

    def rates(self, aux_drift: Optional[np.ndarray] = None):
        """(minus, plus) drift rates of every control, (k, n, d) each.

        ``aux_drift`` (n, d) is added to every control's drift before
        differencing, so the combined operator stays monotone.  Without it
        the rates are differenced once, on first use, from the model's drift
        table, which is not kept.  The rates of the last auxiliary drift are
        kept too: the game passes each new drift twice, to evaluate the
        step's rows and then the next step's generator.
        """
        if aux_drift is None:
            if self._own_rates is None:
                self._own_rates = self._difference(self.model.drift_table(self.coords))
            return self._own_rates
        aux = np.reshape(aux_drift, (self.n, self.dim))
        if self._aux_rates is None or not np.array_equal(aux, self._aux_rates[0]):
            self._aux_rates = (aux.copy(), self._difference(self.drift_table + aux))
        return self._aux_rates[1]

    def _difference(self, b: np.ndarray):
        # one division; halving b / h is exact, so the central rates equal
        # b / (2 h) bit for bit
        bh = b / self.h
        minus, plus = np.maximum(-bh, 0.0), np.maximum(bh, 0.0)
        if self.scheme == "upwind":
            return minus, plus
        central = np.abs(b) < self.q_ax_2h
        half = bh * 0.5
        return np.where(central, -half, minus), np.where(central, half, plus)

    # -- application to a vector --------------------------------------------

    def apply_diffusion(self, V: np.ndarray) -> np.ndarray:
        """Control-independent second-order part of Q V, shape (n,)."""
        V = np.asarray(V, dtype=float)
        out = np.zeros(self.n)
        for e in self.edges:
            out += e.rate * (V[e.target] - V)
        return out

    def apply_drift(self, minus: np.ndarray, plus: np.ndarray, V: np.ndarray) -> np.ndarray:
        """First-order part of Q V under the drift rates (minus, plus): shape
        (n,) for one policy's (n, d) rates, (k, n) for every control's."""
        V = np.asarray(V, dtype=float)
        out = np.zeros(plus.shape[:-1])
        for e in self.edges:
            if e.side:
                rate = plus if e.side > 0 else minus
                # an invalid edge targets its own node: its difference is 0
                out += rate[..., e.axis] * (V[e.target] - V)
        return out

    def apply(self, minus: np.ndarray, plus: np.ndarray, V: np.ndarray) -> np.ndarray:
        """(Q V) under the drift rates (minus, plus), shaped as ``apply_drift``."""
        return self.apply_diffusion(V) + self.apply_drift(minus, plus, V)

    def control_rows(self, V: np.ndarray, aux_drift: Optional[np.ndarray] = None) -> np.ndarray:
        """(k, n) rows Q^u V of every control, with ``aux_drift`` (n, d) added
        to each control's drift."""
        return self.apply(*self.rates(aux_drift), V)

    # -- sparse assembly ------------------------------------------------------

    def assemble(self, minus: np.ndarray, plus: np.ndarray) -> sp.csr_matrix:
        """Sparse generator under one policy's (n, d) drift rates."""
        import scipy.sparse as sp

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
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.n, self.n),
        ).tocsr()

    def assemble_policy(self, policy, aux_drift: Optional[np.ndarray] = None) -> sp.csr_matrix:
        """Sparse generator under a Markov policy, from its pick of
        ``rates(aux_drift)``.

        A relaxed policy mixes the per-control rates by its weights, which
        mixes the rows of the per-control generators; mixing the drift
        instead differs, as upwind rates are not linear in b.
        """
        minus, plus = self.rates(aux_drift)
        return self.assemble(policy.pick(minus), policy.pick(plus))
