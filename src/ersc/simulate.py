"""Euler-Maruyama simulation, Monte Carlo cost estimators, and path checks.

One Euler-Maruyama stepper simulates dZ = [b + Sigma w] dt + Sigma dW with an
optional auxiliary field w(Z) and accumulates int r dt, (1/2) int |w|^2 dt and
int w . dW; exp(-int w . dW - (1/2) int |w|^2 dt) is the exact likelihood
ratio of the plain against the w-drifted Euler chain.  On it sit:

  * plain Monte Carlo of the exponential cost functional (log-sum-exp),
  * importance sampling with the eigenfunction twist w = Sigma' grad log psi,
    which makes the integrand nearly path-independent at an accurate eigenpair,
  * the hitting-time identity V(x) = E[exp(int (r - Lambda)) V(X_tau)] for the
    HJB solution outside a ball, with paths frozen when they hit it,
  * occupation-measure (mean empirical measure) tightness diagnostics.

The control is a stationary Markov policy: None for a one-control model, else
a MarkovPolicy on a grid.  The only radius is the hitting-time check's ball,
and a path that hits it is frozen.

Randomness comes from a counter-based generator: the normals of step k are
the Philox stream keyed by the seed from counter k << 128, and path j reads
row j of the step's block, so runs are bit-reproducible for a fixed seed.
A block does not depend on the path state, so it can be drawn ahead: each
run resets one Philox per step instead of building one, and a run that
freezes no paths and draws at least ``_PREFETCH_MIN_NORMALS`` normals per
step draws them on a producer thread, off the stepper's critical path.  The
blocks are the same either way.  The stepper does only the work its
outputs depend on:

  * compaction: while every path moves, each step works on whole arrays;
    once a path has stopped (frozen at its hit, or dead), the policy, the
    model callbacks, w and the update run on the moving rows only.  The full
    normal block is still drawn each step, so a path's index keeps meaning
    its position in the block;
  * batched starts: the hitting-time check runs all its starting points in
    one stepper call, path j of every start drawing row j of the block, the
    same common random numbers that one call per point would draw;
  * grid fields are interpolated by index arithmetic on the uniform grid,
    and a one-control MarkovPolicy is its control point, so it needs no
    nearest-node lookup.

Clipped-lookup counts therefore cover only the lookups made: moving rows, and
no policy lookup for a one-control model.
"""

from __future__ import annotations

import hashlib
import itertools
import numbers
import threading
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .discretize import Grid
from .eigensolve import Eigenpair
from .hjb import MarkovPolicy
from .model import sigma_t_times, sigma_times

__all__ = [
    "SimulationConfig",
    "PathEnsemble",
    "RscEstimate",
    "simulate",
    "estimate_rsc_cost",
    "importance_sampled_cost",
    "check_stochastic_representation",
    "mem_tightness_report",
    "grid_interpolator",
]


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimulationConfig:
    """Euler-Maruyama run parameters; a fixed seed gives bit-identical paths."""

    dt: float
    horizon: float
    n_paths: int
    seed: int = 0
    x0: Sequence[float] = (0.0,)
    antithetic: bool = False
    record_mem: bool = False
    mem_stride: int = 10

    def __post_init__(self):
        # NaN fails every comparison, so this rejects it too
        if not 0 < self.dt <= self.horizon < np.inf:
            raise ValueError(f"need finite 0 < dt <= horizon, got {self.dt!r} and {self.horizon!r}")
        # a subnormal dt can overflow the step count though both values are finite
        if not self.horizon / self.dt < np.inf:
            raise ValueError(
                f"horizon / dt overflows the step count, got {self.horizon!r} / {self.dt!r}"
            )
        # counts are not truncated: 8.5 paths is an error, not 8 (a bool is no count)
        for key in ("n_paths", "mem_stride"):
            value = getattr(self, key)
            if not _is_int(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{key} must be >= 1")
        # the seed is the Philox key, a 128-bit unsigned integer
        if not _is_int(self.seed) or not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must be an integer in [0, 2**128), got {self.seed!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class PathEnsemble:
    """Simulated paths with accumulated cost and auxiliary-penalty integrals."""

    terminal: np.ndarray
    cost_integral: np.ndarray
    aux_penalty_integral: np.ndarray
    mem_masses: Optional[np.ndarray]
    grid: Optional[Grid]
    excluded: int
    config: SimulationConfig

    @property
    def n_paths(self) -> int:
        return self.terminal.shape[0]

    def digest(self) -> str:
        """Content hash of the ensemble for reproducibility checks."""
        m = hashlib.sha256()
        m.update(self.terminal.tobytes())
        m.update(self.cost_integral.tobytes())
        m.update(self.aux_penalty_integral.tobytes())
        return m.hexdigest()


def _step_normals(seed: int, step: int, n: int, d: int, antithetic: bool) -> np.ndarray:
    """The (n, d) normal block of ``step``: the definition of the stream.

    One Philox stream per (seed, step), starting at counter ``step << 128``;
    path j reads row j.  Antithetic blocks draw the first ceil(n/2) rows and
    mirror them.  The stepper draws the same blocks through ``_block_drawer``.
    """
    gen = np.random.Generator(np.random.Philox(key=seed, counter=step << 128))
    if antithetic:
        half = (n + 1) // 2
        z = gen.standard_normal((half, d))
        return np.concatenate([z, -z], axis=0)[:n]
    return gen.standard_normal((n, d))


# A producer thread draws the blocks ahead of the stepper only when a block
# holds at least this many normals and no path freezes.  Below it the
# stepper's small-array numpy calls hold the GIL and starve the producer.
# Microseconds per step on the OU model (d = 1), shared 2-vCPU host:
#
#   paths   Philox per step   reset, inline   reset + producer
#      64              51.8            35.7               56.8
#     512              43.2            33.3               75.9
#    2048              82.3            78.1               79.0
#    4096             138.0           133.3              114.8
#   10000             323.6           245.3              208.2
#
# Frozen paths shrink the moving rows, and the producer starves again: the
# twisted hitting-time check on the OU model (R = 1, horizon 12, dt 1e-3,
# starts 2 and -2), seconds per call, median [IQR], same host:
#
#   paths   inline                producer              producer won
#    4096   2.19 [2.12-2.49]      2.51 [2.47-2.74]       1 of 16 pairs
#   10000   3.47 [3.36-3.66]      3.12 [3.04-3.31]       9 of 12 pairs
#
# A run with a stop radius stays inline: near the gate it loses more than it
# gains at 10,000 paths, and the bench's check runs 2,000.
_PREFETCH_MIN_NORMALS = 4096
# blocks per hand-off: one chunk waits in the slot while the next is drawn,
# so at most four blocks are drawn ahead of the chunk in use
_PREFETCH_CHUNK = 2


def _block_drawer(seed: int, n: int, d: int, antithetic: bool) -> Callable:
    """``draw(step, out)`` fills ``out`` (n, d) with ``_step_normals(seed, step, ...)``.

    One Philox and one Generator serve every step: before each block the
    counter is reset to ``step << 128`` with an empty buffer, which equals a
    fresh ``Philox(key=seed, counter=step << 128)`` bit for bit and skips
    building (and entropy-seeding) a generator per step.
    """
    bitgen = np.random.Philox(key=seed)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, empty buffer
    half = (n + 1) // 2 if antithetic else n

    def draw(step: int, out: np.ndarray) -> np.ndarray:
        state["state"]["counter"] = np.array([0, 0, step, 0], dtype=np.uint64)
        bitgen.state = state
        gen.standard_normal(out=out[:half])
        if half < n:
            np.negative(out[: n - half], out=out[half:])
        return out

    return draw


def _normal_blocks(cfg: SimulationConfig, d: int, prefetch: bool):
    """Yield the normal block of every step of ``cfg``, in step order.

    Inline, one (n, d) buffer is refilled per step, so a block is valid until
    the next one is drawn.  With ``prefetch`` a daemon thread draws chunks of
    ``_PREFETCH_CHUNK`` consecutive blocks and hands them over through one
    slot; an error there is raised here.  Closing the generator stops and
    joins the thread, and the caller closes it on every exit.
    """
    n, steps = cfg.n_paths, cfg.n_steps
    draw = _block_drawer(cfg.seed, n, d, cfg.antithetic)
    if not prefetch:
        buf = np.empty((n, d))
        for k in range(steps):
            yield draw(k, buf)
        return

    slot = []  # the chunk, or the producer's error, being handed over
    free, full = threading.Semaphore(1), threading.Semaphore(0)
    stop = threading.Event()

    def hand_over(item) -> bool:
        free.acquire()  # the stepper took the last chunk, or is closing
        if stop.is_set():
            return False
        slot.append(item)
        full.release()
        return True

    def produce():
        try:
            for k0 in range(0, steps, _PREFETCH_CHUNK):
                chunk = np.empty((min(_PREFETCH_CHUNK, steps - k0), n, d))
                for j, block in enumerate(chunk):
                    draw(k0 + j, block)
                if not hand_over(chunk):
                    return
        except Exception as exc:  # raised again in the stepper
            hand_over(exc)

    producer = threading.Thread(target=produce, name="ersc-normals", daemon=True)
    producer.start()
    try:
        for _ in range(0, steps, _PREFETCH_CHUNK):
            full.acquire()
            chunk = slot.pop()
            free.release()
            if isinstance(chunk, Exception):
                raise chunk
            yield from chunk
    finally:
        stop.set()
        free.release()  # a producer waiting to hand over sees the stop
        producer.join()


class _ClipCount:
    """Counts the out-of-box states handed to per-node grid-field lookups."""

    def __init__(self):
        self.n = 0

    def field(self, grid: Grid, lookup: Callable) -> Callable:
        def call(x):
            x = np.asarray(x, dtype=float)
            self.n += int(np.any(np.abs(x) > grid.radii, axis=-1).sum())
            return lookup(x)

        return call

    def warn(self) -> None:
        if self.n:
            warnings.warn(
                f"{self.n} state evaluations clipped to the grid box during "
                "grid-field lookup"
            )


def _resolve_policy(model, policy, grid: Optional[Grid], clip: _ClipCount):
    """The control ``u(X)`` of ``policy``: None (one-control model) or a MarkovPolicy."""
    if policy is not None and not isinstance(policy, MarkovPolicy):
        raise TypeError(f"policy must be None or a MarkovPolicy, got {type(policy).__name__}")
    pts = model.controls.points
    if policy is None or pts.shape[0] == 1:
        # with one control every policy is that control: no node lookup
        if pts.shape[0] != 1:
            raise ValueError("policy required when the model has several controls")
        u0 = pts[0]
        return lambda x: u0
    if grid is None:
        raise ValueError("grid required to evaluate a MarkovPolicy by node lookup")
    per_node = policy.control_values(pts)
    return clip.field(grid, lambda x: per_node[grid.nearest_node(x)])


def _resolve_aux(aux, grid: Optional[Grid], clip: _ClipCount):
    """Auxiliary field as ``w(X, S)`` (S = Sigma(X)), or None."""
    if aux is None:
        return None
    if callable(aux):
        return lambda X, S: aux(X)
    # AuxiliaryPolicy or raw per-node field: multilinear interpolation
    fld = aux.field if hasattr(aux, "field") else np.asarray(aux, dtype=float)
    if grid is None:
        raise ValueError("grid required to interpolate a node-based auxiliary field")
    w_of = clip.field(grid, grid_interpolator(grid, fld))
    return lambda X, S: w_of(X)


def _twist(grid: Grid, log_psi: np.ndarray, clip: _ClipCount):
    """The eigenfunction twist w = Sigma' grad log psi as ``w(X, S)``."""
    grad_of = clip.field(grid, grid_interpolator(grid, grid.gradient(log_psi)))

    return lambda X, S: sigma_t_times(S, np.asarray(grad_of(X), dtype=float))


def grid_interpolator(grid: Grid, values: np.ndarray) -> Callable:
    """Multilinear interpolation of per-node values, clipped to the grid box.

    Index arithmetic on the uniform grid, equal bit for bit to scipy's
    ``RegularGridInterpolator(method="linear")``: the cell k of each axis has
    a[k] <= x < a[k+1] (the last cell is closed on the right), the corners are
    summed in ``itertools.product`` order, and each corner weight is the
    product of the per-axis weights in axis order.  On a 2D grid with scalar
    values scipy's compiled path multiplies the value by the weights one at a
    time, and so does this.
    """
    values = np.asarray(values, dtype=float)
    trailing = values.shape[1:]
    table = values.reshape(values.shape[0], -1)
    if table.shape[1] == 1:
        table = table[:, 0]  # one value per node: work on flat arrays
    d = grid.dim
    lo, hi = -grid.radii, grid.radii
    axes, h = grid.axes, grid.spacings
    widths = [np.diff(a) for a in axes]  # a[k+1] - a[k], as scipy forms it
    top = [int(c) - 2 for c in grid.counts]  # last cell index
    strides = [int(s) for s in grid.strides()]
    corners = [(c, int(np.dot(c, strides))) for c in itertools.product((0, 1), repeat=d)]
    chained = d == 2 and not trailing

    def cell(xi, i):
        """Cell index k with a[k] <= xi < a[k+1] (the last closed) and its weight."""
        a = axes[i]
        k = ((xi - a[0]) / h[i]).astype(np.int64)  # floor, as xi >= a[0]
        np.minimum(k, top[i], out=k)
        y = (xi - a[k]) / widths[i][k]
        if y.size and (y.min() < 0.0 or y.max() >= 1.0):  # k one off next to a node
            k -= xi < a[k]
            k += (xi >= a[k + 1]) & (k < top[i])
            y = (xi - a[k]) / widths[i][k]
        return k, y

    def call(x):
        pts = np.clip(np.asarray(x, dtype=float), lo, hi).reshape(-1, d)
        base, weights = 0, []
        for i in range(d):
            k, y = cell(pts[:, i], i)
            base = base + (k if strides[i] == 1 else k * strides[i])
            weights.append((1 - y, y))
        out = None
        for c, off in corners:
            v = table.take(base + off if off else base, axis=0)
            if chained:
                term = v * weights[0][c[0]] * weights[1][c[1]]
            else:
                w = weights[0][c[0]]
                for i in range(1, d):
                    w = w * weights[i][c[i]]
                term = v * (w if v.ndim == 1 else w[:, None])
            if out is None:
                out = term
                out += 0.0  # scipy sums from 0.0: a -0.0 first term reads +0.0
            else:
                out += term
        return out.reshape(pts.shape[:1] + trailing)

    return call


# per path, dead ones included: final state, not excluded, int r dt,
# (1/2) int |w|^2 dt, int w . dW, hitting time (NaN if none; the array is None
# without a stop radius); and occupation
_Paths = namedtuple("_Paths", "X alive cost penalty girsanov hit mem")


def _euler_maruyama(
    model, u_of, cfg: SimulationConfig, x0, w_of=None, stop_radius=None, mem_grid=None
) -> _Paths:
    """The one Euler-Maruyama loop behind every route.

    ``x0`` is a (B, d) stack of starting points; ``cfg.n_paths`` paths run
    from each, path j of every start seeing row j of the step's normal block
    (common random numbers), and the result holds the B ensembles one after
    another.  ``w_of(X, S)``, given Sigma(X) as S, adds the drift S w.
    With a ``stop_radius`` each path's first hitting time of that closed ball
    is recorded and the path is frozen there.  Paths that turn non-finite are
    parked at their start and marked dead.  While every path moves, each step
    works on the whole arrays; once one has stopped, the policy, the model
    callbacks, ``w_of`` and the update see only the moving rows.  The loop
    ends once no path moves.  ``mem_grid`` records the occupation masses
    every ``cfg.mem_stride`` steps.

    The normal blocks come from ``_normal_blocks``: drawn ahead on a
    producer thread when no path freezes (no ``stop_radius``) and a block
    holds at least ``_PREFETCH_MIN_NORMALS`` normals, else inline.  The
    thread is joined before this returns or raises.
    """
    n, d, dt = cfg.n_paths, model.dim, cfg.dt
    sq = np.sqrt(dt)
    starts = np.asarray(x0, dtype=float).reshape(-1, d)
    X0 = np.repeat(starts, n, axis=0)
    X = X0.copy()
    N = X.shape[0]
    cost = np.zeros(N)
    pen = np.zeros(N)
    gir = np.zeros(N)
    alive = np.ones(N, dtype=bool)
    moving = np.ones(N, dtype=bool)
    hit = None if stop_radius is None else np.full(N, np.nan)
    mem_counts = None if mem_grid is None else np.zeros(mem_grid.n_nodes)
    mem_total = 0
    rows = slice(None)  # every path moves: whole arrays, no gather

    def row_ids(mask):
        return np.flatnonzero(mask) if isinstance(rows, slice) else rows[mask]

    prefetch = stop_radius is None and n * d >= _PREFETCH_MIN_NORMALS
    blocks = _normal_blocks(cfg, d, prefetch)
    try:
        for k, xi in enumerate(blocks):
            if not isinstance(rows, slice):
                xi = xi[rows % n]
            elif N > n:
                xi = np.tile(xi, (N // n, 1))
            Xr = X[rows]
            u = u_of(Xr)
            S = np.asarray(model.sigma(Xr), dtype=float)
            cost[rows] += np.asarray(model.cost(Xr, u), dtype=float) * dt
            drift = np.asarray(model.drift(Xr, u), dtype=float)
            if w_of is not None:
                w = np.asarray(w_of(Xr, S), dtype=float)
                drift = drift + sigma_times(S, w)
                pen[rows] += 0.5 * np.einsum("ni,ni->n", w, w) * dt
                gir[rows] += np.einsum("ni,ni->n", w, xi) * sq
            Xr = Xr + (drift * dt + sigma_times(S, xi) * sq)
            X[rows] = Xr

            stopped = False
            if not np.isfinite(Xr).all():
                gone = row_ids(~np.isfinite(Xr).all(axis=1))
                alive[gone] = moving[gone] = False
                X[gone] = X0[gone]  # park dead paths on a finite value
                stopped = True
            if hit is not None:
                # a non-finite row has a NaN or infinite norm, so it never arrives
                newly = np.isnan(hit[rows]) & (np.linalg.norm(Xr, axis=1) <= stop_radius)
                if newly.any():
                    arrived = row_ids(newly)
                    hit[arrived] = (k + 1) * dt
                    moving[arrived] = False
                    stopped = True
            if mem_counts is not None and (k % cfg.mem_stride == 0):
                np.add.at(mem_counts, mem_grid.nearest_node(X[alive]), 1.0)
                mem_total += int(alive.sum())
            if stopped:
                rows = np.flatnonzero(moving)
                if rows.size == 0:
                    break
    finally:
        blocks.close()

    if mem_total:
        mem_counts = mem_counts / mem_total
    return _Paths(X, alive, cost, pen, gir, hit, mem_counts)


def simulate(
    model,
    policy,
    cfg: SimulationConfig,
    aux=None,
    grid: Optional[Grid] = None,
) -> PathEnsemble:
    """Euler-Maruyama paths of X (or the drift-augmented Z when ``aux`` is set).

    ``policy`` is None (one-control model) or a MarkovPolicy, evaluated by
    nearest-node lookup on ``grid`` (none for a one-control model); any other
    form raises TypeError.  ``aux`` is the auxiliary field w, adding the drift
    Sigma(x) w(x); it may be a callable, a per-node field or an
    AuxiliaryPolicy (its ``field``), the latter two interpolated on ``grid``.
    Paths that leave the representable range (non-finite state) are excluded
    and counted.
    """
    clip = _ClipCount()
    u_of = _resolve_policy(model, policy, grid, clip)
    w_of = _resolve_aux(aux, grid, clip)
    if cfg.record_mem and grid is None:
        raise ValueError("record_mem requires a grid")
    x0 = np.asarray(cfg.x0, dtype=float).reshape(model.dim)
    paths = _euler_maruyama(model, u_of, cfg, x0, w_of, mem_grid=grid if cfg.record_mem else None)
    clip.warn()
    alive = paths.alive
    return PathEnsemble(
        terminal=paths.X[alive],
        cost_integral=paths.cost[alive],
        aux_penalty_integral=paths.penalty[alive],
        mem_masses=paths.mem,
        grid=grid,
        excluded=int((~alive).sum()),
        config=cfg,
    )


@dataclass(frozen=True)
class RscEstimate:
    """Risk-sensitive cost estimate with tail diagnostics under truncation."""

    estimate: float
    stderr: float
    truncated_estimate: Optional[float] = None
    tail_mass: Optional[float] = None


def _logsumexp(a) -> np.float64:
    """log(sum(exp(a))) of a 1-D real array, bit for bit scipy.special.logsumexp.

    The maxima are split off the sum for precision (Blanchard, Higham & Higham,
    IMA J. Numer. Anal. 41, 2021): s is the sum of exp(a - max) over the rest,
    divided by the count m of maxima, and the result log1p(s) + log(m) + max.
    A non-finite result (an infinite or NaN maximum) is replaced by the direct
    log(sum(exp(a))), which is -inf for all -inf input.
    """
    a = np.asarray(a, dtype=float)
    a_max = a.max()
    at_max = a == a_max
    m = np.sum(at_max, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - a_max))
        if s != 0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
    if not np.isfinite(out):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.log(np.sum(np.exp(a)))
    return out


def _log_mean_exp_rate(S: np.ndarray, T: float):
    """(1/T) log mean exp(S) and its delta-method standard error."""
    n = S.size
    smax = float(S.max())
    w = np.exp(S - smax)
    mean_w = float(w.mean())
    est = (smax + np.log(mean_w)) / T
    stderr = float(w.std(ddof=1) / (mean_w * np.sqrt(n))) / T if n > 1 else float("nan")
    return est, stderr


def estimate_rsc_cost(ensemble: PathEnsemble, truncation_L: Optional[float] = None) -> RscEstimate:
    """(1/T) log mean exp(int r dt) over paths, by stable log-sum-exp.

    With ``truncation_L`` the integrand is additionally restricted to paths
    with int r dt <= L*T, and the share of exponential mass carried by the
    excluded tail is reported.
    """
    S = ensemble.cost_integral
    if S.size == 0:
        raise ValueError("all paths excluded; nothing to estimate")
    T = ensemble.config.horizon
    est, stderr = _log_mean_exp_rate(S, T)
    if truncation_L is None:
        return RscEstimate(estimate=est, stderr=stderr)
    keep = S <= truncation_L * T
    if not np.any(keep):
        raise ValueError("truncation removed every path")
    trunc = (_logsumexp(S[keep]) - np.log(S.size)) / T
    tail = float(np.exp(_logsumexp(S[~keep]) - _logsumexp(S))) if np.any(~keep) else 0.0
    return RscEstimate(estimate=est, stderr=stderr, truncated_estimate=trunc, tail_mass=tail)


def importance_sampled_cost(
    model,
    policy,
    eigenpair: Eigenpair,
    cfg: SimulationConfig,
    grid: Optional[Grid] = None,
    terminal_eigen_correction: bool = True,
):
    """Risk-sensitive cost via the eigenfunction change of measure.

    Simulates the twisted ("ground") dynamics, whose auxiliary field
    w = Sigma' grad(log psi) adds the drift Sigma Sigma' grad(log psi), and
    reweights by the exact discrete Girsanov factor.  The default estimator is
    built on the multiplicative martingale exp(int (r - lambda) dt) psi(X_T) / psi(x0):

        lambda + (1/T) log mean exp( int (r - lambda) dt
                                     + log psi(Z_T) - log psi(x0)
                                     - int w . dW - (1/2) int |w|^2 dt ),

    whose exponent is path-independent at the exact eigenpair, so it returns
    the eigenvalue itself with variance driven only by eigenpair and
    time-stepping error.  With ``terminal_eigen_correction=False`` the
    psi-ratio is dropped and the estimator targets the same finite-horizon
    log-moment functional as plain Monte Carlo (useful for cross-checking
    the two estimators on identical footing).  Returns (estimate, stderr);
    raises ValueError if any path turns non-finite.
    """
    grid = grid if grid is not None else eigenpair.grid
    if grid is None:
        raise ValueError("grid required (pass it or use an eigenpair that carries one)")
    lam = eigenpair.value
    log_psi = np.log(eigenpair.vector)
    clip = _ClipCount()
    x0 = np.asarray(cfg.x0, dtype=float).reshape(model.dim)
    paths = _euler_maruyama(
        model, _resolve_policy(model, policy, grid, clip), cfg, x0, _twist(grid, log_psi, clip)
    )
    excluded = int((~paths.alive).sum())
    if excluded:
        raise ValueError(
            f"{excluded} of {cfg.n_paths} importance-sampled paths became non-finite "
            "and were excluded; the estimate would be undefined"
        )
    S = paths.cost - lam * (cfg.n_steps * cfg.dt) - paths.girsanov - paths.penalty
    if terminal_eigen_correction:
        logpsi_of = clip.field(grid, grid_interpolator(grid, log_psi))
        S += np.asarray(logpsi_of(paths.X), dtype=float) - float(logpsi_of(x0[None, :])[0])
    clip.warn()
    est, stderr = _log_mean_exp_rate(S, cfg.horizon)
    return lam + est, stderr


def check_stochastic_representation(
    model,
    policy,
    V: np.ndarray,
    Lambda: float,
    R: float,
    test_points: Sequence,
    cfg: SimulationConfig,
    grid: Grid,
    twist_log_psi: Optional[np.ndarray] = None,
):
    """Monte Carlo check of V(x) = E[exp(int_0^tau (r - Lambda) dt) V(X_tau)].

    tau is the first hitting time of the closed ball of radius R, where each
    path is frozen.  Paths that fail to hit within the horizon, or turn
    non-finite, are dropped and counted as non-hitting, and a point is
    flagged inconclusive when more than 1% fail to hit.  Returns a list of
    dicts with ratio (estimate / V(x)), stderr, and the non-hitting fraction.

    With ``twist_log_psi=None`` paths follow the plain dynamics.  That
    estimator is unbiased but heavy-tailed: outward excursions carry
    exponential weights whose second moment is infinite whenever the doubled
    cost is supercritical, so sample means converge slowly and typically sit
    below 1.  Passing a per-node log-eigenfunction switches the sampling to
    the twisted dynamics (drift + Sigma Sigma' grad log psi) with the exact
    per-step Girsanov reweighting; the estimate stays unbiased for the Euler
    chain under any (V, Lambda), so wrong inputs are still detected, while
    the weight variance collapses when the inputs are near the eigenpair.

    Raises ValueError unless R is finite and positive.
    """
    # NaN fails the comparison, so this rejects it too
    if not 0 < R < np.inf:
        raise ValueError(f"R must be finite and positive, got {R!r}")
    clip = _ClipCount()
    V_of = clip.field(grid, grid_interpolator(grid, np.asarray(V, dtype=float)))
    u_of = _resolve_policy(model, policy, grid, clip)
    w_of = None if twist_log_psi is None else _twist(grid, twist_log_psi, clip)
    points = [np.asarray(pt, dtype=float).reshape(model.dim) for pt in test_points]
    outside = [x0 for x0 in points if np.linalg.norm(x0) > R]
    if outside:
        paths = _euler_maruyama(model, u_of, cfg, np.stack(outside), w_of, stop_radius=R)
        I = paths.cost - Lambda * paths.hit - paths.girsanov - paths.penalty
    results, b = [], 0
    for x0 in points:
        if np.linalg.norm(x0) <= R:
            results.append(
                {"point": x0, "ratio": 1.0, "stderr": 0.0, "nonhit": 0.0, "inconclusive": False}
            )
            continue
        mine = slice(b * cfg.n_paths, (b + 1) * cfg.n_paths)  # this start's paths
        b += 1
        hit = ~np.isnan(paths.hit[mine])
        vals = np.exp(I[mine][hit]) * np.asarray(V_of(paths.X[mine][hit]), dtype=float)
        nonhit = float((~hit).mean())
        denom = float(V_of(x0[None, :])[0])
        ratio = float(vals.mean() / denom) if vals.size else float("nan")
        stderr = (
            float(vals.std(ddof=1) / (np.sqrt(vals.size) * denom)) if vals.size > 1 else float("nan")
        )
        results.append(
            {
                "point": x0,
                "ratio": ratio,
                "stderr": stderr,
                "nonhit": nonhit,
                "inconclusive": bool(nonhit > 0.01),
            }
        )
    clip.warn()
    return results


def mem_tightness_report(ensemble: PathEnsemble, shell_radii: Sequence[float]):
    """Occupation mass beyond each radius plus a monotone-decay tightness flag.

    The flag is True when the mass in successive shells [r_k, r_{k+1})
    decreases monotonically, the empirical signature of a tight family of
    mean empirical measures.
    """
    if ensemble.mem_masses is None or ensemble.grid is None:
        raise ValueError("ensemble carries no occupation histogram")
    radii = np.asarray(sorted(shell_radii), dtype=float)
    node_r = np.linalg.norm(ensemble.grid.coords(), axis=1)
    beyond = [float(ensemble.mem_masses[node_r > r].sum()) for r in radii]
    shells = []
    edges = np.concatenate([radii, [np.inf]])
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (node_r > a) & (node_r <= b)
        shells.append(float(ensemble.mem_masses[mask].sum()))
    tight = all(s2 <= s1 + 1e-12 for s1, s2 in zip(shells[:-1], shells[1:]))
    return {
        "radii": radii.tolist(),
        "mass_beyond": beyond,
        "shell_masses": shells,
        "tight": tight,
    }
