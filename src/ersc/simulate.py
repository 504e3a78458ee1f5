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
run resets one Philox per step instead of building one, and a run whose
blocks hold at least ``_PRODUCER_MIN_NORMALS`` normals forks one producer
process that draws them into a small shared ring, off the stepper's critical
path.  When the stepper finds its next block not yet drawn, it draws a later
block itself while it waits, so the two processes share the drawing where
the producer is the bottleneck, and the producer draws nearly all of it
where the stepper is.  Without ``os.fork``, or when the fork fails, the run
draws the blocks inline.  The blocks are the same either way.  Inline, the
producer alone (the stepper waits for every late block) and producer + steal
on the OU model (d = 1), shared 2-vCPU host, median [quartiles] of nine
alternated runs, one process per variant and run; "won" counts the runs in
which producer + steal beat the producer alone:

  free-running, 2000 steps, microseconds per step (fork and reap included)

    paths   inline                producer              producer + steal      won
      256    23.5 [22.8-28.3]      21.1 [20.7-23.0]      21.6 [20.7-24.5]     3 of 9
      512    28.4 [28.1-34.8]      23.9 [23.5-24.9]      24.8 [22.9-27.2]     5 of 9
     1024    38.5 [38.0-46.2]      29.0 [26.7-34.0]      26.5 [25.6-33.6]     7 of 9
     2048    63.9 [58.7-73.8]      46.9 [46.0-47.6]      38.8 [37.0-45.0]     9 of 9
     4096   104.1 [102.0-112.5]    80.0 [78.9-80.9]      65.1 [63.2-73.5]     9 of 9
    10000   226.8 [221.7-259.8]   185.9 [176.7-192.0]   146.3 [128.2-154.6]   9 of 9

  frozen: the twisted hitting-time check (R = 1, horizon 12, dt 1e-3,
  starts 2 and -2), seconds per call

    paths   inline             producer           producer + steal   won
      256   0.35 [0.33-0.35]   0.35 [0.34-0.39]   0.36 [0.34-0.40]   4 of 9
      512   0.40 [0.38-0.42]   0.40 [0.38-0.52]   0.40 [0.39-0.43]   6 of 9
     1024   0.62 [0.60-0.63]   0.59 [0.54-0.67]   0.55 [0.55-0.61]   6 of 9
     2048   0.94 [0.91-0.95]   0.70 [0.69-0.75]   0.70 [0.67-0.75]   6 of 9
     4096   1.40 [1.33-1.43]   0.99 [0.96-1.03]   0.96 [0.91-1.10]   6 of 9

Forking and reaping the producer took 1.6 ms in a 93 MB process on that
host.  The stepper does only the work its outputs depend on:

  * compaction: while every path moves, each step works on whole arrays;
    once a path has stopped (frozen at its hit, or dead), the policy, the
    model callbacks, w and the update run on the moving rows only.  The full
    normal block is still drawn each step, so a path's index keeps meaning
    its position in the block;
  * batched starts: the hitting-time check runs all its starting points in
    one stepper call, path j of every start drawing row j of the block, the
    same common random numbers that one call per point would draw;
  * grid fields are interpolated by index arithmetic on the uniform grid
    (in 1D from one per-cell table), clipped only when a state leaves the
    box, and a one-control MarkovPolicy is its control point, so it needs no
    nearest-node lookup.

Clipped-lookup counts therefore cover only the lookups made: moving rows, and
no policy lookup for a one-control model.
"""

from __future__ import annotations

import hashlib
import itertools
import numbers
import os
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


# One producer process draws the blocks ahead of the stepper when a block
# holds at least this many normals: from there producer + steal beat inline
# drawing in at least 8 of 9 runs, free-running and frozen (the table in the
# module docstring).
_PRODUCER_MIN_NORMALS = 1024
# blocks in the shared ring: the producer runs at most this many steps ahead
# (640 KB at 10,000 paths, and as much again for the stepper's private ring
# once it draws a block itself; 2 slots lost about 15% of a twisted run, 32
# gained nothing over 8)
_RING_SLOTS = 8


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


def _normal_blocks(cfg: SimulationConfig, d: int):
    """Yield the normal block of every step of ``cfg``, in step order.

    A block is valid until the next one is requested.  When a block holds at
    least ``_PRODUCER_MIN_NORMALS`` normals a forked producer process draws
    them ahead (``_fork_producer``); else, or where that process cannot be
    started, one (n, d) buffer is refilled inline.  The blocks are the same
    either way.

    With a producer, block k is read from its ring after one b"+" on the
    non-blocking ``filled`` pipe.  When that byte is not there yet, the
    producer is behind, and the stepper fills the wait: it grants block
    j = k + slots early as b"s" ("skip"), draws block j itself into a private
    ring (slot j % slots, allocated on the first such draw), and only then
    blocks on the pipe for block k.  At step j it reads its own copy and
    nothing from the pipe.  Otherwise the end of step k grants block k + slots
    as b"-" ("draw into slot (k + slots) % slots").  Grants go out in block
    order, one per block past the first ``slots``.  Closing the generator
    kills and reaps the producer, and the caller closes it on every exit.
    """
    n, steps = cfg.n_paths, cfg.n_steps
    draw = _block_drawer(cfg.seed, n, d, cfg.antithetic)
    producer = _fork_producer(draw, steps, n, d) if n * d >= _PRODUCER_MIN_NORMALS else None
    if producer is None:
        buf = np.empty((n, d))
        for k in range(steps):
            yield draw(k, buf)
        return

    import signal

    pid, ring, filled, freed = producer
    slots = len(ring)
    own = None  # the private ring of the blocks the stepper draws itself
    stolen = set()
    os.set_blocking(filled, False)
    try:
        for k in range(steps):
            due = k + slots < steps  # block k + slots still needs its grant
            if k in stolen:
                stolen.remove(k)
                yield own[k % slots]
            else:
                try:
                    flag = os.read(filled, 1)
                except BlockingIOError:  # the producer is behind: fill the wait
                    if due:
                        j = k + slots
                        _grant(freed, b"s")
                        if own is None:
                            own = np.empty_like(ring)
                        draw(j, own[j % slots])
                        stolen.add(j)
                        due = False
                    os.set_blocking(filled, True)
                    flag = os.read(filled, 1)
                    os.set_blocking(filled, False)
                if flag != b"+":
                    raise _producer_error(flag, filled)
                yield ring[k % slots]
            if due:
                _grant(freed, b"-")  # slot k % slots may take block k + slots
    finally:
        os.close(freed)
        os.close(filled)
        os.kill(pid, signal.SIGKILL)  # one that already exited is a zombie until reaped
        os.waitpid(pid, 0)


def _grant(freed: int, flag: bytes) -> None:
    """Send the producer the grant ``flag`` for its next block past the ring."""
    try:
        os.write(freed, flag)
    except BrokenPipeError:
        pass  # the producer is gone: the next read says why


def _fork_producer(draw: Callable, steps: int, n: int, d: int):
    """Fork the process that fills a ring of normal blocks, or None.

    The ring is ``_RING_SLOTS`` (n, d) blocks of anonymous shared memory;
    block k goes to slot k % slots.  Two pipes synchronise it: the producer
    writes b"+" to ``filled`` per block drawn, and the caller writes one grant
    byte to ``freed`` per block past the first ``slots``, in block order: b"-"
    for a block the producer is to draw into its slot, b"s" for one the caller
    draws itself.  The producer keeps only its two pipe ends, so EOF on either
    pipe ends the other side.  An exception in the producer is sent as b"!"
    and its pickle.  Returns (pid, ring, filled, freed), or None where
    ``os.fork`` is missing or it, the ring or a pipe fails.
    """
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    import mmap

    slots = min(_RING_SLOTS, steps)
    fds = []
    try:
        ring = np.frombuffer(mmap.mmap(-1, slots * n * d * 8), dtype=float)
        fds += os.pipe()
        fds += os.pipe()
        pid = fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    ring = ring.reshape(slots, n, d)
    filled_r, filled_w, freed_r, freed_w = fds
    if pid == 0:  # the producer: it never returns from here
        _produce(draw, ring, steps, filled_w, freed_r)
    os.close(filled_w)
    os.close(freed_r)
    return pid, ring, filled_r, freed_w


def _produce(draw: Callable, ring: np.ndarray, steps: int, filled: int, freed: int):
    """The producer process's body: draw every block into the ring, then exit.

    Block k draws into slot k % slots at once for k < slots, and after its
    grant byte on ``freed`` otherwise: b"-" draws it and writes b"+", b"s"
    skips it (the caller drew it), and EOF ends the loop.
    """
    import gc

    gc.disable()  # run no finalizer of the parent's objects here
    code = 1
    try:
        lo, hi = sorted((filled, freed))
        os.closerange(3, lo)
        os.closerange(lo + 1, hi)
        os.closerange(hi + 1, os.sysconf("SC_OPEN_MAX"))
        slots = len(ring)
        for k in range(steps):
            if k >= slots:
                grant = os.read(freed, 1)
                if not grant:
                    break  # the caller is done
                if grant == b"s":
                    continue  # the caller draws this block itself
            draw(k, ring[k % slots])
            os.write(filled, b"+")
        code = 0
    except BaseException as exc:
        import pickle

        try:
            payload = pickle.dumps(exc)
        except Exception:
            payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        try:
            with os.fdopen(filled, "wb") as fh:
                fh.write(b"!" + payload)
        except BaseException:
            pass  # the caller is gone
    finally:
        os._exit(code)


def _producer_error(flag: bytes, filled: int) -> BaseException:
    """The exception to raise for a ``filled`` pipe that held ``flag``, not b"+"."""
    if flag == b"!":
        import pickle

        os.set_blocking(filled, True)  # the pickle may exceed the pipe buffer
        chunks = []
        while chunk := os.read(filled, 1 << 16):
            chunks.append(chunk)
        return pickle.loads(b"".join(chunks))
    return RuntimeError("the normal-block producer process exited early")


def _in_box(x: np.ndarray, r: np.ndarray) -> bool:
    """Whether every row of ``x`` (..., d) lies in the box [-r, r]; False on NaN."""
    if not x.size:
        return True
    if r.size == 1:  # one reduction to a scalar: the cheapest test
        return bool(np.abs(x).max() <= r[0])
    return bool((np.abs(x.reshape(-1, r.size)).max(axis=0) <= r).all())


class _ClipCount:
    """Counts the out-of-box states handed to per-node grid-field lookups."""

    def __init__(self):
        self.n = 0

    def field(self, grid: Grid, lookup: Callable) -> Callable:
        r = grid.radii

        def call(x):
            x = np.asarray(x, dtype=float)
            if not _in_box(x, r):
                self.n += int(np.any(np.abs(x) > r, axis=-1).sum())
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
    time, and so does this.  A state with a NaN coordinate reads NaN, as in
    scipy.

    States are clipped only when one leaves the box.  In 1D one gather from a
    per-cell table (a[k], a[k+1] - a[k], values at k and k+1) reads all a
    cell needs; its extra last row repeats the last cell for x = a[-1].
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

    def fix(k, xi, i):
        """Move each cell index k that is one off next to a node into its cell."""
        a = axes[i]
        k -= xi < a[k]
        k += (xi >= a[k + 1]) & (k < top[i])

    def clipped(x):
        """Points (m, d) in the box and the rows that held a NaN (or None)."""
        pts = np.asarray(x, dtype=float).reshape(-1, d)
        if _in_box(pts, hi):
            return pts, None
        nan = np.isnan(pts).any(axis=1)
        pts = np.clip(pts, lo, hi)
        if not nan.any():
            return pts, None
        pts[nan] = lo  # any cell will do: the row is overwritten with NaN
        return pts, nan

    def shaped(out, pts, nan):
        if nan is not None:
            out[nan] = np.nan
        return out.reshape(pts.shape[:1] + trailing)

    if d == 1:
        a = axes[0]
        cells = np.column_stack([a[:-1], widths[0], table[:-1], table[1:]])
        cells = np.concatenate([cells, cells[-1:]])  # k = top + 1 reads the last cell
        m = table[0].size  # values per node
        v0, v1 = (2, 3) if table.ndim == 1 else (slice(2, 2 + m), slice(2 + m, None))

        def call_1d(x):
            pts, nan = clipped(x)
            xi = pts[:, 0]
            k = ((xi - a[0]) / h[0]).astype(np.int64)  # floor, as xi >= a[0]
            c = cells.take(k, axis=0)
            y = (xi - c[:, 0]) / c[:, 1]
            if y.size and (y.min() < 0.0 or y.max() >= 1.0):  # k one off next to a node
                np.minimum(k, top[0], out=k)
                fix(k, xi, 0)
                c = cells.take(k, axis=0)
                y = (xi - c[:, 0]) / c[:, 1]
            y0 = 1 - y
            if table.ndim > 1:
                y, y0 = y[:, None], y0[:, None]
            out = c[:, v0] * y0
            out += 0.0  # scipy sums from 0.0: a -0.0 first term reads +0.0
            out += c[:, v1] * y
            return shaped(out, pts, nan)

        return call_1d

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
            fix(k, xi, i)
            y = (xi - a[k]) / widths[i][k]
        return k, y

    def call(x):
        pts, nan = clipped(x)
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
        return shaped(out, pts, nan)

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

    The normal blocks come from ``_normal_blocks``: drawn ahead by a forked
    producer process when a block holds at least ``_PRODUCER_MIN_NORMALS``
    normals, else inline; while it waits for a block that process has not
    drawn yet, the stepper draws a later one itself.  The process is killed
    and reaped before this returns or raises.
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

    blocks = _normal_blocks(cfg, d)
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
                # every row in ``rows`` is yet to arrive; a non-finite row has a
                # NaN or infinite norm, so it never does.  The norm is the one
                # np.linalg.norm forms, without its wrapper's overhead
                newly = np.sqrt((Xr * Xr).sum(axis=1)) <= stop_radius
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

    Raises ValueError unless R is finite and positive and every test point
    is finite.
    """
    # NaN fails the comparison, so this rejects it too
    if not 0 < R < np.inf:
        raise ValueError(f"R must be finite and positive, got {R!r}")
    clip = _ClipCount()
    V_of = clip.field(grid, grid_interpolator(grid, np.asarray(V, dtype=float)))
    u_of = _resolve_policy(model, policy, grid, clip)
    w_of = None if twist_log_psi is None else _twist(grid, twist_log_psi, clip)
    points = [np.asarray(pt, dtype=float).reshape(model.dim) for pt in test_points]
    bad = [pt.tolist() for pt in points if not np.isfinite(pt).all()]
    if bad:
        raise ValueError(f"test points must be finite, got {bad}")
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
