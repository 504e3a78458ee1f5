"""Multiplicative HJB equation min_u [L^u V + r V] = Lambda V by policy iteration.

Each outer step evaluates the current policy through its principal eigenpair
and improves it by the rowwise minimizer of (Q^u V + r^u V).  Improvement can
never raise the certified Collatz-Wielandt upper bound ``up`` of the Perron
value: the improved rows satisfy A' V <= A V <= up V pointwise, so the bound
of A' at V is at most ``up``, and inverse iteration started from V never
raises it.  The history of these upper bounds is therefore non-increasing
(the bracket midpoint is not: it may rise by up to half a bracket), and the
iteration terminates at a fixed point of the discrete HJB operator.

``_howard`` is the package's one Howard loop, for these Perron steps and the
Poisson steps of ``game``; its docstring states their stop, stall and budget rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretize import Grid, OperatorKernel
from .eigensolve import Eigenpair, bracket_floor, principal_eigenpair
from .model import sigma_t_times

__all__ = [
    "MarkovPolicy",
    "HjbSolution",
    "HjbError",
    "solve_hjb",
    "check_optimality_condition",
    "value_gradient_field",
]


class HjbError(RuntimeError):
    pass


@dataclass(frozen=True)
class MarkovPolicy:
    """Stationary Markov policy on grid nodes.

    Precise policies store one control index per node; relaxed policies store
    nonnegative weights over controls summing to one per node.
    """

    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment)
        if a.ndim == 1:
            a = a.astype(np.int64)
            if np.any(a < 0):
                raise ValueError("control indices must be nonnegative")
        elif a.ndim == 2:
            a = a.astype(float)
            if np.any(a < -1e-12):
                raise ValueError("relaxed policy weights must be nonnegative")
            sums = a.sum(axis=1)
            if np.max(np.abs(sums - 1.0)) > 1e-9:
                raise ValueError("relaxed policy weights must sum to 1 per node")
        else:
            raise ValueError("assignment must be (n,) indices or (n, k) weights")
        object.__setattr__(self, "assignment", a)

    @property
    def is_relaxed(self) -> bool:
        return self.assignment.ndim == 2

    @property
    def n_nodes(self) -> int:
        return self.assignment.shape[0]

    @staticmethod
    def constant(index: int, n_nodes: int) -> "MarkovPolicy":
        return MarkovPolicy(np.full(n_nodes, index, dtype=np.int64))

    def pick(self, table: np.ndarray) -> np.ndarray:
        """Per-node entries of a (k, n, ...) per-control table under this policy.

        Precise policies gather row ``assignment[i]`` at node i; relaxed
        policies take the weighted mix of the rows.
        """
        table = np.asarray(table)
        if self.is_relaxed:
            if self.assignment.shape[1] != table.shape[0]:
                raise ValueError("weight matrix width does not match control count")
            return np.einsum("nk,kn...->n...", self.assignment, table)
        return table[self.assignment, np.arange(self.n_nodes)]

    def control_values(self, control_points: np.ndarray) -> np.ndarray:
        """Per-node control points (relaxed policies give the mean point)."""
        if self.is_relaxed:
            return self.assignment @ control_points
        return control_points[self.assignment]


@dataclass(frozen=True)
class HjbSolution:
    """Fixed point of the discrete multiplicative HJB equation.

    ``residual`` is the sup-norm HJB defect relative to V, i.e.
    max_i |min_u [(Q^u V)_i + r_i^u V_i] - Lambda V_i| / V_i, which keeps the
    measure meaningful where the eigenfunction is large.  ``value`` is the
    midpoint of the last step's Collatz-Wielandt bracket; ``history`` holds
    each step's certified upper bound ``cw_upper``, which is non-increasing
    (module docstring).  ``cost_table`` is the (k, n) running-cost table the
    solve used, after ``cost_fn`` and ``cost_scale``.
    """

    value: float
    V: np.ndarray
    policy: MarkovPolicy
    residual: float
    history: list
    eigenpair: Eigenpair
    model: object = field(repr=False, default=None)
    grid: Optional[Grid] = field(repr=False, default=None)
    scheme: str = "hybrid"
    cost_table: Optional[np.ndarray] = field(repr=False, default=None)


def _howard(step, policy, tol: float, max_iter: int, error: type):
    """Howard policy iteration from ``policy``: (policy, residual, history).

    ``step(policy)`` evaluates a policy and returns its scalar value, its
    residual, whether its solution has settled, and the improved policy.  The
    loop returns at the first settled step with residual below tol: the policy
    that step evaluated, its residual and every step's value.  It raises
    ``error`` at once when the improved policy repeats an earlier one whose
    value is unchanged within tol (argmin ties cycling, or rounding holding
    the residual above tol), and when ``max_iter`` steps run out; both
    messages name the last residual and tol.  A tol that is not finite and
    positive raises ValueError before the first step.
    """
    # NaN fails the comparison, so this rejects it too
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    history, seen, residual = [], {}, np.inf
    for k in range(1, max_iter + 1):
        value, residual, settled, improved = step(policy)
        history.append(value)
        if settled and residual < tol:
            return policy, residual, history
        if abs(seen.get(_key(improved), np.inf) - value) <= tol:
            raise error(
                f"policy iteration stalled at residual {residual:g} (tol {tol:g}) after "
                f"{k} steps: it revisited a policy with unchanged value"
            )
        seen[_key(policy)] = value
        policy = improved
    raise error(
        f"policy iteration stopped at residual {residual:g} (tol {tol:g}) after {max_iter} steps"
    )


def _key(policy) -> bytes:
    """The bytes of a MarkovPolicy, or of a tuple of policies and arrays."""
    parts = policy if isinstance(policy, tuple) else (policy,)
    return b"".join(getattr(p, "assignment", p).tobytes() for p in parts)


def solve_hjb(
    model,
    grid: Grid,
    tol: float = 1e-8,
    max_iter: int = 60,
    initial_policy: Optional[MarkovPolicy] = None,
    cost_fn=None,
    cost_scale: float = 1.0,
    scheme: str = "hybrid",
) -> HjbSolution:
    """Solve the multiplicative HJB equation by Howard policy iteration.

    Args:
        model, grid: problem instance; every control must induce an
            irreducible generator on the grid.
        tol: stopping threshold for both the decrease per step of the
            ``history`` upper bound and the relative HJB residual.
        initial_policy: starting precise policy (defaults to the myopic
            argmin of the running cost, ties to the lowest control index).
        cost_fn, cost_scale: running-cost override / scaling.

    Each inner eigensolve runs to the bracket tolerance tol/10, raised to its
    policy's ``bracket_floor``.

    From step 2 on, each eigensolve starts from the previous step's V: the
    improved policy moves the eigenfunction little, so the inner iteration
    starts close to its fixed point.  The CW bracket certifies any positive
    start, so the warm start changes iteration counts, not the gates.

    Raises:
        ValueError: before any solve, on a tol that is not finite and positive.
        HjbError: by the stall and budget rule of ``_howard``.
    """
    kernel = OperatorKernel(model, grid, scheme)
    r_all = cost_scale * model.cost_table(kernel.coords, cost_fn)

    if initial_policy is None:
        policy = MarkovPolicy(np.argmin(r_all, axis=0))
    else:
        policy = initial_policy
        if policy.is_relaxed:
            raise HjbError("policy iteration requires a precise initial policy")

    pair = None

    def step(policy):
        nonlocal pair
        Q, r = kernel.assemble_policy(policy), policy.pick(r_all)
        start, prev = (None, np.inf) if pair is None else (pair.vector, pair.cw_upper)
        pair = principal_eigenpair(
            Q, r, tol=max(0.1 * tol, bracket_floor(Q, r)), max_iter=1000, origin_node=grid.origin_node, grid=grid, start=start
        )
        V = pair.vector
        rows = kernel.control_rows(V) + r_all * V
        residual = float(np.max(np.abs(np.min(rows, axis=0) - pair.value * V) / V))
        improved = MarkovPolicy(np.argmin(rows, axis=0))
        return pair.cw_upper, residual, prev - pair.cw_upper < tol, improved

    policy, residual, history = _howard(step, policy, tol, max_iter, HjbError)
    return HjbSolution(
        value=pair.value,
        V=pair.vector,
        policy=policy,
        residual=residual,
        history=history,
        eigenpair=pair,
        model=model,
        grid=grid,
        scheme=scheme,
        cost_table=r_all,
    )


def check_optimality_condition(solution: HjbSolution, candidate: MarkovPolicy, tol: float = 1e-8):
    """Per-node gap between a candidate policy's row value and the rowwise minimum.

    Returns (gaps, is_minimizer): gaps are relative to V like the HJB
    residual; the candidate is declared a minimizer when max gap <= tol.
    Relaxed candidates are scored through their mixed rows, so any mixture of
    tied minimizers passes.  Rows use the cost table the solution was solved
    with, so ``cost_fn``/``cost_scale`` solves are checked against their own
    running cost.
    """
    kernel = OperatorKernel(solution.model, solution.grid, solution.scheme)
    V = solution.V
    rows = kernel.control_rows(V) + solution.cost_table * V
    gaps = (candidate.pick(rows) - np.min(rows, axis=0)) / V
    return gaps, bool(np.max(gaps) <= tol)


def value_gradient_field(solution_or_V, grid: Grid, model=None) -> np.ndarray:
    """Per-node field omega = Sigma(x)' grad(log V), central differences.

    Accepts an HjbSolution (model taken from it) or a raw positive per-node
    vector plus an explicit model.  One-sided differences at the boundary.
    """
    if isinstance(solution_or_V, HjbSolution):
        V = solution_or_V.V
        model = solution_or_V.model
    else:
        V = np.asarray(solution_or_V, dtype=float)
        if model is None:
            raise ValueError("model required when passing a raw vector")
    return sigma_t_times(model.sigma(grid.coords()), grid.gradient(np.log(V)))
