"""Multiplicative HJB equation min_u [L^u V + r V] = Lambda V by policy iteration.

Each outer step evaluates the current policy through its principal eigenpair
and improves it by the rowwise minimizer of (Q^u V + r^u V).  Improvement can
never raise the Perron value: the improved matrix satisfies A' V <= Lambda V
pointwise, so its Collatz-Wielandt upper bound is at most Lambda.  The
iteration therefore produces a non-increasing value history and terminates at
a fixed point of the discrete HJB operator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretize import Grid, OperatorKernel
from .eigensolve import Eigenpair, principal_eigenpair

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
    tag: str = ""

    def __post_init__(self):
        a = np.asarray(self.assignment)
        if a.ndim == 1:
            a = a.astype(np.int64)
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

    def weight_matrix(self, n_controls: int) -> np.ndarray:
        if self.is_relaxed:
            if self.assignment.shape[1] != n_controls:
                raise ValueError("weight matrix width does not match control count")
            return self.assignment
        W = np.zeros((self.n_nodes, n_controls))
        W[np.arange(self.n_nodes), self.assignment] = 1.0
        return W

    @staticmethod
    def constant(index: int, n_nodes: int, tag: str = "") -> "MarkovPolicy":
        return MarkovPolicy(np.full(n_nodes, index, dtype=np.int64), tag or f"const[{index}]")

    def pick(self, table: np.ndarray) -> np.ndarray:
        """Per-node entries of a (k, n, ...) per-control table under this policy.

        Precise policies gather row ``assignment[i]`` at node i; relaxed
        policies take the weighted mix of the rows.
        """
        table = np.asarray(table)
        if self.is_relaxed:
            return np.einsum("nk,kn...->n...", self.weight_matrix(table.shape[0]), table)
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
    measure meaningful where the eigenfunction is large.  ``cost_table`` is
    the (k, n) running-cost table the solve used, after ``cost_fn`` and
    ``cost_scale``.
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

    @property
    def log_V(self) -> np.ndarray:
        return np.log(self.V)


def solve_hjb(
    model,
    grid: Grid,
    tol: float = 1e-8,
    max_iter: int = 60,
    initial_policy: Optional[MarkovPolicy] = None,
    cost_fn=None,
    cost_scale: float = 1.0,
    eig_tol: Optional[float] = None,
    scheme: str = "hybrid",
) -> HjbSolution:
    """Solve the multiplicative HJB equation by Howard policy iteration.

    Args:
        model, grid: problem instance; every control must induce an
            irreducible generator on the grid.
        tol: stopping threshold for both the eigenvalue decrease per step and
            the relative HJB residual.
        initial_policy: starting precise policy (defaults to the myopic
            argmin of the running cost, ties to the lowest control index).
        cost_fn, cost_scale: running-cost override / scaling.
        eig_tol: bracket tolerance for the inner eigensolves (default tol/10).

    Raises:
        HjbError: if the iteration budget is exhausted.  A repeated policy
        with unchanged value is accepted with a warning (argmin tie cycling).
    """
    kernel = OperatorKernel(model, grid, scheme)
    r_all = cost_scale * model.cost_table(kernel.coords, cost_fn)
    b_all = model.drift_table(kernel.coords)
    inner_tol = eig_tol if eig_tol is not None else max(tol * 0.1, 1e-13)

    if initial_policy is None:
        policy = MarkovPolicy(np.argmin(r_all, axis=0), tag="myopic")
    else:
        policy = initial_policy
        if policy.is_relaxed:
            raise HjbError("policy iteration requires a precise initial policy")

    history = []
    seen = {}
    prev_value = np.inf
    pair = None

    for it in range(1, max_iter + 1):
        pair = principal_eigenpair(
            kernel.assemble(policy.pick(b_all)),
            policy.pick(r_all),
            tol=inner_tol,
            max_iter=1000,
            check_irreducible=(it == 1),
            origin_node=grid.origin_node,
            grid=grid,
        )
        lam, V = pair.value, pair.vector
        history.append(lam)

        rows = kernel.apply(b_all, V) + r_all * V
        best = np.min(rows, axis=0)
        residual = float(np.max(np.abs(best - lam * V) / V))
        improved = MarkovPolicy(np.argmin(rows, axis=0), tag=f"howard[{it}]")

        converged = (prev_value - lam) < tol and residual < tol
        key = improved.assignment.tobytes()
        if not converged and key in seen and abs(seen[key] - lam) <= tol:
            warnings.warn(
                "policy iteration revisited a policy with unchanged value; "
                "accepting the current fixed point (argmin ties)"
            )
            converged = True
        if converged:
            return HjbSolution(
                value=lam,
                V=V,
                policy=policy,
                residual=residual,
                history=history,
                eigenpair=pair,
                model=model,
                grid=grid,
                scheme=scheme,
                cost_table=r_all,
            )
        seen[policy.assignment.tobytes()] = lam
        policy = improved
        prev_value = lam

    raise HjbError(f"policy iteration did not converge in {max_iter} steps")


def check_optimality_condition(solution: HjbSolution, candidate: MarkovPolicy, tol: float = 1e-8):
    """Per-node gap between a candidate policy's row value and the rowwise minimum.

    Returns (gaps, is_minimizer): gaps are relative to V like the HJB
    residual; the candidate is declared a minimizer when max gap <= tol.
    Relaxed candidates are scored through their mixed rows, so any mixture of
    tied minimizers passes.  Rows use the cost table the solution was solved
    with, so ``cost_fn``/``cost_scale`` solves are checked against their own
    running cost.
    """
    model = solution.model
    kernel = OperatorKernel(model, solution.grid, solution.scheme)
    V = solution.V
    rows = kernel.apply(model.drift_table(kernel.coords), V) + solution.cost_table * V
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
    logV = np.log(V).reshape(grid.shape)
    grads = np.gradient(logV, *[ax for ax in grid.axes], edge_order=2)
    if grid.dim == 1:
        grads = [grads]
    g = np.stack([gr.ravel() for gr in grads], axis=-1)
    coords = grid.coords()
    s = np.asarray(model.sigma(coords), dtype=float)
    if s.ndim == 2:
        return g @ s  # constant Sigma: omega = Sigma' g, row convention
    return np.einsum("nij,ni->nj", s, g)
