"""Finite-space and restricted-family checks of the variational formula.

On a finite probability space the exponential-integral identity is the Gibbs
variational principle

    log E[e^f] = sup_Q { E_Q[f] - KL(Q || P) },

attained exactly at the tilted measure q_i ~ p_i e^{f_i}; both sides are
computable to machine precision, which makes this an oracle for the
continuum machinery.  In the diffusion setting the supremum over all adapted
drifts is out of reach, so we certify the two finitely checkable directions:
the estimated log-moment rate dominates the inner value of every candidate
drift, and a well-chosen restricted family comes within tolerance of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .discretize import Grid
from .eigensolve import policy_value
from .simulate import SimulationConfig, _logsumexp, importance_sampled_cost, simulate

__all__ = [
    "FiniteNoiseSpace",
    "gibbs_identity_check",
    "kl_divergence",
    "tilted_optimizer",
    "drift_class_gap",
    "DriftGapReport",
]


@dataclass(frozen=True)
class FiniteNoiseSpace:
    """Finite sample space with strictly positive probabilities summing to one."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).ravel()
        if p.size == 0 or np.any(p <= 0):
            raise ValueError("probabilities must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-15 * p.size:
            raise ValueError("probabilities must sum to 1 (to 1e-15 per atom)")
        object.__setattr__(self, "probs", p)


def kl_divergence(q: np.ndarray, p: np.ndarray) -> float:
    """KL(Q || P) for finite distributions; infinite off the support of P."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any((q > 0) & (p == 0)):
        return float("inf")
    mask = q > 0
    return float(np.sum(q[mask] * (np.log(q[mask]) - np.log(p[mask]))))


def tilted_optimizer(space: FiniteNoiseSpace, f: np.ndarray) -> np.ndarray:
    """The exact Gibbs maximizer q_i ~ p_i e^{f_i}."""
    logq = np.log(space.probs) + np.asarray(f, dtype=float)
    return np.exp(logq - _logsumexp(logq))


def gibbs_identity_check(space: FiniteNoiseSpace, f) -> tuple:
    """Evaluate both sides of log E[e^f] = sup_Q {E_Q f - KL(Q||P)}.

    The right side is evaluated at the exact optimizer; returns
    (lhs, rhs, |lhs - rhs|), with the gap at rounding level for finite f.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != space.probs.shape:
        raise ValueError("f must assign one value per atom")
    if not np.all(np.isfinite(f)):
        raise ValueError("f must be finite")
    lhs = float(_logsumexp(np.log(space.probs) + f))
    q = tilted_optimizer(space, f)
    rhs = float(q @ f - kl_divergence(q, space.probs))
    return lhs, rhs, abs(lhs - rhs)


@dataclass(frozen=True)
class DriftGapReport:
    """Restricted-family variational check for the diffusion functional."""

    log_mgf_estimate: float
    log_mgf_stderr: float
    best_label: object
    best_inner_value: float
    best_inner_stderr: float
    gap: float
    inner_values: list  # (label, value, stderr) per candidate


def _inner_value(model, policy, w_fn, cfg: SimulationConfig, grid):
    ens = simulate(model, policy, cfg, aux=w_fn, grid=grid)
    # long-run average of r(Z) - |w|^2/2 estimated path by path
    per_path = (ens.cost_integral - ens.aux_penalty_integral) / cfg.horizon
    value = float(per_path.mean())
    stderr = float(per_path.std(ddof=1) / np.sqrt(per_path.size)) if per_path.size > 1 else np.nan
    return value, stderr


def drift_class_gap(
    model,
    policy,
    cfg: SimulationConfig,
    drift_family: Sequence,
    grid: Grid,
) -> DriftGapReport:
    """Gap between the log-moment rate and a restricted drift-family supremum.

    ``drift_family`` is a finite list of (label, w_fn) candidates, each a
    vectorized feedback field x -> w.  The left side is estimated by the
    eigenfunction-twisted estimator (low variance) on the policy's eigenpair,
    solved to bracket width 1e-10; the right side is the
    best candidate's long-run average of r(Z) - |w|^2/2 under the augmented
    dynamics.  Since the family is restricted, gap >= -3 stderr is the
    certified direction; a small positive gap means the family is nearly
    optimal.
    """
    if policy is None:
        from .hjb import MarkovPolicy

        if model.controls.n_controls != 1:
            raise ValueError("policy required when the model has several controls")
        policy = MarkovPolicy.constant(0, grid.n_nodes)
    pair = policy_value(model, grid, policy, tol=1e-10)
    lhs, lhs_err = importance_sampled_cost(model, policy, pair, cfg, grid=grid)

    inner = []
    for label, w_fn in drift_family:
        value, stderr = _inner_value(model, policy, w_fn, cfg, grid)
        inner.append((label, value, stderr))
    best_label, best_value, best_err = max(inner, key=lambda t: t[1])
    return DriftGapReport(
        log_mgf_estimate=lhs,
        log_mgf_stderr=lhs_err,
        best_label=best_label,
        best_inner_value=best_value,
        best_inner_stderr=best_err,
        gap=lhs - best_value,
        inner_values=inner,
    )
