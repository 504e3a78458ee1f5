"""Solvers and verification tools for ergodic risk-sensitive control.

Subpackages by concern:

    model       controlled diffusions, costs, structural checks
    discretize  grids and conservative generator matrices
    eigensolve  principal eigenpairs of cost-twisted generators
    hjb         multiplicative HJB equation by policy iteration
    game        ergodic zero-sum game with an auxiliary drift
    perturb     inf-compact perturbations; eps -> 0 and kappa -> 0 limits
    simulate    Euler-Maruyama paths and Monte Carlo estimators
    variational Gibbs-formula oracles and drift-family checks
    cli         command-line orchestration

Importing any module loads numpy only: scipy is imported inside the functions
that build, factor or traverse a sparse matrix, so the Monte Carlo path never
pays for it.  Keep new scipy imports there, not at module top.
"""

__version__ = "0.1.0"
