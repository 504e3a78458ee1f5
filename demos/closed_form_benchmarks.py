"""Eigenvalue and HJB solvers against closed-form scalar benchmarks.

Walks through the two analytic anchors of the package:

  1. the uncontrolled stable linear model with quadratic cost, whose
     risk-sensitive growth rate is (-a - sqrt(a^2 - sigma^2 q)) / 2 with a
     Gaussian-shaped eigenfunction, and
  2. the controlled linear-quadratic problem, whose optimal rate is half the
     stabilizing root of the scalar Riccati-type equation P^2/4 - P + 1/2 = 0
     with linear optimal feedback u(x) = -(P/c) x.

Also cross-checks policy iteration against exhaustive enumeration on a grid
small enough to enumerate every precise policy.
"""

import itertools

import numpy as np

from ersc.discretize import OperatorKernel, build_grid
from ersc.eigensolve import policy_value
from ersc.hjb import MarkovPolicy, solve_hjb
from ersc.model import builtin_ou_lq


def uncontrolled_benchmark():
    print("== uncontrolled stable model, cost 0.375 x^2 ==")
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
    exact = 0.25
    for count in (121, 241, 481):
        grid = build_grid([6.0], [count])
        pair = policy_value(model, grid, MarkovPolicy.constant(0, grid.n_nodes))
        print(
            f"  {count:4d} nodes: lambda = {pair.value:.8f}  "
            f"error = {abs(pair.value - exact):.2e}  "
            f"CW bracket width = {pair.bracket_width:.1e}"
        )
    print(f"  closed form: {exact}")


def lq_benchmark():
    print("\n== risk-sensitive LQ: q=1, c=2, u in [-5, 5] ==")
    P = 2.0 - np.sqrt(2.0)
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=2.0, u_max=5.0, n_controls=201)
    grid = build_grid([6.0], [241])
    sol = solve_hjb(model, grid, tol=1e-9)
    print(f"  policy iteration: Lambda = {sol.value:.6f} (Riccati: {P / 2:.6f})")
    print(f"  iterations: {len(sol.history)}, residual: {sol.residual:.1e}")
    print(f"  value history: {[round(v, 6) for v in sol.history]}")
    x = grid.coords().ravel()
    u = sol.policy.control_values(model.controls.points).ravel()
    inner = np.abs(x) <= 3.0
    dev = np.max(np.abs(u[inner] + (P / 2.0) * x[inner]))
    print(f"  max |u(x) + (P/c) x| on |x| <= 3: {dev:.4f} (control step 0.05)")


def brute_force_crosscheck():
    print("\n== exhaustive policy enumeration on a 7-node grid ==")
    model = builtin_ou_lq(a=-1.0, sigma=1.0, q=1.0, c=0.5, u_max=2.0, n_controls=2)
    grid = build_grid([2.0], [7])
    kernel = OperatorKernel(model, grid)
    mats = []
    for i, u in enumerate(model.controls.points):
        Q = kernel.assemble_policy(MarkovPolicy.constant(i, grid.n_nodes)).toarray()
        mats.append(Q + np.diag(np.asarray(model.cost(kernel.coords, u), dtype=float)))
    best = np.inf
    for assign in itertools.product(range(2), repeat=grid.n_nodes):
        A = np.array([mats[a][i] for i, a in enumerate(assign)])
        best = min(best, float(np.max(np.linalg.eigvals(A).real)))
    sol = solve_hjb(model, grid, tol=1e-12)
    print(f"  enumeration over 2^7 policies: {best:.12f}")
    print(f"  policy iteration:              {sol.value:.12f}")
    print(f"  difference: {abs(sol.value - best):.2e}")


if __name__ == "__main__":
    uncontrolled_benchmark()
    lq_benchmark()
    brute_force_crosscheck()
