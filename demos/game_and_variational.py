"""The auxiliary-drift game and the variational formula behind it.

The exponential growth rate of a fixed policy equals the value of a long-run
average game in which an adversarial drift w pushes the state through
Sigma w and pays |w|^2 / 2 per unit time.  On a finite sample space the same
identity is the Gibbs variational principle, checkable to machine precision.

The script shows
  * the game value climbing to the eigenvalue as the drift bound l grows,
  * the maximizer matching the twisted-drift field Sigma' grad(log psi),
  * the exact Gibbs identity on random finite spaces, and
  * a restricted linear drift family recovering the eigenvalue from below.
"""

import numpy as np

from ersc.discretize import build_grid
from ersc.eigensolve import policy_value
from ersc.game import game_value_sweep, sup_w_fixed_policy
from ersc.hjb import MarkovPolicy, value_gradient_field
from ersc.model import builtin_ou_lq
from ersc.simulate import SimulationConfig
from ersc.variational import FiniteNoiseSpace, drift_class_gap, gibbs_identity_check

MODEL = builtin_ou_lq(a=-1.0, sigma=1.0, q=0.75, c=0.0, u_max=0.0, n_controls=1)
GRID = build_grid([6.0], [241])


def game_sweep():
    print("== game value vs drift bound l (eigenvalue 0.25) ==")
    for l, rho in game_value_sweep(MODEL, GRID, 0.0, [1.0, 2.0, 4.0, 8.0], tol=1e-10):
        print(f"  l = {l:4.1f}  L* = {2 * l + 10:4.1f}  rho = {rho:.6f}")


def maximizer_vs_twisted_drift():
    print("\n== maximizer field vs Sigma' grad(log psi) ==")
    pol = MarkovPolicy.constant(0, GRID.n_nodes)
    sol = sup_w_fixed_policy(MODEL, GRID, pol, epsilon=0.0, l=8.0, L_star=26.0)
    val, aux = sol.value, sol.w_policy
    pair = policy_value(MODEL, GRID, pol)
    omega = value_gradient_field(pair.vector, GRID, model=MODEL)
    x = GRID.coords().ravel()
    inner = np.abs(x) <= 3.0
    dev = np.max(np.abs(aux.field[inner, 0] - omega[inner, 0]))
    print(f"  fixed-policy game value: {val:.6f}")
    print(f"  max |w*(x) - omega(x)| on |x| <= 3: {dev:.2e}")
    print("  (the optimal adversary reproduces the eigenfunction twist)")


def gibbs_oracle():
    print("\n== Gibbs identity on random finite spaces ==")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 33))
        p = rng.dirichlet(np.ones(m))
        p = np.maximum(p, 1e-9)
        p /= p.sum()
        f = rng.uniform(-15, 15, size=m)
        lhs, rhs, gap = gibbs_identity_check(FiniteNoiseSpace(p), f)
        worst = max(worst, gap)
    print(f"  200 random spaces, worst |lhs - rhs| = {worst:.2e}")
    space = FiniteNoiseSpace(np.array([0.5, 0.5]))
    lhs, rhs, gap = gibbs_identity_check(space, np.array([0.0, 1.0]))
    print(f"  two-atom example: log E e^f = {lhs:.6f} = sup-form {rhs:.6f}")


def restricted_drift_family():
    print("\n== restricted linear feedback family w(x) = theta x ==")
    thetas = (0.0, 0.25, 0.5, 0.75)
    family = [
        (f"theta={t}", (lambda t_: lambda x: t_ * np.asarray(x, dtype=float))(t))
        for t in thetas
    ]
    cfg = SimulationConfig(dt=2e-3, horizon=60.0, n_paths=96, seed=1, x0=[0.0])
    rep = drift_class_gap(MODEL, None, cfg, family, GRID)
    for label, value, stderr in rep.inner_values:
        print(f"  {label:12s} inner value = {value:.4f} +- {stderr:.4f}")
    print(f"  log-moment rate (twisted estimator): {rep.log_mgf_estimate:.4f}")
    print(f"  best candidate: {rep.best_label}, gap = {rep.gap:.4f}")


if __name__ == "__main__":
    game_sweep()
    maximizer_vs_twisted_drift()
    gibbs_oracle()
    restricted_drift_family()
