"""Gibbs measures on a finite index set.

mu(t) ~ exp(beta <x,t>): high beta concentrates mass on the maximizer,
tilting a measure shifts its log-Laplace transform, and a nearby location
change moves fourth moments by at most a computable log-Lipschitz factor.
The demo exits nonzero if a bound check fails.
"""
import sys

import numpy as np

from supcompare import index_sets as isets
from supcompare import softmax as sm

rng = np.random.default_rng(11)
T = isets.build_explicit(rng.standard_normal((8, 3)))
x = rng.standard_normal(3)
z = T.points @ x
best = int(np.argmax(z))

print("=== concentration as beta grows ===")
print(f"maximizer is row {best} with <x,t> = {z[best]:.4f}")
for beta in (0.5, 2.0, 8.0, 32.0):
    w = sm.gibbs_weights(T, beta, x)
    print(f"beta={beta:5.1f}  weight on maximizer: {w[best]:.6f}  "
          f"entropy: {-(w[w > 0] @ np.log(w[w > 0])):.4f}")

w_top = sm.collapse_weight(T, x)
print(f"at beta = 50/margin the maximizer already holds weight {w_top:.6f}")

print()
print("=== moments of coordinate functionals ===")
mu = sm.gibbs_measure(T, 2.0, x)
for k in (1, 2, 3, 4):
    print(f"E_mu[l_0^{k}] = {sm.gibbs_moment(mu, 0, k):+.6f}   "
          f"E_mu|l_0|^{k} = {sm.gibbs_moment(mu, 0, k, absolute=True):.6f}")

print()
print("=== tilting shifts the log-Laplace transform ===")
mu0 = sm.uniform_measure(T)
y = np.array([0.4, -0.1, 0.3])
h = np.array([-0.2, 0.5, 0.1])
lhs = sm.log_laplace(mu0, y + h)
rhs = sm.log_laplace(sm.tilted_measure(mu0, y), h) + sm.log_laplace(mu0, y)
print(f"Lambda(y+h) = {lhs:.10f}")
print(f"Lambda_tilted(h) + Lambda(y) = {rhs:.10f}  (match {abs(lhs-rhs):.1e})")

# tilting the uniform measure by beta*x recovers the Gibbs measure
w_tilt = sm.tilted_measure(mu0, 2.0 * x).weights
print(f"tilt(uniform, beta x) == gibbs(beta): "
      f"{np.abs(w_tilt - mu.weights).max():.2e}")

print()
print("=== fourth moments move slowly in the location ===")
failed = []
for step in (0.05, 0.2, 0.8):
    yy = x.copy()
    yy[1] += step
    rep = sm.lipschitz_log_moment_check(T, 2.0, x, yy, 1)
    print(f"|x_1 - y_1| = {step:4.2f}: log-moment shift {rep.gap:+.4f}, "
          f"coordinate bound {rep.coordinate_bound:.4f}, ok={rep.ok}")
    if not rep.ok:
        failed.append(f"step {step}")
if failed:
    sys.exit(f"lipschitz log-moment bound failed at: {', '.join(failed)}")
