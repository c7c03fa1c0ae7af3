"""Ornstein-Uhlenbeck smoothing, the Poisson equation, and discrete Stein
representations.

P_t f(x) = E f(e^{-t} x + sqrt(1-e^{-2t}) G) interpolates f toward its
Gaussian mean; the potential operator inverts the generator L = Lap - <x,grad>;
and E L f(xi) admits exact integral representations for non-Gaussian xi.
"""
import numpy as np

from supcompare import distributions as dists
from supcompare import index_sets as isets
from supcompare import ou_stein as ou

poly = ou.Polynomial(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 0): 0.3})
x = np.array([0.8, -0.4])

print("=== semigroup interpolation (closed form for polynomials) ===")
for t in (0.0, 0.25, 1.0, 4.0, 16.0):
    val = poly.ou_smoothed(t)(x)
    print(f"P_t f(x) at t={t:5.2f}: {val:+.8f}")
print(f"E f(G) (t -> inf limit):  {poly.gaussian_mean():+.8f}")

lhs, rhs, tol, ok = ou.semigroup_check(poly, 0.3, 0.7, x)
print(f"P_s P_t == P_(s+t): |{lhs:.8f} - {rhs:.8f}| <= {tol:.1e}  ok={ok}")

print()
print("=== Poisson equation: f - E f(G) = -L PP f ===")
rep = ou.poisson_identity_check(poly, x)
print(f"lhs  f(x) - E f(G)      = {rep.lhs:+.10f}")
print(f"rhs  -L PP f(x)         = {rep.rhs_generator_of_potential:+.10f}")
print(f"rhs  -PP L f(x)         = {rep.rhs_potential_of_generator:+.10f}")
print(f"exact={rep.exact}  ok={rep.ok}")

# the same identity holds for the smoothed maximum, via quadrature + MC
T = isets.build_explicit(np.random.default_rng(3).standard_normal((6, 2)))
soft = ou.SoftmaxFunction(T, 1.2)
rep = ou.poisson_identity_check(soft, x, samples=4096,
                                stream=dists.RandomStream(3).substream("demo"))
print(f"smoothed max: |lhs - rhs| = "
      f"{abs(rep.lhs - rep.rhs_generator_of_potential):.2e} "
      f"(tolerance {rep.tolerance:.2e}, MC)  ok={rep.ok}")

print()
print("=== discrete Stein representations of E L f(xi) ===")
rad = dists.rademacher()
quartic = ou.Polynomial.coordinate_power(1, 0, 4)
for variant in ("third", "fourth"):
    r = ou.stein_representation_check(quartic, rad, variant)
    print(f"f=x^4, {variant:6s} form: lhs={r.lhs:.10f} rhs={r.rhs:.10f} "
          f"(exact enumeration, diff {r.diff:.1e})")

# the fourth-order form assumes E xi^3 = 0 and refuses a skewed law by
# naming the violated moment
skewed = dists.two_point(2.0)
try:
    ou.stein_representation_check(quartic, skewed, "fourth")
except ou.HypothesisViolation as e:
    print(f"skewed law refused: {e}")
r = ou.stein_representation_check(quartic, skewed, "third",
                                  stream=dists.RandomStream(5).substream("mc"),
                                  replicates=4000)
print(f"third form still applies: lhs={r.lhs:+.4f} rhs={r.rhs:+.4f} "
      f"within {r.tolerance:.2e}  ok={r.ok}")
