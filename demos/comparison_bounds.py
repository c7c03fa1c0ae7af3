"""Dimension-free comparison bounds and the phase-transition window.

The gap |c_xi(T) - g(T)| is controlled by curves built from the geometric
profile (R2, R4, Rinf, column norms) times moment constants of the law.
The R4 and sup-norm branches exchange dominance over u in [u1, u2].
"""
import numpy as np

from supcompare import bounds as bnd
from supcompare import distributions as dists
from supcompare import index_sets as isets

T = isets.make_diagonal_cube([j ** -0.25 for j in range(1, 17)], k=6)
prof = isets.geometric_profile(T)
print("=== geometric profile of a 16-dim decaying cube ===")
print(f"R2={prof.r2:.4f}  R3={prof.r3:.4f}  R4={prof.r4:.4f}  "
      f"Rinf={prof.rinf:.4f}")
print(f"column norms: l3={prof.col3:.4f}  l4={prof.col4:.4f}")

u1, u2 = prof.u1, prof.u2
print(f"window: u1 = (R4/Rinf)^4 = {u1:.4f},  u2 = (R2/Rinf)^2 = {u2:.4f}")

print()
print("=== bound curves across the window ===")
print(f"{'u':>6s} {'trivial':>9s} {'mixed':>9s} {'fourth':>9s} "
      f"{'sup':>9s} {'piecewise':>9s}  region")
for row in bnd.phase_curve_table(prof, np.linspace(1.0, 9.0, 9)):
    print(f"{row['u']:6.2f} {row['trivial']:9.4f} {row['mixed']:9.4f} "
          f"{row['fourth_moment']:9.4f} {row['sup_norm']:9.4f} "
          f"{row['piecewise']:9.4f}  {row['region']}")
# below u1 the sup-norm branch wins, above it the fourth-moment branch;
# past u2 even the trivial sqrt(u) R2 curve beats the mixed one

print()
print("=== empirical gaps vs the curves, several laws ===")
stream = dists.RandomStream(dists.DEFAULT_SEED).substream("demo-bounds")
for name in ("rademacher", "uniform", "laplace-normalized",
             "scaled-rademacher:2"):
    law = dists.from_name(name)
    rep = bnd.error_report(T, law, 20_000, stream.substream(name), paired=True)
    tightest = min((v, k) for k, v in rep.ratios.items())
    print(f"{name:22s} gap={rep.gap:.5f} (+-{rep.gap_std_error:.5f})  "
          f"tightest curve: {tightest[1]} at ratio {tightest[0]:.4f}")
print("(ratios are gap/bound; every value well under 1 = bound holds with room)")

print()
print("=== proof-optimal smoothing level ===")
u = T.log_cardinality
for name in ("rademacher", "gaussian", "uniform"):
    law = dists.from_name(name)
    print(f"{name:12s} auto beta at u=log|T|: "
          f"{bnd.auto_beta(prof, u, law):.4f}")
