"""Expected-supremum estimation against exact oracles.

c_xi(T) = E sup_t <xi,t> for iid coordinates xi.  Small sign structures
enumerate exactly; everything else runs blocked Monte-Carlo with a
deterministic substream per block.
"""
import math

import numpy as np

from supcompare import bounds as bnd
from supcompare import distributions as dists
from supcompare import estimator as est
from supcompare import index_sets as isets

stream = dists.RandomStream(dists.DEFAULT_SEED)

print("=== canonical basis: r(T) = 1 - 2^(1-n) exactly ===")
for n in (2, 4, 6, 8):
    T = isets.make_basis_family(n)
    exact = est.exact_rademacher_complexity(T)
    mc = est.estimate_complexity(T, dists.rademacher(), 50_000,
                                 stream.substream("basis", n))
    closed = 1.0 - 2.0 ** (1 - n)
    print(f"n={n}: closed={closed:.6f} enumerated={exact.mean:.6f} "
          f"mc={mc.mean:.6f} (+-{mc.std_error:.6f})")

print()
print("=== signed singleton: g({+-e_1}) = E|G| = sqrt(2/pi) ===")
T = isets.make_basis_family(1, "signed")
mc = est.estimate_complexity(T, dists.gaussian(), 200_000,
                             stream.substream("abs-gauss"))
print(f"sqrt(2/pi) = {math.sqrt(2 / math.pi):.6f}   "
      f"mc = {mc.mean:.6f} (+-{mc.std_error:.6f})")

print()
print("=== the smoothed maximum brackets the expectation ===")
T = isets.build_explicit(np.random.default_rng(1).standard_normal((20, 5)))
sup_est = est.estimate_complexity(T, dists.gaussian(), 50_000,
                                  stream.substream("sup"))
for beta in (1.0, 4.0, 16.0):
    soft, offset, _ = est.softmax_complexity(
        T, dists.gaussian(), beta, 50_000, stream.substream("soft", int(beta)))
    print(f"beta={beta:5.1f}: E F_beta = {soft.mean:.5f} in "
          f"[{sup_est.mean:.5f}, {sup_est.mean + offset:.5f}]")

print()
print("=== common random numbers sharpen gap estimates ===")
T = isets.make_diagonal_cube([j ** -0.3 for j in range(1, 9)])
law = dists.uniform_symmetric()
unpaired = bnd.error_report(T, law, 20_000, stream.substream("un"))
paired = bnd.error_report(T, law, 20_000, stream.substream("pa"), paired=True)
print(f"unpaired gap = {unpaired.gap:.5f} +- {unpaired.gap_std_error:.5f}")
print(f"paired   gap = {paired.gap:.5f} +- {paired.gap_std_error:.5f}")

print()
print("=== minoration diagnostics ===")
for name, T in [("basis n=8", isets.make_basis_family(8)),
                ("signed n=8", isets.make_basis_family(8, "signed")),
                ("cube n=6", isets.make_diagonal_cube(
                    [j ** -0.5 for j in range(1, 7)]))]:
    rep = bnd.sudakov_check(T)
    print(f"{name:12s}: separation={rep.separation:.4f} "
          f"hypothesis={rep.hypothesis_ratio:8.3f} "
          f"conclusion={rep.conclusion_ratio:.3f} (exact={rep.exact})")
