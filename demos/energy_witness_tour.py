"""The two sides of the counting argument on the icosahedron witness:
S(X) >= n^2 from positivity, S(X) < 13 n from the cap bounds, so n <= 12.

Run:  python3 demos/energy_witness_tour.py
"""

import math

from kiss3.certificate import build_certificate
from kiss3.energy import energy
from kiss3.legendre import gegenbauer_sums
from kiss3.sphere import CosineBatch, icosahedron, min_separation

cert = build_certificate()
ico = icosahedron()

sep = min_separation(ico)
print(f"icosahedron: {len(ico)} points, min separation {math.degrees(sep):.4f} deg")

summary = energy(ico, cert)
print(f"S(X) = {summary.S:.9f}")
print(f"lower bound n^2   = {summary.n ** 2}")
print(f"upper bound 13 n  = {13 * summary.n}")
print("the witness sits exactly on the lower bound: S = 144 = 12^2")

print()
print("per-point decomposition (S_i <= T_i < 13 for every point):")
for i, rec in enumerate(summary.per_point):
    print(f"  point {i:2d}: S_i = {rec.S_i:.6f}  T_i = {rec.T_i:.6f}  |J(i)| = {len(rec.J_i)}")

print()
print("Gegenbauer sums for k = 0 ... 9 (each >= 0 by positive definiteness):")
batch = CosineBatch.of(ico)
for k, total in enumerate(gegenbauer_sums(batch.cos, batch.starts, 10)[:, 0].tolist()):
    print(f"  k = {k}: {total:.6e}")
