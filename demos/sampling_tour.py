"""Random separated point sets: generate them, serialize them in the text
format, and check the energy inequalities on each draw.

Run:  python3 demos/sampling_tour.py
"""

import math

from kiss3.certificate import build_certificate
from kiss3.energy import energy, lemma2_holds, lemma3_holds
from kiss3.errors import SaturationError
from kiss3.sphere import CosineBatch, format_points, min_separation, random_separated_set

cert = build_certificate()

print("a 60-degree separated 8-point set (seed 5), in the text format:")
ps = random_separated_set(8, math.pi / 3, seed=5)
print(format_points(ps), end="")
print(f"min separation: {math.degrees(min_separation(ps)):.4f} deg")

print()
print("energy inequalities over sizes 2 ... 9 (rejection sampling jams for")
print("larger sizes; the icosahedron shows 12 is reachable):")
for n in range(2, 10):
    seed = 0
    while True:
        try:
            ps = random_separated_set(n, math.pi / 3, seed=seed, max_tries=3000)
            break
        except SaturationError:
            seed += 1
    S = energy(ps, cert).S
    sum_holds, chain_holds = lemma3_holds(CosineBatch.of(ps), cert)
    ok = lemma2_holds(S, n) and sum_holds[0] and chain_holds[0]
    print(f"  n = {n:2d}: S = {S:9.4f}  in [n^2, 13n) = [{n * n}, {13 * n})  {'ok' if ok else 'VIOLATION'}")

print()
print("13 points at 60 degrees is impossible; the sampler saturates:")
try:
    random_separated_set(13, math.pi / 3, seed=0, max_tries=2000)
except SaturationError as exc:
    print(f"  SaturationError: {exc}")
