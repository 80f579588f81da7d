"""Walk through the certificate polynomial: its exact values, its Legendre
expansion, and the root that defines the cap radius.

Run:  python3 demos/certificate_tour.py
"""

import math
from fractions import Fraction

from kiss3.certificate import build_certificate, classic_delsarte_gap

cert = build_certificate()
f = cert.f

print("certificate polynomial, lowest degree first:")
for i, c in enumerate(f.coeffs):
    if c:
        print(f"  t^{i}: {c}")

print()
print(f"f(1)  = {f.eval(1)} = {float(f.eval(1))}")
print(f"f(-1) = {f.eval(-1)} = {float(f.eval(-1))}")
print(f"f(1/2) = {f.eval(Fraction(1, 2))} (negative, as required)")

print()
print("Legendre expansion coefficients c_0 ... c_9:")
print(" ", ", ".join(str(c) for c in cert.legendre_coeffs))
print("  all nonnegative, c_0 = 1: the expansion side of the bound holds.")

print()
print(f"root enclosure t0 = [{cert.t0.lo!r}, {cert.t0.hi!r}]")
print(
    "cap radius theta0 = "
    f"[{math.degrees(cert.theta0.lo):.6f}, {math.degrees(cert.theta0.hi):.6f}] deg"
)
print()
print(
    "classic Delsarte would need f <= 0 on [-1, 1/2]; the violation at -1 is "
    f"f(-1) = {classic_delsarte_gap(cert)}, which the cap analysis absorbs."
)
