"""Compute the full bound table: mu <= 4 and the five cap-configuration
maxima h_0 ... h_4, each with a rigorous enclosure strictly below 13.

Run:  python3 demos/bound_table_tour.py
"""

from kiss3.bounds import compute_bound_table, refine_h34, table_to_text
from kiss3.certificate import build_certificate

cert = build_certificate()
table = compute_bound_table(cert, tol=1e-7)
print(table_to_text(table))

print()
print("non-rigorous refined estimates (direct maximization over the")
print("extremal triangle and rhombus configurations):")
h3_est, h4_est = refine_h34(cert, grid_density=256)
print(f"  h3 ~ {h3_est.mid:.6f}   (rigorous upper enclosure {table.h[3].hi:.6f})")
print(f"  h4 ~ {h4_est.mid:.6f}   (rigorous upper enclosure {table.h[4].hi:.6f})")
