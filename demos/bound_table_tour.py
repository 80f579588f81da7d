"""Compute the full bound table: mu <= 4 and the five cap-configuration
maxima h_0 ... h_4, each with a rigorous enclosure strictly below 13, next
to the printed reference values, then the non-rigorous refined estimates of
h_3 and h_4: the closed-form scores of the extremal triangle (farthest vertex
on the cap circle, pole on the circumcenter direction) and of the unit rhombus
with three vertices on the cap circle.  `kiss3 table` prints the same table with the theorem check.

Run:  python3 demos/bound_table_tour.py
"""

from kiss3.harness import RunConfig, emit_table, run

report = run(RunConfig(suites=("certificate", "bounds", "refine")))
print(emit_table(report))
