"""Compute the full bound table: mu <= 4 and the five cap-configuration
maxima h_0 ... h_4, each with a rigorous enclosure strictly below 13, next
to the printed reference values, then the non-rigorous refined estimates of
h_3 and h_4 by direct maximization over the extremal triangle and rhombus
configurations.  `kiss3 table` prints the same table with the theorem check.

Run:  python3 demos/bound_table_tour.py
"""

from kiss3.harness import RunConfig, emit_table, run

report = run(RunConfig(suites=("certificate", "bounds", "refine")))
print(emit_table(report))
