"""Coefficient decay across l1 shells and the lattice zeta identity.

Summing |n|_1^(-s) over the nonzero lattice reduces to 4 zeta(s - 1), because
the l1 sphere of radius r carries exactly 4r points; the same shells organize
the decay check |c_n| <= C |n|^-(k + alpha) for the three-cap function.
"""

import numpy as np

from dfsphere.analysis import coefficient_table_for, decay_report, zeta_tail_sum
from dfsphere.testfns import spherical_function, standard_combination

print("partial sums of 4 * sum r^(1-3) over l1 shells (limit 4 zeta(2) = 2 pi^2 / 3):")
for h in (10, 100, 1000, 10_000):
    res = zeta_tail_sum(2, 1.0, h)
    print(f"  h = {h:>6}: {res.partial_sum:.8f}   gap {res.gap:.2e}")
print(f"  analytic limit: {res.limit:.8f}")

f = spherical_function(standard_combination())
table = coefficient_table_for(f, 1024)
rep = decay_report(table, k=3, alpha=0.9, r_min=8, r_max=128)

print(f"\nshell maxima of |c_n| for the three-cap function, radii 8..128:")
for r in (8, 16, 32, 64, 128):
    i = int(np.flatnonzero(rep.radii == r)[0])
    print(f"  r = {r:>3}: max |c_n| = {rep.shell_max[i]:.3e}   rescaled r^3.9: {rep.rescaled[i]:.3e}")
print(f"fitted decay slope: {rep.slope:.2f} (smoothness predicts <= -3.9)")
print(f"rescaled-sequence trend: {100 * rep.mann_kendall_frac:.0f}% of all shell pairs non-increasing")
print(f"same-parity sign test: {100 * rep.frac_nonincreasing:.0f}% of shells r + 2 at or below shell r")
print("(even shells carry the z-even part of f and odd shells the z-odd part, so each")
print(" shell is compared with the previous shell of its own parity)")
