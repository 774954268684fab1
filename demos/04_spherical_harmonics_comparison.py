"""Compare the folded Fourier sum with a spherical harmonics expansion.

Both expansions are computed for the three-cap test function and truncated at
matched degrees; the sup errors track each other within a small factor, while
the torus route needs only FFTs (the harmonics route pays for an associated
Legendre recurrence at every order, in analysis and again in synthesis).
"""

import time

from dfsphere import sample_sphere, sh_analyze, spherical_function, standard_combination
from dfsphere.analysis import error_table

f = spherical_function(standard_combination())
degrees = [16, 32, 64]

start = time.perf_counter()
sh_co = sh_analyze(sample_sphere(f, 512, 256), 64)
sh_setup = time.perf_counter() - start

rows = error_table(f, degrees, eval_size=(256, 128), oversample=4, sh_coefficients=sh_co)

print(f"{'h':>5} {'fourier error':>14} {'harmonics error':>16} {'ratio':>7}")
for r in rows:
    print(f"{r.degree:>5} {r.max_error:>14.3e} {r.sh_max_error:>16.3e} "
          f"{r.max_error / r.sh_max_error:>7.2f}")
print(f"\nharmonics analysis to degree 64 took {sh_setup:.2f}s; the error table,")
print(f"harmonics column included, took {rows[-1].elapsed:.2f}s; harmonics synthesis")
print("builds one Legendre table per order over the 129 reference colatitudes.")
