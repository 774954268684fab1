"""Truncation error of the folded Fourier sum, degree by degree.

The three-cap test function has three continuous derivatives with a Lipschitz
third derivative, so the sup error of the degree-h truncation is guaranteed to
decay at least like h^-3; the measured slope is steeper. The sup error is also
dominated at every stage by the sum of the excluded coefficient magnitudes.
"""

from dfsphere import preset, spherical_function, standard_combination
from dfsphere.analysis import error_table, fit_rate, truncations

f = spherical_function(standard_combination())
degrees = [8, 16, 32, 64, 128]

rows = error_table(f, degrees, eval_size=(512, 256), oversample=4)
print("three-cap combination, rectangular truncation:")
print(f"{'h':>5} {'terms':>7} {'max error':>12} {'cumulative time':>16}")
for r in rows:
    print(f"{r.degree:>5} {r.n_terms:>7} {r.max_error:>12.3e} {r.elapsed:>15.2f}s")
print(f"fitted slope (h >= 16): {fit_rate(rows[1:]):.2f}  (guarantee: <= -3)")

f1 = spherical_function(preset("f1"))
rows1 = error_table(f1, degrees[1:], eval_size=(512, 256), oversample=4)
print(f"\nsingle cap with one smooth derivative: slope {fit_rate(rows1):.2f}  (guarantee: <= -1)")

print("\nsup error vs coefficient tail bound:")
for t in truncations(f, [8, 16, 32, 64], eval_size=(512, 256), grid_size=1024):
    tail = t.tail_sum
    print(
        f"  h={t.omega.degree:>3}: measured {t.max_error:.3e} <= tail {tail:.3e}"
        f"  ({'ok' if t.max_error <= tail + 1e-8 else 'VIOLATED'})"
    )
