"""The folded basis on the sphere and its weighted orthogonality.

Pairing each torus mode with its glide-reflected partner gives functions that
push down to the sphere; under the weight 1/sqrt(1 - xi3^2) they are mutually
orthogonal with norms 2 pi^2 (n2 = 0) and 4 pi^2 (n2 > 0).

One caveat the numbers make visible: the members with n2 = 0 and odd n1 are
glide-ANTIsymmetric, and their inner products against odd-n2 modes of the same
n1 equal -8 pi i / n2 exactly. Those members always carry coefficient zero in
the expansion of any spherical function, so the series itself is unaffected.
"""

import numpy as np

from dfsphere import (
    SpectralSet,
    basis_b,
    basis_gram,
    compute_coefficients,
    dfs_double,
    dfs_fourier_sum,
    gram_matrix,
    orthogonal_indices,
    sample_sphere,
    spherical_function,
    standard_combination,
)

b = lambda n1, n2: (lambda p: basis_b(n1, n2, p))

print("norms, diagonal Gram entries (quadrature, n_quad = 512):")
for n1, n2, expect in [(0, 0, 2 * np.pi**2), (3, 0, 2 * np.pi**2), (1, 2, 4 * np.pi**2)]:
    val = gram_matrix([b(n1, n2)])[0, 0].real
    print(f"  <b_({n1},{n2}), b_({n1},{n2})> = {val:.10f}   (expected {expect:.10f})")

print("\northogonal pairs, off-diagonal Gram entries:")
for (a1, a2), (c1, c2) in [((1, 2), (0, 3)), ((2, 1), (2, 3)), ((-4, 2), (4, 2))]:
    val = gram_matrix([b(a1, a2), b(c1, c2)])[0, 1]
    print(f"  |<b_({a1},{a2}), b_({c1},{c2})>| = {abs(val):.2e}")

print("\nthe glide-antisymmetric exception (closed form -8 pi i / n2):")
val = gram_matrix([b(1, 0), b(1, 1)])[0, 1]
print(f"  <b_(1,0), b_(1,1)> = {val:.6f}   (exact {-8j * np.pi:.6f})")

family = orthogonal_indices(4)
G = gram_matrix([b(*nm) for nm in family], n_quad=512)
off = np.abs(G - np.diag(np.diag(G))).max()
print(f"\nGram of the {len(family)} orthogonal members: max off-diagonal {off:.2e}")
G_sep = basis_gram(family)
print(f"separable basis_gram, same quadrature: max |difference| {np.abs(G_sep - G).max():.2e}")

f = spherical_function(standard_combination())
table = compute_coefficients(dfs_double(sample_sphere(f, 256, 128)))
print(f"\nBMC symmetry of the {table.values.shape} table (relative): {table.symmetry_violation():.2e}")

rng = np.random.default_rng(0)
pts = rng.normal(size=(5, 3))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
approx = dfs_fourier_sum(table, SpectralSet("rectangle", 32, half=True), pts)
print("\ndegree-32 reconstruction at 5 random points:")
for val, ref in zip(approx.real, f(pts)):
    print(f"  {val:+.8f}   (function value {ref:+.8f})")
