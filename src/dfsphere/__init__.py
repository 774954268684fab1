"""Double Fourier sphere method.

Transform spherical functions to biperiodic torus functions, expand them with
the FFT, and fold the series back into an orthogonal expansion on the sphere;
plus the numerical checks that back the construction (coefficient symmetry,
convergence rates, decay bounds, the Hoelder transfer, and the Sobolev
counterexample).
"""

from .geometry import dfs_coord, dfs_coord_inverse, glide_reflect, jacobian, wrap_angle
from .grids import (
    LatLonGrid,
    TorusGrid,
    dfs_double,
    grid_io_read,
    grid_io_write,
    sample_sphere,
)
from .spectral import (
    CoefficientTable,
    FoldedCoefficientTable,
    SpectralSet,
    basis_b,
    basis_e,
    basis_gram,
    coeff_io_read,
    coeff_io_write,
    compute_coefficients,
    dfs_fourier_sum,
    fold_coefficients,
    gram_matrix,
    orthogonal_indices,
    partial_sum_grid,
    partial_sum_torus,
    unfold_coefficients,
)
from .sh_reference import SHCoefficients, sh_analyze
from .testfns import TestFunctionSpec, preset, spherical_function, standard_combination
from . import analysis

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "basis_b",
    "basis_e",
    "basis_gram",
    "CoefficientTable",
    "coeff_io_read",
    "coeff_io_write",
    "compute_coefficients",
    "dfs_coord",
    "dfs_coord_inverse",
    "dfs_double",
    "dfs_fourier_sum",
    "fold_coefficients",
    "FoldedCoefficientTable",
    "glide_reflect",
    "gram_matrix",
    "grid_io_read",
    "grid_io_write",
    "jacobian",
    "LatLonGrid",
    "orthogonal_indices",
    "partial_sum_grid",
    "partial_sum_torus",
    "preset",
    "sample_sphere",
    "sh_analyze",
    "SHCoefficients",
    "SpectralSet",
    "spherical_function",
    "standard_combination",
    "TestFunctionSpec",
    "TorusGrid",
    "unfold_coefficients",
    "wrap_angle",
    "__version__",
]
