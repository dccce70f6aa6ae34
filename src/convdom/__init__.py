"""Convolution-dominated operator algebras on discrete groups.

Block kernels with summable off-diagonal envelopes form an involutive
Banach algebra acting on square-summable vector-valued functions; this
package implements that algebra together with its crossed-product
(covariance) picture and numerical experiments that witness inverse
closedness: inverse kernels computed by finite sections keep summable,
decaying envelopes.
"""

import os

# One BLAS thread unless the environment chose, set before numpy loads: report bytes can depend on the count.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .covariance import (
    CovarianceElement,
    R_inverse,
    R_map,
    W_intertwine,
    W_inverse,
    matrix_function_convolve,
    matrix_function_norm,
    operator_matrix,
    pi_regular,
    symmetry_spectrum,
    theta_embed,
)
from .generate import Profile, generate_kernel, random_covariance, random_test_vector, shift_kernel
from .groups import Cyclic, DiscreteHeisenberg, Group, HeisenbergMod, IntegerLattice, Point, parse_group
from .inversion import (
    ContourNodeError,
    DecayReport,
    InversionConfig,
    SectionInversionError,
    contour_inverse,
    finite_section_inverse,
    fit_decay,
    ideal_project,
    inverse_residual,
    neumann_inverse,
)
from .kernels import Envelope, Kernel, TestVector, operator_norms, section_operator_norm

__all__ = [
    "CovarianceElement",
    "ContourNodeError",
    "Cyclic",
    "DecayReport",
    "DiscreteHeisenberg",
    "Envelope",
    "Group",
    "HeisenbergMod",
    "IntegerLattice",
    "InversionConfig",
    "Kernel",
    "Point",
    "Profile",
    "R_inverse",
    "R_map",
    "SectionInversionError",
    "TestVector",
    "W_intertwine",
    "W_inverse",
    "contour_inverse",
    "finite_section_inverse",
    "fit_decay",
    "generate_kernel",
    "ideal_project",
    "inverse_residual",
    "matrix_function_convolve",
    "matrix_function_norm",
    "neumann_inverse",
    "operator_matrix",
    "operator_norms",
    "parse_group",
    "pi_regular",
    "random_covariance",
    "random_test_vector",
    "section_operator_norm",
    "shift_kernel",
    "symmetry_spectrum",
    "theta_embed",
]

__version__ = "0.1.0"
