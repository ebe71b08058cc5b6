"""Exact pseudohermitian calculus on odd-dimensional spheres.

Gaussian-rational polynomial arithmetic modulo the sphere relation, the
spectral sub-Laplacian, a global tight frame, first and second variations
of the total Webster curvature, Fourier-mode analysis of deformation
tensors with the embeddability classifier, and an independent
structure-equation verifier on S^3.
"""

from .ring import (ExactScalar, SpherePoly, TSeries2, VolumeFactor,
                   parse_poly, parse_scalar, volume_factor, norm2)
from .spectral import (HarmonicDecomposition, harmonic_decompose,
                       eigenvalue, sublaplacian, sublaplacian_energy,
                       dirichlet_energy)
from .frames import (FrameVector, FrameForm, TensorField, index_pairs,
                     reeb, z_field, zbar_field, contact_form, theta_form,
                     thetabar_form, field_apply, form_eval, levi_pairing,
                     sharp_pairing, bracket, covariant_T,
                     covariant_Z, tight_expand)
from .variation import (DeformationTensor, HessianReport, validate_symmetry,
                        fourier_modes, is_embeddable, j_hessian,
                        j_hessian_via_T, conformal_first_variation,
                        conformal_hessian, yamabe_energy_series,
                        round_webster_curvature, conformal_exponent)
from .oracle3 import (DeformedCoframe, PseudohermitianSeries, deform_frame,
                      solve_structure, webster_series, check_first_variation,
                      check_torsion_variation, check_connection_variation,
                      second_derivative_check, FRAME_WEBSTER_CONSTANT,
                      SECOND_VARIATION_COEFF)

__version__ = "0.1.0"
