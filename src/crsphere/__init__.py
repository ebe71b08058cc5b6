"""Exact pseudohermitian calculus on odd-dimensional spheres.

Gaussian-rational polynomial arithmetic modulo the sphere relation, the
spectral sub-Laplacian, a global tight frame, first and second variations
of the total Webster curvature, Fourier-mode analysis of deformation
tensors with the embeddability classifier, and an independent
structure-equation verifier on S^3.

``import crsphere`` loads no submodule.  Each public name in ``__all__``,
the submodules ``ring``, ``spectral``, ``frames``, ``variation`` and
``oracle3`` among them, is resolved on first use (PEP 562), so a program
that needs only ``SpherePoly`` compiles and keeps only ``crsphere.ring``
and the two modules it imports, ``crsphere.scalar`` (``ExactScalar``) and
``crsphere.grammar`` (the term-grammar tokenizer).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ring": ("ExactScalar", "SpherePoly", "TSeries2", "VolumeFactor",
             "parse_poly", "parse_scalar", "volume_factor", "norm2"),
    "spectral": ("HarmonicDecomposition", "harmonic_decompose", "eigenvalue",
                 "sublaplacian", "sublaplacian_energy", "dirichlet_energy"),
    "frames": ("FrameVector", "FrameForm", "TensorField", "index_pairs",
               "reeb", "z_field", "zbar_field", "contact_form", "theta_form",
               "thetabar_form", "field_apply", "form_eval", "levi_pairing",
               "sharp_pairing", "bracket", "covariant_T", "covariant_Z",
               "tight_expand"),
    "variation": ("DeformationTensor", "HessianReport", "validate_symmetry",
                  "fourier_modes", "is_embeddable", "j_hessian",
                  "j_hessian_via_T", "conformal_first_variation",
                  "conformal_hessian", "yamabe_energy_series",
                  "round_webster_curvature", "conformal_exponent"),
    "oracle3": ("DeformedCoframe", "PseudohermitianSeries", "deform_frame",
                "solve_structure", "webster_series", "check_first_variation",
                "check_torsion_variation", "check_connection_variation",
                "second_derivative_check", "FRAME_WEBSTER_CONSTANT",
                "SECOND_VARIATION_COEFF"),
}

# public name -> the submodule that defines it
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = [*_EXPORTS, *_OWNER]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
