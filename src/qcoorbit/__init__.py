"""Exact symbolic engine for quantum matrix algebras: adjoint coactions,
co-orbit maps at classical points, truncated kernels and images, and
characters, over the field of rational functions in q (or with q specialized
to a rational number before any computation)."""

from .chars import (Character, chi_irreducible, character_of, compare_at_q1,
                    coordinate_truncation_character,
                    coordinate_truncation_dimension, decompose_sl2,
                    difference_identity)
from .coorbit import (CoorbitMap, Point, TruncatedSubspace, diag_coinv_keys,
                      evaluate, sphere_span, validate_point)
from .hopf import GlqElement, HopfContext, TensorElement
from .mq import MatrixAlgebra, Monomial, MqElement
from .scalars import PoleError, Scalar

__version__ = "0.1.0"

__all__ = [
    "Character", "chi_irreducible", "character_of", "compare_at_q1",
    "coordinate_truncation_character", "coordinate_truncation_dimension",
    "decompose_sl2", "difference_identity",
    "CoorbitMap", "Point", "TruncatedSubspace",
    "diag_coinv_keys", "evaluate", "sphere_span", "validate_point",
    "GlqElement", "HopfContext", "TensorElement",
    "MatrixAlgebra", "Monomial", "MqElement",
    "PoleError", "Scalar",
    "__version__",
]
