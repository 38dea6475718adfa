"""Exact K-theory of quantum automorphism groups of finite dimensional
C*-algebras: integer normal forms, fusion combinatorics, resolution
exactness certificates, delta-form tests, twisted group algebras, and
magic-unitary rank counts."""

__version__ = "0.1.0"

from .dims import DimVector
from .exact_linalg import (
    FgAbelianGroup,
    HermiteDecomposition,
    IntMatrix,
    SmithDecomposition,
    hermite_normal_form,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
)
from .findim import AlgState, DeltaFormResult, FinDimAlgebra, is_delta_form
from .ktheory import KTheoryResult, boundary_matrix, closed_form, k_theory, verify_theorem
from .magic import generator_rank
from .repring import (
    IrrepSum,
    RepRingElement,
    Spin,
    fusion_tensor,
    irreps_to_polynomial,
    module_action,
    polynomial_to_irreps,
)
from .resolution import (
    EvaluationMap,
    ExactnessReport,
    build_complex,
    check_exactness,
    derive_t_action,
)
from .torsion import (
    Cocycle,
    FiniteGroup,
    GradedAlgebra,
    block_decomposition,
    extract_torsion_data,
    is_ergodic,
    regular_class_count,
    twisted_group_algebra,
)

__all__ = [
    "__version__",
    "DimVector",
    "IntMatrix",
    "SmithDecomposition",
    "HermiteDecomposition",
    "FgAbelianGroup",
    "smith_normal_form",
    "hermite_normal_form",
    "invariant_factors",
    "kernel_basis",
    "Spin",
    "IrrepSum",
    "RepRingElement",
    "fusion_tensor",
    "irreps_to_polynomial",
    "polynomial_to_irreps",
    "module_action",
    "EvaluationMap",
    "ExactnessReport",
    "build_complex",
    "derive_t_action",
    "check_exactness",
    "KTheoryResult",
    "boundary_matrix",
    "k_theory",
    "closed_form",
    "verify_theorem",
    "FinDimAlgebra",
    "AlgState",
    "DeltaFormResult",
    "is_delta_form",
    "FiniteGroup",
    "Cocycle",
    "GradedAlgebra",
    "is_ergodic",
    "twisted_group_algebra",
    "extract_torsion_data",
    "block_decomposition",
    "regular_class_count",
    "generator_rank",
]
