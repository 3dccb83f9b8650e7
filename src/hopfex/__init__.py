"""Exact structure-constant engine for finite-dimensional coalgebras,
bialgebras and Hopf algebras: coradical filtrations, orthonormal
coradical idempotents, multiplicative/primitive matrices, integrals,
Hopf powers and exponents, and coalgebra extensions."""

from .coalgebra import (
    Coalgebra,
    Element,
    IdempotentFamily,
    SimpleComponent,
    coalgebra_amalgam,
)
from .errors import HopfexError
from .extension import (
    DeltaExpansion,
    ExtendedCoalgebra,
    delta_expansion,
    extend_coalgebra,
    graded_positive_part,
)
from .hopf import ExponentReport, HopfAlgebra, default_cap
from .linalg import Mat, SubspaceBasis
from .matforms import (
    BasicMultMatrix,
    BlockOrderReport,
    MatrixOverH,
    PrimitiveDecomposition,
    TensorMatrix,
    antipode_inverse_check,
    basic_multiplicative_matrix,
    block_order_bound_check,
    is_multiplicative,
    is_primitive_matrix,
    matrix_hopf_power,
    mtensor,
    primitive_decompose,
    stack_triangular,
)
from .scalars import GF, QQ, FieldSpec, Scalar

__version__ = "0.1.0"

__all__ = [
    "BasicMultMatrix",
    "BlockOrderReport",
    "Coalgebra",
    "DeltaExpansion",
    "Element",
    "ExponentReport",
    "ExtendedCoalgebra",
    "FieldSpec",
    "GF",
    "HopfAlgebra",
    "HopfexError",
    "IdempotentFamily",
    "Mat",
    "MatrixOverH",
    "PrimitiveDecomposition",
    "QQ",
    "Scalar",
    "SimpleComponent",
    "SubspaceBasis",
    "TensorMatrix",
    "antipode_inverse_check",
    "basic_multiplicative_matrix",
    "block_order_bound_check",
    "coalgebra_amalgam",
    "default_cap",
    "delta_expansion",
    "extend_coalgebra",
    "graded_positive_part",
    "is_multiplicative",
    "is_primitive_matrix",
    "matrix_hopf_power",
    "mtensor",
    "primitive_decompose",
    "stack_triangular",
    "__version__",
]
