"""Exception hierarchy for hopfex.

Every error raised on a mathematical or input problem derives from
HopfexError, so callers (and the CLI) can tell our failures apart from
genuine bugs.  Input problems (a structure file, a flag, an environment
variable) derive from InputError and map to CLI exit code 2; everything
else maps to exit code 1.

Internal invariants are checked with require(), which raises
InvariantViolation.  Unlike assert it stays on under python -O, and the
CLI reports it with exit code 1 like any other HopfexError.
"""


class HopfexError(Exception):
    """Base class for all hopfex errors."""


class InvariantViolation(HopfexError):
    """An exact internal check failed: the input breaks an axiom the
    computation relies on, or the code is wrong."""


def require(cond: bool, msg: str) -> None:
    """Raise InvariantViolation(msg) unless cond holds."""
    if not cond:
        raise InvariantViolation(msg)


class FieldError(HopfexError):
    """Problems with field specifications or scalar arithmetic."""


class DivisionByZero(FieldError):
    pass


class FieldMismatch(FieldError):
    """Two scalars from different fields met in one operation."""


class NoSuchRoot(FieldError):
    """The field does not contain a primitive root of unity of the order asked for."""


class ReducibleModulus(FieldError):
    """An extension modulus failed its irreducibility check."""


class LinAlgError(HopfexError):
    pass


class NoSolution(LinAlgError):
    """A linear system asked to be solved exactly has no solution."""


class ShapeMismatch(LinAlgError):
    pass


class CoalgebraError(HopfexError):
    pass


class AxiomViolation(CoalgebraError):
    """A coalgebra/bialgebra/Hopf axiom failed an exact check."""


def require_indices(what: str, keys, dim: int):
    """AxiomViolation unless every index of every key lies in range(dim)."""
    for key in keys:
        if min(key) < 0 or max(key) >= dim:
            raise AxiomViolation(f"{what} index ({','.join(map(str, key))}) "
                                 f"out of range for dimension {dim}")


class NonSplitField(CoalgebraError):
    """A simple component of the dual algebra is not a full matrix algebra
    over the base field; analysis needs a field extension supplied by the caller.
    Raised on proof only (over a char-0 extension field, the proof rests on
    the candidate roots of algebra.field_roots)."""


class SplittingSearchExhausted(CoalgebraError):
    """A bounded search found no idempotent splitting a simple block.  This
    proves nothing: the block may be a division algebra or may be split."""


class UnknownSimple(CoalgebraError):
    """A simple-subcoalgebra index is out of range."""


class IncompatibleBase(CoalgebraError):
    """Amalgam inputs do not share the stated base coalgebra."""


class HopfError(HopfexError):
    pass


class IncompatibleExtension(HopfError):
    """Scalar extension target does not contain the current field."""


class NotCosemisimple(HopfError):
    pass


class WitnessNotFound(HopfError):
    """An existence theorem promised a witness the search could not produce."""


class MatrixFormError(HopfexError):
    pass


class NotMultiplicative(MatrixFormError):
    pass


class DiagonalOrderViolated(MatrixFormError):
    """A diagonal block of a block-triangular matrix does not have the stated order."""


class NotInBicomponent(MatrixFormError):
    """Element is not in the bicomponent required by a decomposition."""


class NotDegreeOne(MatrixFormError):
    """Element is outside the first coradical filtration level."""


class ExtensionError(HopfexError):
    pass


class NotInComponent(ExtensionError):
    """Element is not in the graded bicomponent positive part asked for."""


class InputError(HopfexError):
    """Bad user input: a structure file, a flag or an environment
    variable (CLI exit code 2)."""


class StructureFileError(InputError):
    """Base class for structure-file input problems (CLI exit code 2)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ScalarParseError(StructureFileError):
    pass


class IndexOutOfRange(StructureFileError):
    pass


class DuplicateEntry(StructureFileError):
    pass
