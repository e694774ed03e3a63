"""Exception types shared across the package."""


class BlackboxLinalgError(Exception):
    """Base class for all package errors.  ``stats`` is the RunStats of the
    run that raised it, where ``inverse.run_attempts`` attached them."""

    stats = None


class DimensionError(BlackboxLinalgError):
    """Operand shapes are incompatible."""


class NotInvertible(BlackboxLinalgError):
    """A field element has no inverse (it is zero)."""


class Singular(BlackboxLinalgError):
    """A dense matrix is singular.

    ``column`` is the index of the first column found dependent on the
    previous ones during elimination.
    """

    def __init__(self, column):
        super().__init__(f"matrix is singular (first dependent column: {column})")
        self.column = column


class FieldTooSmall(BlackboxLinalgError):
    """The prime does not meet the required field-size bound."""

    def __init__(self, p, required):
        super().__init__(f"field size {p} below required bound {required}")
        self.p = p
        self.required = required


class HankelSingular(BlackboxLinalgError):
    """The block-Hankel inversion degenerated: a degree profile, a singular
    residue or normalizer, or a failed Hankel certificate; H is singular.
    From ``hankel_inverse_rep`` it carries a generator of H's sequence."""


class SingularMatrix(BlackboxLinalgError):
    """Input matrix proved singular; carries a nonzero kernel vector."""

    def __init__(self, kernel_vector):
        super().__init__("matrix is singular (kernel vector attached)")
        self.kernel_vector = kernel_vector


class RetriesExhausted(BlackboxLinalgError):
    """All randomized attempts failed without a definite verdict."""


class InsufficientPrimes(BlackboxLinalgError):
    """Product of the supplied primes does not cover the result bound."""


class MatrixMarketError(BlackboxLinalgError):
    """Base class for Matrix Market parsing problems."""


class MalformedHeader(MatrixMarketError):
    pass


class IndexOutOfRange(MatrixMarketError):
    pass


class NonSquareWhereSquareRequired(MatrixMarketError):
    pass
