"""Exception hierarchy.

``MdsLiftError`` is the common base. ``DataError`` marks recoverable
domain failures (the CLI maps these to exit code 1); everything else is
a parameter or usage problem (exit code 2).
"""


class MdsLiftError(Exception):
    """Base class for all errors raised by this package."""


class DataError(MdsLiftError):
    """Recoverable domain failure on otherwise well-formed inputs."""


# field construction / arithmetic

class NotPrime(MdsLiftError):
    """The characteristic is not a prime number."""


class DegreeTooSmall(MdsLiftError):
    """Extension degree below 2 requested for an extension field."""


class FieldMismatch(MdsLiftError):
    """Operands belong to different fields."""


class CharacteristicMismatch(MdsLiftError):
    """Embedding requested between fields of different characteristic."""


class DivisionByZero(MdsLiftError):
    """Multiplicative inverse or discrete log of zero."""


class FieldTooLarge(MdsLiftError):
    """Field order above the construction limit (``order_limit``,
    ``--max-order``), or too large for discrete-log tables or int64
    enumeration."""


# matrices

class DimensionMismatch(MdsLiftError):
    """Matrix or vector dimensions do not conform."""


class IndexOutOfRange(MdsLiftError, IndexError):
    """Row, column or position index outside the matrix or code."""


class NotStrictlyIncreasing(MdsLiftError):
    """Submatrix index sets must be strictly increasing."""


class NotSquare(MdsLiftError):
    """A square matrix is required."""


class Singular(DataError):
    """A linear system has no unique solution."""


class RankDeficient(MdsLiftError):
    """Generator matrix does not have full row rank."""


class LeadingBlockSingular(MdsLiftError):
    """The leading k x k block is singular; no systematic form exists
    without column permutation."""


# codes

class TooLong(MdsLiftError):
    """Requested code length exceeds the field order."""


class DuplicateAlpha(MdsLiftError):
    """Evaluation points must be pairwise distinct."""


class ZeroMultiplier(MdsLiftError):
    """Column multipliers must be nonzero."""


class TooManyCodewords(MdsLiftError):
    """Codeword enumeration would exceed the configured limit."""


class TooManyMinors(MdsLiftError):
    """The MDS minor check would exceed the configured number of minors."""


class ZeroScalar(MdsLiftError):
    """Row/column scaling by zero is not allowed."""


# diagonals / lifting

class EmptyDiagonal(MdsLiftError):
    """A diagonal must have at least one entry."""


class ZeroDiagonalEntry(MdsLiftError):
    """Diagonal entries must be nonzero."""


class FieldTooSmall(MdsLiftError):
    """The field has too few nonzero elements for the requested length."""


class NotDh(MdsLiftError):
    """The diagonal has a repeated entry (its max multiplicity exceeds 1)."""


# erasure decoding

class TooManyErasures(DataError):
    """More erasures than the code can recover."""


class Inconsistent(DataError):
    """Present symbols match no codeword; corruption beyond the erasure
    model."""


# file formats

class FormatError(MdsLiftError, ValueError):
    """Malformed matrix/code/diagonal text; also a ``ValueError``, as
    ``json.JSONDecodeError`` is."""
