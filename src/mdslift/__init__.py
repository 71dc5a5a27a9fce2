"""MDS codes over prime fields, lifted to extension fields by
distinct-entry diagonal matrices, with exact verification and
systematic erasure coding on top."""

from .errors import (
    CharacteristicMismatch,
    DataError,
    DegreeTooSmall,
    DimensionMismatch,
    DivisionByZero,
    DuplicateAlpha,
    EmptyDiagonal,
    FieldMismatch,
    FieldTooLarge,
    FieldTooSmall,
    FormatError,
    Inconsistent,
    IndexOutOfRange,
    LeadingBlockSingular,
    MdsLiftError,
    NotDh,
    NotPrime,
    NotSquare,
    NotStrictlyIncreasing,
    RankDeficient,
    Singular,
    TooLong,
    TooManyCodewords,
    TooManyMinors,
    TooManyErasures,
    ZeroDiagonalEntry,
    ZeroMultiplier,
    ZeroScalar,
)
from .field import (
    DLOG_TABLE_LIMIT,
    FieldElement,
    FieldSpec,
    field_from_modulus,
    is_prime,
    make_extension_field,
    make_prime_field,
)
from .matrix import (
    FieldMatrix,
    embed_matrix,
    is_nonsingular,
    mat_mul,
    rank,
    solve,
    submatrix,
    to_systematic,
    vec_mat_mul,
)
from .codes import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_MINOR_LIMIT,
    LinearCode,
    encode_message,
    example1_code,
    grs_generator,
    is_mds,
    min_distance,
    monomial_sandwich,
    scale_col,
    scale_row,
    singular_minor,
    weight_distribution,
)
from .lifting import (
    DhDiagonal,
    LiftReport,
    diversity_count,
    is_dh,
    l_statistic,
    lift,
    sample_dh,
    verify_lift,
)
from .erasure import ERASED, ErasureWord, erase, erasure_decode, erasure_encode
from .formats import (
    format_code,
    format_dh,
    format_element,
    format_erasure,
    format_matrix,
    parse_code,
    parse_dh,
    parse_element,
    parse_erasure,
    parse_matrix,
)
from .rng import SplitMix64

__version__ = "0.1.0"
