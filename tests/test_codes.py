from __future__ import annotations

import time
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mdslift import codes, kernels
from mdslift.codes import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_MINOR_LIMIT,
    SCALAR_PASS_MINORS,
    LinearCode,
    _k_set,
    _minor_block,
    _scalar_first_singular,
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
from mdslift.errors import (
    DimensionMismatch,
    DuplicateAlpha,
    FieldMismatch,
    FieldTooLarge,
    IndexOutOfRange,
    LeadingBlockSingular,
    RankDeficient,
    Singular,
    TooLong,
    TooManyCodewords,
    TooManyMinors,
    ZeroDiagonalEntry,
    ZeroMultiplier,
    ZeroScalar,
)
from mdslift.field import FieldElement, FieldSpec, make_extension_field, make_prime_field
from mdslift.kernels import _MINOR_BLOCK, _plan_block
from mdslift.lifting import lift, sample_dh
from mdslift.matrix import (
    FieldMatrix,
    diag_product,
    embed_matrix,
    rank,
    row_reduce,
    solve,
    submatrix,
    to_systematic,
)
from mdslift.rng import SplitMix64
from oracles import (
    oracle_det,
    oracle_mat_mul,
    oracle_is_mds,
    oracle_min_distance,
    oracle_rank,
    oracle_singular_minor,
    oracle_singular_sets,
    oracle_systematic,
    oracle_weight_distribution,
)

EX1_ROWS = [
    [1, 0, 0, 6, 4, 2, 5, 3],
    [0, 1, 0, 3, 1, 5, 1, 3],
    [0, 0, 1, 3, 5, 2, 4, 6],
]


def _random_full_rank(spec, k, n, rng):
    while True:
        data = [[rng.below(spec.order) for _ in range(n)] for _ in range(k)]
        m = FieldMatrix(spec, np.array(data, dtype=np.int64))
        if rank(m) == k:
            return LinearCode(m)


def _random_grs(spec, rng, n_max=8):
    n = 4 + rng.below(min(n_max, spec.order - 1) - 3)
    k = 2 + rng.below(n - 2)
    alphas = [spec.from_code(c) for c in rng.sample(range(spec.order), n)]
    vs = [spec.from_code(c) for c in rng.sample(range(1, spec.order), n)]
    return grs_generator(spec, n, k, alphas=alphas, vs=vs)


# reference code ---------------------------------------------------------------


def test_reference_code_shape(example1):
    assert (example1.n, example1.k) == (8, 3)
    assert example1.generator.to_lists() == EX1_ROWS
    assert example1.d is None


def test_reference_code_distance_and_mds(example1):
    assert min_distance(example1) == 6
    assert example1.d == 6
    assert oracle_min_distance(example1) == 6
    assert is_mds(example1)


def test_distance_cache_is_set_once(example1):
    min_distance(example1)
    assert min_distance(example1) == 6  # cached path


# construction validation --------------------------------------------------------


def test_linear_code_validates_rank(f7):
    with pytest.raises(RankDeficient):
        LinearCode(FieldMatrix.from_rows(f7, [[1, 2, 3], [2, 4, 6]]))
    with pytest.raises(DimensionMismatch):
        LinearCode(FieldMatrix.zeros(f7, 3, 2))  # more rows than columns


def test_linear_code_takes_no_stated_distance(example1):
    # only min_distance writes d; a stated one is range-checked and recomputed
    # by parse_code
    with pytest.raises(TypeError):
        LinearCode(example1.generator, d=5)
    assert not hasattr(example1, "set_distance")


# GRS construction ---------------------------------------------------------------


def test_grs_default_seven_three(f7):
    code = grs_generator(f7, 7, 3)
    assert min_distance(code) == 5 == oracle_min_distance(code)
    assert is_mds(code)


def test_grs_entry_formula(f7):
    alphas = [f7.element(v) for v in [1, 3, 2, 6]]
    vs = [f7.element(v) for v in [2, 1, 4, 5]]
    code = grs_generator(f7, 4, 3, alphas=alphas, vs=vs)
    for i in range(3):
        for j in range(4):
            assert code.generator[i, j] == vs[j] * alphas[j] ** i


def test_grs_degenerate_dimensions(f7):
    assert min_distance(grs_generator(f7, 5, 5)) == 1
    nz = [f7.element(v) for v in [1, 2, 3, 4, 5, 6]]
    assert min_distance(grs_generator(f7, 6, 1, alphas=nz)) == 6


def test_grs_six_two_distance(f7):
    assert min_distance(grs_generator(f7, 6, 2)) == 5


def test_grs_over_extension_field(f343):
    code = grs_generator(f343, 8, 3)
    assert is_mds(code)


def test_grs_input_validation(f7):
    with pytest.raises(TooLong):
        grs_generator(f7, 8, 3)
    with pytest.raises(DimensionMismatch):
        grs_generator(f7, 5, 0)
    with pytest.raises(DimensionMismatch):
        grs_generator(f7, 5, 6)
    with pytest.raises(DuplicateAlpha):
        grs_generator(f7, 3, 2, alphas=[f7.one(), f7.one(), f7.zero()])
    with pytest.raises(ZeroMultiplier):
        grs_generator(f7, 3, 2, vs=[f7.one(), f7.zero(), f7.one()])
    with pytest.raises(DimensionMismatch):
        grs_generator(f7, 3, 2, alphas=[f7.one()])


@pytest.mark.parametrize("p", [7, 11, 13])
def test_grs_is_always_mds(p):
    spec = make_prime_field(p)
    rng = SplitMix64(p)
    for _ in range(50):
        assert is_mds(_random_grs(spec, rng))


# encoding -----------------------------------------------------------------------


def test_encode_zero_and_units(f7, example1):
    zero = [f7.zero()] * 3
    assert all(s.code == 0 for s in encode_message(example1, zero))
    for i in range(3):
        e = [f7.element(1 if j == i else 0) for j in range(3)]
        assert [s.code for s in encode_message(example1, e)] == EX1_ROWS[i]


def test_encode_systematic_prefix(f7, example1):
    msg = [f7.element(v) for v in [4, 2, 6]]
    assert [s.code for s in encode_message(example1, msg)[:3]] == [4, 2, 6]
    with pytest.raises(DimensionMismatch):
        encode_message(example1, msg[:2])


# minimum distance ---------------------------------------------------------------


def test_min_distance_matches_oracle_on_random_codes(f7, f4):
    rng = SplitMix64(11)
    for spec, k_max, n_max in ((f7, 3, 7), (f4, 3, 4)):
        for _ in range(15):
            k = 1 + rng.below(k_max)
            n = k + rng.below(n_max - k + 1)
            code = _random_full_rank(spec, k, n, rng)
            assert min_distance(code) == oracle_min_distance(code)


def test_min_distance_extension_path_matches_oracle(f49):
    code = grs_generator(f49, 6, 2)
    assert min_distance(code) == 5 == oracle_min_distance(code)


def test_min_distance_respects_limit(f343):
    code = grs_generator(f343, 10, 4)
    with pytest.raises(TooManyCodewords):
        min_distance(code)
    with pytest.raises(TooManyCodewords):
        min_distance(grs_generator(f343, 8, 3), enum_limit=100)
    assert DEFAULT_ENUM_LIMIT >= 343 ** 3 - 1


def test_zero_dimension_code(f7):
    code = LinearCode(FieldMatrix.zeros(f7, 0, 3))
    assert weight_distribution(code) == [0, 0, 0, 0]
    assert min_distance(code) == 3
    assert singular_minor(code) is None
    assert is_mds(code)


def test_min_distance_refuses_int64_overflow():
    p = 3037000507  # (p - 1)^2 + (p - 1) > 2^63 - 1
    code = grs_generator(make_prime_field(p, order_limit=p), 2, 2)  # above the default limit
    with pytest.raises(FieldTooLarge):
        min_distance(code, enum_limit=1 << 64)


# fields of every digit split: p = 2 with t = 1, 2, 3; p = 3 with t = 2;
# p = 7 with t = 1, 2
_ORACLE_FIELDS = ((2, 1), (2, 2), (2, 3), (3, 2), (7, 1), (7, 2))
_ORACLE_MESSAGES = 2401  # cap on q^k, the oracle's work


def _field(p, t):
    return make_prime_field(p) if t == 1 else make_extension_field(p, t)


@st.composite
def _generator_rows(draw):
    p, t = draw(st.sampled_from(_ORACLE_FIELDS))
    q = p ** t
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, max(k for k in range(1, n + 1) if q ** k <= _ORACLE_MESSAGES)))
    entry = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    zero_col = draw(st.none() | st.integers(0, n - 1))
    if zero_col is not None:
        for row in rows:
            row[zero_col] = 0
    return p, t, rows


@given(_generator_rows())
@example((7, 1, [[0, 3, 0, 0]]))  # k = 1, one column is the only support: d = 1
@example((2, 1, [[1, 1, 0], [0, 1, 1], [1, 1, 1]]))  # k = n: d = 1
@example((2, 3, [[1, 0, 0, 5, 0], [0, 1, 0, 3, 0], [0, 0, 1, 7, 0]]))  # zero column, d < n-k+1
@example((3, 2, [[1, 0, 5, 2, 8], [0, 1, 7, 0, 4]]))
@example((7, 2, [[1, 8, 0, 30, 48], [0, 1, 48, 2, 9]]))
@example((2, 2, [[1, 2, 3, 1, 0, 2], [0, 1, 1, 3, 2, 2], [3, 0, 2, 1, 1, 1]]))
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_oracle_across_fields(case):
    p, t, rows = case
    g = FieldMatrix(_field(p, t), np.array(rows, dtype=np.int64))
    assume(rank(g) == len(rows))
    code = LinearCode(g)
    assert weight_distribution(code) == oracle_weight_distribution(code)
    assert min_distance(code) == oracle_min_distance(code)


# weight distribution --------------------------------------------------------------


def _mds_weights(n, k, q):
    # closed-form weight enumerator of an MDS code (MacWilliams & Sloane, ch. 11)
    d = n - k + 1
    return [0] * d + [
        comb(n, w) * sum((-1) ** j * comb(w, j) * (q ** (w - d + 1 - j) - 1)
                         for j in range(w - d + 1))
        for w in range(d, n + 1)
    ]


def test_weight_distribution_of_mds_codes(f7, f49, example1):
    codes = [grs_generator(f7, 6, 2), grs_generator(f49, 6, 2),
             lift(example1, sample_dh(f49, 8, 3))]
    for code in codes:
        a = weight_distribution(code)
        assert a == _mds_weights(code.n, code.k, code.spec.order)
        assert sum(a) == code.spec.order ** code.k - 1


def test_weight_distribution_of_non_mds_code(f7, f4):
    codes = [
        LinearCode(FieldMatrix.from_rows(f7, [
            [1, 0, 0, 6, 4, 2, 5, 5],
            [0, 1, 0, 3, 1, 5, 1, 1],
            [0, 0, 1, 3, 5, 2, 4, 4],
        ])),
        LinearCode(FieldMatrix.from_rows(f4, [[1, 0, 1, 1, 0], [0, 1, 2, 0, 0]])),
    ]
    for code in codes:
        a = weight_distribution(code)
        assert a == oracle_weight_distribution(code)
        assert sum(a) == code.spec.order ** code.k - 1
        assert not is_mds(code)
    with pytest.raises(TooManyCodewords):
        weight_distribution(codes[0], enum_limit=7 ** 3 - 2)


def test_singleton_bound_on_random_codes(f7):
    rng = SplitMix64(12)
    for _ in range(25):
        k = 1 + rng.below(3)
        n = k + rng.below(8 - k)
        code = _random_full_rank(f7, k, n, rng)
        assert min_distance(code) <= code.n - code.k + 1


# MDS detection ------------------------------------------------------------------


def test_mds_equivalent_to_meeting_singleton(f7, f4):
    # the minor criterion and the enumeration use different algorithms;
    # they must agree (min_distance itself reads d from the minors)
    rng = SplitMix64(13)
    seen_non_mds = 0
    for spec in (f7, f4):
        for _ in range(30):
            k = 1 + rng.below(3)
            n = k + rng.below(7 - k)
            code = _random_full_rank(spec, k, n, rng)
            mds = is_mds(code)
            seen_non_mds += not mds
            assert mds == (kernels.min_weight(code) == code.n - code.k + 1)
    assert seen_non_mds > 0  # corpus must exercise both outcomes


def test_zero_or_repeated_column_breaks_mds(f7, example1):
    g = example1.generator.codes.copy()
    g[:, 4] = 0
    assert not is_mds(LinearCode(FieldMatrix(f7, g)))
    g = example1.generator.codes.copy()
    g[:, 4] = g[:, 5]
    assert not is_mds(LinearCode(FieldMatrix(f7, g)))


# F_2, F_4, F_8, F_9, F_7, F_49, F_343 run on tables; F_2^17 (the f2_17
# fixture) is above the table limit, so its products and inverses run
# on the polynomial path
_ELIMINATION_FIELDS = ((2, 1), (2, 2), (2, 3), (3, 2), (7, 1), (7, 2), (7, 3), (2, 17))


@st.composite
def _elimination_case(draw):
    p, t = draw(st.sampled_from(_ELIMINATION_FIELDS))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 4)))  # the oracle expands k! terms per minor
    entry = st.integers(0, p ** t - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    zero_col = draw(st.none() | st.integers(0, n - 1))
    if zero_col is not None:
        for row in rows:
            row[zero_col] = 0
    src, dst = draw(st.integers(0, n - 1)), draw(st.none() | st.integers(0, n - 1))
    if dst is not None:
        for row in rows:
            row[dst] = row[src]
    rhs = draw(st.lists(entry, min_size=k, max_size=k))
    return p, t, rows, rhs


@given(_elimination_case())
@example((7, 1, [[1, 0, 2], [0, 0, 3]], [1, 2]))  # zero column
@example((7, 2, [[1, 9, 9, 4], [3, 20, 20, 5]], [0, 7]))  # repeated column
@example((2, 3, [[0, 3, 0, 5]], [6]))  # k = 1
@example((3, 2, [[1, 2, 0], [4, 0, 8], [0, 5, 5]], [1, 1, 1]))  # k = n
@example((7, 1, [[1, 0, 1, 2], [0, 1, 1, 2]], [3, 4]))  # only the last pair is dependent
@example((7, 1, [[1, 2, 3], [2, 4, 6]], [1, 1]))  # rank-deficient
@example((2, 17, [[5, 0, 70000, 131071], [1, 1, 2, 3]], [9, 99999]))
@example((2, 17, [[0, 1, 7], [1, 2, 3], [4, 5, 6]], [1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_elimination_matches_leibniz_oracle(f2_17, case):
    p, t, rows, rhs = case
    spec = f2_17 if (p, t) == (2, 17) else _field(p, t)
    g = FieldMatrix(spec, np.array(rows, dtype=np.int64))
    k = g.rows
    assert rank(g) == oracle_rank(g)
    # solve on the leading k x k block, against Cramer's rule
    idx = list(range(k))
    a = submatrix(g, idx, idx)
    b = [spec.from_code(c) for c in rhs]
    det = oracle_det(a, idx, idx)
    if det:
        swapped = [FieldMatrix(spec, np.where(np.arange(k) == i, np.array(rhs)[:, None], a.codes))
                   for i in idx]
        assert solve(a, b) == [oracle_det(s, idx, idx) / det for s in swapped]
    else:
        with pytest.raises(Singular):
            solve(a, b)
    systematic = oracle_systematic(g)
    if systematic is not None:
        assert to_systematic(g) == systematic
    else:
        with pytest.raises(RankDeficient if oracle_rank(g) < k else LeadingBlockSingular):
            to_systematic(g)
    if rank(g) < k:
        return
    code = LinearCode(g)
    witness = singular_minor(code)
    assert witness == oracle_singular_minor(code)
    assert is_mds(code) == oracle_is_mds(code) == (witness is None)
    if witness is not None:
        assert rank(submatrix(g, idx, witness)) < k


def test_singular_minor_in_second_block(f343):
    # columns (1, a) for the codes a = 0..188, then 2 * column 188: the one
    # dependent pair (188, 189) is the last of C(190, 2) = 17,955; on the
    # RREF, pivots (0, 1), it is the last of C(188, 2) = 17,578 column sets
    # of level 2, so the pass must reach its third block of 2^14 products
    pairs = [[1, a] for a in range(189)] + [[2, f343.mul_code(2, 188)]]
    g = FieldMatrix(f343, np.array(pairs, dtype=np.int64).T)
    code = LinearCode(g)
    witness = singular_minor(code)
    assert witness == (188, 189)
    assert not is_mds(code)
    assert rank(submatrix(g, [0, 1], witness)) < 2
    earlier = combinations(range(190), 2)
    assert all(oracle_det(g, [0, 1], cols) for cols in earlier if cols < witness)


def test_singular_minor_in_second_block_of_three_sets(f343):
    # Vandermonde columns (1, a, a^2) for a = 0..46, then column 45 + column 46:
    # (45, 46, 47) is the last of C(48, 3) = 17,296 sets; on the RREF, pivots
    # (0, 1, 2), the last of C(45, 3) = 14,190 column sets of level 3, whose
    # 3 products each fill more than two blocks
    vander = [[1, a, f343.mul_code(a, a)] for a in range(47)]
    vander.append([f343.add_code(x, y) for x, y in zip(vander[45], vander[46])])
    g = FieldMatrix(f343, np.array(vander, dtype=np.int64).T)
    witness = singular_minor(LinearCode(g))
    assert witness == (45, 46, 47)
    assert 3 * comb(45, 3) > 2 * _MINOR_BLOCK
    earlier = combinations(range(48), 3)
    assert all(oracle_det(g, [0, 1, 2], cols) for cols in earlier if cols < witness)


def test_plan_blocks_match_combinations():
    for n in range(10):
        for i in range(1, n + 1):
            sets = list(combinations(range(n), i))
            rank_of = {s: r for r, s in enumerate(combinations(range(n), i - 1))}
            for start, stop in [(0, len(sets))] + [(a, min(a + 4, len(sets)))
                                                   for a in range(1, len(sets), 3)]:
                cols, sub = _plan_block(n, i, start, stop)
                assert [tuple(c) for c in cols.T.tolist()] == sets[start:stop]
                assert sub.T.tolist() == [[rank_of[s[:r] + s[r + 1:]] for r in range(i)]
                                          for s in sets[start:stop]]


def test_minor_pass_in_small_blocks_matches_oracle(monkeypatch, f7, f49):
    # blocks of at most 4 products, or of one column set when one takes
    # more: every level past the first is built block by block
    monkeypatch.setattr(kernels, "_MINOR_BLOCK", 4)
    laplace, shapes = kernels._laplace, []

    def spy(spec, block, below, rows, prev, cols, sub):
        shapes.append(cols.shape + (rows.shape[1],))
        return laplace(spec, block, below, rows, prev, cols, sub)

    monkeypatch.setattr(kernels, "_laplace", spy)
    rng = SplitMix64(3)
    for spec, k, n in [(f7, 3, 7), (f49, 4, 8), (f7, 5, 6), (f49, 1, 9), (f49, 2, 7)]:
        g = FieldMatrix(spec, np.array([[rng.below(spec.order) for _ in range(n)]
                                        for _ in range(k)], dtype=np.int64))
        assert kernels.first_singular(g) == (oracle_singular_sets(g) or [None])[0]
    assert all(j * r * c <= max(4, j * r) for j, c, r in shapes)
    assert {c for _, c, _ in shapes} == {1, 2}


def test_minor_pass_memory_is_bounded_by_levels_and_blocks(f49):
    # GRS[18,9]/F_49: levels of up to C(9, 4)^2 = 15,876 minors of the 9 x 9
    # non-pivot block; GRS[1000,2]/F_2^10: C(998, 2) = 497,503 minors of the
    # 2 x 998 block (4 MB) in blocks of 2^14, where the plan of the whole
    # level would be 4 * 497,503 indices (16 MB) before its temporaries
    for code in (grs_generator(f49, 18, 9), grs_generator(make_extension_field(2, 10), 1000, 2)):
        kernels._plan_block.cache_clear()
        tracemalloc.start()
        try:
            assert singular_minor(code) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


def test_minor_pass_keeps_no_last_level():
    # the 497,503 level-2 minors of GRS[1000,2]/F_2^10 are the last level: it
    # is checked block by block, and no 4 MB array of it is allocated
    kernels._plan_block.cache_clear()
    tracemalloc.start()
    try:
        assert singular_minor(grs_generator(make_extension_field(2, 10), 1000, 2)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_minor_check_caps_the_minor_count(f49):
    with pytest.raises(TooManyMinors):
        is_mds(grs_generator(f49, 24, 12), minor_limit=comb(24, 12) - 1)
    assert DEFAULT_MINOR_LIMIT >= comb(24, 12)
    # C(8, 3) = 56 minors; C(12, 10) = 66, from the 10 x 2 non-pivot block
    for code in (grs_generator(f49, 8, 3), grs_generator(f49, 12, 10)):
        assert singular_minor(code, minor_limit=comb(code.n, code.k)) is None
        with pytest.raises(TooManyMinors):
            singular_minor(code, minor_limit=comb(code.n, code.k) - 1)


def test_singular_minor_of_high_rate_codes_matches_oracle(f7, f49):
    # k > n/2: the passes expand the transposed non-pivot block
    rng = SplitMix64(17)
    witnesses = set()
    for spec, k, n in [(f7, 4, 6), (f7, 5, 7), (f49, 5, 8), (f7, 6, 9)] * 6:
        code = _random_full_rank(spec, k, n, rng)
        witness = singular_minor(code)
        assert witness == oracle_singular_minor(code)
        witnesses.add(witness is None or witness == tuple(range(k)))
    assert witnesses == {True, False}  # some witnesses past the leading block


def test_singular_minor_of_a_long_high_rate_code(f49):
    # [40,36]: 91,390 minors from the 4 x 36 transposed non-pivot block,
    # where a pass over the k x k minors of G would build level 20 with
    # C(40, 20) = 1.4e11 sets
    g = grs_generator(f49, 40, 36).generator
    assert singular_minor(LinearCode(g)) is None
    # column 36 repeats column 35: the first set holding both is
    # (0..33, 35, 36), right after the five nonsingular sets (0..34, x)
    m = g.codes.copy()
    m[:, 36] = m[:, 35]
    bad = FieldMatrix(f49, m.copy())
    witness = singular_minor(LinearCode(bad))
    assert witness == tuple(range(34)) + (35, 36)
    assert rank(submatrix(bad, range(36), witness)) < 36
    assert all(rank(submatrix(bad, range(36), list(range(35)) + [x])) == 36
               for x in range(35, 40))
    m[:, 1] = m[:, 0]  # a singular leading block is the first witness
    assert singular_minor(LinearCode(FieldMatrix(f49, m))) == tuple(range(36))


def test_witness_choice_past_column_62(f343):
    # [I | A] of GRS[66,64] with A[62, 0] = A[63, 0] = 0: (0..62, 64),
    # (0..61, 63, 64) and (0..61, 64, 65) are singular. The first two agree on
    # columns 0..61, so only a key past column 61 tells them apart; the
    # lex-first one is not the first zero in block order
    rows = to_systematic(grs_generator(f343, 66, 64).generator).to_lists()
    rows[62][64] = rows[63][64] = 0
    g = FieldMatrix.from_rows(f343, rows)
    want = tuple(range(63)) + (64,)
    assert kernels.first_singular(g) == want
    assert _scalar_first_singular(g) == want
    assert singular_minor(LinearCode(g)) == want
    assert rank(submatrix(g, range(64), want)) < 64


@given(_elimination_case())
@example((7, 1, [[3, 0, 5, 6]], [0]))  # k = 1
@example((7, 2, [[1, 2, 0], [4, 0, 8], [0, 5, 5]], [0, 0, 0]))  # k = n
@example((3, 2, [[1, 0, 4, 2], [7, 0, 8, 1]], [0, 0]))  # zero column
@example((2, 17, [[5, 0, 70000, 131071], [1, 1, 2, 3], [9, 8, 7, 99999]], [0, 0, 0]))
@settings(max_examples=60, deadline=None)
def test_minor_pass_matches_leibniz_oracle(f2_17, case):
    p, t, rows, _ = case
    spec = f2_17 if (p, t) == (2, 17) else _field(p, t)
    g = FieldMatrix(spec, np.array(rows, dtype=np.int64))
    assert kernels.first_singular(g) == (oracle_singular_sets(g) or [None])[0]


def test_minor_block_zeros_map_onto_the_singular_k_sets(f7, f49):
    # Thm 8 as both passes use it: the zero square minors of M, each mapped
    # by _k_set, are the singular k-sets of G; with the empty minor (the
    # pivots) they reach all C(n, k) k-sets once each
    rng = SplitMix64(34)
    for spec in (f7, f49):
        for k, n in [(2, 6), (3, 6), (4, 6), (1, 4), (5, 7)]:  # k <, = and > n - k
            for edit in ("zero entry", "equal columns", None):
                while True:
                    rows = [[rng.below(spec.order) for _ in range(n)] for _ in range(k)]
                    if edit == "zero entry":
                        rows[rng.below(k)][rng.below(n)] = 0
                    elif edit == "equal columns":
                        for r in rows:
                            r[n - 1] = r[0]
                    g = FieldMatrix(spec, rows)
                    if rank(g) == k:
                        break
                reduced, pivots, _ = g.echelon()
                block, row_cols, col_cols = _minor_block(reduced, pivots)
                h, w = len(block), n - len(block)
                assert h == len(row_cols) == min(k, n - k) and w == len(col_cols)
                m = FieldMatrix(spec, block)
                every, zeros = [tuple(pivots)], []
                for j in range(1, h + 1):
                    for rs in combinations(range(h), j):
                        for cs in combinations(range(w), j):
                            s = _k_set(pivots, row_cols, col_cols, rs, cs)
                            every.append(s)
                            if not oracle_det(m, rs, cs):
                                zeros.append(s)
                assert sorted(every) == list(combinations(range(n), k))
                assert sorted(zeros) == oracle_singular_sets(g)


def test_singular_minor_of_mds_code_is_none(example1):
    assert singular_minor(example1) is None
    assert singular_minor(grs_generator(make_extension_field(7, 2), 16, 8)) is None


# (p, t, k, n) over prime, char-2 and odd extension fields: k = 1, k > n/2,
# and C(n, k) - k(n - k) from 11 to 66 ([7,5] 11, [8,3] 41, [8,4] 54, [9,3]
# 66); the test calls each pass directly, whatever SCALAR_PASS_MINORS is
_PASS_SHAPES = [(7, 1, 1, 6), (7, 1, 2, 6), (7, 1, 3, 8), (11, 1, 3, 9), (2, 2, 2, 5),
                (2, 3, 3, 8), (2, 4, 4, 8), (3, 2, 3, 8), (7, 2, 3, 9), (7, 2, 4, 8),
                (7, 3, 3, 8), (7, 1, 5, 7), (3, 2, 1, 7)]


def test_scalar_pass_matches_array_pass_and_oracle():
    rng = SplitMix64(23)
    seen = set()
    for p, t, k, n in _PASS_SHAPES:
        spec = _field(p, t)
        for _ in range(3):
            # about one entry in four zero, so that some minors vanish
            g = FieldMatrix(spec, [[rng.below(spec.order) if rng.below(4) else 0
                                    for _ in range(n)] for _ in range(k)])
            # and a column scaling of it, which carries the RREF with a pending scale
            g.echelon()
            scaled = diag_product(None, g, [1 + rng.below(spec.order - 1) for _ in range(n)])
            assert scaled.echelon()[2] is not None
            for m in (g, scaled):
                singular = oracle_singular_sets(m)
                want = singular[0] if singular else None
                assert _scalar_first_singular(m) == kernels.first_singular(m) == want
                seen.add(bool(singular))
    assert seen == {True, False}


def test_scalar_pass_builds_the_log_sum_lists_it_reads():
    # a fresh spec in characteristic 2, where the sums of the row reduction
    # are xors: only products have built tables when the pass starts
    spec = FieldSpec(2, 4, make_extension_field(2, 4).modulus, 2)
    g = grs_generator(spec, 8, 3).generator
    g.echelon()
    assert spec._log is not None and spec._red is None and spec._step is None
    assert _scalar_first_singular(g) is None
    assert spec._red is not None and spec._step is not None


@st.composite
def _scaled_lift_case(draw):
    """(p, t, base rows over F_p, lift diagonal, scalings): the base is a
    GRS code (MDS) when n <= p allows and a draw asks for it, else random
    entries, maybe with a repeated column; the diagonal's nonzero entries
    into F_(p^t) may repeat, and each scaling is ("col", j, c) or
    ("sandwich", left, right), all nonzero, to chain on the lift."""
    p, t = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 9))
    if n <= p and draw(st.booleans()):
        alphas = draw(st.permutations(range(p)))[:n]
        vs = draw(st.lists(st.integers(1, p - 1), min_size=n, max_size=n))
        rows = [[v * pow(a, i, p) % p for a, v in zip(alphas, vs)] for i in range(k)]
    else:
        rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                             min_size=k, max_size=k))
        repeat = draw(st.none() | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        if repeat is not None:
            for r in rows:
                r[repeat[1]] = r[repeat[0]]
    nonzero = st.integers(1, p ** t - 1)
    diag = draw(st.lists(nonzero, min_size=n, max_size=n))
    scalings = draw(st.lists(st.tuples(st.just("col"), st.integers(0, n - 1), nonzero)
                             | st.tuples(st.just("sandwich"),
                                         st.lists(nonzero, min_size=k, max_size=k),
                                         st.lists(nonzero, min_size=n, max_size=n)),
                             max_size=3))
    return p, t, rows, diag, scalings


@given(_scaled_lift_case())
@example((7, 3, EX1_ROWS, [5, 9, 5, 100, 342, 1, 77, 5],
          [("col", 3, 6), ("sandwich", [2, 50, 300], [1, 2, 3, 4, 5, 6, 7, 8]), ("col", 0, 9)]))
@example((7, 2, [r[:7] + [r[3]] for r in EX1_ROWS], [1] * 8, [("col", 7, 48)]))  # non-MDS
@example((5, 2, [[1, 2, 3, 4, 0], [0, 1, 4, 2, 3], [2, 2, 1, 0, 1], [4, 3, 3, 1, 1]],
          [7, 7, 7, 7, 7], []))  # k > n - k
@example((7, 1, [[pow(a, i, 7) for a in (1, 2, 3, 4, 5, 5)] for i in range(4)],
          [1, 2, 3, 4, 5, 6], [("sandwich", [1, 2, 3, 4], [6, 5, 4, 3, 2, 1])]))  # k > n - k
@settings(max_examples=120, deadline=None)
def test_scale_free_passes_match_oracle_on_scaled_lifts(case):
    # both passes read the base's RREF and ignore the lift's pending scale;
    # the oracle expands every minor of a fresh matrix with no RREF
    p, t, rows, diag, scalings = case
    base = FieldMatrix(make_prime_field(p), rows)
    base.echelon()
    m = diag_product(None, embed_matrix(base, _field(p, t)), diag)
    for kind, x, y in scalings:
        m = scale_col(m, x, y) if kind == "col" else monomial_sandwich(m, x, y)
    assert m.echelon()[2] is not None
    fresh = FieldMatrix(m.spec, m.to_lists())
    assert _scalar_first_singular(m) == kernels.first_singular(m) == \
        (oracle_singular_sets(fresh) or [None])[0]


def _grs_rows(spec, k, n, rng):
    """Rows of a GRS[n, k] generator on random points and multipliers."""
    alphas = [spec.from_code(c) for c in rng.sample(range(spec.order), n)]
    vs = [spec.from_code(1 + rng.below(spec.order - 1)) for _ in range(n)]
    return [list(r) for r in grs_generator(spec, n, k, alphas, vs).generator.to_lists()]


def test_singular_minor_on_both_passes_matches_oracle(f7, f49):
    # through the dispatch, with k > n/2: a repeated column makes
    # a code non-MDS, a repeated leading column its leading block singular
    rng = SplitMix64(31)
    outcomes = set()
    for spec, k, n in [(f7, 3, 7), (f49, 3, 9), (f49, 4, 8), (f7, 5, 7), (f49, 6, 8),
                       (f49, 1, 5), (f7, 2, 7)]:
        for repeat in (None, (0, 1), (n - 2, n - 1)):
            g = _grs_rows(spec, k, n, rng)
            if repeat is not None:
                for r in g:
                    r[repeat[1]] = r[repeat[0]]
            code = LinearCode(FieldMatrix(spec, g))
            witness = singular_minor(code)
            assert witness == oracle_singular_minor(code)
            outcomes.add(witness if witness in (None, tuple(range(k))) else "later")
    assert outcomes >= {None, (0, 1, 2), "later"}


def _rows_with_pattern(spec, k, n, rng, pattern):
    """Random k x n rows over ``spec`` with a forced shape: "zero column"
    (column n // 2 zero), "late pivots" (columns 0 and 1 zero, and column 2
    repeated in 3, so the RREF pivots are not leading), "rank" (row 0
    repeated in the last row) or "any"."""
    g = [[rng.below(spec.order) for _ in range(n)] for _ in range(k)]
    if pattern == "zero column":
        for r in g:
            r[n // 2] = 0
    elif pattern == "late pivots" and n >= 4:
        for r in g:
            r[0] = r[1] = 0
            r[3] = r[2]
    elif pattern == "rank" and k >= 2:
        g[-1] = list(g[0])
    return g


def _with_zero_minor(code, r, c, rows, cols):
    """The systematic generator [I | A] of ``code`` with entry (r, c) of the
    block M the pass expands (A, or A^T when k > n - k) reset so that the
    minor of M on ``rows`` x ``cols`` is zero."""
    spec, k, n = code.spec, code.k, code.n
    flip = k > n - k
    g = to_systematic(code.generator).to_lists()
    a_rows, a_cols = (cols, rows) if flip else (rows, cols)
    i, j = (c, k + r) if flip else (r, k + c)
    for e in range(spec.order):
        g[i][j] = e
        m = FieldMatrix.from_rows(spec, g)
        if not oracle_det(m, a_rows, [k + x for x in a_cols]):
            return m


def _pass_level(k, n, witness):
    """Where the scalar pass finds the zero minor behind ``witness``, a
    k-set of a generator with pivots 0..k-1: "level 1", or "inner j" or
    "leaf j" for level j >= 2, a leaf holding the last row of M."""
    h, flip = min(k, n - k), k > n - k
    on_rows = [i for i in range(k) if i not in witness]
    on_cols = [c for c in range(n - k) if k + c in witness]
    m_rows = on_cols if flip else on_rows
    if len(m_rows) == 1:
        return "level 1"
    return f"{'leaf' if h - 1 in m_rows else 'inner'} {len(m_rows)}"


def test_scalar_pass_witnesses_match_oracle_on_every_shape():
    # both passes, for every k from 1 to n - 1 over F_7, F_11, F_8, F_9,
    # F_49 and F_343, so k = 1, k = n - 1 and k > n/2 all occur;
    # rank-deficient rows, pivots past the leading columns and zero columns
    # are forced in turn
    rng = SplitMix64(41)
    patterns = ("any", "zero column", "late pivots", "rank")
    seen = set()
    for at, (p, t) in enumerate([(7, 1), (11, 1), (2, 3), (3, 2), (7, 2), (7, 3)]):
        spec = _field(p, t)
        for n in range(2, 7):
            for k in range(1, n):
                for pattern in (patterns[(at + k) % 4], patterns[(at + n + k + 2) % 4]):
                    g = FieldMatrix(spec, _rows_with_pattern(spec, k, n, rng, pattern))
                    # and its column scaling, which carries the RREF with a pending scale
                    g.echelon()
                    d = [1 + rng.below(spec.order - 1) for _ in range(n)]
                    scaled = diag_product(None, g, d)
                    assert scaled.echelon()[2] is not None
                    for m in (g, scaled):
                        singular = oracle_singular_sets(m) or [None]
                        assert _scalar_first_singular(m) == kernels.first_singular(m) == singular[0]
                    seen.add((pattern, singular != [None], rank(g) == k))
    assert {("any", False, True), ("late pivots", True, True), ("zero column", True, True),
            ("rank", True, False)} <= seen
    # the lex-first zero minor from each part of the pass in turn: a level-1
    # entry, an inner level-2 minor, a level-2 leaf and a level-3 leaf, with
    # M = A ([8,3]) and M = A^T ([8,5], k > n - k), each base with one entry
    # (r, c) of M reset over F_7, in that order, and lifted into F_49 and
    # F_343, both with the scale pending and applied (systematic)
    designs = [(example1_code(), [(0, 0, (0,), (0,)), (0, 1, (0, 1), (0, 1)),
                                  (0, 0, (0, 1), (0, 1)), (1, 2, (0, 1, 2), (0, 1, 2))]),
               (example1_code().dual(), [(0, 0, (0,), (0,)), (1, 0, (0, 1), (0, 2)),
                                         (0, 0, (0, 1), (0, 1)), (0, 1, (0, 1), (0, 1))])]
    levels = set()
    for code, entries in designs:
        for seed, (r, c, rows, cols) in enumerate(entries):
            base = LinearCode(_with_zero_minor(code, r, c, rows, cols))
            for target in (_field(7, 2), _field(7, 3)):
                dh = sample_dh(target, base.n, seed)
                for lifted in (lift(base, dh), lift(base, dh, systematize=True)):
                    witness = oracle_singular_minor(lifted)
                    m = lifted.generator
                    assert _scalar_first_singular(m) == kernels.first_singular(m) == witness
                    assert singular_minor(lifted) == witness
                    levels.add((target.order, code.k > code.n - code.k,
                                _pass_level(code.k, code.n, witness)))
    assert levels == {(q, flip, level) for q in (49, 343) for flip in (False, True)
                      for level in ("level 1", "inner 2", "leaf 2", "leaf 3")}


@pytest.mark.parametrize("minors", [-1, 10 ** 9], ids=["numpy pass", "scalar pass"])
def test_singular_minor_on_each_pass_matches_oracle(monkeypatch, f7, f49, minors):
    # the same codes on the numpy pass alone and on the scalar pass alone:
    # a repeated leading column makes the leading block singular, with no
    # special case on either pass
    monkeypatch.setattr(codes, "SCALAR_PASS_MINORS", minors)
    rng = SplitMix64(43)
    outcomes = set()
    for spec, k, n in [(f7, 3, 7), (f49, 4, 8), (f7, 5, 7), (f49, 6, 8), (f49, 1, 5), (f7, 6, 7)]:
        for repeat in (None, (0, 1), (n - 2, n - 1)):
            g = _grs_rows(spec, k, n, rng)
            if repeat is not None:
                for r in g:
                    r[repeat[1]] = r[repeat[0]]
            code = LinearCode(FieldMatrix(spec, g))
            witness = singular_minor(code)
            assert witness == oracle_singular_minor(code)
            outcomes.add(witness if witness in (None, tuple(range(k))) else "later")
    assert outcomes >= {None, (0, 1, 2), (0, 1, 2, 3, 4), "later"}


def test_dual_is_orthogonal_and_needs_no_leading_block(f7, f49):
    rng = SplitMix64(47)
    for spec, k, n in [(f7, 3, 7), (f49, 5, 8), (f7, 1, 4), (f49, 4, 4)]:
        for pattern in ("any", "late pivots", "zero column") if k < n else ("any",):
            code = _random_full_rank_rows(spec, k, n, rng, pattern)
            dual = code.dual()
            assert (dual.n, dual.k) == (n, n - k)
            assert all(x == 0 for row in oracle_mat_mul(code.generator, dual.generator.transpose())
                       for x in row)
    late = LinearCode(FieldMatrix(f7, [[0, 1, 2, 3], [0, 0, 1, 5]]))
    assert late.dual().generator.to_lists() == [[1, 0, 0, 0], [0, 0, 2, 1]]  # pivots 1, 2


@st.composite
def _dual_case(draw):
    p, t = draw(st.sampled_from(_ELIMINATION_FIELDS))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    entry = st.integers(0, p ** t - 1)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    for col in draw(st.lists(st.integers(0, n - 1), max_size=2)):  # zero columns
        for row in rows:
            row[col] = 0
    return p, t, n, rows


@given(_dual_case())
@example((7, 1, 4, [[0, 1, 2, 3], [0, 0, 1, 5]]))  # late pivots
@example((7, 2, 5, [[1, 9, 9, 0, 4], [3, 20, 20, 0, 5]]))  # repeated and zero columns
@example((2, 3, 3, []))  # k = 0: the dual is the whole space
@example((3, 2, 3, [[1, 2, 0], [4, 0, 8], [0, 5, 5]]))  # k = n: the dual is zero
@example((2, 17, 4, [[5, 0, 70000, 131071]]))
@settings(max_examples=80, deadline=None)
def test_dual_carries_the_rref_of_a_fresh_elimination(f2_17, case):
    p, t, n, rows = case
    spec = f2_17 if (p, t) == (2, 17) else _field(p, t)
    g = FieldMatrix(spec, rows) if rows else FieldMatrix.zeros(spec, 0, n)
    assume(rank(g) == len(rows))
    dual = LinearCode(g).dual()
    fresh = dual.generator.to_lists()
    pivots = row_reduce(fresh, spec)
    assert dual.generator.echelon() == (tuple(map(tuple, fresh)), tuple(pivots), None)
    assert len(pivots) == n - len(rows)


def test_dual_of_a_long_code_is_not_eliminated_again():
    # GRS[1000,1] over F_2^10: its [1000,999] dual took about 29 s when its
    # generator was row-reduced afresh
    code = grs_generator(make_extension_field(2, 10), 1000, 1)
    start = time.perf_counter()
    dual = code.dual()
    assert time.perf_counter() - start < 5
    assert dual.generator.echelon()[1] == tuple(range(999))


def test_dual_row_reduces_the_side_with_fewer_rows(monkeypatch, f49):
    import mdslift.matrix as matrix_module
    reduced = []

    def counted(rows, spec, _real=row_reduce):
        reduced.append(len(rows))
        return _real(rows, spec)

    monkeypatch.setattr(codes, "row_reduce", counted)
    monkeypatch.setattr(matrix_module, "row_reduce", counted)
    for k, fewer in [(2, 2), (3, 3), (4, 4), (5, 3), (7, 1)]:
        code = grs_generator(f49, 8, k)
        reduced.clear()
        code.dual()
        assert reduced == [fewer], k  # G read right to left, or H by __init__


def test_dual_of_a_high_rate_code_costs_less_than_its_generator():
    # reducing GRS[150,149] right to left again took as long as building it
    start = time.perf_counter()
    code = grs_generator(make_extension_field(2, 10), 150, 149)
    built = time.perf_counter() - start
    start = time.perf_counter()
    dual = code.dual()
    assert time.perf_counter() - start < built / 10
    assert dual.k == 1


def _random_full_rank_rows(spec, k, n, rng, pattern):
    while True:
        g = FieldMatrix(spec, _rows_with_pattern(spec, k, n, rng, pattern))
        if rank(g) == k:
            return LinearCode(g)


def test_minor_pass_choice_follows_product_count(monkeypatch, f49, f2_17):
    calls = []

    def spy(name, fn):
        def traced(a):
            calls.append((name, a.shape))
            return fn(a)
        return traced

    monkeypatch.setattr(codes, "_scalar_first_singular", spy("scalar", _scalar_first_singular))
    monkeypatch.setattr(kernels, "first_singular", spy("array", kernels.first_singular))
    # C(n, k) - k(n - k): [9,3] 66, [10,5] 227, [13,3] 256, [11,4] 302,
    # [30,2] 379, [15,3] 419, [32,2] 436, and 1 for [8,7], [1000,1] and
    # [1000,999] (k > n/2 needs no dual). The [1000,999] code is the
    # systematic dual of GRS[1000,1], whose elimination is cheap: that of
    # GRS[1000,999] takes minutes
    assert comb(11, 4) - 4 * 7 <= SCALAR_PASS_MINORS < comb(30, 2) - 2 * 28
    f1024 = make_extension_field(2, 10)
    parity = LinearCode(FieldMatrix(f1024, [[int(j in (i, 999)) for j in range(1000)]
                                            for i in range(999)]))
    for code in (grs_generator(f49, 8, 3), grs_generator(f49, 9, 3), grs_generator(f49, 8, 7),
                 grs_generator(f49, 10, 5), grs_generator(f49, 30, 2), grs_generator(f49, 16, 8),
                 grs_generator(f2_17, 8, 3), grs_generator(f49, 13, 3),
                 grs_generator(f49, 11, 4), grs_generator(f49, 15, 3),
                 grs_generator(f49, 32, 2), grs_generator(f1024, 1000, 1), parity):
        assert singular_minor(code) is None
    assert calls == [("scalar", (3, 8)), ("scalar", (3, 9)), ("scalar", (7, 8)),
                     ("scalar", (5, 10)), ("array", (2, 30)), ("array", (8, 16)),
                     ("array", (3, 8)),  # F_2^17 has no tables
                     ("scalar", (3, 13)), ("scalar", (4, 11)), ("array", (3, 15)),
                     ("array", (2, 32)), ("scalar", (1, 1000)), ("scalar", (999, 1000))]


def test_min_distance_reads_mds_distance_from_minors(monkeypatch, f4, f7):
    # C(n, k) <= (q^k - 1)/(q - 1) in every shape: an MDS code gets
    # d = n - k + 1 from the minor pass, and only a non-MDS code is enumerated
    enumerated = []
    min_weight = kernels.min_weight

    def spy(code):
        enumerated.append(code)
        return min_weight(code)

    monkeypatch.setattr(kernels, "min_weight", spy)
    rng = SplitMix64(37)
    f8, f9, f11 = make_extension_field(2, 3), make_extension_field(3, 2), make_prime_field(11)
    cases = [(f7, EX1_ROWS)] + [(spec, _grs_rows(spec, k, n, rng)) for spec, k, n in
                                [(f7, 3, 6), (f9, 3, 6), (f4, 2, 3), (f8, 2, 4), (f11, 2, 5)]]
    for spec, rows in cases:
        k, n = len(rows), len(rows[0])
        assert comb(n, k) <= (spec.order ** k - 1) // (spec.order - 1)
        for breaks in (False, True):
            g = [list(r) for r in rows]
            if breaks:  # a multiple of column 0 in column n - 1
                c = 1 + rng.below(spec.order - 1)
                for r in g:
                    r[n - 1] = spec.mul_code(r[0], c)
            code = LinearCode(FieldMatrix(spec, g))
            assert min_distance(code) == oracle_min_distance(code)
            assert (code.d == n - k + 1) != breaks
            assert (enumerated[-1:] == [code]) == breaks


def test_min_distance_enumerates_when_minors_outnumber_points(monkeypatch, f7):
    # GRS[6,2] over F_7: C(6, 2) = 15 minors against 8 projective points
    def refuse(*args):
        raise AssertionError("minor pass run")

    monkeypatch.setattr(codes, "singular_minor", refuse)
    code = grs_generator(f7, 6, 2)
    assert min_distance(code) == 5 == oracle_min_distance(code)


# scalings and sandwiches ---------------------------------------------------------


def test_scale_by_one_is_identity(example1):
    g = example1.generator
    assert scale_row(g, 1, 1) == g
    assert scale_col(g, 5, 1) == g


def test_scale_roundtrip(f7, example1):
    g = example1.generator
    c = f7.element(4)
    assert scale_row(scale_row(g, 2, c), 2, c.inv()) == g
    assert scale_col(scale_col(g, 7, c), 7, c.inv()) == g


def test_scalings_preserve_mds(f7, example1):
    rng = SplitMix64(14)
    g = example1.generator
    for j in range(8):
        c = 1 + rng.below(6)
        assert is_mds(LinearCode(scale_col(g, j, c)))
    for i in range(3):
        c = 1 + rng.below(6)
        assert is_mds(LinearCode(scale_row(g, i, c)))


def test_scalars_must_be_integers(example1):
    # a float scalar is not truncated into some other element's code
    g = example1.generator
    with pytest.raises(TypeError):
        scale_row(g, 0, 2.7)
    with pytest.raises(TypeError):
        scale_col(g, 0, 2.7)
    assert scale_row(g, 0, np.int64(2)) == scale_row(g, 0, 2)


def test_scale_validation(example1):
    g = example1.generator
    with pytest.raises(ZeroScalar):
        scale_row(g, 0, 0)
    with pytest.raises(ZeroScalar):
        scale_col(g, 0, 0)
    with pytest.raises(IndexOutOfRange):
        scale_row(g, 3, 1)
    with pytest.raises(IndexOutOfRange):
        scale_col(g, 8, 1)


def test_sandwich_with_identities(example1):
    g = example1.generator
    assert monomial_sandwich(g, [1, 1, 1], [1] * 8) == g


def test_sandwich_entrywise_formula(f7, example1):
    g = example1.generator
    left = [2, 3, 5]
    right = [1, 2, 3, 4, 5, 6, 1, 2]
    out = monomial_sandwich(g, left, right)
    for i in range(3):
        for j in range(8):
            expect = f7.mul_code(left[i], f7.mul_code(int(g.codes[i, j]), right[j]))
            assert int(out.codes[i, j]) == expect


def test_sandwich_preserves_mds(f7, example1):
    rng = SplitMix64(15)
    g = example1.generator
    for _ in range(10):
        left = [1 + rng.below(6) for _ in range(3)]
        right = [1 + rng.below(6) for _ in range(8)]
        assert is_mds(LinearCode(monomial_sandwich(g, left, right)))


def test_sandwich_reads_the_codes_of_dh_diagonals(monkeypatch, example1, f49, f343):
    g = lift(example1, sample_dh(f343, 8, 2)).generator
    m1, m2 = sample_dh(f343, 3, 3), sample_dh(f343, 8, 4)
    want = monomial_sandwich(g, list(m1.codes), list(m2.codes))
    calls = []
    init = FieldElement.__init__
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda self, spec, code: calls.append(code) or init(self, spec, code))
    assert monomial_sandwich(g, m1, m2) == want
    assert calls == []
    with pytest.raises(FieldMismatch, match=r"F_7\^2 element used in F_7\^3"):
        monomial_sandwich(g, sample_dh(f49, 3, 3), m2)


def test_sandwich_validation(example1):
    g = example1.generator
    with pytest.raises(ZeroDiagonalEntry):
        monomial_sandwich(g, [1, 0, 1], [1] * 8)
    with pytest.raises(ZeroDiagonalEntry):
        monomial_sandwich(g, [1, 1, 1], [0] * 8)
    with pytest.raises(DimensionMismatch):
        monomial_sandwich(g, [1, 1], [1] * 8)
    with pytest.raises(DimensionMismatch):
        monomial_sandwich(g, [1, 1, 1], [1] * 7)


def test_code_repr_and_params_show_the_distance_once_computed(example1):
    assert (example1.params(), repr(example1)) == ("[8,3,?]", "LinearCode([8,3,?] over F_7)")
    min_distance(example1)
    assert (example1.params(), repr(example1)) == ("[8,3,6]", "LinearCode([8,3,6] over F_7)")
