from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdslift.errors import (
    CharacteristicMismatch,
    DimensionMismatch,
    FieldMismatch,
    IndexOutOfRange,
    LeadingBlockSingular,
    NotSquare,
    NotStrictlyIncreasing,
    RankDeficient,
    Singular,
)
from mdslift.codes import LinearCode, monomial_sandwich, scale_col, scale_row
from mdslift.erasure import erasure_encode
from mdslift.field import FieldSpec, make_extension_field, make_prime_field
from mdslift.lifting import lift, sample_dh
from mdslift import matrix
from mdslift.matrix import (
    FieldMatrix,
    diag_product,
    embed_matrix,
    is_nonsingular,
    mat_mul,
    rank,
    row_reduce,
    solve,
    submatrix,
    to_systematic,
    vec_mat_mul,
)
from mdslift.rng import SplitMix64
from oracles import oracle_mat_mul, oracle_rank, oracle_systematic

EX1_ROWS = [
    [1, 0, 0, 6, 4, 2, 5, 3],
    [0, 1, 0, 3, 1, 5, 1, 3],
    [0, 0, 1, 3, 5, 2, 4, 6],
]


def _random_matrix(spec, rows, cols, rng):
    data = [[rng.below(spec.order) for _ in range(cols)] for _ in range(rows)]
    return _as_matrix(spec, data, rows, cols)


def _as_matrix(spec, data, rows, cols):
    return FieldMatrix(spec, np.array(data, dtype=np.int64).reshape(rows, cols))


def _random_nonsingular(spec, n, rng):
    while True:
        m = _random_matrix(spec, n, n, rng)
        if rank(m) == n:
            return m


@pytest.fixture()
def ex1_matrix(f7):
    return FieldMatrix.from_rows(f7, EX1_ROWS)


# construction -----------------------------------------------------------------


def test_from_rows_mixed_entries(f7):
    m = FieldMatrix.from_rows(f7, [[1, f7.element(2)], [f7.element(3), 4]])
    assert m.to_lists() == [[1, 2], [3, 4]]


def test_from_rows_rejects_foreign_elements(f7, f343):
    with pytest.raises(FieldMismatch):
        FieldMatrix.from_rows(f7, [[f343.one()]])


def test_entry_codes_validated(f7):
    with pytest.raises(ValueError):
        FieldMatrix(f7, np.array([[7]], dtype=np.int64))


def test_non_integer_codes_are_rejected(f7):
    # a float is not truncated into some other element's code
    with pytest.raises(TypeError):
        FieldMatrix(f7, np.array([[1.9, 2.2]]))
    with pytest.raises(TypeError):
        FieldMatrix.from_rows(f7, [[2.7, 1]])
    with pytest.raises(TypeError):
        FieldMatrix.diagonal(f7, [1.5])
    assert FieldMatrix(f7, np.zeros((0, 3))).shape == (0, 3)
    assert FieldMatrix.from_rows(f7, [[np.int64(3), 1]]).to_lists() == [[3, 1]]


def test_ragged_rows_are_a_dimension_mismatch(f7):
    with pytest.raises(DimensionMismatch):
        FieldMatrix.from_rows(f7, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        FieldMatrix(f7, [[1], [2, 3]])
    with pytest.raises(DimensionMismatch):
        FieldMatrix(f7, np.array([1, 2]))


def test_codes_are_read_only(f7, ex1_matrix):
    with pytest.raises(ValueError):
        ex1_matrix.codes[0, 0] = 5


def test_matrix_owns_its_codes(f7):
    # the matrix copies the caller's array: later writes to that array do
    # not reach it, and the array stays writable
    base = np.array([[1, 2, 3]])
    m = FieldMatrix(f7, base[:, :2])
    base[0, 0] = 9
    assert m.to_lists() == [[1, 2]]
    a = np.array([[1, 2]], dtype=np.int64)
    FieldMatrix(f7, a)
    a[0, 0] = 3
    assert a.tolist() == [[3, 2]]


def test_identity_zeros_diagonal(f7):
    assert FieldMatrix.identity(f7, 3).to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert FieldMatrix.zeros(f7, 2, 3).to_lists() == [[0, 0, 0], [0, 0, 0]]
    assert FieldMatrix.zeros(f7, 0, 3).shape == (0, 3)
    for bad in (lambda: FieldMatrix.zeros(f7, -1, 3), lambda: FieldMatrix.identity(f7, -2)):
        with pytest.raises(ValueError):
            bad()
    d = FieldMatrix.diagonal(f7, [f7.element(2), 5])
    assert d.to_lists() == [[2, 0], [0, 5]]


def test_indexing_and_views(f7, ex1_matrix):
    assert ex1_matrix[0, 3].code == 6
    assert [e.code for e in ex1_matrix.row(1)] == EX1_ROWS[1]
    assert [e.code for e in ex1_matrix.col(3)] == [6, 3, 3]
    assert ex1_matrix.transpose().shape == (8, 3)
    assert ex1_matrix.transpose().transpose() == ex1_matrix


# multiplication ---------------------------------------------------------------


def _selection(spec, picks, n):
    # rows of the n x n identity at ``picks``: left factor of a row selection
    return _as_matrix(spec, [[int(j == i) for j in range(n)] for i in picks], len(picks), n)


@pytest.mark.parametrize("name", ["f7", "f343", "f2401", "f2_17"])
def test_row_ops_match_oracle_products(name, request):
    # f2401: table path at t = 4; f2_17: the polynomial path
    spec = make_extension_field(7, 4) if name == "f2401" else request.getfixturevalue(name)
    rng = SplitMix64(23)

    def nonzero(n):
        return [1 + rng.below(spec.order - 1) for _ in range(n)]

    for r, c in [(0, 3), (3, 0), (0, 0), (1, 1), (2, 5), (4, 3)]:
        a = _random_matrix(spec, r, c, rng)
        codes = a.codes
        assert codes.shape == (r, c) and codes.dtype == np.int64
        assert codes.tolist() == a.to_lists() and codes.flags.c_contiguous
        with pytest.raises(ValueError):
            codes[...] = 0
        for s in range(4):
            b = _random_matrix(spec, c, s, rng)
            assert mat_mul(a, b).to_lists() == oracle_mat_mul(a, b)
        v = [spec.from_code(rng.below(spec.order)) for _ in range(r)]
        assert [e.code for e in vec_mat_mul(v, a)] == oracle_mat_mul(
            FieldMatrix.from_rows(spec, [v]), a)[0]
        left, right = nonzero(r), nonzero(c)
        both = _as_matrix(spec, oracle_mat_mul(FieldMatrix.diagonal(spec, left), a), r, c)
        both = oracle_mat_mul(both, FieldMatrix.diagonal(spec, right))
        assert diag_product(left, a, right).to_lists() == both
        assert monomial_sandwich(a, left, right).to_lists() == both
        assert diag_product(None, a, right).to_lists() == oracle_mat_mul(
            a, FieldMatrix.diagonal(spec, right))
        x = nonzero(1)[0]
        for i in range(r):
            scale = FieldMatrix.diagonal(spec, [x if y == i else 1 for y in range(r)])
            assert scale_row(a, i, x).to_lists() == oracle_mat_mul(scale, a)
        for j in range(c):
            scale = FieldMatrix.diagonal(spec, [x if y == j else 1 for y in range(c)])
            assert scale_col(a, j, x).to_lists() == oracle_mat_mul(a, scale)
        rows = sorted(rng.sample(range(r), r // 2))
        cols = sorted(rng.sample(range(c), (c + 1) // 2))
        picked = _as_matrix(spec, oracle_mat_mul(_selection(spec, rows, r), a), len(rows), c)
        assert submatrix(a, rows, cols).to_lists() == oracle_mat_mul(
            picked, _selection(spec, cols, c).transpose())
        t = a.transpose()
        assert t.shape == (c, r) and t.codes.shape == (c, r)
        assert t.to_lists() == oracle_mat_mul(FieldMatrix.identity(spec, c),
                                              FieldMatrix(spec, codes.T))
    # lift: embed the prime-field generator, then scale by the diagonal
    base_spec = make_prime_field(spec.p)
    for k, n in [(1, 3), (2, 5), (3, 6)]:
        while True:
            g = _random_matrix(base_spec, k, n, rng)
            if rank(g) == k:
                break
        m = sample_dh(spec, n, rng.below(1 << 30))
        embedded = FieldMatrix.from_rows(spec, [[spec.embed(e) for e in g.row(i)]
                                                for i in range(k)])
        assert lift(LinearCode(g), m).generator.to_lists() == oracle_mat_mul(
            embedded, m.as_matrix())



def test_mat_mul_identity(f7):
    rng = SplitMix64(1)
    a = _random_matrix(f7, 3, 8, rng)
    assert mat_mul(a, FieldMatrix.identity(f7, 8)) == a
    assert mat_mul(FieldMatrix.identity(f7, 3), a) == a


@pytest.mark.parametrize("p,t", [(7, 1), (2, 2), (7, 3)])
def test_mat_mul_associative(p, t):
    spec = make_prime_field(p) if t == 1 else make_extension_field(p, t)
    rng = SplitMix64(2)
    for _ in range(20):
        a = _random_matrix(spec, 2, 3, rng)
        b = _random_matrix(spec, 3, 4, rng)
        c = _random_matrix(spec, 4, 2, rng)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_mat_mul_diagonal_scales_columns(f7, ex1_matrix):
    d = FieldMatrix.diagonal(f7, [2, 3, 4, 5, 6, 1, 2, 3])
    prod = mat_mul(ex1_matrix, d)
    for j, c in enumerate([2, 3, 4, 5, 6, 1, 2, 3]):
        expect = [f7.mul_code(v, c) for v in [r[j] for r in EX1_ROWS]]
        assert [e.code for e in prod.col(j)] == expect


def test_mat_mul_shape_and_field_errors(f7, f343):
    a = FieldMatrix.identity(f7, 3)
    with pytest.raises(DimensionMismatch):
        mat_mul(a, FieldMatrix.identity(f7, 4))
    with pytest.raises(FieldMismatch):
        mat_mul(a, FieldMatrix.identity(f343, 3))


def test_vec_mat_mul_unit_vectors(f7, ex1_matrix):
    for i in range(3):
        v = [f7.element(1 if j == i else 0) for j in range(3)]
        assert [e.code for e in vec_mat_mul(v, ex1_matrix)] == EX1_ROWS[i]
    with pytest.raises(DimensionMismatch):
        vec_mat_mul([f7.one()], ex1_matrix)


def test_products_transpose_no_matrix(monkeypatch, f343):
    # a product is a sum of rows of its right factor, read as they are
    calls = []
    real = FieldMatrix.transpose
    monkeypatch.setattr(FieldMatrix, "transpose", lambda m: calls.append(m) or real(m))
    rng = SplitMix64(5)
    a, b = _random_matrix(f343, 3, 8, rng), _random_matrix(f343, 8, 4, rng)
    v = [f343.from_code(rng.below(f343.order)) for _ in range(3)]
    assert [e.code for e in vec_mat_mul(v, a)] == oracle_mat_mul(
        FieldMatrix.from_rows(f343, [v]), a)[0]
    assert mat_mul(a, b).to_lists() == oracle_mat_mul(a, b)
    assert calls == []


# rank -------------------------------------------------------------------------


def test_rank_identity_and_zero(f7):
    assert rank(FieldMatrix.identity(f7, 5)) == 5
    assert rank(FieldMatrix.zeros(f7, 4, 6)) == 0


def test_rank_of_reference_generator(ex1_matrix):
    assert rank(ex1_matrix) == 3


def test_rank_invariant_under_embedding(f7, f343):
    rng = SplitMix64(3)
    for _ in range(100):
        a = _random_matrix(f7, rng.below(3) + 1, rng.below(4) + 1, rng)
        assert rank(embed_matrix(a, f343)) == rank(a)


# submatrix --------------------------------------------------------------------


def test_submatrix_full_and_single(f7, ex1_matrix):
    assert submatrix(ex1_matrix, [0, 1, 2], list(range(8))) == ex1_matrix
    one = submatrix(FieldMatrix.identity(f7, 3), [0], [0])
    assert one.to_lists() == [[1]]


def test_submatrix_middle_columns(ex1_matrix):
    block = submatrix(ex1_matrix, [0, 1, 2], [3, 4, 5])
    assert block.to_lists()[0] == [6, 4, 2]


def test_submatrix_index_validation(ex1_matrix):
    with pytest.raises(NotStrictlyIncreasing):
        submatrix(ex1_matrix, [0, 0], [0])
    with pytest.raises(NotStrictlyIncreasing):
        submatrix(ex1_matrix, [0], [3, 1])
    with pytest.raises(IndexOutOfRange):
        submatrix(ex1_matrix, [0], [8])
    with pytest.raises(IndexOutOfRange):
        submatrix(ex1_matrix, [-1], [0])


# nonsingularity and solve -------------------------------------------------------


def test_is_nonsingular_basics(f7, f343):
    assert is_nonsingular(FieldMatrix.identity(f7, 4))
    w = f343.generator_w
    assert is_nonsingular(FieldMatrix.diagonal(f343, [w, w ** 2, w ** 3]))
    zero_row = FieldMatrix.from_rows(f7, [[1, 2], [0, 0]])
    assert not is_nonsingular(zero_row)
    with pytest.raises(NotSquare):
        is_nonsingular(FieldMatrix.zeros(f7, 2, 3))


def test_solve_identity_returns_rhs(f7):
    b = [f7.element(v) for v in [3, 1, 4]]
    assert solve(FieldMatrix.identity(f7, 3), b) == b


@pytest.mark.parametrize("p,t", [(7, 1), (7, 3)])
def test_solve_roundtrip(p, t):
    spec = make_prime_field(p) if t == 1 else make_extension_field(p, t)
    rng = SplitMix64(4)
    for _ in range(100):
        n = rng.below(4) + 1
        a = _random_nonsingular(spec, n, rng)
        x = [spec.from_code(rng.below(spec.order)) for _ in range(n)]
        b = vec_mat_mul(x, a.transpose())  # a @ x as column product
        assert solve(a, b) == x


def test_solve_rejects_singular_and_misshapen(f7):
    sing = FieldMatrix.from_rows(f7, [[1, 2], [2, 4]])
    with pytest.raises(Singular):
        solve(sing, [f7.one(), f7.one()])
    with pytest.raises(NotSquare):
        solve(FieldMatrix.zeros(f7, 2, 3), [f7.one(), f7.one()])
    with pytest.raises(DimensionMismatch):
        solve(FieldMatrix.identity(f7, 2), [f7.one()])


# embedding --------------------------------------------------------------------


def test_embed_matrix_preserves_codes(f7, f343, ex1_matrix):
    up = embed_matrix(ex1_matrix, f343)
    assert up.spec is f343
    assert np.array_equal(up.codes, ex1_matrix.codes)
    assert np.array_equal(embed_matrix(FieldMatrix.zeros(f7, 2, 2), f343).codes,
                          np.zeros((2, 2), dtype=np.int64))


def test_embed_matrix_source_checks(f2, f49, f343, ex1_matrix):
    with pytest.raises(CharacteristicMismatch):
        embed_matrix(FieldMatrix.identity(f2, 2), f343)
    with pytest.raises(FieldMismatch):
        embed_matrix(FieldMatrix.identity(f49, 2), f343)


# systematization --------------------------------------------------------------


def test_to_systematic_idempotent(ex1_matrix):
    assert to_systematic(ex1_matrix) == ex1_matrix


def test_to_systematic_undoes_row_scaling(f7, ex1_matrix):
    scaled = FieldMatrix(f7, np.array(
        [[f7.mul_code(3, v) for v in row] for row in EX1_ROWS], dtype=np.int64))
    assert to_systematic(scaled) == ex1_matrix


def test_to_systematic_preserves_row_space(f7):
    rng = SplitMix64(5)
    for _ in range(25):
        m = _random_matrix(f7, 3, 6, rng)
        if rank(m) < 3 or rank(submatrix(m, [0, 1, 2], [0, 1, 2])) < 3:
            continue
        s = to_systematic(m)
        stacked = FieldMatrix(f7, np.vstack([m.codes, s.codes]))
        assert rank(stacked) == 3


def test_to_systematic_failure_modes(f7):
    with pytest.raises(RankDeficient):
        to_systematic(FieldMatrix.from_rows(f7, [[1, 2, 3], [2, 4, 6]]))
    with pytest.raises(LeadingBlockSingular):
        # full rank, but the leading 2x2 block is singular
        to_systematic(FieldMatrix.from_rows(f7, [[1, 1, 0], [2, 2, 1]]))


# the cached reduced row-echelon form ------------------------------------------


def _bases(f7):
    """The reference generator, one with pivot columns (0, 2, 3), and one of
    rank 2 in three rows, each with its RREF cached."""
    late = FieldMatrix.from_rows(f7, [[2, 4, 1, 0, 3, 5], [1, 2, 4, 1, 0, 6], [0, 0, 3, 2, 2, 1]])
    low = FieldMatrix.from_rows(f7, [[1, 2, 3, 4], [2, 4, 6, 1], [0, 0, 0, 3]])
    bases = [FieldMatrix.from_rows(f7, EX1_ROWS), late, low]
    assert [b.rref()[1] for b in bases] == [(0, 1, 2), (0, 2, 3), (0, 3)]
    return bases


def _assert_carried_rref(m):
    """m carries an RREF, whose pending scaling applied gives a fresh
    row_reduce and, for full rank with leading pivots, the Cramer's-rule
    oracle."""
    assert m._rref is not None
    carried = m.rref()
    rows = [list(r) for r in m.to_lists()]
    pivots = row_reduce(rows, m.spec)
    assert carried == (tuple(map(tuple, rows)), tuple(pivots))
    if tuple(pivots) == tuple(range(m.rows)):
        assert FieldMatrix._of(m.spec, carried[0], m.shape) == oracle_systematic(m)


def test_rref_is_carried_by_scalings_and_embedding(f7, f343):
    rng = SplitMix64(59)
    for base in _bases(f7):
        k, n = base.shape
        d = [1 + rng.below(342) for _ in range(n)]
        left = [1 + rng.below(342) for _ in range(k)]
        up = embed_matrix(base, f343)
        products = [up, diag_product(None, up, d), diag_product(left, up, d),
                    scale_row(base, k - 1, 3), scale_col(base, 1, 5), scale_col(up, n - 1, d[0]),
                    monomial_sandwich(up, left, d),
                    # scalings of a scaled matrix compose their pending scales
                    diag_product(None, diag_product(None, up, d), d[::-1]),
                    scale_row(scale_col(diag_product(left, up, d), 0, 6), 0, 2)]
        for m in products:
            _assert_carried_rref(m)
    lifted = lift(LinearCode(FieldMatrix.from_rows(f7, EX1_ROWS)), sample_dh(f343, 8, 3))
    _assert_carried_rref(lifted.generator)


def test_rref_is_not_carried_through_zero_scalings(f7):
    base = FieldMatrix.from_rows(f7, EX1_ROWS)
    base.rref()
    assert diag_product(None, base, [1, 0, 1, 1, 1, 1, 1, 1])._rref is None
    assert diag_product([1, 0, 1], base, [1] * 8)._rref is None
    fresh = FieldMatrix.from_rows(f7, EX1_ROWS)
    assert diag_product(None, fresh, [2] * 8)._rref is None  # nothing cached to carry


def test_rank_and_systematic_form_read_the_cache(monkeypatch, f7):
    base = _bases(f7)[1]
    calls = []
    monkeypatch.setattr(matrix, "row_reduce", lambda *a: calls.append(a))
    assert rank(base) == 3
    with pytest.raises(LeadingBlockSingular, match=r"pivot columns \[0, 2, 3\]"):
        to_systematic(base)
    assert calls == []


# a pending column scale --------------------------------------------------------


def _lift_target(name, request):
    """F_2401, or F_7^6 in a spec of its own with no log tables, whose
    products run on polynomials; else the fixture of that name."""
    if name == "f2401":
        return make_extension_field(7, 4)
    if name == "f7_6_untabled":
        f = make_extension_field(7, 6)
        spec = FieldSpec(7, 6, f.modulus, f.generator_w.code)
        assert spec._scalar_log() is None
        return spec
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["f49", "f343", "f2401", "f7_6_untabled"])
def test_a_pending_column_scale_reads_as_the_product(name, request, f7):
    spec = _lift_target(name, request)
    d = sample_dh(spec, 8, 15).codes
    want = FieldMatrix.from_rows(spec, oracle_mat_mul(
        embed_matrix(FieldMatrix.from_rows(f7, EX1_ROWS), spec), FieldMatrix.diagonal(spec, d)))

    def pending(carry):
        # a fresh one for each read: the first read of the rows scales them
        up = embed_matrix(FieldMatrix.from_rows(f7, EX1_ROWS), spec)
        if carry:
            up.rref()
        m = diag_product(None, up, d)
        assert m._data == (up._data[0], d) and (m._rref is not None) is carry
        return m

    rng = SplitMix64(61)
    right, left = _random_matrix(spec, 8, 2, rng), _random_matrix(spec, 2, 3, rng)
    v = [spec.from_code(1 + rng.below(spec.order - 1)) for _ in range(3)]
    encoded = oracle_mat_mul(FieldMatrix.from_rows(spec, [v]), oracle_systematic(want))[0]
    for carry in (False, True):
        assert pending(carry) == want and want == pending(carry)
        assert pending(carry).codes.tolist() == want.to_lists()
        assert pending(carry).transpose().to_lists() == [list(c) for c in zip(*want.to_lists())]
        assert submatrix(pending(carry), [0, 2], [1, 3, 6]).to_lists() == [
            [want.to_lists()[i][j] for j in (1, 3, 6)] for i in (0, 2)]
        assert pending(carry).rref() == want.rref()
        assert to_systematic(pending(carry)) == oracle_systematic(want)
        assert mat_mul(pending(carry), right).to_lists() == oracle_mat_mul(want, right)
        assert mat_mul(left, pending(carry)).to_lists() == oracle_mat_mul(left, want)
        assert [e.code for e in vec_mat_mul(v, pending(carry))] == oracle_mat_mul(
            FieldMatrix.from_rows(spec, [v]), want)[0]
        assert [e.code for e in erasure_encode(LinearCode(pending(carry)), v)] == encoded
    m = pending(True)
    assert m.to_lists() == want.to_lists() and m._data[1] is None  # scaled once, then kept


def test_scalings_of_a_lifted_generator(f7, f343):
    base = LinearCode(FieldMatrix.from_rows(f7, EX1_ROWS))
    m = sample_dh(f343, 8, 4)
    explicit = FieldMatrix.from_rows(f343, oracle_mat_mul(embed_matrix(base.generator, f343),
                                                          m.as_matrix()))

    def lifted():
        g = lift(base, m).generator
        assert g._data[1] == m.codes  # its scaling still pending
        return g

    def times(a, b):
        return FieldMatrix.from_rows(f343, oracle_mat_mul(a, b))

    def diag(codes):
        return FieldMatrix.diagonal(f343, codes)

    left, right = [5, 200, 17], [3, 5, 9, 1, 342, 2, 7, 49]
    with_zero = [0, 5, 9, 1, 342, 0, 7, 49]
    assert scale_row(lifted(), 1, 5) == times(diag([1, 5, 1]), explicit)
    assert scale_col(lifted(), 6, 5) == times(explicit, diag([1, 1, 1, 1, 1, 1, 5, 1]))
    assert monomial_sandwich(lifted(), left, right) == times(times(diag(left), explicit),
                                                             diag(right))
    for d in (right, with_zero):
        product = diag_product(None, lifted(), d)
        assert (product._rref is None) is (0 in d)
        assert product == times(explicit, diag(d))
    twice = diag_product(None, diag_product(None, lifted(), with_zero), right)
    assert twice._rref is None
    assert twice == times(times(explicit, diag(with_zero)), diag(right))
    assert rank(twice) == oracle_rank(times(times(explicit, diag(with_zero)), diag(right))) == 3


# equality ---------------------------------------------------------------------


@given(st.integers(0, 6))
@settings(max_examples=20, deadline=None)
def test_equality_is_structural(v):
    f7 = make_prime_field(7)
    a = FieldMatrix.from_rows(f7, [[v, 1], [2, 3]])
    b = FieldMatrix.from_rows(f7, [[v, 1], [2, 3]])
    assert a == b
    assert a != FieldMatrix.from_rows(f7, [[(v + 1) % 7, 1], [2, 3]])
