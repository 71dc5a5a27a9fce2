from __future__ import annotations

import itertools
import time

import numpy as np
import pytest

from mdslift import codes
from mdslift.codes import LinearCode, grs_generator, is_mds, min_distance, singular_minor
from mdslift.errors import (
    CharacteristicMismatch,
    DegreeTooSmall,
    DimensionMismatch,
    EmptyDiagonal,
    FieldMismatch,
    FieldTooSmall,
    LeadingBlockSingular,
    NotDh,
    NotPrime,
    ZeroDiagonalEntry,
)
from mdslift.field import FieldElement, FieldSpec, make_extension_field, make_prime_field
from mdslift.lifting import (
    DhDiagonal,
    diversity_count,
    is_dh,
    l_statistic,
    lift,
    sample_dh,
    verify_lift,
)
from mdslift import matrix
from mdslift.matrix import FieldMatrix, diag_product, embed_matrix, mat_mul, to_systematic
from mdslift.rng import SplitMix64
from oracles import oracle_binomial, oracle_singular_minor


# l statistic ------------------------------------------------------------------


def test_l_statistic_counts_max_multiplicity(f4):
    w = f4.generator_w
    assert l_statistic([w, w * w, f4.one()]) == 1
    assert l_statistic([w, w, f4.one()]) == 2
    assert l_statistic([w] * 5) == 5


def test_l_statistic_rejects_empty():
    with pytest.raises(EmptyDiagonal):
        l_statistic([])


def test_dh_diagonal_invariants(f4, f343):
    w = f4.generator_w
    a = DhDiagonal(f4, [w, w * w, f4.one()])
    assert is_dh(a) and a.l_value == l_statistic(a.diag) == 1
    b = DhDiagonal(f4, [w, w, f4.one()])
    assert not is_dh(b) and b.l_value == 2
    assert is_dh(DhDiagonal(f343, [f343.generator_w]))  # n = 1
    with pytest.raises(ZeroDiagonalEntry):
        DhDiagonal(f4, [w, f4.zero()])
    with pytest.raises(EmptyDiagonal):
        DhDiagonal(f4, [])


def test_dh_diagonal_entries_must_be_integers(f343):
    # a float entry is not truncated into some other element's code
    with pytest.raises(TypeError):
        DhDiagonal(f343, [2.7, 3, 4])
    assert [e.code for e in DhDiagonal(f343, [np.int64(2), 3, 4]).diag] == [2, 3, 4]


def test_dh_diagonal_as_matrix(f4):
    w = f4.generator_w
    m = DhDiagonal(f4, [w, f4.one()]).as_matrix()
    assert m.to_lists() == [[w.code, 0], [0, 1]]


def test_dh_diagonal_keeps_the_codes_of_any_integer_entry(f343):
    for want in ((5, 9, 1), (5, 9, 5, 5)):
        forms = [DhDiagonal(f343, entries) for entries in
                 (list(want), [f343.from_code(c) for c in want], [np.int64(c) for c in want])]
        for m in forms:
            assert m.codes == want and {type(c) for c in m.codes} == {int}
            assert m.diag == tuple(f343.from_code(c) for c in want)
            assert m.l_value == l_statistic(m.diag) == max(map(want.count, want))
            assert m == forms[0] and m.n == len(want)


def test_dh_diagonal_input_errors(f49, f343):
    # the entries are read in order, each checked before the next one
    for entries, error, message in [
        ([2.7, 3], TypeError, "'float' object cannot be interpreted as an integer"),
        ([5, 343], ValueError, "code 343 out of range for F_7^3"),
        ([400, 2.7], ValueError, "code 400 out of range for F_7^3"),
        ([5, 0], ZeroDiagonalEntry, "diagonal entries must be nonzero"),
        ([f343.zero(), 3], ZeroDiagonalEntry, "diagonal entries must be nonzero"),
        ([], EmptyDiagonal, "l statistic of an empty diagonal"),
        ([f49.from_code(5), 1], FieldMismatch, "F_7^2 element used in F_7^3"),
    ]:
        with pytest.raises(error) as exc:
            DhDiagonal(f343, entries)
        assert type(exc.value) is error and str(exc.value) == message


# sampling ---------------------------------------------------------------------


def test_sample_dh_is_deterministic(f343):
    assert sample_dh(f343, 8, 123) == sample_dh(f343, 8, 123)
    assert sample_dh(f343, 8, 123) != sample_dh(f343, 8, 124)


def test_sample_dh_draws_distinct_nonzero(f343):
    for seed in range(20):
        d = sample_dh(f343, 8, seed)
        codes = [e.code for e in d.diag]
        assert len(set(codes)) == 8
        assert all(0 < c < 343 for c in codes)
        assert d.l_value == 1


def test_sample_dh_exhausts_tiny_fields(f4):
    assert sorted(e.code for e in sample_dh(f4, 3, 77).diag) == [1, 2, 3]
    with pytest.raises(FieldTooSmall):
        sample_dh(f4, 4, 0)


def test_sample_dh_equals_the_checked_diagonal(f16, f49, f343):
    # sample_dh keeps its drawn codes unchecked; the checked constructor on
    # the same codes gives the same diagonal, n = q - 1 included
    f7_6 = make_extension_field(7, 6)
    for spec, sizes in ((f16, (1, 8, 15)), (f49, (8, 48)), (f343, (8, 342)), (f7_6, (8, 60))):
        for n in sizes:
            for seed in range(3):
                m = sample_dh(spec, n, seed)
                checked = DhDiagonal(spec, list(m.codes))
                assert m.codes == checked.codes and {type(c) for c in m.codes} == {int}
                assert m.l_value == checked.l_value == 1 and m == checked
                assert m.spec is spec and m.n == n
    assert sorted(sample_dh(f16, 15, 4).codes) == list(range(1, 16))


def test_sample_dh_size_errors(f16, f343):
    for spec in (f16, f343):
        with pytest.raises(EmptyDiagonal, match="l statistic of an empty diagonal"):
            sample_dh(spec, 0, 1)
        with pytest.raises(DimensionMismatch, match="^n=-1 is negative$"):
            sample_dh(spec, -1, 1)
        with pytest.raises(FieldTooSmall):
            sample_dh(spec, spec.order, 1)


# lifting ----------------------------------------------------------------------


def test_lift_scales_embedded_columns(example1, f343):
    m = sample_dh(f343, 8, 5)
    lifted = lift(example1, m)
    assert (lifted.n, lifted.k) == (8, 3)
    assert lifted.spec is f343
    assert lifted.d is None  # preservation is checked, never assumed
    g = example1.generator.codes
    for j in range(8):
        for i in range(3):
            expect = f343.mul_code(int(g[i, j]), m.diag[j].code)
            assert int(lifted.generator.codes[i, j]) == expect


def test_lift_preserves_mds_across_seeds(example1, f343):
    for seed in range(25):
        assert is_mds(lift(example1, sample_dh(f343, 8, seed)))


def test_lift_preserves_distance_where_enumerable(f7, f49):
    base = grs_generator(f7, 6, 2)
    assert min_distance(base) == 5
    for seed in range(5):
        lifted = lift(base, sample_dh(f49, 6, seed))
        assert min_distance(lifted) == 5


def test_lift_equals_the_product_with_the_diagonal_matrix(example1, f49, f343):
    f7_6 = make_extension_field(7, 6)
    # a spec of its own, with no tables built: products run on polynomials
    untabled = FieldSpec(7, 6, f7_6.modulus, f7_6.generator_w.code)
    assert untabled._scalar_log() is None
    for target in (f49, f343, make_extension_field(7, 4), untabled):
        for seed in range(3):
            m = sample_dh(target, 8, seed)
            want = mat_mul(embed_matrix(example1.generator, target), m.as_matrix())
            assert lift(example1, m).generator == want


def test_diag_product_with_a_zero_entry(example1, f343):
    g = embed_matrix(example1.generator, f343)
    right = [0, 5, 9, 1, 342, 0, 7, 49]
    assert diag_product(None, g, right) == mat_mul(g, FieldMatrix.diagonal(f343, right))


def test_sweep_op_builds_no_field_elements(monkeypatch, example1, f343):
    calls = []
    init = FieldElement.__init__
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda self, spec, code: calls.append(code) or init(self, spec, code))
    for seed in range(5):
        m = sample_dh(f343, 8, seed)
        assert is_mds(lift(example1, m))
    assert calls == []
    assert [e.code for e in m.diag] == calls == list(m.codes)  # elements are built on read


def test_sweep_op_scales_no_rows(monkeypatch, example1, f49, f343):
    # the lift leaves its column scale pending, its rank check reads the
    # base's RREF and the minor pass reads that RREF without the scale
    calls = []
    real = matrix._scale_columns
    monkeypatch.setattr(matrix, "_scale_columns", lambda *a: calls.append(a) or real(*a))
    for target in (f49, f343, make_extension_field(7, 4)):
        for seed in range(3):
            lifted = lift(example1, sample_dh(target, 8, seed))
            assert is_mds(lifted)
    assert calls == []
    assert lifted.generator.to_lists() == lifted.generator.to_lists()
    assert len(calls) == 1  # the rows are scaled on their first read, once


def test_array_minor_pass_scales_no_rref(monkeypatch, example1):
    # F_7^6 has no log tables, so is_mds runs the numpy pass, which reads the
    # base's RREF as the lift carries it and leaves the scale pending
    calls = []
    real = matrix._scale_columns
    monkeypatch.setattr(matrix, "_scale_columns", lambda *a: calls.append(a) or real(*a))
    lifted = lift(example1, sample_dh(make_extension_field(7, 6), 8, 15))
    assert is_mds(lifted)
    assert calls == []


def test_each_lift_runs_its_own_minor_pass(monkeypatch, example1, f343):
    seen = []
    real = codes._scalar_first_singular
    monkeypatch.setattr(codes, "_scalar_first_singular", lambda a: seen.append(a) or real(a))
    assert is_mds(example1)
    lifts = [lift(example1, sample_dh(f343, 8, seed)) for seed in range(4)]
    assert all(is_mds(c) for c in lifts)
    assert [id(a) for a in seen] == [id(c.generator) for c in [example1] + lifts]


def test_lifts_of_a_non_mds_base_keep_its_witness(f7, f49, f343):
    # columns 6 and 7 are equal, so every 3-set holding both is singular
    base = LinearCode(FieldMatrix.from_rows(f7, [
        [1, 0, 0, 6, 4, 2, 5, 5],
        [0, 1, 0, 3, 1, 5, 1, 1],
        [0, 0, 1, 3, 5, 2, 4, 4],
    ]))
    witness = oracle_singular_minor(base)
    assert witness == (0, 6, 7)
    for target in (f49, f343):
        for seed in range(3):
            lifted = lift(base, sample_dh(target, 8, seed))
            assert is_mds(lifted) is False
            assert singular_minor(lifted) == oracle_singular_minor(lifted) == witness


def test_minor_plan_is_kept_per_field(example1, f7, f49, f343):
    # embedding shares the RREF rows across fields, whose logs differ; each
    # field must read a plan of its own, however the calls alternate
    non_mds = LinearCode(FieldMatrix.from_rows(f7, [
        [1, 0, 0, 6, 4, 2, 5, 5],
        [0, 1, 0, 3, 1, 5, 1, 1],
        [0, 0, 1, 3, 5, 2, 4, 4],
    ]))
    # a zero in the RREF block: a singular 1 x 1 minor, found by the plan's
    # level-1 pass
    zeroed_rows = example1.generator.codes.tolist()
    zeroed_rows[0][6] = 0
    zeroed = LinearCode(FieldMatrix.from_rows(f7, zeroed_rows))
    for base, want in ((example1, None), (non_mds, (0, 6, 7)),
                       (zeroed, oracle_singular_minor(zeroed))):
        family = [base] + [LinearCode(embed_matrix(base.generator, spec)) for spec in (f49, f343)]
        rows = base.generator.echelon()[0]
        assert all(c.generator.echelon()[0] is rows for c in family)
        for c in family * 3 + family[::-1] * 2:
            assert singular_minor(c) == oracle_singular_minor(c) == want
    lifted = lift(non_mds, sample_dh(f49, 8, 3))
    assert singular_minor(lifted) == oracle_singular_minor(lifted) == (0, 6, 7)


def test_lift_systematize_flag(example1, f343):
    lifted = lift(example1, sample_dh(f343, 8, 9), systematize=True)
    assert lifted.generator.codes[:, :3].tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert is_mds(lifted)


def test_lift_eliminates_nothing(monkeypatch, example1, f343):
    # the base's RREF, cached by its rank check, is carried to the lift, whose
    # own rank check then reads k pivots
    calls = []
    monkeypatch.setattr(matrix, "row_reduce", lambda *a: calls.append(a))
    for seed, systematize in ((1, False), (2, True)):
        lifted = lift(example1, sample_dh(f343, 8, seed), systematize=systematize)
        assert lifted.generator.rref()[1] == (0, 1, 2)
    assert calls == []


def test_lift_systematize_equals_systematic_form_of_the_product(f7, f49):
    # pivots (0, 2, 3): the lift keeps them, so the systematic form is refused
    # with the message of to_systematic on the product itself
    late = LinearCode(FieldMatrix.from_rows(f7, [[2, 4, 1, 0, 3, 5], [1, 2, 4, 1, 0, 6],
                                                 [0, 0, 3, 2, 2, 1]]))
    for base in (grs_generator(f7, 6, 3), late):
        for seed in range(3):
            m = sample_dh(f49, 6, seed)
            fresh = FieldMatrix(f7, base.generator.to_lists())  # no cached RREF
            product = diag_product(None, embed_matrix(fresh, f49), [e.code for e in m.diag])
            assert product._rref is None
            try:
                want = to_systematic(product)
            except LeadingBlockSingular as exc:
                with pytest.raises(LeadingBlockSingular) as got:
                    lift(base, m, systematize=True)
                assert str(got.value) == str(exc) == "pivot columns [0, 2, 3]"
            else:
                assert lift(base, m, systematize=True).generator == want
                assert base is not late


def test_dh_diagonal_reads_l_from_distinct_entries(f4, f343):
    assert DhDiagonal(f343, [5, 9, 1]).l_value == 1
    assert DhDiagonal(f343, [5, 9, 5, 5]).l_value == 3
    assert DhDiagonal(f4, [1]).l_value == 1
    with pytest.raises(EmptyDiagonal):
        DhDiagonal(f4, [])


def test_lift_strictness(example1, f343):
    repeated = DhDiagonal(f343, [5, 5, 1, 2, 3, 4, 6, 7])
    with pytest.raises(NotDh):
        lift(example1, repeated)
    relaxed = lift(example1, repeated, strict_dh=False)
    assert is_mds(relaxed)  # distance survives; only diversity suffers


def test_lift_accepts_prime_field_targets(f7):
    base = grs_generator(f7, 6, 2)
    lifted = lift(base, sample_dh(f7, 6, 2))
    assert lifted.spec is f7
    assert min_distance(lifted) == 5


def test_lift_parameter_errors(example1, f7, f16, f343):
    with pytest.raises(CharacteristicMismatch):
        lift(example1, sample_dh(f16, 8, 0))
    with pytest.raises(DimensionMismatch):
        lift(example1, sample_dh(f343, 7, 0))
    with pytest.raises(FieldTooSmall):
        # 8 columns but only 7 field elements
        lift(example1, DhDiagonal(f7, [1, 2, 3, 4, 5, 6, 1, 2]), strict_dh=False)


# verification -----------------------------------------------------------------


def test_verify_lift_passes_for_real_lifts(f7, f49):
    base = grs_generator(f7, 6, 2)
    lifted = lift(base, sample_dh(f49, 6, 6))
    report = verify_lift(base, lifted)
    assert report.passed
    assert report.n_match and report.k_match and report.lifted_mds
    assert report.d_base == 5 and report.d_lifted == 5
    assert "PASS" in report.summary()


def test_lift_report_is_an_immutable_record(f7, f49):
    report = verify_lift(grs_generator(f7, 6, 2), lift(grs_generator(f7, 6, 2), sample_dh(f49, 6, 6)))
    assert report._fields == ("n_match", "k_match", "lifted_mds", "d_base", "d_lifted", "passed")
    assert repr(report) == ("LiftReport(n_match=True, k_match=True, lifted_mds=True, "
                            "d_base=5, d_lifted=5, passed=True)")
    with pytest.raises(AttributeError):
        report.passed = False
    assert report.summary() == "n_match=True k_match=True lifted_mds=True d_base=5 d_lifted=5 PASS"


def test_verify_lift_flags_corruption(example1, f343):
    lifted = lift(example1, sample_dh(f343, 8, 7))
    g = lifted.generator.codes.copy()
    g[:, 2] = 0
    corrupted = LinearCode(FieldMatrix(f343, g))
    report = verify_lift(example1, corrupted, enum_limit=1 << 10)
    assert not report.passed
    assert not report.lifted_mds


def test_verify_lift_passes_for_lifts_of_non_mds_codes(f7, f49):
    base = LinearCode(FieldMatrix.from_rows(f7, [
        [1, 0, 0, 6, 4, 2, 5, 5],
        [0, 1, 0, 3, 1, 5, 1, 1],
        [0, 0, 1, 3, 5, 2, 4, 4],
    ]))
    lifted = lift(base, sample_dh(f49, 8, 0))
    report = verify_lift(base, lifted)
    assert not report.lifted_mds
    assert report.d_base == report.d_lifted == 5
    assert report.passed
    assert report.summary().endswith("d_base=5 d_lifted=5 PASS")


def test_verify_lift_flags_length_mismatch(f7, f343, example1):
    other = grs_generator(f7, 6, 3)
    lifted = lift(other, sample_dh(f343, 6, 0))
    report = verify_lift(example1, lifted, enum_limit=1 << 10)
    assert not report.passed
    assert not report.n_match


def test_verify_lift_skips_infeasible_enumeration(f343):
    base = grs_generator(make_prime_field(7), 7, 3)
    lifted = lift(base, sample_dh(f343, 7, 0))
    report = verify_lift(base, lifted, enum_limit=1000)
    assert report.passed
    assert report.d_base is None and report.d_lifted is None


# diversity --------------------------------------------------------------------


def test_diversity_small_cases():
    assert diversity_count(2, 2, 3) == 1
    assert diversity_count(7, 1, 6) == 1
    assert diversity_count(2, 3, 7) == 1  # n = p^t - 1, the largest n
    assert diversity_count(7, 3, 8) == oracle_binomial(342, 8)


def test_diversity_matches_oracle_exhaustively():
    for p in (2, 3, 5, 7):
        for t in (1, 2, 3):
            q = p ** t
            if q > 64:
                continue
            for n in range(1, q):
                assert diversity_count(p, t, n) == oracle_binomial(q - 1, n)


def test_diversity_of_n_zero_computes_no_power_of_p():
    # 7^(10^7) has over 8 million digits; C(p^t - 1, 0) = 1 needs none of them
    start = time.perf_counter()
    assert diversity_count(7, 10 ** 7, 0) == 1
    assert time.perf_counter() - start < 1


def test_diversity_parameter_errors():
    with pytest.raises(FieldTooSmall):
        diversity_count(2, 1, 5)
    with pytest.raises(FieldTooSmall, match=r"^need p\^t > n, got 8 <= 8$"):
        diversity_count(2, 3, 8)
    with pytest.raises(FieldTooSmall):
        diversity_count(2, 2, 4)
    with pytest.raises(NotPrime):
        diversity_count(6, 2, 3)
    with pytest.raises(DegreeTooSmall):
        diversity_count(7, 0, 3)


# the generalized closure: any nonzero diagonal preserves MDS --------------------


def test_any_nonzero_diagonal_preserves_mds(example1, f343):
    rng = SplitMix64(21)
    for _ in range(10):
        entries = [1 + rng.below(342) for _ in range(8)]  # repeats allowed
        diag = DhDiagonal(f343, entries)
        assert is_mds(lift(example1, diag, strict_dh=False))


@pytest.mark.parametrize("rows, mds, d", [
    ([[1, 0, 1, 1], [0, 1, 1, 2]], True, 3),  # the tetracode [4,2,3]
    ([[1, 1, 0, 0], [0, 0, 1, 1]], False, 2),  # a [4,2,2] code, not MDS
])
def test_every_nonzero_diagonal_keeps_d(f3, rows, mds, d):
    f9 = make_extension_field(3, 2)
    base = LinearCode(FieldMatrix.from_rows(f3, rows))
    assert (is_mds(base), min_distance(base)) == (mds, d)
    reached, reached_by_dh = set(), set()  # distinct codes, by RREF
    for entries in itertools.product(range(1, 9), repeat=4):  # repeats allowed
        m = DhDiagonal(f9, entries)
        lifted = lift(base, m, strict_dh=False)
        assert (is_mds(lifted), min_distance(lifted)) == (mds, d), entries
        reached.add(lifted.generator.rref())
        if is_dh(m):
            reached_by_dh.add(lifted.generator.rref())
    if mds:  # repeated entries reach more codes than dh diagonals do
        assert (len(reached), len(reached_by_dh)) == (512, 210)
