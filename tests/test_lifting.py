from __future__ import annotations

import numpy as np
import pytest

from mdslift.codes import LinearCode, grs_generator, is_mds, min_distance
from mdslift.errors import (
    CharacteristicMismatch,
    DegreeTooSmall,
    DimensionMismatch,
    EmptyDiagonal,
    FieldTooSmall,
    LeadingBlockSingular,
    NotDh,
    NotPrime,
    ZeroDiagonalEntry,
)
from mdslift.field import make_extension_field, make_prime_field
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
from mdslift.matrix import FieldMatrix, diag_product, embed_matrix, to_systematic
from mdslift.rng import SplitMix64
from oracles import oracle_binomial


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
    assert diversity_count(7, 3, 8) == oracle_binomial(342, 8)


def test_diversity_matches_oracle_exhaustively():
    for p in (2, 3, 5, 7):
        for t in (1, 2, 3):
            q = p ** t
            if q > 64:
                continue
            for n in range(1, q):
                assert diversity_count(p, t, n) == oracle_binomial(q - 1, n)


def test_diversity_parameter_errors():
    with pytest.raises(FieldTooSmall):
        diversity_count(2, 1, 5)
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
