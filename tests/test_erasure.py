from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from mdslift import matrix
from mdslift.codes import LinearCode, grs_generator
from mdslift.erasure import (
    ERASED,
    ErasureWord,
    erase,
    erasure_decode,
    erasure_encode,
)
from mdslift.errors import (
    DimensionMismatch,
    FieldMismatch,
    Inconsistent,
    IndexOutOfRange,
    LeadingBlockSingular,
    Singular,
    TooManyErasures,
)
from mdslift.field import make_extension_field
from mdslift.lifting import lift, sample_dh
from mdslift.matrix import FieldMatrix, row_reduce, to_systematic, vec_mat_mul
from mdslift.rng import SplitMix64


def _random_message(spec, k, rng):
    return [spec.from_code(rng.below(spec.order)) for _ in range(k)]


@pytest.fixture()
def lifted(example1, f343):
    return lift(example1, sample_dh(f343, 8, 31))


def test_word_validation(example1, f7, f343):
    with pytest.raises(DimensionMismatch):
        ErasureWord(example1, [f7.one()] * 7)
    with pytest.raises(FieldMismatch):
        ErasureWord(example1, [f343.one()] + [None] * 7)
    w = ErasureWord(example1, [f7.one(), None] + [f7.zero()] * 6)
    assert w.erased_positions == (1,)
    assert ERASED is None


@pytest.mark.parametrize("bad", [1, 0, 1.0, "w^2", (1,)])
def test_word_symbols_must_be_elements_or_erased(example1, f7, bad):
    # no integer reading: a plain int is refused like any other non-element
    with pytest.raises(TypeError, match="symbol 5"):
        ErasureWord(example1, [f7.one()] * 5 + [bad] + [None] * 2)


def test_encode_is_systematic(f7, example1):
    msg = [f7.element(v) for v in [3, 6, 1]]
    cw = erasure_encode(example1, msg)
    assert cw[:3] == msg
    assert all(s.spec is f7 for s in cw)
    with pytest.raises(DimensionMismatch):
        erasure_encode(example1, msg[:2])


def test_encode_systematizes_nonsystematic_generators(f7):
    # same row space as the systematic form, so encode agrees after RREF
    g = FieldMatrix.from_rows(f7, [[2, 0, 0, 5, 1, 4], [0, 3, 0, 2, 3, 1]])
    code = LinearCode(g)
    msg = [f7.element(4), f7.element(5)]
    cw = erasure_encode(code, msg)
    assert cw[:2] == msg


def test_systematic_form_is_computed_once_per_code(monkeypatch, f7, f343, lifted):
    # the generator is eliminated once, by the rank check at construction;
    # encode and decode read its cached RREF. Calls on rows of n columns are
    # counted, so solve's k x (k + 1) systems are not.
    calls = []

    def counting(rows, spec):
        calls.append(len(rows[0]) if rows else 0)
        return row_reduce(rows, spec)

    monkeypatch.setattr(matrix, "row_reduce", counting)
    # rebuilt from its rows, so the code carries no RREF of its base
    code = LinearCode(FieldMatrix.from_rows(f343, lifted.generator.to_lists()))
    assert calls == [8]
    rng = SplitMix64(5)
    for _ in range(4):
        msg = _random_message(f343, 3, rng)
        cw = erasure_encode(code, msg)
        assert cw == vec_mat_mul(msg, to_systematic(lifted.generator))
        assert erasure_decode(erase(code, cw, [0, 3, 6, 7, 2])) == msg
    assert calls.count(8) == 1
    # a singular leading block raises on every call, from the one elimination
    g = LinearCode(FieldMatrix.from_rows(f7, [[0, 1, 0], [0, 0, 1]]))
    for _ in range(2):
        with pytest.raises(LeadingBlockSingular):
            erasure_encode(g, [f7.one(), f7.one()])
    assert calls.count(3) == 1


def test_erase_marks_positions(f7, example1):
    cw = erasure_encode(example1, [f7.element(1)] * 3)
    word = erase(example1, cw, [0, 5])
    assert word.erased_positions == (0, 5)
    with pytest.raises(IndexOutOfRange):
        erase(example1, cw, [8])


def test_decode_without_erasures(f7, example1):
    msg = [f7.element(v) for v in [2, 0, 5]]
    cw = erasure_encode(example1, msg)
    assert erasure_decode(ErasureWord(example1, cw)) == msg


def test_decode_all_patterns_up_to_capacity(f7, example1):
    rng = SplitMix64(41)
    msg = _random_message(f7, 3, rng)
    cw = erasure_encode(example1, msg)
    for size in range(6):  # n - k = 5
        for pattern in combinations(range(8), size):
            assert erasure_decode(erase(example1, cw, pattern)) == msg


def test_decode_all_patterns_on_lifted_code(f343, lifted):
    rng = SplitMix64(42)
    msg = _random_message(f343, 3, rng)
    cw = erasure_encode(lifted, msg)
    for pattern in combinations(range(8), 5):
        assert erasure_decode(erase(lifted, cw, pattern)) == msg


def test_lifted_code_recovers_same_patterns_as_base(f7, f343, example1, lifted):
    msg7 = [f7.element(v) for v in [6, 1, 0]]
    msg343 = [f343.from_code(v) for v in [6, 1, 0]]
    cw7 = erasure_encode(example1, msg7)
    cw343 = erasure_encode(lifted, msg343)
    for pattern in combinations(range(8), 5):
        assert erasure_decode(erase(example1, cw7, pattern)) == msg7
        assert erasure_decode(erase(lifted, cw343, pattern)) == msg343


def test_too_many_erasures_rejected(f7, example1):
    cw = erasure_encode(example1, [f7.one()] * 3)
    with pytest.raises(TooManyErasures):
        erasure_decode(erase(example1, cw, [0, 1, 2, 3, 4, 5]))


def test_corruption_beyond_erasures_is_flagged(f7, example1):
    msg = [f7.element(v) for v in [1, 2, 3]]
    cw = erasure_encode(example1, msg)
    bad = list(cw)
    bad[6] = bad[6] + f7.one()
    with pytest.raises(Inconsistent):
        erasure_decode(erase(example1, bad, [0, 1]))


def test_non_mds_code_hits_singular_pattern(f7):
    # columns 5 and 7 equal: erasing everything else leaves a singular system
    g = FieldMatrix.from_rows(f7, [
        [1, 0, 0, 6, 4, 2, 5, 5],
        [0, 1, 0, 3, 1, 5, 1, 1],
        [0, 0, 1, 3, 5, 2, 4, 4],
    ])
    code = LinearCode(g)
    msg = [f7.element(v) for v in [2, 3, 4]]
    cw = erasure_encode(code, msg)
    singular_patterns = 0
    for pattern in combinations(range(8), 5):
        try:
            assert erasure_decode(erase(code, cw, pattern)) == msg
        except Singular:
            singular_patterns += 1
    assert singular_patterns > 0


def test_grs_codes_recover_generic_erasures(f7, f49):
    rng = SplitMix64(43)
    for spec, n, k in ((f7, 7, 4), (f49, 10, 6)):
        code = grs_generator(spec, n, k)
        for _ in range(20):
            msg = _random_message(spec, k, rng)
            cw = erasure_encode(code, msg)
            pattern = rng.sample(range(n), n - k)
            assert erasure_decode(erase(code, cw, pattern)) == msg
