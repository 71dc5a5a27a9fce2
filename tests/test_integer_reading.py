"""Every place that accepts a field element reads an int the same way: as
an element code, through ``FieldSpec.code``. Only the operators of
``FieldElement`` read an int operand n as the multiple n * 1. Every count,
cap and exponent of the public API is read by ``operator.index``, and
every row, column and position index by one reader built on it,
``matrix._index``, which refuses an index outside [0, bound) with
IndexOutOfRange, an IndexError, as "row 3 of 3". A numpy integer is the
Python int it equals, a float or a string raises TypeError, and each range
check of a count keeps its error type and message."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from mdslift.codes import (
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
from mdslift.erasure import erase
from mdslift.errors import FieldMismatch, IndexOutOfRange
from mdslift.field import FieldElement, is_prime, make_extension_field, make_prime_field
from mdslift.lifting import DhDiagonal, diversity_count, lift, sample_dh, verify_lift
from mdslift.matrix import FieldMatrix, solve, submatrix, vec_mat_mul
from mdslift.rng import SplitMix64


def _square(spec):
    # constants 1, 2, 3, 4: determinant -2, nonzero in characteristic 7
    return FieldMatrix(spec, [[1, 2], [3, 4]])


# each position takes the value under test, x, and returns a comparable result
POSITIONS = {
    "element": lambda s, x: s.element(x),
    "dlog": lambda s, x: s.dlog(x),
    "FieldMatrix": lambda s, x: FieldMatrix(s, [[x, 1]]),
    "diagonal": lambda s, x: FieldMatrix.diagonal(s, [x, 1]),
    "solve": lambda s, x: solve(_square(s), [x, 1]),
    "vec_mat_mul": lambda s, x: vec_mat_mul([x, 1], _square(s)),
    "scale_row": lambda s, x: scale_row(_square(s), 0, x),
    "scale_col": lambda s, x: scale_col(_square(s), 1, x),
    "sandwich left": lambda s, x: monomial_sandwich(_square(s), [x, 1], [1, 1]),
    "sandwich right": lambda s, x: monomial_sandwich(_square(s), [1, 1], [1, x]),
    "grs alphas": lambda s, x: grs_generator(s, 3, 2, alphas=[x, 0, 1]).generator,
    "grs vs": lambda s, x: grs_generator(s, 3, 2, vs=[x, 1, 1]).generator,
    "DhDiagonal": lambda s, x: DhDiagonal(s, [x, 1]),
}


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("position", POSITIONS)
def test_an_int_is_the_element_of_that_code(position, t):
    spec = make_extension_field(7, t)
    at = POSITIONS[position]
    for c in (spec.p, 10, spec.order - 1):  # none of them a constant
        want = at(spec, spec.from_code(c))
        assert at(spec, c) == want
        assert at(spec, np.int64(c)) == want


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("position", POSITIONS)
def test_an_int_outside_the_codes_is_refused(position, t):
    spec = make_extension_field(7, t)
    at = POSITIONS[position]
    for c in (spec.order, -1):
        with pytest.raises(ValueError, match=f"^{re.escape(f'code {c} out of range for {spec}')}$"):
            at(spec, c)
    with pytest.raises(TypeError):
        at(spec, 2.5)
    other = make_extension_field(7, 5 - t)
    with pytest.raises(FieldMismatch, match=re.escape(f"{other} element used in {spec}")):
        at(spec, other.one())


def test_element_constructor_shares_the_message(f49):
    with pytest.raises(ValueError, match=f"^{re.escape(f'code 49 out of range for {f49}')}$"):
        FieldElement(f49, 49)
    with pytest.raises(TypeError):
        FieldElement(f49, 2.5)
    assert FieldElement(f49, np.int64(10)) == f49.from_code(10)


def test_the_integer_cases_that_once_read_two_ways(f7, f49, f343):
    ten = f343.from_code(10)  # coordinates (3, 1, 0)
    assert f343.element(10) == FieldMatrix.from_rows(f343, [[10]])[0, 0] == ten
    m = FieldMatrix(f343, [[5, 100, 342]])
    assert vec_mat_mul([10], m) == vec_mat_mul([ten], m)
    assert f343.dlog(10) == f343.dlog(ten) == 223
    assert (grs_generator(f49, 10, 3, alphas=range(10)).generator
            == grs_generator(f49, 10, 3).generator)
    assert f7.element(np.int64(3)) == f7.from_code(3)
    # an operator reads an int operand as a multiple of 1: 10 * 1 = 3
    assert f343.one() * 10 == f343.from_code(3) != f343.element(10)


def test_sequences_stay_coordinate_vectors(f343):
    assert f343.element([3, 1]) == f343.element((3, 1, 0)) == f343.from_code(10)
    assert f343.element(np.array([3, 8])) == f343.from_code(10)  # each reduced mod p
    assert make_prime_field(7).element([9]) == make_prime_field(7).from_code(2)


# each index position takes the index under test, i, on a code and a codeword
INDEX_POSITIONS = {
    "row": lambda code, word, i: code.generator.row(i),
    "col": lambda code, word, i: code.generator.col(i),
    "[i, 0]": lambda code, word, i: code.generator[i, 0],
    "[0, j]": lambda code, word, i: code.generator[0, i],
    "scale_row": lambda code, word, i: scale_row(code.generator, i, 3),
    "scale_col": lambda code, word, i: scale_col(code.generator, i, 3),
    "erase": lambda code, word, i: erase(code, word, [i, 7]).symbols,
}


@pytest.mark.parametrize("position", INDEX_POSITIONS)
def test_an_index_is_read_as_an_integer(position, example1):
    at = INDEX_POSITIONS[position]
    word = encode_message(example1, [example1.spec.from_code(c) for c in (1, 2, 3)])
    for i in (0, 2):
        want = at(example1, word, i)
        assert at(example1, word, np.int64(i)) == at(example1, word, np.uint8(i)) == want
    assert at(example1, word, True) == at(example1, word, 1)
    for i in (0.5, 1.5, 2.0, "1"):
        with pytest.raises(TypeError):
            at(example1, word, i)
    with pytest.raises(IndexOutOfRange):
        at(example1, word, np.int64(-1))


def test_an_index_past_the_end_is_refused(example1, f7):
    g = example1.generator
    for call, message in ((lambda: g.row(g.rows), "row 3 of 3"),
                          (lambda: g.col(g.cols), "column 8 of 8"),
                          (lambda: g[0, g.cols], "column 8 of 8"),
                          (lambda: FieldMatrix.zeros(f7, 0, 3).col(5), "column 5 of 3"),
                          (lambda: submatrix(g, [0], [8]), "column 8 of 8"),
                          (lambda: scale_row(g, 3, 0), "row 3 of 3")):  # before the zero scalar
        with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
            call()
    assert issubclass(IndexOutOfRange, IndexError)


def _grs62():
    # a fresh GRS[6,2] over F_7 on each call, so no distance is cached: 48 codewords
    return grs_generator(make_prime_field(7), 6, 2)


def _f49():
    return make_extension_field(7, 2)


# each count, cap or exponent position takes the value under test, x, and
# returns a comparable result: (call, a value it accepts, a value its range
# check refuses, or None where no value is refused)
COUNT_POSITIONS = {
    "grs_generator n": (lambda x: grs_generator(make_prime_field(7), x, 2).generator, 6, 8),
    "grs_generator k": (lambda x: grs_generator(make_prime_field(7), 6, x).generator, 2, 7),
    "min_distance enum_limit": (lambda x: min_distance(_grs62(), x), 48, 47),
    "weight_distribution enum_limit": (lambda x: weight_distribution(_grs62(), x), 48, 47),
    "singular_minor minor_limit": (lambda x: singular_minor(example1_code(), x), 56, 55),
    "is_mds minor_limit": (lambda x: is_mds(example1_code(), x), 56, 55),
    "sample_dh n": (lambda x: sample_dh(_f49(), x, 5), 8, 49),
    "diversity_count p": (lambda x: diversity_count(x, 2, 3), 7, 8),
    "diversity_count t": (lambda x: diversity_count(7, x, 3), 2, 0),
    "diversity_count n": (lambda x: diversity_count(7, 2, x), 3, 49),
    "verify_lift enum_limit": (
        lambda x: verify_lift(_grs62(), lift(_grs62(), sample_dh(_f49(), 6, 3)), x), 48, None),
    "is_prime n": (is_prime, 7, None),
    "pow_code e": (lambda x: _f49().pow_code(10, x), 5, -1),
    "__pow__ e": (lambda x: _f49().from_code(10) ** x, 5, -1),
    "from_power k": (lambda x: _f49().from_power(x), 50, None),
    "dlog table_limit": (lambda x: _f49().dlog(10, table_limit=x), 49, 48),
    "zeros rows": (lambda x: FieldMatrix.zeros(make_prime_field(7), x, 3), 2, -1),
    "zeros cols": (lambda x: FieldMatrix.zeros(make_prime_field(7), 3, x), 2, -1),
    "identity n": (lambda x: FieldMatrix.identity(make_prime_field(7), x), 2, -1),
    "submatrix rows": (lambda x: submatrix(example1_code().generator, [0, x], [1]), 2, 3),
    "submatrix cols": (lambda x: submatrix(example1_code().generator, [0], [1, x]), 2, 8),
    "SplitMix64.sample count": (lambda x: SplitMix64(5).sample(range(10), x), 2, 11),
}


@pytest.mark.parametrize("position", COUNT_POSITIONS)
def test_a_count_is_read_as_an_integer(position):
    call, accepted, refused = COUNT_POSITIONS[position]
    want = call(accepted)
    assert call(np.int64(accepted)) == call(np.uint8(accepted)) == want
    for x in (2.0, 2.5, "2"):
        with pytest.raises(TypeError):
            call(x)
    if refused is not None:  # the same refusal, type and message, for a numpy integer
        with pytest.raises(Exception) as refusal:
            call(refused)
        with pytest.raises(refusal.type, match=f"^{re.escape(str(refusal.value))}$"):
            call(np.int64(refused))


def test_a_cached_distance_still_reads_its_cap():
    code = _grs62()
    assert min_distance(code) == 5 and code.d == 5
    assert min_distance(code, np.int64(48)) == 5
    with pytest.raises(TypeError):
        min_distance(code, 2.0)


def test_the_count_cases_that_once_passed(f7):
    # float caps were compared as they came, and numpy integers leaked into
    # int64 arithmetic: 7^30 wrapped, and math.comb got a wrong count
    example1 = example1_code()
    for call in (lambda: is_mds(example1, minor_limit=56.5),
                 lambda: min_distance(example1_code(), enum_limit=1e9),
                 lambda: weight_distribution(example1, enum_limit=342.5),
                 lambda: verify_lift(example1, example1, enum_limit=1e9),
                 lambda: f7.dlog(3, table_limit=1e9),
                 lambda: is_prime(2.0)):
        with pytest.raises(TypeError):
            call()
    count = diversity_count(np.int64(7), np.int64(30), 3)
    assert type(count) is int and count == math.comb(7 ** 30 - 1, 3)
    assert diversity_count(7, 2, np.int64(3)) == diversity_count(7, 2, 3) == math.comb(48, 3)
