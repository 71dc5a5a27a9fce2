"""Every place that accepts a field element reads an int the same way: as
an element code, through ``FieldSpec.code``. Only the operators of
``FieldElement`` read an int operand n as the multiple n * 1."""

from __future__ import annotations

import re

import numpy as np
import pytest

from mdslift.codes import grs_generator, monomial_sandwich, scale_col, scale_row
from mdslift.errors import FieldMismatch
from mdslift.field import FieldElement, make_extension_field, make_prime_field
from mdslift.lifting import DhDiagonal
from mdslift.matrix import FieldMatrix, solve, vec_mat_mul


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
