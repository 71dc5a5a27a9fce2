from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from mdslift.codes import LinearCode, example1_code, grs_generator, min_distance
from mdslift.erasure import ErasureWord, erase, erasure_encode
from mdslift.errors import FormatError, NotPrime, TooManyCodewords, ZeroDiagonalEntry
from mdslift.field import FieldSpec, make_extension_field, make_prime_field
from mdslift.formats import (
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
from mdslift.lifting import DhDiagonal, lift, sample_dh
from mdslift.matrix import FieldMatrix


# element tokens -----------------------------------------------------------------


def test_canonical_tokens(f7, f343):
    w = f343.generator_w
    assert format_element(f7.element(5)) == "5"
    assert format_element(f343.zero()) == "0"
    assert format_element(f343.one()) == "1"
    assert format_element(w) == "w^1"
    assert format_element(w ** 200) == "w^200"


@pytest.mark.parametrize("p,t", [(7, 1), (2, 2), (2, 4), (7, 2), (7, 3)])
def test_token_roundtrip_every_element(p, t):
    spec = make_prime_field(p) if t == 1 else make_extension_field(p, t)
    for e in spec.elements():
        assert parse_element(spec, format_element(e)) == e


@given(st.integers(0, 342))
@settings(max_examples=60, deadline=None)
def test_coefficient_form_always_parses(code):
    spec = make_extension_field(7, 3)
    e = spec.from_code(code)
    token = "[" + ",".join(str(c) for c in e.coords) + "]"
    assert parse_element(spec, token) == e


def test_exponent_wraps_around_group_order(f343):
    assert parse_element(f343, "w^342") == f343.one()
    assert parse_element(f343, "w^343") == f343.generator_w


def test_large_field_tokens_fall_back_to_coefficients():
    big = make_prime_field(1048583)
    assert format_element(big.element(12)) == "12"  # prime fields never need dlog
    f2_21 = make_extension_field(2, 21)  # above DLOG_TABLE_LIMIT: no discrete logs
    e = f2_21.generator_w ** 9
    assert format_element(e) == "[0,0,0,0,0,0,0,0,0,1" + ",0" * 11 + "]"
    assert parse_element(f2_21, format_element(e)) == e


def test_tokens_between_auto_and_dlog_limits_are_powers(f2_17):
    # a spec of its own, so the shared f2_17 keeps its polynomial path; the
    # order 2^17 is above the automatic table limit, and dlog builds the tables
    spec = FieldSpec(f2_17.p, f2_17.t, f2_17.modulus, f2_17.p)
    e = spec.generator_w ** 12345
    assert format_element(e) == "w^12345"
    assert parse_element(spec, "w^12345") == e


def test_bad_tokens_rejected(f7, f343):
    for token in ["7", "-1", "x", "", "w^", "w^-2", "[1,2]", "[1,2,3,4]", "[1,2,9]"]:
        with pytest.raises(FormatError):
            parse_element(f343 if token.startswith(("w", "[")) else f7, token)
    with pytest.raises(FormatError):
        parse_element(f343, "5")  # bare decimals are prime-field syntax


# matrix files -------------------------------------------------------------------


def test_matrix_roundtrip_prime_field(example1):
    text = format_matrix(example1.generator)
    assert text.splitlines()[0] == "mdslift-matrix v1"
    assert "field p=7 t=1" in text
    assert parse_matrix(text) == example1.generator


def test_matrix_roundtrip_extension_field(f343, example1):
    lifted = lift(example1, sample_dh(f343, 8, 17))
    text = format_matrix(lifted.generator)
    assert "field p=7 t=3 modulus=2,1,1,1" in text
    assert parse_matrix(text) == lifted.generator


def test_comments_and_blank_lines_ignored(example1):
    text = format_matrix(example1.generator)
    noisy = "# made by a test\n\n" + text.replace("rows=", "# note\nrows=") + "\n# end\n"
    assert parse_matrix(noisy) == example1.generator


def test_matrix_malformed_inputs(f7, example1):
    good = format_matrix(example1.generator)
    bad_cases = [
        "",
        "mdslift-matrix v2\n" + "\n".join(good.splitlines()[1:]),
        good.replace("rows=3 cols=8", "rows=3"),
        good.replace("rows=3 cols=8", "rows=4 cols=8"),
        good.replace("1 0 0 6 4 2 5 3", "1 0 0 6 4 2 5"),
        good.replace("field p=7 t=1", "field p=7"),
        good.replace("field p=7 t=1", "field p=7 t=1 modulus=1,1"),
        good + "stray line\n",
        good.replace("rows=3 cols=8", "rows=3 cols"),  # a token without =
        good.replace("field p=7 t=1", "fold p=7 t=1"),
        "\n".join(good.splitlines()[:2]),  # truncated header
        good.replace("rows=3 cols=8", "rows=0 cols=8"),
    ]
    for bad in bad_cases:
        with pytest.raises(FormatError):
            parse_matrix(bad)


def test_field_line_reconstruction_is_exact(f343):
    m = FieldMatrix.from_rows(f343, [[1, f343.generator_w]])
    parsed = parse_matrix(format_matrix(m))
    assert parsed.spec is f343  # same cached spec, not merely equal


def test_nonminimal_modulus_files_parse():
    text = "mdslift-matrix v1\nfield p=2 t=4 modulus=1,1,0,0,1\nrows=1 cols=2\nw^3 1\n"
    m = parse_matrix(text)
    assert m.spec.modulus == (1, 1, 0, 0, 1)
    assert format_matrix(m) == text


def test_invalid_field_lines_rejected():
    with pytest.raises(NotPrime):
        parse_matrix("mdslift-matrix v1\nfield p=9 t=1\nrows=1 cols=1\n3\n")
    with pytest.raises(FormatError):
        parse_matrix("mdslift-matrix v1\nfield p=7 t=2 modulus=1,1,2\nrows=1 cols=1\n1\n")
    with pytest.raises(FormatError):
        parse_matrix("mdslift-matrix v1\nfield p=7 t=2\nrows=1 cols=1\n1\n")


# code files ---------------------------------------------------------------------


def test_code_roundtrip_with_unknown_distance(example1):
    text = format_code(example1)
    assert text.endswith("params n=8 k=3 d=?\n")
    back = parse_code(text)
    assert back.generator == example1.generator
    assert back.d is None


def test_code_roundtrip_with_known_distance(example1):
    min_distance(example1)
    text = format_code(example1)
    assert "d=6" in text
    assert parse_code(text).d == 6


def test_code_stated_distance_too_costly_to_check_is_refused(f343):
    # a stated d is checked by min_distance, which refuses 343^4 - 1 codewords
    text = format_code(grs_generator(f343, 10, 4))
    with pytest.raises(TooManyCodewords):
        parse_code(text.replace("d=?", "d=7"))


def test_code_emit_parse_emit_is_stable(f7, f343, example1):
    for code in (example1, grs_generator(f7, 6, 2), grs_generator(f343, 8, 3)):
        text = format_code(code)
        assert format_code(parse_code(text)) == text


def test_code_params_must_match_matrix(example1):
    text = format_code(example1)
    with pytest.raises(FormatError):
        parse_code(text.replace("params n=8", "params n=9"))
    with pytest.raises(FormatError):
        parse_code(text.replace("k=3", "k=2"))
    with pytest.raises(ValueError):
        parse_code(text.replace("d=?", "d=7"))  # Singleton violation
    with pytest.raises(FormatError):
        parse_code(text.replace(" d=?", ""))
    with pytest.raises(FormatError):
        parse_code(text + "params n=8 k=3 d=?\n")  # content after the params line


def test_code_without_params_line_parses(example1):
    text = format_matrix(example1.generator)
    code = parse_code(text)
    assert (code.n, code.k, code.d) == (8, 3, None)


# diagonal files -----------------------------------------------------------------


def test_dh_roundtrip(f343):
    diag = sample_dh(f343, 8, 3)
    text = format_dh(diag)
    assert text.endswith("# dh l=1\n")
    assert "rows=1 cols=8" in text
    back = parse_dh(text)
    assert back == diag and back.l_value == 1


def test_dh_l_value_is_recomputed_not_trusted(f343):
    diag = DhDiagonal(f343, [5, 5, 9])
    text = format_dh(diag).replace("# dh l=2", "# dh l=1")
    assert parse_dh(text).l_value == 2


def test_dh_file_validation(f343, example1):
    with pytest.raises(FormatError):
        parse_dh(format_matrix(example1.generator))  # rows != 1
    zero_text = "mdslift-matrix v1\nfield p=7 t=3 modulus=2,1,1,1\nrows=1 cols=2\nw^3 0\n"
    with pytest.raises(ZeroDiagonalEntry):
        parse_dh(zero_text)
    with pytest.raises(FormatError):
        parse_dh(zero_text + "w^3 1\n")  # content after the row


# erasure words ------------------------------------------------------------------


def test_erasure_roundtrip(f7, example1):
    msg = [f7.element(v) for v in [1, 4, 2]]
    word = erase(example1, erasure_encode(example1, msg), [2, 6])
    text = format_erasure(word)
    assert text.count("?") == 2
    back = parse_erasure(example1, text)
    assert back.symbols == word.symbols


def test_erasure_roundtrip_extension_field(f343, example1):
    lifted = lift(example1, sample_dh(f343, 8, 23))
    msg = [f343.from_code(v) for v in [11, 0, 300]]
    word = erase(lifted, erasure_encode(lifted, msg), [0, 3, 7])
    assert parse_erasure(lifted, format_erasure(word)).symbols == word.symbols


def test_erasure_validation(example1):
    with pytest.raises(FormatError):
        parse_erasure(example1, "1 2 3\n")  # wrong token count
    with pytest.raises(FormatError):
        parse_erasure(example1, "1 2 3 4 5 6 7 8\n1 2 3 4 5 6 7 8\n")
    with pytest.raises(FormatError):
        parse_erasure(example1, "")
