"""Newline-delimited text formats for matrices, codes, diagonals and words.

Matrix text format v1:

    mdslift-matrix v1
    field p=<p> t=<t>[ modulus=<c0,...,ct>]
    rows=<r> cols=<c>
    <r lines of c whitespace-separated element tokens>

Code files append one line "params n=<n> k=<k> d=<d|?>"; diagonal files
are one-row matrices followed by the comment "# dh l=<l>"; erasure
words are a single line of n tokens with "?" marking a missing symbol.

Element tokens: plain decimal for prime fields; "0", "1" (= w^0) and
"w^<k>" for extension fields up to ``DLOG_TABLE_LIMIT``, and above it
the coefficient form "[c0,...,c(t-1)]" (ascending degree, no internal
whitespace), accepted on input for any field: the field alone decides
each token written. Lines that are blank or start with '#' are ignored
wherever they appear, so emitted comments never affect a roundtrip.
"""

from __future__ import annotations

from .codes import LinearCode, min_distance
from .erasure import ErasureWord
from .errors import FormatError
from .field import (
    DLOG_TABLE_LIMIT,
    FieldElement,
    FieldSpec,
    field_from_modulus,
    make_prime_field,
)
from .lifting import DhDiagonal
from .matrix import FieldMatrix

MAGIC = "mdslift-matrix v1"


def format_element(e: FieldElement) -> str:
    """Canonical token: decimal (t = 1) or power-of-w (t > 1).

    Extension fields larger than ``DLOG_TABLE_LIMIT`` get the coefficient
    form, which needs no discrete logarithm.
    """
    spec = e.spec
    if spec.t == 1:
        return str(e.code)
    if e.code == 0:
        return "0"
    if e.code == 1:
        return "1"
    if spec.order > DLOG_TABLE_LIMIT:
        return "[" + ",".join(str(c) for c in e.coords) + "]"
    return f"w^{spec.dlog(e)}"


def parse_element(spec: FieldSpec, token: str) -> FieldElement:
    """Inverse of format_element, plus the coefficient form."""
    if token.startswith("[") and token.endswith("]"):
        parts = token[1:-1].split(",")
        if len(parts) != spec.t:
            raise FormatError(f"{token!r}: need exactly {spec.t} coefficients")
        coords = [_int_field(s, token) for s in parts]
        if any(not 0 <= c < spec.p for c in coords):
            raise FormatError(f"{token!r}: coefficients must lie in [0, {spec.p})")
        return spec.from_coords(coords)
    if spec.t == 1:
        v = _int_field(token, token)
        if not 0 <= v < spec.p:
            raise FormatError(f"{token!r}: value outside [0, {spec.p})")
        return spec.from_code(v)
    if token == "0":
        return spec.zero()
    if token == "1":
        return spec.one()
    if token.startswith("w^"):
        k = _int_field(token[2:], token)
        if k < 0:
            raise FormatError(f"{token!r}: exponent must be >= 0")
        return spec.from_power(k)
    raise FormatError(f"unrecognized element token {token!r}")


def _int_field(s: str, token: str) -> int:
    try:
        return int(s, 10)
    except ValueError:
        raise FormatError(f"bad integer {s!r} in token {token!r}") from None


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _kv(parts: list[str], line: str) -> dict[str, str]:
    pairs = {}
    for part in parts:
        if "=" not in part:
            raise FormatError(f"expected key=value, got {part!r} in {line!r}")
        key, _, value = part.partition("=")
        pairs[key] = value
    return pairs


def _parse_field_line(line: str) -> FieldSpec:
    parts = line.split()
    if not parts or parts[0] != "field":
        raise FormatError(f"expected field line, got {line!r}")
    kv = _kv(parts[1:], line)
    if "p" not in kv or "t" not in kv:
        raise FormatError(f"field line needs p= and t=: {line!r}")
    p = _int_field(kv["p"], line)
    t = _int_field(kv["t"], line)
    if t == 1:
        if "modulus" in kv:
            raise FormatError("modulus given for a prime field")
        return make_prime_field(p)
    if "modulus" not in kv:
        raise FormatError(f"extension field line needs modulus=: {line!r}")
    coeffs = [_int_field(s, line) for s in kv["modulus"].split(",")]
    return field_from_modulus(p, t, coeffs)


def _field_line(spec: FieldSpec) -> str:
    if spec.t == 1:
        return f"field p={spec.p} t=1"
    mod = ",".join(str(c) for c in spec.modulus)
    return f"field p={spec.p} t={spec.t} modulus={mod}"


def _matrix_lines(m: FieldMatrix) -> list[str]:
    lines = [MAGIC, _field_line(m.spec), f"rows={m.rows} cols={m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(format_element(e) for e in m.row(i)))
    return lines


def format_matrix(m: FieldMatrix) -> str:
    return "\n".join(_matrix_lines(m)) + "\n"


def _parse_matrix_lines(lines: list[str]) -> tuple[FieldMatrix, list[str]]:
    if not lines:
        raise FormatError("empty input")
    if lines[0] != MAGIC:
        raise FormatError(f"missing header {MAGIC!r}, got {lines[0]!r}")
    if len(lines) < 3:
        raise FormatError("truncated header")
    spec = _parse_field_line(lines[1])
    kv = _kv(lines[2].split(), lines[2])
    if set(kv) != {"rows", "cols"}:
        raise FormatError(f"expected rows=/cols=, got {lines[2]!r}")
    rows = _int_field(kv["rows"], lines[2])
    cols = _int_field(kv["cols"], lines[2])
    if rows < 1 or cols < 1:
        raise FormatError(f"bad dimensions {rows}x{cols}")
    if len(lines) < 3 + rows:
        raise FormatError(f"expected {rows} rows, found {len(lines) - 3}")
    data = []
    for line in lines[3:3 + rows]:
        tokens = line.split()
        if len(tokens) != cols:
            raise FormatError(f"expected {cols} tokens, got {len(tokens)}: {line!r}")
        data.append([parse_element(spec, tok) for tok in tokens])
    return FieldMatrix.from_rows(spec, data), lines[3 + rows:]


def parse_matrix(text: str) -> FieldMatrix:
    m, rest = _parse_matrix_lines(_content_lines(text))
    if rest:
        raise FormatError(f"trailing content: {rest[0]!r}")
    return m


def format_code(code: LinearCode) -> str:
    lines = _matrix_lines(code.generator)
    d = "?" if code.d is None else str(code.d)
    lines.append(f"params n={code.n} k={code.k} d={d}")
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> LinearCode:
    m, rest = _parse_matrix_lines(_content_lines(text))
    d = None
    if rest:
        parts = rest[0].split()
        if parts[0] != "params" or len(rest) > 1:
            raise FormatError(f"trailing content: {rest[0]!r}")
        kv = _kv(parts[1:], rest[0])
        if set(kv) != {"n", "k", "d"}:
            raise FormatError(f"params line needs n=, k=, d=: {rest[0]!r}")
        if _int_field(kv["n"], rest[0]) != m.cols or _int_field(kv["k"], rest[0]) != m.rows:
            raise FormatError(f"params disagree with a {m.rows}x{m.cols} generator")
        if kv["d"] != "?":
            d = _int_field(kv["d"], rest[0])
            if not 1 <= d <= m.cols - m.rows + 1:
                raise FormatError(f"params d={d} outside [1, n - k + 1]: {rest[0]!r}")
    code = LinearCode(m)
    if d is not None and min_distance(code) != d:
        raise FormatError(f"params d={d}, but the code has minimum distance {code.d}")
    return code


def format_dh(m: DhDiagonal) -> str:
    row = FieldMatrix.from_rows(m.spec, [m.codes])
    return "\n".join(_matrix_lines(row) + [f"# dh l={m.l_value}"]) + "\n"


def parse_dh(text: str) -> DhDiagonal:
    m, rest = _parse_matrix_lines(_content_lines(text))
    if rest:
        raise FormatError(f"trailing content: {rest[0]!r}")
    if m.rows != 1:
        raise FormatError(f"diagonal file must have rows=1, got {m.rows}")
    return DhDiagonal(m.spec, m.to_lists()[0])


def format_erasure(word: ErasureWord) -> str:
    tokens = ["?" if s is None else format_element(s) for s in word.symbols]
    return " ".join(tokens) + "\n"


def parse_erasure(code: LinearCode, text: str) -> ErasureWord:
    lines = _content_lines(text)
    if len(lines) != 1:
        raise FormatError(f"erasure word must be a single line, got {len(lines)}")
    tokens = lines[0].split()
    if len(tokens) != code.n:
        raise FormatError(f"expected {code.n} tokens, got {len(tokens)}")
    symbols = [None if tok == "?" else parse_element(code.spec, tok) for tok in tokens]
    return ErasureWord(code, symbols)
