"""Finite fields F_p and F_{p^t} with exact arithmetic.

An element of F_{p^t} is the residue polynomial
c0 + c1*x + ... + c_{t-1}*x^{t-1} with coefficients in [0, p), reduced
modulo a monic irreducible polynomial of degree t. The canonical
storage form is the integer code c0 + c1*p + ... + c_{t-1}*p^{t-1}
(base-p digits, ascending degree); prime fields (t = 1) store the
value itself. Constant polynomials therefore have the same code as
their integer value, so embedding F_p into F_{p^t} is the identity on
codes.

Field construction is deterministic: ``make_extension_field`` selects
the lexicographically smallest monic irreducible modulus (coefficient
lists compared low degree first) for which the residue class of x
generates the multiplicative group, and uses x as the generator w.
``make_prime_field`` uses the smallest generator of (Z/p)*. Two
constructions of the same parameters always agree, so files written in
``w^k`` notation are reproducible across runs. The constructors read
p, t, ``order_limit`` and each modulus coefficient with ``operator.index``
and check the cap on every call, then share one cached
``_field(p, t, modulus)``, which checks primality and the modulus once per
accepted field, and one spec store, filled by ``setdefault`` alone so that
concurrent builds of a field get one spec; both key on Python ints only.

Primality is checked by deterministic trial division. A candidate
modulus is decided by one test on polynomials, with no per-candidate
field tables: x must have order m = p^t - 1 modulo f, that is x^m = 1
and x^(m/r) != 1 for every prime r dividing m. Then F_p[x]/(f) has m
units and is a field, so the test decides irreducibility and primitivity
at once: a monic f of degree t is primitive iff f(0) != 0 and x has
order p^t - 1 (Lidl and Niederreiter, "Finite Fields", Thm 3.16). Before
it, the scan skips every constant term c0 for which (-1)^t c0 is not a
primitive root mod p: if x is primitive modulo f, then (-1)^t f(0) is
the norm of x, which generates F_p^* (ibid., Thm 3.18). That condition
is necessary, so the lex-first modulus is unchanged; it only spares the
candidates that could never be chosen (all multiples of x, for instance).

These fields are desk scale, not cryptographic scale: every constructor
refuses orders above ``order_limit`` (``DEFAULT_ORDER_LIMIT`` = 2^24)
with ``FieldTooLarge`` before any trial division.

Multiplication runs on one set of discrete-log tables per field (Lidl
and Niederreiter, Sec. 9.1), Python lists built by q - 1 steps of
multiplying by w on codes. In F_{p^t}, w = x: a step shifts the base-p
digits up one place and adds the code of h * x^t mod f for the digit h
shifted out. exp holds two periods and log[0] = 2(q-1), so a product of
nonzero codes is exp[log[a] + log[b]], with no reduction mod q - 1, and
every power, a^-1 = a^(q - 2) and w^k among them, is
exp[log[a] * e mod (q - 1)] (``pow_code``). Sums read a Zech list,
zech[e] = log(1 + w^e), which holds log[0] where 1 + w^e = 0: for
nonzero a and b, a + b = w^log(a) * (1 + w^(log(b) - log(a))). A
difference is a sum with a negation, and -a is w^(log(a) + (q - 1)/2)
for odd p (``neg_code``). Adding 1 changes only base-p digit 0, so the
list costs one pass over exp. ``_scalar_zech`` builds it on the first
sum or scalar minor pass, never on a product or a ``dlog``; in
characteristic 2, where a sum is the xor of the codes at any order, on
the scalar minor pass alone. The numpy kernels copy exp and log, with a
zero tail of 2(q-1)+1 entries on exp that every sum with log[0] lands
in, so they need no zero test. Tables are built on first use up to
order 2^16 (``_AUTO_TABLE_LIMIT``); above it, products run on
polynomials unless ``dlog`` built the exp/log lists, and sums for odd p
digit by digit, as ``dlog`` builds no Zech list. That path stays: tables
take seconds and ~100 MB at 2^20, and orders between ``DLOG_TABLE_LIMIT``
and the 2^24 cap have no other.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from typing import Iterable, Iterator, Sequence

from .errors import (
    CharacteristicMismatch,
    DegreeTooSmall,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    FormatError,
    NotPrime,
)

#: Largest field order for which discrete-log tables may be built.
DLOG_TABLE_LIMIT = 1 << 20

#: Largest field order the constructors accept unless told otherwise.
DEFAULT_ORDER_LIMIT = 1 << 24

# Extension fields up to this order get scalar exp/log tables
# automatically on first multiplication; beyond it, tables are built
# only when dlog printing asks for them.
_AUTO_TABLE_LIMIT = 1 << 16


def _least_factor(m: int) -> int:
    """The least divisor d >= 2 of m >= 2, by trial division by 2 and then
    odd d <= isqrt(m): m itself iff m is prime. The only trial division."""
    if m % 2 == 0:
        return 2
    return next((d for d in range(3, math.isqrt(m) + 1, 2) if m % d == 0), m)


def is_prime(n: int) -> bool:
    """Deterministic primality check: n >= 2 is its own least factor."""
    n = operator.index(n)
    return n >= 2 and _least_factor(n) == n


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m >= 1, ascending: the least factor d of
    m, then those of m / d without d again."""
    if m < 2:
        return []
    d = _least_factor(m)
    rest = _prime_factors(m // d)
    return rest if rest[:1] == [d] else [d] + rest


def _primitive_roots(p: int) -> Iterator[int]:
    """The generators of (Z/p)*, ascending: g^((p-1)/r) != 1 for every
    prime r dividing p - 1."""
    factors = _prime_factors(p - 1)
    return (g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in factors))


def _check_field(p: int, t: int, order_limit: int, min_degree: int = 2) -> tuple[int, int]:
    """(p, t), read with ``order_limit`` by ``operator.index``, after refusing
    p^t > order_limit, then a degree t < ``min_degree``, which a composite p
    preempts. The cap comes first, so no trial division runs on a huge p;
    p^t is not computed when t alone exceeds the limit's bit length, since
    then p^t >= 2^t > order_limit. An accepted t leaves p to ``_field``."""
    p, t, order_limit = map(operator.index, (p, t, order_limit))
    if p >= 2 and (t > order_limit.bit_length() or p ** t > order_limit):
        raise FieldTooLarge(f"order {p}^{t} exceeds the field order limit {order_limit}")
    if t < min_degree:
        _check_prime(p)
        raise DegreeTooSmall(f"extension degree must be >= {min_degree}, got {t}")
    return p, t


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


# ---------------------------------------------------------------------------
# dense polynomial helpers (coefficient lists over F_p, ascending degree)

def _poly_mul_mod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """(a * b) mod modulus; modulus monic of degree t, result length t."""
    t = len(modulus) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, t - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(t):
                if modulus[j]:
                    res[i - t + j] = (res[i - t + j] - c * modulus[j]) % p
    res = res[:t]
    res.extend([0] * (t - len(res)))
    return res


def _poly_pow_mod(base: Sequence[int], e: int, modulus: Sequence[int], p: int) -> list[int]:
    """base^e mod modulus by square-and-multiply; result length t."""
    result = [1] + [0] * (len(modulus) - 2)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        e >>= 1
        if e:
            base = _poly_mul_mod(base, base, modulus, p)
    return result


def _has_max_order(modulus: Sequence[int], p: int, factors: list[int]) -> bool:
    """True iff x has multiplicative order m = p^t - 1 modulo the monic
    modulus f of degree t >= 2: x^m = 1 and x^(m/r) != 1 for each prime r
    dividing m. Then F_p[x]/(f) has m units, so it is a field: this one
    test decides that f is irreducible and x primitive (Lidl and
    Niederreiter, Thm 3.16). x^m is y^r0 for y = x^(m/r0), r0 the
    smallest r, so a reducible f costs one full power. ``factors`` are the
    primes r, which ``_field`` factors once per field."""
    t = len(modulus) - 1
    m = p ** t - 1
    x = [0, 1] + [0] * (t - 2)
    one = [1] + [0] * (t - 1)
    r0, *rest = factors
    y = _poly_pow_mod(x, m // r0, modulus, p)
    return (y != one and _poly_pow_mod(y, r0, modulus, p) == one
            and all(_poly_pow_mod(x, m // r, modulus, p) != one for r in rest))


class FieldElement:
    """One element of a specific field, in canonical coordinate form.

    Value-like and immutable; arithmetic between elements of different
    fields raises ``FieldMismatch``. Integers follow two rules: every
    place that takes an element, this constructor included, reads an int
    as an element code, through ``FieldSpec.code``; an int operand n of
    ``+ - * /`` is the multiple n * 1 instead, so ``a * p`` is zero.
    """

    __slots__ = ("spec", "code")

    def __init__(self, spec: "FieldSpec", code: int) -> None:
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "code", spec.code(code))

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coords(self) -> tuple[int, ...]:
        """Base-p digits of the code: residue-polynomial coefficients,
        ascending degree (length t)."""
        return self.spec.code_to_coords(self.code)

    def _apply(self, other, op, swap: bool = False):
        """op(a, b) on codes, wrapped in this field: a is this element and
        b the operand, or the other way round if ``swap``. The one coerce
        and wrap step of ``+ - * /``: an int operand n is n * 1, another
        field's element raises FieldMismatch, any other type NotImplemented."""
        if isinstance(other, FieldElement):
            if other.spec.field_id != self.spec.field_id:
                raise FieldMismatch(f"{self.spec} vs {other.spec}")
            b = other.code
        elif isinstance(other, int):  # an operand n is n * 1, not the element of code n
            b = other % self.spec.p
        else:
            return NotImplemented
        a, b = (b, self.code) if swap else (self.code, b)
        return FieldElement(self.spec, op(a, b))

    def __add__(self, other):
        return self._apply(other, self.spec.add_code)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, self.spec.sub_code)

    def __rsub__(self, other):
        return self._apply(other, self.spec.sub_code, swap=True)

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_code(self.code))

    def __mul__(self, other):
        return self._apply(other, self.spec.mul_code)

    __rmul__ = __mul__

    def __truediv__(self, other):
        spec = self.spec
        return self._apply(other, lambda a, b: spec.mul_code(a, spec.inv_code(b)))

    def __pow__(self, e: int):
        return FieldElement(self.spec, self.spec.pow_code(self.code, e))

    def inv(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv_code(self.code))

    def __bool__(self) -> bool:
        return self.code != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec.field_id == other.spec.field_id and self.code == other.code

    def __hash__(self) -> int:
        return hash((self.spec.field_id, self.code))

    def __repr__(self) -> str:
        if self.spec.t == 1:
            return f"F{self.spec.p}({self.code})"
        return f"F{self.spec.p}^{self.spec.t}({list(self.coords)})"


class FieldSpec:
    """Full description of F_p or F_{p^t}.

    Immutable after construction. The lazily built exp/log tables are
    guarded by a lock, so concurrent readers may share one spec.
    Construct via ``make_prime_field``, ``make_extension_field`` or
    ``field_from_modulus`` rather than directly.
    """

    def __init__(self, p: int, t: int, modulus: tuple[int, ...] | None, w_code: int):
        self.p = p
        self.t = t
        self.modulus = modulus
        self.order = p ** t
        self.field_id = (p, t, modulus)
        self._w_code = w_code
        self._powers = [p ** i for i in range(t)]
        self._lock = threading.Lock()
        self._exp: list[int] | None = None  # exponent -> code, two periods
        self._log: list[int] | None = None  # code -> exponent, 2(order-1) for 0
        self._red: list[int] | None = None  # the log-sum lists (_scalar_zech),
        self._step: list[int] | None = None  # up to _AUTO_TABLE_LIMIT; step's head is the Zech list
        self._neg_log = (self.order - 1) // 2 if p % 2 else 0  # -1 = w^_neg_log
        self._arrays = None  # numpy (log, exp, coords, powers), built on first use

    # construction of elements -------------------------------------------------

    @property
    def generator_w(self) -> FieldElement:
        """A primitive element: x for extension fields, the smallest
        generator of (Z/p)* for prime fields."""
        return FieldElement(self, self._w_code)

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def code(self, value: "int | FieldElement") -> int:
        """The code of ``value`` wherever an element is accepted: an element
        of this field gives its code, of another raises FieldMismatch; else
        an integer (``operator.index``: a float raises TypeError) in
        [0, order), else ValueError. Builds no ``FieldElement``."""
        if isinstance(value, FieldElement):
            if value.spec.field_id != self.field_id:
                raise FieldMismatch(f"{value.spec} element used in {self}")
            return value.code
        code = operator.index(value)
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range for {self}")
        return code

    def element(self, value: "int | Sequence[int] | FieldElement") -> FieldElement:
        """Coerce ``value`` into this field.

        An int is read by ``code``, as an element code, not a constant:
        ``element(10)`` in F_343 is 3 + x. Sequences are coordinate
        vectors of length <= t, ascending degree, reduced mod p.
        """
        if hasattr(value, "__iter__"):
            return self.from_coords(value)
        return FieldElement(self, value)

    def from_coords(self, coords: Iterable[int]) -> FieldElement:
        coords = list(coords)
        if len(coords) > self.t:
            raise ValueError(f"{len(coords)} coordinates for degree-{self.t} field")
        code = 0
        for i, c in enumerate(coords):
            code += (c % self.p) * self._powers[i]
        return FieldElement(self, code)

    def from_code(self, code: int) -> FieldElement:
        return FieldElement(self, code)

    def code_to_coords(self, code: int) -> tuple[int, ...]:
        return tuple(code // pw % self.p for pw in self._powers)

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in code order (0 first)."""
        return map(self.from_code, range(self.order))

    # code-level arithmetic ----------------------------------------------------

    def add_code(self, a: int, b: int) -> int:
        """a + b: xor for p = 2, mod p for t = 1, else one sum of logs on
        ``red`` and ``step`` (zero is log 2(q - 1) there, no special case),
        or digit by digit where they are not built."""
        if self.p == 2:  # digits mod 2: a sum is a bitwise xor
            return a ^ b
        if self.t == 1:
            return (a + b) % self.p
        if self._scalar_zech() is None:
            return self._digit_sum(a, b, 1)
        log = self._log
        s = self._red[log[a] + self._step[log[b] - log[a]]]
        return 0 if s == log[0] else self._exp[s]

    def sub_code(self, a: int, b: int) -> int:
        """a - b = a + (-b), by ``add_code`` and ``neg_code``."""
        return self.add_code(a, self.neg_code(b))

    def neg_code(self, a: int) -> int:
        """-a: a for p = 2 or a = 0, p - a for t = 1, exp[log a + (q - 1)/2]
        with tables, else digit by digit. The only negation rule."""
        if self.p == 2 or a == 0:
            return a
        if self.t == 1:
            return self.p - a
        log = self._scalar_log()
        if log is None:
            return self._digit_sum(0, a, -1)
        return self._exp[log[a] + self._neg_log]

    def _digit_sum(self, a: int, b: int, sign: int) -> int:
        """a + sign * b, one base-p digit at a time."""
        p, code = self.p, 0
        for pw in self._powers:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            code += ((da + sign * db) % p) * pw
        return code

    def mul_code(self, a: int, b: int) -> int:
        if self.t == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        log = self._scalar_log()
        if log is not None:
            return self._exp[log[a] + log[b]]
        prod = _poly_mul_mod(self.code_to_coords(a), self.code_to_coords(b), self.modulus, self.p)
        return sum(map(operator.mul, prod, self._powers))

    def inv_code(self, a: int) -> int:
        """a^-1 = a^(q - 2), by ``pow_code``; zero raises DivisionByZero."""
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        return self.pow_code(a, self.order - 2)

    def pow_code(self, a: int, e: int) -> int:
        """a^e with 0^0 = 1; e must be nonnegative. The only power rule:
        builtin ``pow`` for t = 1, exp[log a * e mod (q - 1)] with tables,
        else ``_poly_pow_mod``, the square-and-multiply that also tests
        each modulus."""
        e = operator.index(e)
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if self.t == 1:
            return pow(a, e, self.p)  # pow(0, 0, p) == 1, as required
        if a == 0:
            return int(e == 0)
        log = self._scalar_log()
        if log is not None:
            return self._exp[log[a] * e % (self.order - 1)]
        power = _poly_pow_mod(self.code_to_coords(a), e, self.modulus, self.p)
        return sum(map(operator.mul, power, self._powers))

    # code arrays: elementwise forms of the code-level ops, for the numpy
    # kernels of the minor pass and the enumeration ---------------------------

    def mul_array(self, a, b):
        """Elementwise a * b of numpy code arrays; above the automatic
        table limit, by ``mul_code``."""
        log, exp, _, _ = self._array_tables()
        if log is None:
            import numpy as np
            return np.frompyfunc(self.mul_code, 2, 1)(a, b).astype(np.int64)
        return exp[log[a] + log[b]]

    def coords_array(self, a):
        """Base-p digits of each code of a numpy array, along a new
        trailing axis of length t."""
        _, _, coords, powers = self._array_tables()
        if coords is None:
            return a[..., None] // powers % self.p
        return coords.take(a, axis=0)

    def _array_tables(self):
        """numpy (log, exp, coords, powers): copies of the scalar lists with
        a zero tail on exp, the code -> digits table and p^0..p^(t-1).
        Above the automatic table limit the first three are None. numpy
        is imported here, on the first call."""
        if self._arrays is None:
            import numpy as np
            log = self._scalar_log() if self.order <= _AUTO_TABLE_LIMIT else None
            with self._lock:
                if self._arrays is None:
                    powers = np.array(self._powers, dtype=np.int64)
                    tables = (None, None, None)
                    if log is not None:
                        exp = np.array(self._exp + [0] * (len(self._exp) + 1), dtype=np.int64)
                        coords = np.arange(self.order)[:, None] // powers % self.p
                        tables = (np.array(log, dtype=np.int64), exp, coords)
                    self._arrays = tables + (powers,)
        return self._arrays

    # powers of w, discrete logs, embedding -------------------------------------

    def from_power(self, k: int) -> FieldElement:
        """w^(k mod (order - 1)), by ``pow_code``; k may be negative."""
        return FieldElement(self, self.pow_code(self._w_code, operator.index(k) % (self.order - 1)))

    def dlog(self, a: "int | FieldElement", *, table_limit: int | None = None) -> int:
        """Exponent k in [0, order-1) with w^k = a; a must be nonzero, and
        is read by ``code``."""
        limit = DLOG_TABLE_LIMIT if table_limit is None else operator.index(table_limit)
        code = self.code(a)
        if code == 0:
            raise DivisionByZero(f"discrete log of zero in {self}")
        if self.order > limit:
            raise FieldTooLarge(f"order {self.order} exceeds dlog table limit {limit}")
        return self._scalar_log(limit)[code]

    def embed(self, a: FieldElement) -> FieldElement:
        """Image of a prime-field element under the constant-polynomial
        embedding; a ring homomorphism."""
        if a.spec.t != 1:
            raise FieldMismatch("embedding is defined on prime-field elements")
        if a.spec.p != self.p:
            raise CharacteristicMismatch(f"cannot embed F_{a.spec.p} into {self}")
        return FieldElement(self, a.code)

    # internal tables ------------------------------------------------------------

    def _scalar_log(self, limit: int = _AUTO_TABLE_LIMIT) -> list[int] | None:
        """The log list, built with the exp list on the first call at an
        order of at most ``limit``; None above it while unbuilt. ``log``
        is stored last, so a reader that finds it finds ``exp``. The only
        writer of both; the log-sum lists are ``_scalar_zech``'s."""
        if self._log is not None or self.order > limit:
            return self._log
        with self._lock:
            if self._log is None:
                p, t, w, m, top = self.p, self.t, self._w_code, self.order - 1, self._powers[-1]
                # carry[h]: code of h * x^t = -h * (f - x^t) mod f, for the top digit h
                carry = [sum((-h * c) % p * pw for c, pw in zip(self.modulus, self._powers))
                         for h in range(p)] if t > 1 else None
                exp, log, c = [0] * (2 * m), [2 * m] * (m + 1), 1
                for e in range(m):
                    exp[e] = exp[e + m] = c
                    log[c] = e
                    if t == 1:
                        c = c * w % p
                    else:
                        h, c = divmod(c, top)
                        c = self._digit_sum(c * p, carry[h], 1) if h else c * p
                self._exp = exp
                self._log = log  # set last: marks the exp/log tables built
        return self._log

    def _scalar_zech(self) -> list[int] | None:
        """``step``, its first q - 1 entries the Zech list, with ``red``
        and the exp/log tables built; None above ``_AUTO_TABLE_LIMIT``,
        where a + b runs digit by digit. The only writer of both lists,
        on its first call, from a sum or the scalar minor pass in ``codes``.

        zech[e] = log(1 + w^e) (Lidl and Niederreiter, Sec. 9.1), log[0]
        where 1 + w^e = 0. With zero held as its log z = 2m, m = q - 1:
        red[x] is x mod m for x < 2m and z for x >= 2m, so red[a + b] is
        the log of a product of two such logs, and step[b - a] is what
        a + b needs added to a, before ``red``: zech[(b - a) mod m] when
        both are nonzero, 0 when b is zero, and b - a when a is zero
        (b - z lies in [-2m, -m), read from the end of the list, 4m + 1
        long). ``red`` is stored first and ``step`` last, so a reader
        that finds ``step`` finds ``red``.
        """
        if self._step is None and self.order <= _AUTO_TABLE_LIMIT:
            log = self._scalar_log()
            with self._lock:
                if self._step is None:
                    p, m = self.p, self.order - 1
                    # 1 + c changes digit 0 only; log[0] = 2m marks 1 + w^e = 0
                    zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in self._exp[:m]]
                    self._red = list(range(m)) * 2 + [2 * m] * (2 * m + 1)
                    self._step = zech + [0] * (m + 1) + list(range(-2 * m, -m)) + zech
        return self._step

    # ---------------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self.field_id == other.field_id

    def __hash__(self) -> int:
        return hash(self.field_id)

    def __repr__(self) -> str:
        if self.t == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.t}"


def make_prime_field(p: int, order_limit: int = DEFAULT_ORDER_LIMIT) -> FieldSpec:
    """F_p with the smallest generator of (Z/p)* as w.

    Raises FieldTooLarge if p > order_limit, NotPrime if p is composite
    or < 2.
    """
    p, _ = _check_field(p, 1, order_limit, min_degree=1)
    return _field(p, 1, None)


def make_extension_field(p: int, t: int, order_limit: int = DEFAULT_ORDER_LIMIT) -> FieldSpec:
    """F_{p^t} with the deterministic modulus convention.

    Scans monic degree-t polynomials in lexicographic order of their
    coefficient lists (low degree first) and picks the first modulo
    which x has order p^t - 1 (``_has_max_order``); w = x.
    Constant terms c0 with (-1)^t c0 not a primitive root mod p are
    skipped whole. Raises FieldTooLarge if p^t > order_limit.
    """
    p, t = _check_field(p, t, order_limit)
    return _field(p, t, None)


def field_from_modulus(p: int, t: int, modulus: Sequence[int],
                       order_limit: int = DEFAULT_ORDER_LIMIT) -> FieldSpec:
    """F_{p^t} with an explicit monic primitive modulus (t+1 ascending
    coefficients, each read with ``operator.index``): x must have order
    p^t - 1. Used when parsing files. Raises FieldTooLarge if
    p^t > order_limit."""
    p, t = _check_field(p, t, order_limit)
    return _field(p, t, tuple(map(operator.index, modulus)))


@functools.lru_cache(maxsize=None)
def _field(p: int, t: int, modulus: tuple[int, ...] | None) -> FieldSpec:
    """The one construction path, behind the constructors' integer reads
    and cap: after refusing a composite p, F_p with its least primitive
    root as w for t = 1, the lex-first scan for ``modulus`` None, else
    the given modulus, refused unless well formed and x has order
    p^t - 1. Kept per accepted argument triple; a refusal raises, and
    lru_cache stores no exception, so a bad p or modulus is refused on
    every call."""
    _check_prime(p)
    if t == 1:
        return _spec(p, 1, None, next(_primitive_roots(p)))
    factors = _prime_factors(p ** t - 1)
    if modulus is not None:
        if len(modulus) != t + 1:
            raise FormatError(f"modulus needs {t + 1} coefficients, got {len(modulus)}")
        if modulus[-1] != 1:
            raise FormatError("modulus must be monic")
        if any(not 0 <= c < p for c in modulus):
            raise FormatError(f"modulus coefficients must lie in [0, {p})")
        if not _has_max_order(modulus, p, factors):
            raise FormatError(f"modulus {list(modulus)} is not a primitive polynomial over F_{p}")
        return _spec(p, t, modulus, p)  # code p is the class of x
    norms = set(_primitive_roots(p))
    for c0 in range(p):
        if (-1) ** t * c0 % p not in norms:
            continue
        for rest in itertools.product(range(p), repeat=t - 1):
            modulus = (c0,) + rest + (1,)
            if _has_max_order(modulus, p, factors):
                return _spec(p, t, modulus, p)
    raise AssertionError(f"no primitive-x irreducible modulus of degree {t} over F_{p}")


# the spec store: one FieldSpec per field, the first that any path or thread built
_SPECS: dict[tuple, FieldSpec] = {}


def _spec(p: int, t: int, modulus: tuple[int, ...] | None, w_code: int) -> FieldSpec:
    return _SPECS.setdefault((p, t, modulus), FieldSpec(p, t, modulus, w_code))
