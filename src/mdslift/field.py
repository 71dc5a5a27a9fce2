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
``w^k`` notation are reproducible across runs.

Primality is checked by deterministic trial division. A candidate
modulus is decided by polynomial arithmetic alone, with no per-candidate
field tables: irreducibility by Ben-Or's test (gcd(x^(p^i) - x, f) = 1
for i = 1..t/2; Ben-Or, "Probabilistic algorithms in finite fields",
FOCS 1981), which rejects most reducible candidates at a small i, and
primitivity of x by x^((p^t - 1)/r) != 1 for every prime r dividing
p^t - 1. Before either test, the scan skips every constant term c0 for
which (-1)^t c0 is not a primitive root mod p: if x is primitive modulo
f, then (-1)^t f(0) is the norm of x, which generates F_p^* (Lidl and
Niederreiter, "Finite Fields", Thm 3.18). That condition is necessary,
so the lex-first modulus is unchanged; it only spares the candidates
that could never be chosen (all multiples of x, for instance).

These fields are desk scale, not cryptographic scale: every constructor
refuses orders above ``order_limit`` (``DEFAULT_ORDER_LIMIT`` = 2^24)
with ``FieldTooLarge`` before any trial division.

Multiplication runs on one set of discrete-log tables per field (Lidl
and Niederreiter, Sec. 9.1), Python lists built by q - 1 steps of
multiplying by w on codes. In F_{p^t}, w = x: a step shifts the base-p
digits up one place and adds the code of h * x^t mod f for the digit h
shifted out. exp holds two periods and log[0] = 2(q-1), so a product of
nonzero codes is exp[log[a] + log[b]], with no reduction mod q - 1, and
w^k is exp[k mod (q - 1)]. Sums read a Zech list built with them,
zech[e] = log(1 + w^e), which holds log[0] where 1 + w^e = 0: for nonzero
a and b, a + b = w^log(a) * (1 + w^(log(b) - log(a))), and -1 is
w^((q - 1)/2) for odd p. Adding 1 changes only base-p digit 0, so the
list costs one pass over exp. In characteristic 2 a sum is the xor of
the codes, with no table at any order. The numpy kernels copy exp and
log, with a zero tail of 2(q-1)+1 entries on exp that every sum with
log[0] lands in, so they need no zero test. Tables are built on first
use up to order 2^16 (``_AUTO_TABLE_LIMIT``); above it, products run on
polynomials unless ``dlog`` built the exp/log lists, and sums for odd p
digit by digit, as ``dlog`` builds no Zech list. That path stays: tables
take seconds and ~100 MB at 2^20, and orders between ``DLOG_TABLE_LIMIT``
and the 2^24 cap have no other.
"""

from __future__ import annotations

import functools
import itertools
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


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _primitive_roots(p: int) -> Iterator[int]:
    """The generators of (Z/p)*, ascending: g^((p-1)/r) != 1 for every
    prime r dividing p - 1."""
    factors = _prime_factors(p - 1)
    return (g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1 for r in factors))


def _check_field(p: int, t: int, order_limit: int) -> None:
    """Refuse p^t > order_limit, then a composite p. The cap comes first,
    so no trial division runs on a huge p; p^t is not computed when t
    alone exceeds the limit's bit length, since then p^t >= 2^t > order_limit."""
    if p >= 2 and (t > order_limit.bit_length() or p ** t > order_limit):
        raise FieldTooLarge(f"order {p}^{t} exceeds the field order limit {order_limit}")
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


def _poly_rem(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of dense polynomials over F_p, trailing zeros trimmed."""
    num = list(num)
    den = list(den)
    while len(den) > 1 and den[-1] == 0:
        den.pop()
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    inv_lead = pow(den[-1], p - 2, p) if den[-1] != 1 else 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = (num[i] * inv_lead) % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    del num[max(dd, 1):]  # every coefficient of degree >= dd is now zero
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return num


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


def _poly_coprime(a: Sequence[int], b: Sequence[int], p: int) -> bool:
    """True iff gcd(a, b) = 1 over F_p, by Euclid; a must be nonzero."""
    while any(b):
        a, b = b, _poly_rem(a, b, p)
    return not any(a[1:])


def _poly_is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Ben-Or's test for a monic modulus of degree t >= 2.

    f is irreducible iff it has no factor of degree i <= t/2, i.e. iff
    gcd(x^(p^i) - x, f) = 1 for i = 1..t/2; h runs through x^(p^i) mod f.
    """
    t = len(modulus) - 1
    x = [0, 1] + [0] * (t - 2)
    h = x
    for _ in range(t // 2):
        h = _poly_pow_mod(h, p, modulus, p)
        if not _poly_coprime(modulus, [(hi - xi) % p for hi, xi in zip(h, x)], p):
            return False
    return True


def _has_max_order(modulus: Sequence[int], p: int) -> bool:
    """True iff x has multiplicative order p^t - 1 modulo the irreducible
    modulus of degree t >= 2: x^((p^t - 1)/r) != 1 for each prime r."""
    t = len(modulus) - 1
    m = p ** t - 1
    x = [0, 1] + [0] * (t - 2)
    one = [1] + [0] * (t - 1)
    return all(_poly_pow_mod(x, m // r, modulus, p) != one for r in _prime_factors(m))


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

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.spec.field_id != self.spec.field_id:
                raise FieldMismatch(f"{self.spec} vs {other.spec}")
            return other
        if isinstance(other, int):  # an operand n is n * 1, not the element of code n
            return FieldElement(self.spec, other % self.spec.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.add_code(self.code, o.code))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub_code(self.code, o.code))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.sub_code(o.code, self.code))

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg_code(self.code))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.spec, self.spec.mul_code(self.code, o.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

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
        self._zech: list[int] | None = None  # e -> log(1 + w^e), up to _AUTO_TABLE_LIMIT
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
        if type(value) is int:  # the common case first: DhDiagonal reads each entry here
            code = value
        elif isinstance(value, FieldElement):
            if value.spec.field_id != self.field_id:
                raise FieldMismatch(f"{value.spec} element used in {self}")
            return value.code
        else:
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
        digits = []
        for _ in range(self.t):
            code, r = divmod(code, self.p)
            digits.append(r)
        return tuple(digits)

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in code order (0 first)."""
        for c in range(self.order):
            yield FieldElement(self, c)

    # code-level arithmetic ----------------------------------------------------

    def add_code(self, a: int, b: int) -> int:
        if self.p == 2:  # digits mod 2: a sum is a bitwise xor, and -b = b
            return a ^ b
        if self.t == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        zech = self._scalar_zech()
        if zech is None:
            return self._digit_sum(a, b, 1)
        return self._zech_sum(self._log[a], self._log[b], zech)

    def sub_code(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.t == 1:
            return (a - b) % self.p
        if b == 0:
            return a
        zech = self._scalar_zech()
        if zech is None:
            return self._digit_sum(a, b, -1)
        neg_b = (self._log[b] + self._neg_log) % len(zech)
        return self._exp[neg_b] if a == 0 else self._zech_sum(self._log[a], neg_b, zech)

    def neg_code(self, a: int) -> int:
        return self.sub_code(0, a)

    def _digit_sum(self, a: int, b: int, sign: int) -> int:
        """a + sign * b, one base-p digit at a time."""
        p, code = self.p, 0
        for pw in self._powers:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            code += ((da + sign * db) % p) * pw
        return code

    def _zech_sum(self, la: int, lb: int, zech: list[int]) -> int:
        """Code of w^la + w^lb = w^la * (1 + w^(lb - la)), for logs below
        q - 1; a negative index into zech wraps mod q - 1."""
        z = zech[lb - la]
        return 0 if z == self._log[0] else self._exp[la + z]

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
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self}")
        if self.t == 1:
            return pow(a, self.p - 2, self.p)
        log = self._scalar_log()
        if log is not None:
            return self._exp[self.order - 1 - log[a]]
        return self.pow_code(a, self.order - 2)

    def pow_code(self, a: int, e: int) -> int:
        """a^e with 0^0 = 1; e must be nonnegative."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if self.t == 1:
            return pow(a, e, self.p)  # pow(0, 0, p) == 1, as required
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_code(result, base)
            base = self.mul_code(base, base)
            e >>= 1
        return result

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
        """w^(k mod (order - 1)): a table lookup in an extension field
        with tables, else by square-and-multiply."""
        k %= self.order - 1
        if self.t > 1 and self._scalar_log() is not None:
            return FieldElement(self, self._exp[k])
        return FieldElement(self, self.pow_code(self._w_code, k))

    def dlog(self, a: "int | FieldElement", *, table_limit: int | None = None) -> int:
        """Exponent k in [0, order-1) with w^k = a; a must be nonzero, and
        is read by ``code``."""
        code = self.code(a)
        if code == 0:
            raise DivisionByZero(f"discrete log of zero in {self}")
        limit = DLOG_TABLE_LIMIT if table_limit is None else table_limit
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
        order of at most ``limit``; None above it while unbuilt. Up to
        ``_AUTO_TABLE_LIMIT`` the Zech list is built with them."""
        if self._log is not None or self.order > limit:
            return self._log
        with self._lock:
            if self._log is None:
                p, t, w, m, top = self.p, self.t, self._w_code, self.order - 1, self._powers[-1]
                # red[h]: code of h * x^t = -h * (f - x^t) mod f, for the top digit h
                red = [sum((-h * c) % p * pw for c, pw in zip(self.modulus, self._powers))
                       for h in range(p)] if t > 1 else None
                exp, log, c = [0] * (2 * m), [2 * m] * (m + 1), 1
                for e in range(m):
                    exp[e] = exp[e + m] = c
                    log[c] = e
                    if t == 1:
                        c = c * w % p
                    else:
                        h, c = divmod(c, top)
                        c = self._digit_sum(c * p, red[h], 1) if h else c * p
                if self.order <= _AUTO_TABLE_LIMIT:
                    # 1 + c changes digit 0 only; log[0] = 2m marks 1 + w^e = 0
                    self._zech = [log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp[:m]]
                self._exp = exp
                self._log = log  # set last: marks the tables built
        return self._log

    def _scalar_zech(self) -> list[int] | None:
        """The Zech list, zech[e] = log(1 + w^e) for e < q - 1, with
        2(q - 1) (the log of zero) where 1 + w^e = 0; None above
        ``_AUTO_TABLE_LIMIT``, where a + b runs digit by digit."""
        if self._zech is None and self.order <= _AUTO_TABLE_LIMIT:
            self._scalar_log()
        return self._zech

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


@functools.lru_cache(maxsize=None)
def make_prime_field(p: int, order_limit: int = DEFAULT_ORDER_LIMIT) -> FieldSpec:
    """F_p with the smallest generator of (Z/p)* as w.

    Raises FieldTooLarge if p > order_limit, NotPrime if p is composite
    or < 2.
    """
    _check_field(p, 1, order_limit)
    return _field(p, 1, None, next(_primitive_roots(p)))


@functools.lru_cache(maxsize=None)
def make_extension_field(p: int, t: int, order_limit: int = DEFAULT_ORDER_LIMIT) -> FieldSpec:
    """F_{p^t} with the deterministic modulus convention.

    Scans monic degree-t polynomials in lexicographic order of their
    coefficient lists (low degree first) and picks the first
    irreducible one whose residue class of x is primitive; w = x.
    Constant terms c0 with (-1)^t c0 not a primitive root mod p are
    skipped whole. Raises FieldTooLarge if p^t > order_limit.
    """
    _check_field(p, t, order_limit)
    if t < 2:
        raise DegreeTooSmall(f"extension degree must be >= 2, got {t}")
    norms = set(_primitive_roots(p))
    for c0 in range(p):
        if (-1) ** t * c0 % p not in norms:
            continue
        for rest in itertools.product(range(p), repeat=t - 1):
            modulus = (c0,) + rest + (1,)
            if _poly_is_irreducible(modulus, p) and _has_max_order(modulus, p):
                return _field(p, t, modulus, p)  # code p is the class of x
    raise AssertionError(f"no primitive-x irreducible modulus of degree {t} over F_{p}")


@functools.lru_cache(maxsize=None)
def _field(p: int, t: int, modulus: tuple[int, ...] | None, w_code: int) -> FieldSpec:
    # one spec per field, shared by every constructor and order limit
    return FieldSpec(p, t, modulus, w_code)


def field_from_modulus(p: int, t: int, modulus: Sequence[int],
                       order_limit: int = DEFAULT_ORDER_LIMIT) -> FieldSpec:
    """F_{p^t} with an explicit monic irreducible modulus (t+1 ascending
    coefficients); x must be primitive. Used when parsing files.
    Raises FieldTooLarge if p^t > order_limit. The order cap and the
    format checks run on every call; irreducibility and primitivity run
    once per accepted (p, t, modulus)."""
    _check_field(p, t, order_limit)
    if t < 2:
        raise DegreeTooSmall(f"extension degree must be >= 2, got {t}")
    modulus = tuple(int(c) for c in modulus)
    if len(modulus) != t + 1:
        raise FormatError(f"modulus needs {t + 1} coefficients, got {len(modulus)}")
    if modulus[-1] != 1:
        raise FormatError("modulus must be monic")
    if any(not 0 <= c < p for c in modulus):
        raise FormatError(f"modulus coefficients must lie in [0, {p})")
    return _checked_modulus_field(p, t, modulus)


@functools.lru_cache(maxsize=None)
def _checked_modulus_field(p: int, t: int, modulus: tuple[int, ...]) -> FieldSpec:
    # the cache keeps accepted moduli only: a rejection raises, and
    # lru_cache stores no exception, so a bad modulus is tested each time
    if not _poly_is_irreducible(modulus, p):
        raise FormatError(f"modulus {list(modulus)} is reducible over F_{p}")
    if not _has_max_order(modulus, p):
        raise FormatError(f"x is not primitive for modulus {list(modulus)} over F_{p}")
    return _field(p, t, modulus, p)
