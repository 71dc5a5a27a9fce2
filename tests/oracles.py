"""Independent oracles for cross-checking library results.

Each oracle recomputes a quantity with a different algorithm than the
library uses, so agreement is evidence rather than tautology:

- minimum distance and weight distribution by enumeration of all q^k
  messages, each encoded by a schoolbook product over the generator's
  code rows with the oracle field ops below (the library enumerates one
  message per projective point, vectorized over F_p coordinates, or
  reads d = n - k + 1 of an MDS code from its minors);
- prime factors by dividing by every d >= 2 (the library divides by 2
  and odd d only, restarting from the least factor of each cofactor);
- binomials by the multiplicative formula with exact stepwise division
  (the library calls math.comb);
- irreducibility by trial division against every monic polynomial of
  degree 1..t-1, and primitivity and generator order by listing powers
  until repetition (the library decides both at once, by x^(q-1) = 1
  and x^((q-1)/r) != 1 for each prime r dividing q - 1);
- field products by a schoolbook polynomial product and long division
  by the modulus (the library reads exp/log tables built by repeated
  multiplication by x, or falls back to its own polynomial helpers);
- field powers, inverses and w^k by repeated oracle products over the
  bits of the exponent, high bit first (the library reads
  exp[log(a) * e mod (q - 1)], calls the builtin pow in a prime field,
  or squares and multiplies from the low bit);
- field sums and differences coefficient by coefficient mod p (the
  library reads a Zech table, log(1 + w^e), up to order 2^16);
- determinants by the Leibniz expansion in FieldElement arithmetic, and
  from them rank, the MDS minor criterion and its first singular column
  set, and the systematic form by Cramer's rule (the library row-reduces
  lists of code rows once per matrix, carries that form through column
  scalings, and expands the minors of its non-pivot block in one
  Laplace pass, on discrete logs or on numpy arrays);
- matrix products entry by entry in FieldElement arithmetic (the library
  works on rows of codes with the field's code ops);
- SplitMix64 words, bounded draws and samples transcribed from the ``rng``
  module docstring, reducing mod 2^64 and swapping both slots of a
  dict-held pool (the library masks, draws every word through one
  rejection loop, and writes only the drawn slot of its dict).
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from mdslift.codes import LinearCode
from mdslift.matrix import FieldMatrix


def oracle_weight_distribution(code: LinearCode) -> list[int]:
    """Nonzero codewords of each weight 0..n over all q^k messages: m . G
    as the schoolbook sum of m_i times row i by ``oracle_field_add``, each
    product by ``oracle_field_mul``, once per symbol and row. Only the
    generator's code rows are read."""
    spec, order = code.spec, code.spec.order
    times = [[[oracle_field_mul(spec, m, g) for g in row] for m in range(order)]
             for row in code.generator.to_lists()]
    counts = [0] * (code.n + 1)
    for msg in product(range(order), repeat=code.k):
        if not any(msg):
            continue
        word = [0] * code.n
        for m, products in zip(msg, times):
            if m:  # a zero message symbol adds nothing
                word = [oracle_field_add(spec, w, x) for w, x in zip(word, products[m])]
        counts[sum(1 for s in word if s)] += 1
    return counts


def oracle_min_distance(code: LinearCode) -> int:
    """Minimum nonzero codeword weight, from the brute-force histogram."""
    return next(w for w, c in enumerate(oracle_weight_distribution(code)) if c)


def oracle_prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending: every d = 2, 3, 4, ... divided
    out in turn while d * d <= m, then what is left if it is above 1."""
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    return out + [m] if m > 1 else out


def oracle_binomial(m: int, n: int) -> int:
    """C(m, n) via the multiplicative formula; every division is exact."""
    if n < 0 or n > m:
        return 0
    n = min(n, m - n)
    out = 1
    for i in range(1, n + 1):
        out = out * (m - n + i) // i
    return out


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    # remainder of a by b, coefficients ascending, b nonzero
    a = list(a)
    binv = pow(b[-1], p - 2, p)
    while len(_poly_trim(a)) >= len(b):
        shift = len(a) - len(b)
        factor = a[-1] * binv % p
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
    return a


def oracle_is_irreducible(modulus: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree 1..t-1."""
    t = len(modulus) - 1
    if t < 1:
        return False
    for deg in range(1, t):
        for tail in product(range(p), repeat=deg):
            divisor = list(tail) + [1]
            if not _poly_trim(_poly_mod(modulus, divisor, p)):
                return False
    return True


def oracle_field_mul(spec, a: int, b: int) -> int:
    """Code of a * b: the digit polynomials multiplied term by term, then
    reduced by long division by the modulus; a * b mod p in a prime field."""
    p, t = spec.p, spec.t
    if t == 1:
        return a * b % p
    da = [a // p ** i % p for i in range(t)]
    db = [b // p ** i % p for i in range(t)]
    prod = [0] * (2 * t - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    rem = _poly_mod([c % p for c in prod], list(spec.modulus), p)
    return sum(c * p ** i for i, c in enumerate(rem))


def oracle_field_pow(spec, a: int, e: int) -> int:
    """Code of a^e, 0^0 = 1: ``oracle_field_mul`` repeated over the bits of
    e from the top (square, then multiply by a on a set bit)."""
    out = 1
    for bit in bin(e)[2:]:
        out = oracle_field_mul(spec, out, out)
        if bit == "1":
            out = oracle_field_mul(spec, out, a)
    return out


def oracle_field_add(spec, a: int, b: int, sign: int = 1) -> int:
    """Code of a + sign * b: the coefficient lists added mod p."""
    p, t = spec.p, spec.t
    da = [a // p ** i % p for i in range(t)]
    db = [b // p ** i % p for i in range(t)]
    return sum((x + sign * y) % p * p ** i for i, (x, y) in enumerate(zip(da, db)))


def oracle_multiplicative_order(spec, e) -> int:
    """Order of a nonzero element by listing its powers."""
    assert e.code != 0
    seen = 1
    acc = e
    while acc.code != 1:
        acc = acc * e
        seen += 1
        assert seen <= spec.order
    return seen


def oracle_is_primitive(spec, e) -> bool:
    return e.code != 0 and oracle_multiplicative_order(spec, e) == spec.order - 1


def oracle_smallest_generator(p: int) -> int:
    """Least g whose powers exhaust (Z/p)*, by direct listing."""
    for g in range(1, p):
        seen = set()
        acc = 1
        for _ in range(p - 1):
            acc = acc * g % p
            seen.add(acc)
        if len(seen) == p - 1:
            return g
    raise AssertionError(f"no generator found for p={p}")


def oracle_mat_mul(a: FieldMatrix, b: FieldMatrix) -> list[list[int]]:
    """Codes of a . b: entry (i, j) is a sum of FieldElement products."""
    assert a.spec == b.spec and a.cols == b.rows
    return [[sum((a[i, r] * b[r, j] for r in range(a.cols)), a.spec.zero()).code
             for j in range(b.cols)] for i in range(a.rows)]


def oracle_det(m: FieldMatrix, rows, cols):
    """Determinant of the square submatrix on ``rows`` x ``cols``: the
    sum over permutations of sign * product, with FieldElement arithmetic."""
    n = len(rows)
    total = m.spec.zero()
    for perm in permutations(range(n)):
        term = m.spec.one()
        for i, j in enumerate(perm):
            term = term * m[rows[i], cols[j]]
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


def oracle_rank(m: FieldMatrix) -> int:
    """Largest r with a nonzero r x r minor."""
    for r in range(min(m.rows, m.cols), 0, -1):
        for rows in combinations(range(m.rows), r):
            if any(oracle_det(m, rows, cols) for cols in combinations(range(m.cols), r)):
                return r
    return 0


def oracle_systematic(g: FieldMatrix) -> FieldMatrix | None:
    """[I | B^-1 G] with B the leading k x k block, or None if B is singular.

    Entry (i, j) is det(B with column i replaced by column j of G) / det(B),
    by Cramer's rule; for j < k that is the identity block.
    """
    k = g.rows
    rows = range(k)
    det = oracle_det(g, rows, rows)
    if not det:
        return None
    codes = [[(oracle_det(g, rows, [j if c == i else c for c in rows]) / det).code
              for j in range(g.cols)] for i in rows]
    return FieldMatrix.from_rows(g.spec, codes)


def oracle_singular_minor(code: LinearCode):
    """First k-column set, in lexicographic order, with a zero determinant."""
    rows = range(code.k)
    return next((cols for cols in combinations(range(code.n), code.k)
                 if not oracle_det(code.generator, rows, cols)), None)


def oracle_singular_sets(m: FieldMatrix) -> list[tuple[int, ...]]:
    """Every k-column set of the k x n matrix m, in lexicographic order,
    on which its k x k minor is zero."""
    rows = range(m.rows)
    return [cols for cols in combinations(range(m.cols), m.rows)
            if not oracle_det(m, rows, cols)]


def oracle_is_mds(code: LinearCode) -> bool:
    return oracle_singular_minor(code) is None


class OracleSplitMix64:
    """SplitMix64 as the ``rng`` docstring states it, importing nothing from
    ``rng``. ``rejected`` counts the words a bounded draw threw away."""

    def __init__(self, seed: int) -> None:
        self.state, self.rejected = seed, 0

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2 ** 64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Words at or above 2^64 - (2^64 mod bound) are rejected."""
        while (z := self.next_u64()) >= 2 ** 64 - 2 ** 64 % bound:
            self.rejected += 1
        return z % bound

    def sample(self, population, count: int) -> list:
        """Partial Fisher-Yates: swap slots i and i + below(size - i) of the
        pool, a dict from slot to population index (absent: the slot's own)."""
        pool, out = {}, []
        for i in range(count):
            j = i + self.below(len(population) - i)
            pool[i], pool[j] = pool.get(j, j), pool.get(i, i)
            out.append(population[pool[i]])
        return out
