from __future__ import annotations

import sys
import threading
import time
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdslift import field as field_module
from mdslift.codes import grs_generator, min_distance
from mdslift.errors import (
    CharacteristicMismatch,
    DegreeTooSmall,
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    FormatError,
    NotPrime,
    TooManyCodewords,
)
from mdslift.field import (
    DEFAULT_ORDER_LIMIT,
    FieldElement,
    FieldSpec,
    _has_max_order,
    _prime_factors,
    _primitive_roots,
    field_from_modulus,
    is_prime,
    make_extension_field,
    make_prime_field,
)
from mdslift.rng import SplitMix64
from oracles import (
    oracle_field_add,
    oracle_field_mul,
    oracle_field_pow,
    oracle_is_irreducible,
    oracle_is_primitive,
    oracle_multiplicative_order,
    oracle_prime_factors,
    oracle_smallest_generator,
)

FIELDS = [(2, 1), (3, 1), (7, 1), (2, 2), (2, 4), (7, 2), (7, 3)]
GOLDEN = Path(__file__).parent / "golden"


def _make(p, t):
    return make_prime_field(p) if t == 1 else make_extension_field(p, t)


# construction -----------------------------------------------------------------


def test_is_prime_basics():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)


def test_trial_division_matches_oracle():
    # every m below 20,000, then primes and composites near 2^24, 2^31 and 2^32:
    # 2^24 - 3 is prime, 2^24 - 1 = 3^2 * 5 * 7 * 13 * 17 * 241, 2^32 - 5 is
    # prime and 2^32 + 1 = 641 * 6,700,417
    for m in list(range(20_000)) + [16_777_213, 16_777_215, 2**31 - 1, 4_294_967_291,
                                    4_294_967_297]:
        factors = oracle_prime_factors(m)
        assert _prime_factors(m) == factors, m
        assert is_prime(m) == (factors == [m]), m
    assert _prime_factors(4_294_967_297) == [641, 6_700_417]


def test_nonprime_p_rejected():
    with pytest.raises(NotPrime):
        make_prime_field(9)
    with pytest.raises(NotPrime):
        make_extension_field(10, 2)


def test_extension_needs_degree_two():
    with pytest.raises(DegreeTooSmall):
        make_extension_field(7, 1)
    with pytest.raises(DegreeTooSmall):
        make_extension_field(7, 0)
    with pytest.raises(DegreeTooSmall):
        field_from_modulus(7, 1, [3, 1])


@pytest.mark.parametrize("p,expected", [(2, 1), (3, 2), (5, 2), (7, 3), (11, 2), (13, 2)])
def test_prime_field_generator_is_smallest(p, expected):
    spec = make_prime_field(p)
    assert spec.generator_w.code == expected == oracle_smallest_generator(p)


@pytest.mark.parametrize("p,t,modulus", [
    (2, 2, (1, 1, 1)),
    (2, 4, (1, 0, 0, 1, 1)),
    (7, 2, (3, 1, 1)),
    (7, 3, (2, 1, 1, 1)),
    (7, 4, (3, 0, 1, 1, 1)),
    (2, 8, (1, 0, 0, 0, 1, 1, 1, 0, 1)),
    (3, 6, (2, 0, 0, 0, 0, 1, 1)),
])
def test_deterministic_modulus_choice(p, t, modulus):
    spec = make_extension_field(p, t)
    assert spec.modulus == modulus
    assert oracle_is_irreducible(list(modulus), p)
    assert oracle_is_primitive(spec, spec.generator_w)
    # lexicographic minimality: every smaller tail fails irreducibility
    # or primitivity of x
    for smaller in _lex_smaller_tails(modulus[:-1], p):
        with pytest.raises(FormatError):
            field_from_modulus(p, t, list(smaller) + [1])


def _lex_smaller_tails(tail, p):
    # all coefficient tails strictly below the chosen one, in scan order
    for cand in product(range(p), repeat=len(tail)):
        if cand >= tuple(tail):
            return
        yield cand


@pytest.mark.parametrize("p,t,modulus", [
    (2, 12, (1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1)),
    (2, 16, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1)),
    (5, 5, (2, 0, 0, 0, 3, 1)),
    (7, 6, (3, 0, 0, 0, 1, 1, 1)),
    (3, 10, (2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1)),
    (7, 7, (2, 0, 0, 0, 0, 0, 5, 1)),
    (2, 20, (1,) + (0,) * 16 + (1, 0, 0, 1)),
])
def test_pinned_modulus(p, t, modulus):
    # the moduli of larger fields, pinned without the lex-minimality scan
    assert make_extension_field(p, t).modulus == modulus


def test_modulus_choice_matches_golden_list():
    # moduli.txt holds "p t c0,...,ct" for every p < 1000, t >= 2 and
    # p^t <= 2^20, written by the scan that ran Ben-Or's irreducibility test
    # before the order of x, so the choice is pinned apart from the code
    lines = (GOLDEN / "moduli.txt").read_text().splitlines()
    assert len(lines) == 238
    for line in lines:
        p, t, modulus = line.split()
        spec = make_extension_field(int(p), int(t))
        assert spec.modulus == tuple(map(int, modulus.split(","))), line


# every monic polynomial of these degrees, against the trial-division oracles
_ORACLE_DEGREES = [(2, t) for t in range(2, 9)] + [(3, t) for t in range(2, 6)] + [
    (5, 2), (5, 3), (7, 2), (7, 3)]


@pytest.mark.parametrize("p,t", _ORACLE_DEGREES)
def test_modulus_predicates_match_oracles(p, t):
    # the one modulus test against both oracles, on every monic f of
    # degree t: reducible ones and those with f(0) = 0 included
    for tail in product(range(p), repeat=t):
        modulus = tail + (1,)
        expected = oracle_is_irreducible(list(modulus), p)
        if expected:
            # a fresh spec with w = x; powers of x stay in <x>, where
            # tables built from x are exact even when x is not primitive
            spec = FieldSpec(p, t, modulus, p)
            expected = oracle_is_primitive(spec, spec.generator_w)
        assert _has_max_order(modulus, p, _prime_factors(p ** t - 1)) == expected, modulus


@pytest.mark.parametrize("p,t", _ORACLE_DEGREES)
def test_norm_filter_keeps_every_oracle_modulus(p, t):
    # the scan skips constant terms c0 with (-1)^t c0 not a primitive root
    # mod p; no modulus the oracles accept may have such a c0
    fp = make_prime_field(p)
    roots = set(_primitive_roots(p))
    for tail in product(range(p), repeat=t):
        modulus = tail + (1,)
        if not oracle_is_irreducible(list(modulus), p):
            continue
        spec = FieldSpec(p, t, modulus, p)
        if oracle_is_primitive(spec, spec.generator_w):
            norm = fp.from_code((-1) ** t * tail[0] % p)
            assert norm.code != 0 and oracle_multiplicative_order(fp, norm) == p - 1, modulus
            assert norm.code in roots, modulus


def test_primitive_roots_match_oracle():
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
        fp = make_prime_field(p)
        expect = [g for g in range(1, p)
                  if oracle_multiplicative_order(fp, fp.from_code(g)) == p - 1]
        assert list(_primitive_roots(p)) == expect
        assert expect[0] == oracle_smallest_generator(p)


@pytest.mark.parametrize("build", [
    lambda: make_extension_field(2, 64),
    lambda: make_prime_field(2 ** 61 - 1),
    lambda: field_from_modulus(2, 61, [1] + [0] * 60 + [1]),
    lambda: make_extension_field(10 ** 30, 2),  # refused before trial division of p
    lambda: make_extension_field(2, 10 ** 100),  # p^t is never computed
])
def test_order_limit_refuses_at_once(build):
    start = time.perf_counter()
    with pytest.raises(FieldTooLarge, match=str(DEFAULT_ORDER_LIMIT)):
        build()
    assert time.perf_counter() - start < 1.0


def test_order_limit_can_be_raised():
    with pytest.raises(FieldTooLarge, match="limit 1048575"):
        make_extension_field(2, 20, order_limit=(1 << 20) - 1)
    assert make_extension_field(2, 20, order_limit=1 << 20) is make_extension_field(2, 20)
    with pytest.raises(FieldTooLarge):
        make_extension_field(2, 25)
    big = make_extension_field(2, 25, order_limit=1 << 25)
    assert big.order == 1 << 25 and _has_max_order(big.modulus, 2, _prime_factors(2 ** 25 - 1))
    with pytest.raises(FieldTooLarge):
        make_prime_field(16777259)  # the first prime past 2^24
    assert make_prime_field(16777259, order_limit=1 << 25).order == 16777259
    with pytest.raises(FieldTooLarge):
        field_from_modulus(7, 3, [2, 1, 1, 1], order_limit=342)
    assert field_from_modulus(7, 3, [2, 1, 1, 1], order_limit=343) is make_extension_field(7, 3)


def test_construction_is_cached_and_deterministic():
    a = make_extension_field(7, 3)
    b = make_extension_field(7, 3)
    assert a is b
    c = field_from_modulus(7, 3, [2, 1, 1, 1])
    assert c is a


def test_field_from_modulus_accepts_nonminimal():
    alt = field_from_modulus(2, 4, [1, 1, 0, 0, 1])
    assert alt.modulus == (1, 1, 0, 0, 1)
    assert oracle_is_primitive(alt, alt.generator_w)
    assert alt.field_id != make_extension_field(2, 4).field_id


def test_field_from_modulus_rejects_bad_polynomials():
    with pytest.raises(FormatError):
        field_from_modulus(2, 4, [1, 0, 0, 0, 1])  # (x^2+1)^2, reducible
    with pytest.raises(FormatError):
        field_from_modulus(2, 4, [1, 1, 1, 1, 1])  # irreducible but x has order 5
    with pytest.raises(FormatError):
        field_from_modulus(7, 2, [3, 1, 2])  # not monic
    with pytest.raises(FormatError):
        field_from_modulus(7, 2, [3, 1])  # wrong length
    with pytest.raises(FormatError):
        field_from_modulus(7, 2, [3, 7, 1])  # a coefficient >= p


def test_field_from_modulus_tests_each_accepted_modulus_once(monkeypatch):
    from mdslift import field as field_module
    calls = []
    def counted(modulus, p, factors, _real=field_module._has_max_order):
        calls.append("_has_max_order")
        return _real(modulus, p, factors)
    monkeypatch.setattr(field_module, "_has_max_order", counted)
    field_module._field.cache_clear()
    spec = field_from_modulus(2, 4, [1, 1, 0, 0, 1])
    assert calls == ["_has_max_order"]
    for _ in range(3):
        assert field_from_modulus(2, 4, (1, 1, 0, 0, 1)) is spec
    assert len(calls) == 1
    # the cap and the format checks still run on every call
    with pytest.raises(FieldTooLarge):
        field_from_modulus(2, 4, [1, 1, 0, 0, 1], order_limit=15)
    with pytest.raises(FormatError):
        field_from_modulus(2, 4, [1, 1, 0, 0, 2])
    assert len(calls) == 1
    # a rejected modulus is tested, and refused, on every call
    for rejected in range(1, 4):
        with pytest.raises(FormatError):
            field_from_modulus(2, 4, [1, 0, 0, 0, 1])  # (x^2+1)^2, reducible
        assert calls[1:] == ["_has_max_order"] * rejected
    for rejected in range(1, 3):
        with pytest.raises(FormatError):
            field_from_modulus(2, 4, [1, 1, 1, 1, 1])  # irreducible, x of order 5
        assert calls[4:] == ["_has_max_order"] * rejected


def test_the_scan_factors_the_group_order_once(monkeypatch):
    calls = []
    def counted(m, _real=field_module._prime_factors):
        calls.append(m)
        return _real(m)
    built = make_extension_field(11, 6)
    monkeypatch.setattr(field_module, "_prime_factors", counted)
    field_module._field.cache_clear()
    assert make_extension_field(11, 6) is built  # 81 candidates scanned again
    assert calls.count(11 ** 6 - 1) == 1


def test_a_built_field_is_not_checked_again_and_a_refusal_is_repeated(monkeypatch):
    calls = []
    def counted(n, _real=field_module.is_prime):
        calls.append(n)
        return _real(n)
    built = [make_prime_field(16_777_213), make_extension_field(7, 3),
             field_from_modulus(7, 3, [2, 1, 1, 1])]
    monkeypatch.setattr(field_module, "is_prime", counted)
    for _ in range(3):
        assert [make_prime_field(16_777_213), make_extension_field(7, 3),
                field_from_modulus(7, 3, [2, 1, 1, 1])] == built
    assert calls == []
    for rejected in range(1, 3):
        with pytest.raises(NotPrime):
            make_prime_field(16_777_215)
        with pytest.raises(NotPrime):  # a composite p is refused ahead of the degree
            make_extension_field(9, 1)
        with pytest.raises(FormatError):
            field_from_modulus(7, 3, [2, 1, 1, 2])
        assert calls == [16_777_215, 9, 7] * rejected


def test_concurrent_builds_of_one_field_get_one_spec(monkeypatch):
    # eight threads miss the cleared field cache and hold at a barrier inside
    # FieldSpec.__init__, so each builds its own spec of F_211; the store
    # must hand every thread the one it keeps
    barrier = threading.Barrier(8, timeout=30)
    real_init = FieldSpec.__init__
    def held(self, *args):
        barrier.wait()
        real_init(self, *args)
    store = {}
    monkeypatch.setattr(field_module, "_SPECS", store)
    monkeypatch.setattr(FieldSpec, "__init__", held)
    field_module._field.cache_clear()
    got = []
    try:
        threads = [threading.Thread(target=lambda: got.append(make_prime_field(211)))
                   for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        field_module._field.cache_clear()  # drop F_211 of the patched store
    assert len(got) == 8 and all(spec is got[0] for spec in got)
    assert list(store) == [(211, 1, None)] and store[211, 1, None] is got[0]


def test_numpy_integers_never_stand_in_for_a_cached_field():
    # F_3^13, which no other test builds: its first call reads numpy integers
    spec = make_extension_field(3, np.int64(13))
    assert type(spec.order) is int and type(spec.p) is int and type(spec.t) is int
    assert make_extension_field(3, 13) is spec
    with pytest.raises(TooManyCodewords):  # 3^78 - 1 codewords, not an int64 wrap
        min_distance(grs_generator(spec, 8, 6))


def test_numpy_integers_build_fields_of_python_ints():
    assert make_prime_field(np.int64(7)) is make_prime_field(7)
    assert make_prime_field(7, order_limit=np.int64(7)) is make_prime_field(7)
    spec = field_from_modulus(np.int64(7), np.int64(3), np.array([2, 1, 1, 1]), np.int64(343))
    assert spec is make_extension_field(np.int64(7), np.uint8(3)) is make_extension_field(7, 3)
    assert all(type(c) is int for c in (spec.p, spec.t, spec.order, *spec.modulus))


def test_non_integer_parameters_are_refused():
    make_extension_field(7, 2)
    for build in (lambda: make_extension_field(7, 2.0),  # F_49 is built
                  lambda: make_extension_field(3, 14.0),  # F_3^14 is not
                  lambda: make_prime_field(7.0),
                  lambda: make_prime_field(7, order_limit=49.0),
                  lambda: field_from_modulus(2, 2, [1.9, 1, 1]),
                  lambda: field_from_modulus(2, 2, ["1", 1, 1]),
                  lambda: field_from_modulus(7, 3, [2, 1, 1, 1.0]),
                  lambda: field_from_modulus(7, 3, "2111")):
        with pytest.raises(TypeError):
            build()


def test_equal_fields_and_elements_hash_alike(f343):
    twin = FieldSpec(7, 3, f343.modulus, 7)  # equal to the stored spec, not it
    assert twin == f343 and twin is not f343 and hash(twin) == hash(f343)
    assert {f343: "F_343"}[twin] == "F_343"
    a, b = f343.from_code(10), FieldElement(twin, 10)
    assert a == b and hash(a) == hash(b)
    assert {a: "3 + x"}[b] == "3 + x" and len({a, b, f343.element([3, 1])}) == 1
    assert len(set(f343.elements()) | set(twin.elements())) == 343


# arithmetic axioms ------------------------------------------------------------


@pytest.mark.parametrize("p,t", FIELDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_field_axioms(p, t, data):
    spec = _make(p, t)
    q = spec.order
    a = spec.from_code(data.draw(st.integers(0, q - 1)))
    b = spec.from_code(data.draw(st.integers(0, q - 1)))
    c = spec.from_code(data.draw(st.integers(0, q - 1)))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + spec.zero() == a
    assert a * spec.one() == a
    assert a - a == spec.zero()
    assert a + (-a) == spec.zero()
    if a.code != 0:
        assert a * a.inv() == spec.one()
        assert (a / a) == spec.one()


@pytest.mark.parametrize("p,t", FIELDS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_power_laws(p, t, data):
    spec = _make(p, t)
    a = spec.from_code(data.draw(st.integers(1, spec.order - 1)))
    e1 = data.draw(st.integers(0, 50))
    e2 = data.draw(st.integers(0, 50))
    assert a ** (e1 + e2) == (a ** e1) * (a ** e2)
    assert a ** (spec.order - 1) == spec.one()


@pytest.mark.parametrize("name", ["f7", "f4", "f343", "f2_17"])
def test_array_ops_match_scalar_ops(name, request):
    spec = request.getfixturevalue(name)  # f2_17: the elementwise branch
    rng = SplitMix64(17)
    a = np.array([rng.below(spec.order) for _ in range(60)] + [0, 0, 1], dtype=np.int64)
    b = np.array([rng.below(spec.order) for _ in range(60)] + [0, 1, 0], dtype=np.int64)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert spec.mul_array(a, b).tolist() == [spec.mul_code(x, y) for x, y in pairs]
    grid = a[:60].reshape(6, 10)
    assert spec.coords_array(grid).tolist() == [
        [list(spec.code_to_coords(c)) for c in row] for row in grid.tolist()]


# every pair for the small fields; 2,000 seeded pairs for the larger ones
ALL_PAIRS = [(2, 2), (2, 3), (3, 2), (2, 5), (7, 2)]
SAMPLED = [(7, 3), (7, 4), (3, 5), (2, 16)]


def _sample(spec, seed, count=2000):
    rng = SplitMix64(seed)
    return [rng.below(spec.order) for _ in range(count)]


@pytest.mark.parametrize("p,t", ALL_PAIRS + SAMPLED)
def test_mul_code_matches_oracle(p, t):
    spec = _make(p, t)
    if (p, t) in ALL_PAIRS:
        pairs = list(product(range(spec.order), repeat=2))
    else:
        pairs = list(zip(_sample(spec, 1), _sample(spec, 2))) + [(0, 5), (5, 0), (0, 0)]
    assert [spec.mul_code(a, b) for a, b in pairs] == [
        oracle_field_mul(spec, a, b) for a, b in pairs]


# every pair for F_4, F_8, F_9, F_49 and F_343; seeded pairs up to F_2^16, and
# for F_3^11, above the automatic table limit with odd p: no Zech list, so its
# sums and differences run digit by digit
@pytest.mark.parametrize("p,t", [(2, 2), (2, 3), (3, 2), (7, 2), (7, 3), (7, 4), (3, 5), (2, 16),
                                 (3, 11)])
def test_zech_add_and_sub_match_digitwise_oracle(p, t):
    spec = _make(p, t)
    if spec.order <= 343:
        pairs = list(product(range(spec.order), repeat=2))
    else:
        pairs = list(zip(_sample(spec, 7), _sample(spec, 8))) + [(0, 5), (5, 0), (0, 0)]
    # the sums below read it for odd p up to the limit
    assert (spec._scalar_zech() is None) == (spec.order > 1 << 16)
    for sign, op in ((1, spec.add_code), (-1, spec.sub_code)):
        assert [op(a, b) for a, b in pairs] == [oracle_field_add(spec, a, b, sign)
                                                for a, b in pairs]
    assert [spec.neg_code(a) for a, _ in pairs] == [oracle_field_add(spec, 0, a, -1)
                                                    for a, _ in pairs]


# every pair for F_2, F_8 and F_2^8; seeded pairs for F_2^16 and F_2^17, which
# is above the automatic table limit and has no Zech list
@pytest.mark.parametrize("p,t", [(2, 1), (2, 3), (2, 8), (2, 16), (2, 17)])
def test_characteristic_two_sums_are_xor(p, t, f2_17):
    spec = f2_17 if t == 17 else _make(p, t)
    if spec.order <= 256:
        pairs = list(product(range(spec.order), repeat=2))
    else:
        pairs = list(zip(_sample(spec, 9), _sample(spec, 10))) + [(0, 5), (5, 0), (0, 0)]
    digitwise = [spec._digit_sum(a, b, 1) for a, b in pairs]
    assert [a ^ b for a, b in pairs] == digitwise == [spec._digit_sum(a, b, -1) for a, b in pairs]
    assert [spec.add_code(a, b) for a, b in pairs] == digitwise
    assert [spec.sub_code(a, b) for a, b in pairs] == digitwise
    assert [spec.neg_code(a) for a, _ in pairs] == [a for a, _ in pairs]


@pytest.mark.parametrize("p,t", [(2, 1), (7, 1), (2, 2), (2, 3), (3, 2), (7, 2), (7, 3), (2, 16)])
def test_zech_marker_is_where_one_plus_w_e_is_zero(p, t):
    spec = _make(p, t)
    zech, m = spec._scalar_zech(), spec.order - 1
    exp, log = spec._exp, spec._log
    # 1 + w^e = 0 only at w^e = -1: e = (q - 1)/2 for odd p, e = 0 for p = 2
    minus_one = m // 2 if p % 2 else 0
    assert [e for e in range(m) if zech[e] == log[0]] == [minus_one]
    assert exp[minus_one] == oracle_field_add(spec, 0, 1, -1)
    for e in (range(m) if m < 400 else _sample(spec, 9, 400)):
        if e != minus_one:
            assert exp[zech[e] % m] == oracle_field_add(spec, 1, exp[e])


@pytest.mark.parametrize("p,t", [(3, 2), (7, 2), (7, 3)])
def test_from_power_matches_pow_code(p, t):
    spec = _make(p, t)
    m, w = spec.order - 1, spec.generator_w.code
    for k in range(2 * m + 1):
        assert spec.from_power(k).code == spec.pow_code(w, k % m)
        assert spec.from_power(-k).code == spec.pow_code(w, -k % m)


# each on a spec of its own, so the tier it tests is the one it runs: the
# builtin pow in F_65537, which builds no table; the exp/log tables of F_343
# with its Zech list, and of F_3^11 once dlog built them, with none; and
# polynomial square-and-multiply in F_7^6 and F_2^17, which have no table
@pytest.mark.parametrize("p,t,tier", [(65537, 1, "pow"), (7, 3, "zech"), (3, 11, "dlog"),
                                      (7, 6, "poly"), (2, 17, "poly")])
def test_pow_inv_and_from_power_match_repeated_oracle_products(p, t, tier):
    shared = _make(p, t)
    spec = FieldSpec(p, t, shared.modulus, shared.generator_w.code)
    if tier == "dlog":
        spec.dlog(1)
    q, w = spec.order, spec.generator_w.code
    exponents = [0, 1, q - 2, q - 1, 3 * q + 5]
    for a in [0, 1, w] + _sample(spec, 11, 6):
        assert [spec.pow_code(a, e) for e in exponents] == [
            oracle_field_pow(spec, a, e) for e in exponents]
        if a:
            assert spec.inv_code(a) == oracle_field_pow(spec, a, q - 2)
            assert oracle_field_mul(spec, a, spec.inv_code(a)) == 1
    for k in exponents + [-e for e in exponents]:
        assert spec.from_power(k).code == oracle_field_pow(spec, w, k % (q - 1))
    if tier in ("pow", "poly"):
        assert spec._log is None
    else:
        assert spec._log is not None and (spec._scalar_zech() is None) == (tier == "dlog")


@pytest.mark.parametrize("p,t", [(2, 1), (7, 1)] + ALL_PAIRS + SAMPLED)
def test_tables_match_oracle(p, t):
    spec = _make(p, t)
    spec.dlog(spec.one())
    exp, log, m, w = spec._exp, spec._log, spec.order - 1, spec.generator_w.code
    # two periods, and log[0] points past them
    assert len(exp) == 2 * m and exp[m:] == exp[:m] and log[0] == 2 * m
    assert all(log[exp[e]] == e for e in range(m))
    if spec.order <= 2401:
        acc = 1
        for e in range(m):
            assert exp[e] == acc  # exp[e] = w^e
            acc = oracle_field_mul(spec, acc, w)
        assert acc == 1
        units = range(1, spec.order)
    else:
        assert exp[0] == 1 and sorted(exp[:m]) == list(range(1, spec.order))
        for e in _sample(spec, 3):
            assert exp[e + 1] == oracle_field_mul(spec, exp[e], w)
        units = [a for a in _sample(spec, 4) if a]
    assert all(oracle_field_mul(spec, a, spec.inv_code(a)) == 1 for a in units)


# each call on a spec of its own, so it is the first: a product, a power or a
# dlog builds exp and log alone, not the Zech list and the log-sum lists
@pytest.mark.parametrize("p,t", [(2, 16), (3, 10)])
def test_products_and_logs_build_no_log_sum_lists(p, t):
    modulus = _make(p, t).modulus
    for first in (lambda s: s.mul_code(5, 7), lambda s: s.pow_code(5, 3), lambda s: s.dlog(5)):
        spec = FieldSpec(p, t, modulus, p)
        tracemalloc.start()
        try:
            first(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec._log is not None and spec._red is None and spec._step is None
        assert peak < 8 << 20, peak
    if p == 2:
        assert spec.add_code(5, 7) == 2 and spec._step is None  # a sum is a xor
        assert spec._scalar_zech() is not None
    else:
        assert spec.add_code(5, 7) == oracle_field_add(spec, 5, 7)
    assert spec._red is not None and spec._step is not None


def test_extension_generator_is_x(f2_17):
    for spec in [_make(p, t) for p, t in ALL_PAIRS + SAMPLED] + [f2_17]:
        assert spec.generator_w.coords == (0, 1) + (0,) * (spec.t - 2)


def test_dlog_tables_above_auto_limit_match_polynomial_path(f2_17):
    # a spec of its own, so the shared f2_17 keeps its polynomial path
    spec = FieldSpec(f2_17.p, f2_17.t, f2_17.modulus, f2_17.p)
    assert spec == f2_17 and spec is not f2_17
    assert spec.dlog(spec.generator_w, table_limit=1 << 17) == 1
    assert spec._log is not None and f2_17._log is None
    assert spec._scalar_zech() is None  # no Zech list above the automatic limit
    pairs = list(zip(_sample(spec, 5, 500), _sample(spec, 6, 500)))
    assert [spec.mul_code(a, b) for a, b in pairs] == [f2_17.mul_code(a, b) for a, b in pairs]
    assert [spec.mul_code(a, b) for a, b in pairs[:100]] == [
        oracle_field_mul(spec, a, b) for a, b in pairs[:100]]
    units = [a for a, _ in pairs if a]
    assert [spec.inv_code(a) for a in units] == [f2_17.inv_code(a) for a in units]
    # sums run digit by digit; without tables, w^k runs by square-and-multiply
    assert [spec.add_code(a, b) for a, b in pairs[:100]] == [
        oracle_field_add(spec, a, b) for a, b in pairs[:100]]
    assert [spec.sub_code(a, b) for a, b in pairs[:100]] == [
        oracle_field_add(spec, a, b, -1) for a, b in pairs[:100]]
    assert spec.from_power(5) == f2_17.from_power(5) == f2_17.from_code(32)
    assert f2_17._log is None


def test_zero_to_the_zero_is_one(f7, f343):
    # empty-product convention, matching pow(0, 0)
    assert f7.zero() ** 0 == f7.one()
    assert f343.zero() ** 0 == f343.one()


def test_negative_exponent_rejected(f7, f343):
    for spec in (f7, f343):
        with pytest.raises(ValueError):
            spec.pow_code(3, -1)


def test_division_by_zero(f343):
    with pytest.raises(DivisionByZero):
        f343.one() / f343.zero()
    with pytest.raises(DivisionByZero):
        f343.zero().inv()


@pytest.mark.parametrize("p,t", FIELDS)
def test_int_operands_are_constants(p, t):
    spec = _make(p, t)
    a = spec.generator_w
    assert a + 0 == a
    assert a * 1 == a
    assert a * p == spec.zero()  # characteristic
    assert 1 - spec.one() == spec.zero()


@pytest.mark.parametrize("p,t", [(7, 1), (2, 3), (3, 2)])
def test_operators_match_code_ops(p, t):
    spec = _make(p, t)
    elems = list(spec.elements())
    for a, b in product(elems, repeat=2):
        assert (a + b).code == spec.add_code(a.code, b.code)
        assert (a - b).code == spec.sub_code(a.code, b.code)
        assert (a * b).code == spec.mul_code(a.code, b.code)
        if b:
            assert (a / b).code == spec.mul_code(a.code, spec.inv_code(b.code))
    # an int operand n, on either side, is n * 1
    for a, n in product(elems, [-p - 1, -1, 0, 1, 2, p, p + 3, 100]):
        one = n % p
        assert (n + a).code == (a + n).code == spec.add_code(one, a.code)
        assert (n - a).code == spec.sub_code(one, a.code)
        assert (a - n).code == spec.sub_code(a.code, one)
        assert (n * a).code == (a * n).code == spec.mul_code(one, a.code)
    for a in elems:
        with pytest.raises(DivisionByZero):
            a / 0
        with pytest.raises(TypeError):
            a + 1.5
        with pytest.raises(TypeError):
            1.5 - a


def test_cross_field_arithmetic_rejected(f7, f343, f49):
    with pytest.raises(FieldMismatch):
        f7.one() + f343.one()
    with pytest.raises(FieldMismatch):
        f49.one() * f343.one()


# codes and coordinates --------------------------------------------------------


@pytest.mark.parametrize("p,t", FIELDS)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_code_coords_roundtrip(p, t, data):
    spec = _make(p, t)
    code = data.draw(st.integers(0, spec.order - 1))
    e = spec.from_code(code)
    assert len(e.coords) == t
    assert spec.from_coords(e.coords) == e
    assert e.code == sum(c * p ** i for i, c in enumerate(e.coords))


def test_element_code_range_validated(f7, f343):
    with pytest.raises(ValueError):
        FieldElement(f7, 7)
    with pytest.raises(ValueError):
        FieldElement(f7, -1)
    with pytest.raises(ValueError):
        f343.from_coords([1, 2, 3, 4])  # t + 1 coordinates


def test_element_code_must_be_an_integer(f343):
    # a float is not truncated into some other element's code
    with pytest.raises(TypeError):
        FieldElement(f343, 2.7)
    assert FieldElement(f343, np.int64(2)).code == 2


def test_constants_keep_their_code(f343):
    # embedding of constants is the identity on codes
    for v in range(7):
        assert f343.element(v).code == v


# generator, dlog, embed -------------------------------------------------------


@pytest.mark.parametrize("p,t", FIELDS)
def test_generator_is_primitive(p, t):
    spec = _make(p, t)
    if spec.order == 2:
        assert spec.generator_w == spec.one()
        return
    assert oracle_is_primitive(spec, spec.generator_w)


def test_dlog_from_power_roundtrip(f343):
    for code in range(1, f343.order):
        e = f343.from_code(code)
        k = f343.dlog(e)
        assert 0 <= k < f343.order - 1
        assert f343.from_power(k) == e
    assert f343.from_power(f343.order - 1) == f343.one()  # exponent wraps


def test_dlog_of_zero_rejected(f343):
    with pytest.raises(DivisionByZero):
        f343.dlog(f343.zero())


def test_dlog_table_limit():
    big = make_prime_field(1048583)  # first prime past 2^20
    with pytest.raises(FieldTooLarge):
        big.dlog(big.element(2))
    # an explicit larger limit lifts the refusal
    assert big.from_power(big.dlog(big.element(2), table_limit=1 << 21)) == big.element(2)


def test_embed_is_a_ring_homomorphism(f7, f343):
    # exhaustive over all pairs of F_7
    for ac in range(7):
        for bc in range(7):
            a, b = f7.from_code(ac), f7.from_code(bc)
            assert f343.embed(a + b) == f343.embed(a) + f343.embed(b)
            assert f343.embed(a * b) == f343.embed(a) * f343.embed(b)
    assert f343.embed(f7.one()) == f343.one()


def test_embed_rejects_wrong_source(f2, f7, f49, f343):
    with pytest.raises(CharacteristicMismatch):
        f343.embed(f2.one())
    with pytest.raises(FieldMismatch):
        f343.embed(f49.one())  # only prime-field sources embed


def test_concurrent_table_build_is_safe():
    spec = make_extension_field(3, 4)
    # construction builds no table, so the threads below race to build it
    assert spec._log is None
    results = []
    def worker():
        results.append(spec.dlog(spec.from_code(spec.order - 1)))
    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(set(results)) == 1


def test_concurrent_log_and_zech_builds_are_safe():
    # threads race on a fresh F_3^9 spec, half building the Zech list first
    # (a sum) and half the exp/log tables (a product): every result matches
    # the oracle, and the lists are built once
    spec = FieldSpec(3, 9, make_extension_field(3, 9).modulus, 3)
    pairs = list(zip(_sample(spec, 12, 40), _sample(spec, 13, 40)))
    results, steps = {}, []
    def worker(i):
        ops = [spec.add_code, spec.mul_code]
        if i % 2:
            ops.reverse()
        results[i] = [op(a, b) for op in ops for a, b in pairs]
        steps.append(spec._scalar_zech())
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads) and len(results) == 8
    sums = [oracle_field_add(spec, a, b) for a, b in pairs]
    products = [oracle_field_mul(spec, a, b) for a, b in pairs]
    for i, got in results.items():
        assert got == (products + sums if i % 2 else sums + products)
    assert all(step is steps[0] for step in steps)
