"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints "ACCEPTANCE <n> PASS|FAIL - <what was checked>" outside
of pytest's capture, so the lines are visible in any run mode, then
asserts. Tolerances are exact unless a runtime budget is stated.
"""

from __future__ import annotations

import time
from itertools import combinations

import pytest

from mdslift.cli import main as cli_main
from mdslift.codes import (
    LinearCode,
    example1_code,
    grs_generator,
    is_mds,
    min_distance,
    monomial_sandwich,
    scale_col,
    scale_row,
)
from mdslift.erasure import erase, erasure_decode, erasure_encode
from mdslift.errors import (
    FieldTooSmall,
    NotDh,
    Singular,
    TooManyErasures,
    ZeroDiagonalEntry,
)
from mdslift.field import make_extension_field, make_prime_field
from mdslift.kernels import min_weight
from mdslift.lifting import DhDiagonal, diversity_count, lift, sample_dh
from mdslift.matrix import FieldMatrix
from mdslift.rng import SplitMix64
from oracles import oracle_binomial, oracle_min_distance

EX1_ROWS = [
    [1, 0, 0, 6, 4, 2, 5, 3],
    [0, 1, 0, 3, 1, 5, 1, 3],
    [0, 0, 1, 3, 5, 2, 4, 6],
]


@pytest.fixture()
def report(capsys):
    def emit(num: int, ok: bool, desc: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {desc}")
        assert ok, f"criterion {num}: {desc}"
    return emit


def test_criterion_1_reference_code_reproduction(report):
    start = time.perf_counter()
    code = example1_code()
    exact = code.generator.to_lists() == EX1_ROWS and code.spec.order == 7
    d = min_distance(code)
    mds = is_mds(code)
    elapsed = time.perf_counter() - start
    ok = exact and d == 6 and mds and elapsed < 1.0
    report(1, ok, f"[8,3] reference matrix exact, d=6, MDS ({elapsed:.3f}s < 1s)")


def test_criterion_2_two_hundred_seeded_lifts(report):
    f343 = make_extension_field(7, 3)
    base = example1_code()
    failures = [s for s in range(200) if not is_mds(lift(base, sample_dh(f343, 8, s)))]
    start = time.perf_counter()
    enumerated = lift(base, sample_dh(f343, 8, 0))
    d = min_weight(enumerated)  # covers all 343^3 - 1 codewords, one per projective point
    elapsed = time.perf_counter() - start
    sys_block = lift(base, sample_dh(f343, 8, 0), systematize=True).generator
    identity_shape = sys_block.codes[:, :3].tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    ok = not failures and d == 6 and identity_shape and elapsed <= 300.0
    report(2, ok, f"200/200 lifts MDS, enumerated lift d=6 over F_343 "
                  f"({elapsed:.1f}s <= 300s), systematic shape holds")


def test_criterion_3_cross_field_distance_agreement(report):
    f7 = make_prime_field(7)
    f49 = make_extension_field(7, 2)
    base = grs_generator(f7, 6, 2)
    lifted = lift(base, sample_dh(f49, 6, 1))
    # enumerated, not read from the minor criterion, which is_mds checks below
    d_base = min_weight(base)
    d_lift = min_weight(lifted)  # 49^2 - 1 = 2400 nonzero codewords
    singleton = base.n - base.k + 1
    ok = d_base == d_lift == 5 == singleton and is_mds(lifted)
    report(3, ok, f"[6,2] base d={d_base}, lifted-to-F_49 d={d_lift}, both = n-k+1 = 5")


def test_criterion_4_scaling_and_sandwich_closure(report):
    rng = SplitMix64(2024)
    checked = failures = 0
    for p in (11, 13):
        spec = make_prime_field(p)
        for _ in range(25):
            n = 5 + rng.below(4)
            k = 2 + rng.below(3)
            alphas = [spec.from_code(c) for c in rng.sample(range(p), n)]
            vs = [spec.from_code(c) for c in rng.sample(range(1, p), n)]
            code = grs_generator(spec, n, k, alphas=alphas, vs=vs)
            variants = []
            for _ in range(5):
                variants.append(scale_row(code.generator, rng.below(k), 1 + rng.below(p - 1)))
                variants.append(scale_col(code.generator, rng.below(n), 1 + rng.below(p - 1)))
            for _ in range(10):
                left = [1 + rng.below(p - 1) for _ in range(k)]
                right = [1 + rng.below(p - 1) for _ in range(n)]
                variants.append(monomial_sandwich(code.generator, left, right))
            for g in variants:
                checked += 1
                failures += not is_mds(LinearCode(g))
    ok = failures == 0 and checked == 50 * 20
    report(4, ok, f"50 GRS codes over F_11/F_13: {checked} scaled/sandwiched variants, "
                  f"{failures} MDS failures")


def test_criterion_5_field_axioms_and_embedding(report):
    fields = [make_prime_field(2), make_prime_field(3), make_prime_field(7),
              make_extension_field(2, 4), make_extension_field(7, 3)]
    rng = SplitMix64(5)
    bad = 0
    for spec in fields:
        q = spec.order
        for _ in range(1000):
            a = spec.from_code(rng.below(q))
            b = spec.from_code(rng.below(q))
            c = spec.from_code(rng.below(q))
            if (a + b) + c != a + (b + c):
                bad += 1
            if (a * b) * c != a * (b * c):
                bad += 1
            if a * (b + c) != a * b + a * c:
                bad += 1
            if a + spec.zero() != a or a * spec.one() != a:
                bad += 1
            if a.code and (a * a.inv() != spec.one() or a + (-a) != spec.zero()):
                bad += 1
    f7, f343 = fields[2], fields[4]
    embed_ok = all(
        f343.embed(a + b) == f343.embed(a) + f343.embed(b)
        and f343.embed(a * b) == f343.embed(a) * f343.embed(b)
        for a in (f7.from_code(x) for x in range(7))
        for b in (f7.from_code(y) for y in range(7))
    )
    ok = bad == 0 and embed_ok
    report(5, ok, f"5000 random axiom triples, 0 failures; embedding of F_7 into "
                  f"F_343 is a homomorphism on all 49 pairs")


def test_criterion_6_diversity_counts(report):
    small = diversity_count(2, 2, 3)
    big = diversity_count(7, 3, 8)
    oracle = oracle_binomial(342, 8)
    ok = small == 1 and big == oracle
    report(6, ok, f"C(3,3)={small}, C(342,8)={big} matches independent binomial oracle")


def test_criterion_7_erasure_guarantee(report):
    f7 = make_prime_field(7)
    f343 = make_extension_field(7, 3)
    base = example1_code()
    lifted = lift(base, sample_dh(f343, 8, 77))
    rng = SplitMix64(7)
    recovered = attempted = 0
    for code in (base, lifted):
        spec = code.spec
        for pattern in combinations(range(8), 5):
            for _ in range(20):
                msg = [spec.from_code(rng.below(spec.order)) for _ in range(3)]
                word = erase(code, erasure_encode(code, msg), pattern)
                attempted += 1
                recovered += erasure_decode(word) == msg
    rejected = 0
    cw = erasure_encode(base, [f7.element(v) for v in [1, 2, 3]])
    for pattern in combinations(range(8), 6):
        try:
            erasure_decode(erase(base, cw, pattern))
        except TooManyErasures:
            rejected += 1
    non_mds = LinearCode(FieldMatrix.from_rows(f7, [
        [1, 0, 0, 6, 4, 2, 5, 5],
        [0, 1, 0, 3, 1, 5, 1, 1],
        [0, 0, 1, 3, 5, 2, 4, 4],
    ]))
    cw_bad = erasure_encode(non_mds, [f7.element(v) for v in [1, 2, 3]])
    singular_seen = 0
    for pattern in combinations(range(8), 5):
        try:
            erasure_decode(erase(non_mds, cw_bad, pattern))
        except Singular:
            singular_seen += 1
    ok = (recovered == attempted == 2 * 56 * 20
          and rejected == 28 and singular_seen > 0)
    report(7, ok, f"{recovered}/{attempted} size-5 recoveries on base+lift, "
                  f"all {rejected} size-6 patterns rejected, non-MDS code hit "
                  f"Singular on {singular_seen} patterns")


def test_criterion_8_negative_input_contract(report):
    f343 = make_extension_field(7, 3)
    base = example1_code()
    hits = 0
    try:
        DhDiagonal(f343, [1, 2, 0, 4, 5, 6, 8, 9])
    except ZeroDiagonalEntry:
        hits += 1
    try:
        lift(base, DhDiagonal(f343, [9, 9, 1, 2, 3, 4, 5, 6]))
    except NotDh:
        hits += 1
    try:
        lift(base, DhDiagonal(make_prime_field(7), [1, 2, 3, 4, 5, 6, 1, 2]),
             strict_dh=False)  # 7 <= n = 8
    except FieldTooSmall:
        hits += 1
    ok = hits == 3
    report(8, ok, "ZeroDiagonalEntry, NotDh (strict), FieldTooSmall all raised")


def test_criterion_9_byte_identical_pipeline(report, tmp_path):
    outputs = []
    verdicts = []
    ex1 = tmp_path / "ex1.txt"
    assert cli_main(["example1", "-o", str(ex1)]) == 0
    for run in ("first", "second"):
        dh_path = tmp_path / f"dh_{run}.txt"
        lift_path = tmp_path / f"lift_{run}.txt"
        assert cli_main(["dh", "-p", "7", "-t", "3", "-n", "8", "--seed", "606",
                         "-o", str(dh_path)]) == 0
        assert cli_main(["lift", str(ex1), str(dh_path), "-o", str(lift_path)]) == 0
        verdicts.append(cli_main(["ismds", str(lift_path)]))
        outputs.append((dh_path.read_bytes(), lift_path.read_bytes()))
    ok = outputs[0] == outputs[1] and verdicts == [0, 0]
    report(9, ok, "dh -> lift -> ismds repeated with one seed: byte-identical files, "
                  "MDS verdict both times")
