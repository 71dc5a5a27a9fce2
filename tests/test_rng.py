from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mdslift
from mdslift.field import make_extension_field
from mdslift.lifting import sample_dh
from mdslift.rng import SplitMix64
from oracles import OracleSplitMix64


def test_reference_stream_seed_zero():
    # first outputs of the fixed 64-bit mixing recurrence; these values
    # pin the documented algorithm so samples stay portable
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4
    assert r.next_u64() == 0x06C45D188009454F


def test_reference_stream_seed_one():
    assert SplitMix64(1).next_u64() == 0x910A2DEC89025CC1


def test_outputs_are_64_bit():
    r = SplitMix64(12345)
    for _ in range(1000):
        assert 0 <= r.next_u64() < 1 << 64


def test_same_seed_same_stream():
    xs = SplitMix64(9)
    ys = SplitMix64(9)
    assert [xs.next_u64() for _ in range(100)] == [ys.next_u64() for _ in range(100)]
    assert SplitMix64(10).next_u64() != SplitMix64(9).next_u64()


def test_below_is_in_range_and_covers():
    r = SplitMix64(7)
    seen = Counter(r.below(6) for _ in range(6000))
    assert set(seen) == {0, 1, 2, 3, 4, 5}
    # unbiased rejection sampling: no value wildly over-represented
    assert max(seen.values()) < 2 * min(seen.values())


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_below_refuses_bounds_above_two_to_the_64():
    # above 2^64 the rejection threshold 2^64 - 2^64 % bound is 0, so no word
    # would ever be accepted; the draw runs in a subprocess, so a loop that
    # never returns fails by timeout instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=str(Path(mdslift.__file__).parents[1]))
    script = ("from mdslift.rng import SplitMix64\n"
              "try:\n    SplitMix64(1).below(2**64 + 1)\n"
              "except ValueError as e:\n    print(e)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "2^64" in proc.stdout
    # 2^64 itself accepts every word, so the draw is the next word
    assert SplitMix64(1).below(2 ** 64) == OracleSplitMix64(1).next_u64()


def test_bounds_and_seeds_are_read_as_integers():
    # operator.index, as FieldSpec.code reads a code: below(2.5) once
    # returned a float
    for bound in (2.5, 2.0, "3"):
        with pytest.raises(TypeError):
            SplitMix64(1).below(bound)
    with pytest.raises(TypeError):
        SplitMix64(2.5)
    assert SplitMix64(np.uint64(3)).below(np.int64(342)) == SplitMix64(3).below(342)


def test_seeds_outside_64_bits_are_refused(f49):
    # seeds are not reduced mod 2^64: -1 would replay seed 2^64 - 1's stream
    for seed in (-1, 2 ** 64, 2 ** 64 + 1, -(2 ** 64)):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            SplitMix64(seed)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            sample_dh(f49, 3, seed)
    assert SplitMix64(2 ** 64 - 1).next_u64() == OracleSplitMix64(2 ** 64 - 1).next_u64()


def test_sample_without_replacement():
    r = SplitMix64(3)
    picks = r.sample(range(50), 10)
    assert len(picks) == len(set(picks)) == 10
    assert all(0 <= v < 50 for v in picks)
    assert sorted(SplitMix64(4).sample(range(5), 5)) == [0, 1, 2, 3, 4]


def test_sample_is_deterministic():
    assert SplitMix64(11).sample(range(100), 8) == SplitMix64(11).sample(range(100), 8)


def test_sample_count_validation():
    with pytest.raises(ValueError):
        SplitMix64(0).sample(range(3), 4)
    with pytest.raises(ValueError, match="sample count must be >= 0, got -1"):
        SplitMix64(0).sample(range(5), -1)


@pytest.mark.parametrize(("t", "seed", "codes"), [
    (2, 0, [32, 29, 30, 38, 12, 17, 36, 39]),
    (2, 42, [38, 33, 2, 13, 7, 3, 44, 4]),
    (3, 1, [276, 87, 173, 192, 218, 31, 28, 176]),
    (3, (1 << 64) - 1, [9, 228, 64, 4, 193, 192, 332, 199]),
    (4, 0, [1136, 39, 884, 227, 1852, 1376, 2388, 57]),
    (4, 42, [1814, 761, 1149, 1573, 259, 408, 548, 1553]),
])
def test_sample_dh_stream_is_pinned(t, seed, codes):
    # values of the copy-and-swap Fisher-Yates this sampler must reproduce
    assert [e.code for e in sample_dh(make_extension_field(7, t), 8, seed).diag] == codes


def test_sample_is_pinned_on_lists_and_ranges():
    assert SplitMix64(5).sample(["a", "b", "c", "d", "e", "f", "g"], 4) == ["d", "f", "b", "e"]
    assert SplitMix64(6).sample(list(range(10, 30)), 20) == [
        22, 12, 24, 18, 21, 20, 13, 16, 29, 15, 27, 14, 26, 28, 25, 11, 17, 10, 23, 19]
    assert SplitMix64(7).sample(range(3, 1000, 7), 6) == [171, 822, 647, 45, 542, 521]


def test_sample_is_pinned_on_long_draws_and_rejections():
    # recorded from the packed-lane sampler, which drew in batches of 32:
    # 70 draws cross two batch ends, and over 2^62 + 5 items about a
    # quarter of the words are rejected and drawn again
    assert SplitMix64(2024).sample(range(1, 2401), 70) == [
        662, 630, 794, 1154, 431, 995, 2160, 2069, 1465, 1214, 96, 1963, 76, 2397,
        254, 1242, 918, 186, 1506, 2265, 1989, 1544, 319, 1537, 928, 1429, 1750,
        1006, 283, 474, 1653, 512, 1494, 342, 500, 2398, 559, 1149, 1456, 649, 1409,
        1806, 1489, 1708, 2154, 2193, 1800, 1919, 948, 58, 1230, 781, 1650, 276,
        1753, 504, 2280, 1860, 1706, 774, 733, 69, 527, 457, 1734, 992, 1870, 1058,
        1359, 775]
    assert SplitMix64(9).sample(range(2 ** 62 + 5), 40) == [
        3363998700739256410, 282649140317751731, 231569759627937696,
        2114146066760625153, 2689696427095668942, 4308209918431195458,
        4040493311852077423, 722392545232000384, 1655369064523635118,
        3961813278987999906, 4348845837780481654, 4433118356046984583,
        185131100172609458, 2505217064466936990, 1204314504079110245,
        3634840744406688003, 1975391098618470349, 3253685546360112627,
        306443730304449973, 1492608901074386104, 4034600366679935232,
        2285161475033993039, 4091709383548922816, 3094396588800958232,
        3887162273906736262, 174727923606689795, 2499544957893885088,
        3734528596720184474, 1056679635842537196, 16978039243485881,
        1067511011353590064, 1906256031853358171, 1967435597269943639,
        3122748896074114025, 460711324484693468, 486424756987987875,
        1081354454160566629, 2210810649084672186, 4434019148037355565,
        3209491155761146919]


def test_sample_draws_as_below_does():
    # the reference copies the population and swaps in place, where sample
    # keeps a dict of the slots it has moved
    def reference(r, population, count):
        pool, out = list(population), []
        for i in range(count):
            j = i + r.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out

    for seed in range(40):
        size = 1 + seed * 37 % 400
        count = seed % (size + 1)
        a, b = SplitMix64(seed), OracleSplitMix64(seed)
        assert a.sample(range(size), count) == reference(b, range(size), count)
        assert a.next_u64() == b.next_u64()  # the state advances alike


def test_sample_rejects_draws_as_below_does():
    # each of the first five bounds, 2^62 + 5 - i, leaves 2^64 mod bound, about
    # 2^62, of the words above its threshold, so about a quarter of the words
    # are rejected and drawn again; the population is too large to list, so
    # the oracle swaps through a dict
    size = 2 ** 62 + 5
    rejected = 0
    for seed in range(40):
        a, b = SplitMix64(seed), OracleSplitMix64(seed)
        assert a.sample(range(size), 5) == b.sample(range(size), 5)
        assert a.next_u64() == b.next_u64()  # the state advances alike
        rejected += b.rejected
    assert rejected > 40  # about 67 rejected draws are expected


def test_packed_draws_reject_on_any_lane():
    # over 2^62 + 5 items about a quarter of the words are rejected and drawn
    # again. The draws of the rejected words are read off the oracle's
    # stream, and rejections must fall on the first, a middle and the last
    # draw of a sample
    size = 2 ** 62 + 5
    places = set()
    for seed in range(60):
        count = 1 + seed % 12
        a, b = SplitMix64(seed), OracleSplitMix64(seed)
        assert a.sample(range(size), count) == b.sample(range(size), count)
        assert a.next_u64() == b.next_u64()
        r = OracleSplitMix64(seed)
        for i in range(count):
            rejected = r.rejected
            r.below(size - i)
            if r.rejected > rejected and count > 2:
                places.add("first" if i == 0 else "last" if i == count - 1 else "middle")
    assert places == {"first", "middle", "last"}


@pytest.mark.parametrize("count", [0, 1, 2, 31, 32, 33, 67])
def test_packed_draws_match_below_at_every_width(count):
    # counts on both sides of 32, the batch width of an earlier packed
    # sampler; list and range populations; seeds near 2^64, where the
    # state wraps
    populations = [range(1, 343), list(range(500, 0, -3)), range(10, 10 ** 6, 7)]
    seeds = [0, 1, 12345, (1 << 64) - 1, (1 << 64) - 2, (1 << 64) - 64]
    for population in populations:
        for seed in seeds:
            a, b = SplitMix64(seed), OracleSplitMix64(seed)
            assert a.sample(population, count) == b.sample(population, count)
            assert a.next_u64() == b.next_u64()  # the state advances alike


def test_every_draw_matches_the_oracle():
    # each sample on a fresh generator, as sample_dh draws; the bounded draws
    # run on one generator, from bound 1 to 2^62 + 5 (about a quarter of the
    # words rejected) and 2^64 (the raw word); seeds near 2^64 wrap the state
    for seed in [*range(500), *range(2 ** 64 - 500, 2 ** 64)]:
        for q in (49, 343, 2401, 65536):
            for n in (1, 8, 12):
                a, b = SplitMix64(seed), OracleSplitMix64(seed)
                assert a.sample(range(1, q), n) == b.sample(range(1, q), n)
                assert a.next_u64() == b.next_u64()
        a, b = SplitMix64(seed), OracleSplitMix64(seed)
        for bound in (1, 2, 342, 2 ** 62 + 5, 2 ** 64):
            assert a.below(bound) == b.below(bound)
        assert a.next_u64() == b.next_u64()
    readme = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    a, b = SplitMix64(0), OracleSplitMix64(0)
    assert [a.next_u64() for _ in readme] == [b.next_u64() for _ in readme] == readme
