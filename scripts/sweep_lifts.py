"""Seed sweep: how often do random diagonal lifts preserve the MDS property?

Lifts the [8,3] reference code over F_7 into F_49, F_343 and F_2401
through the distinct-entry diagonals of seeds 0..199 each, and tallies
the MDS verdicts and the l statistics of the diagonals. Also reports the
diversity count C(q-1, n) for each target, i.e. how many sets of n
distinct nonzero entries the sampler draws from (each in n! orders).
Exits 1 if any lift was not MDS.

Usage:
    python scripts/sweep_lifts.py
"""

from __future__ import annotations

import sys
import time
from collections import Counter

from mdslift import diversity_count, example1_code, is_mds, lift, make_extension_field, sample_dh

TRIALS = 200
DEGREES = (2, 3, 4)


def main() -> int:
    if len(sys.argv) > 1:
        print("usage: python scripts/sweep_lifts.py (no arguments)", file=sys.stderr)
        return 2
    base = example1_code()
    p = base.spec.p
    print(f"base: [{base.n},{base.k}] example1 code over F_{p}, MDS = {is_mds(base)}")
    all_mds = True
    for t in DEGREES:
        target = make_extension_field(p, t)
        print(f"target F_{p}^{t} (order {target.order}): "
              f"{diversity_count(p, t, base.n)} distinct-entry diagonals available")
        l_values, mds = Counter(), 0
        start = time.perf_counter()
        for seed in range(TRIALS):
            m = sample_dh(target, base.n, seed)
            l_values[m.l_value] += 1
            mds += is_mds(lift(base, m))
        elapsed = time.perf_counter() - start
        print(f"  t={t}: {mds}/{TRIALS} lifts MDS, "
              f"l histogram {dict(sorted(l_values.items()))} ({elapsed:.2f}s)")
        all_mds &= mds == TRIALS
    print("every sampled lift preserved MDS" if all_mds else "WARNING: some lifts were not MDS")
    return 0 if all_mds else 1


if __name__ == "__main__":
    raise SystemExit(main())
