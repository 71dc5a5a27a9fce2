"""Seed sweep: how often do random diagonal lifts preserve the MDS property?

Samples many distinct-entry diagonals per target field F_{p^t}, lifts a
base code through each, and tallies the MDS verdicts. The base is the
[8,3] reference code over F_7 by default (``--base example1``), or
GRS[n, k] over F_p (``--base grs``); --p, --n and --k apply only to the
GRS base. Also reports the diversity count C(q-1, n) for each target,
i.e. how many sets of n distinct nonzero entries the sampler draws from
(each in n! orders).

Usage:
    python scripts/sweep_lifts.py [--base {example1,grs}] [--trials 200]
        [--degrees 2 3 4] [--seed0 0] [--p 7] [--n 7] [--k 3]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field

from mdslift import (
    diversity_count,
    example1_code,
    grs_generator,
    is_mds,
    lift,
    make_extension_field,
    make_prime_field,
    sample_dh,
)


@dataclass
class SweepResult:
    t: int
    trials: int = 0
    mds: int = 0
    l_values: dict[int, int] = field(default_factory=dict)

    def row(self) -> str:
        return (f"  t={self.t}: {self.mds}/{self.trials} lifts MDS, "
                f"l histogram {dict(sorted(self.l_values.items()))}")


def sweep(args: argparse.Namespace) -> list[SweepResult]:
    if args.base == "example1":
        base = example1_code()
    else:
        base = grs_generator(make_prime_field(args.p), args.n, args.k)
    p = base.spec.p
    print(f"base: [{base.n},{base.k}] {args.base} code over F_{base.spec.order}, "
          f"MDS = {is_mds(base)}")

    results = []
    for t in args.degrees:
        target = make_extension_field(p, t)
        pool = diversity_count(p, t, base.n)
        print(f"target F_{p}^{t} (order {target.order}): "
              f"{pool} distinct-entry diagonals available")
        res = SweepResult(t=t)
        start = time.perf_counter()
        for seed in range(args.seed0, args.seed0 + args.trials):
            m = sample_dh(target, base.n, seed)
            res.l_values[m.l_value] = res.l_values.get(m.l_value, 0) + 1
            res.trials += 1
            res.mds += is_mds(lift(base, m))
        elapsed = time.perf_counter() - start
        print(res.row() + f" ({elapsed:.2f}s)")
        results.append(res)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", choices=["example1", "grs"], default="example1",
                        help="base code: the [8,3] reference matrix, or a GRS "
                             "code built from --p/--n/--k (needs n <= p)")
    parser.add_argument("--p", type=int, default=7)
    parser.add_argument("--n", type=int, default=7)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4])
    parser.add_argument("--seed0", type=int, default=0,
                        help="first seed; trials use seed0..seed0+trials-1")
    results = sweep(parser.parse_args())
    all_mds = all(r.mds == r.trials for r in results)
    print("every sampled lift preserved MDS" if all_mds
          else "WARNING: some lifts were not MDS")
    return 0 if all_mds else 1


if __name__ == "__main__":
    raise SystemExit(main())
