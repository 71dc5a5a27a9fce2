"""Seed sweep: how often do random diagonal lifts preserve the MDS property?

Samples many distinct-entry diagonals per target field, lifts a base GRS
code through each, and tallies the MDS verdicts. Also reports the
diversity count C(q-1, n) for each target, i.e. how many sets of n
distinct nonzero entries the sampler draws from (each in n! orders).

Usage:
    python scripts/sweep_lifts.py [--trials 200] [--n 8] [--k 3] [--p 7]
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


@dataclass(frozen=True)
class SweepConfig:
    base: str = "example1"
    p: int = 7
    n: int = 7
    k: int = 3
    trials: int = 200
    degrees: tuple[int, ...] = (2, 3, 4)
    seed0: int = 0


@dataclass
class SweepResult:
    t: int
    trials: int = 0
    mds: int = 0
    l_values: dict[int, int] = field(default_factory=dict)

    def row(self) -> str:
        return (f"  t={self.t}: {self.mds}/{self.trials} lifts MDS, "
                f"l histogram {dict(sorted(self.l_values.items()))}")


def sweep(cfg: SweepConfig) -> list[SweepResult]:
    if cfg.base == "example1":
        base = example1_code()
    else:
        base = grs_generator(make_prime_field(cfg.p), cfg.n, cfg.k)
    p = base.spec.p
    print(f"base: [{base.n},{base.k}] {cfg.base} code over F_{base.spec.order}, "
          f"MDS = {is_mds(base)}")

    results = []
    for t in cfg.degrees:
        target = make_extension_field(p, t)
        pool = diversity_count(p, t, base.n)
        print(f"target F_{p}^{t} (order {target.order}): "
              f"{pool} distinct-entry diagonals available")
        res = SweepResult(t=t)
        start = time.perf_counter()
        for seed in range(cfg.seed0, cfg.seed0 + cfg.trials):
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
    args = parser.parse_args()
    cfg = SweepConfig(base=args.base, p=args.p, n=args.n, k=args.k,
                      trials=args.trials, degrees=tuple(args.degrees),
                      seed0=args.seed0)
    results = sweep(cfg)
    all_mds = all(r.mds == r.trials for r in results)
    print("every sampled lift preserved MDS" if all_mds
          else "WARNING: some lifts were not MDS")
    return 0 if all_mds else 1


if __name__ == "__main__":
    raise SystemExit(main())
