"""End-to-end demo: build the [8,3] reference code, lift it, verify the lift.

Walks through the whole pipeline on one seed and prints each step:
the base generator matrix, the sampled diagonal, the lifted matrix,
and a verification report comparing [n, k, d] across the two fields.

Usage:
    python scripts/lift_demo.py [--seed 42] [--t 3] [--enum-limit N]
"""

from __future__ import annotations

import argparse

from mdslift import (
    DEFAULT_ENUM_LIMIT,
    example1_code,
    format_code,
    format_dh,
    lift,
    make_extension_field,
    sample_dh,
    verify_lift,
)


def run(args: argparse.Namespace) -> bool:
    base = example1_code()
    target = make_extension_field(base.spec.p, args.t)

    print(f"base code: [{base.n},{base.k}] over F_{base.spec.order}")
    print(format_code(base))

    m = sample_dh(target, base.n, args.seed)
    print(f"diagonal sampled with seed {args.seed} (l = {m.l_value}):")
    print(format_dh(m))

    lifted = lift(base, m, systematize=args.systematic)
    print(f"lifted code: [{lifted.n},{lifted.k}] over F_{target.order}")
    print(format_code(lifted))

    report = verify_lift(base, lifted, enum_limit=args.enum_limit)
    print(report.summary())
    return report.passed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--t", type=int, default=3,
                        help="extension degree of the target field over F_7")
    parser.add_argument("--enum-limit", type=int, default=DEFAULT_ENUM_LIMIT,
                        help="skip distance enumeration above this codeword count")
    parser.add_argument("--systematic", action="store_true",
                        help="row reduce the lifted generator to [I | A] form")
    return 0 if run(parser.parse_args()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
