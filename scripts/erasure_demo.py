"""Erasure recovery demo: knock out n-k symbols and decode them back.

Encodes a message with the [8,3] reference code, erases a worst-case set
of 5 coordinates, and recovers the message. Then repeats the exercise
over a lifted copy of the code in F_343 to show the guarantee carries
across the field extension.

Usage:
    python scripts/erasure_demo.py [--seed 7] [--positions 0 2 4 5 7]
"""

from __future__ import annotations

import argparse
import sys

from mdslift import (
    DataError,
    ErasureWord,
    MdsLiftError,
    erase,
    erasure_decode,
    erasure_encode,
    example1_code,
    format_erasure,
    lift,
    make_extension_field,
    sample_dh,
)


def show_roundtrip(code, args: argparse.Namespace) -> bool:
    spec = code.spec
    msg = [spec.from_code(c % spec.order) for c in args.message]
    codeword = erasure_encode(code, msg)
    word = erase(code, codeword, args.positions)

    print(f"  field F_{spec.order}, erasing positions {args.positions}")
    print(f"  sent:      {format_erasure(ErasureWord(code, list(codeword))).strip()}")
    print(f"  received:  {format_erasure(word).strip()}")
    decoded = erasure_decode(word)
    ok = decoded == msg
    print(f"  recovered: {[str(x) for x in decoded]} "
          f"({'matches' if ok else 'MISMATCH'})")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for the lifting diagonal")
    parser.add_argument("--positions", type=int, nargs="+",
                        default=[0, 2, 4, 5, 7],
                        help="coordinates to erase (at most n-k of them)")
    parser.add_argument("--message", type=int, nargs=3, default=[2, 5, 1])
    args = parser.parse_args()

    try:
        base = example1_code()
        print("base code:")
        ok = show_roundtrip(base, args)

        target = make_extension_field(base.spec.p, 3)
        lifted = lift(base, sample_dh(target, base.n, args.seed))
        print("lifted code:")
        ok = show_roundtrip(lifted, args) and ok
    except MdsLiftError as e:  # as the CLI reports it: 1 for a DataError, else 2
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1 if isinstance(e, DataError) else 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
