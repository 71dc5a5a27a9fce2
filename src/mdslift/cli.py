"""Command-line front end.

Subcommands: field, grs, example1, mindist, ismds, dh, lift,
verifylift, diversity, encode, decode. All randomness flows through an
explicit --seed flag, and every run is deterministic given its flags:
the same invocation always produces byte-identical output.

Exit codes: 0 success (or true verdict), 1 false verdict or a data
failure the input provoked (non-MDS, a failed lift check, too many
erasures, inconsistent word, singular system), 2 usage and parameter
errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .codes import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_MINOR_LIMIT,
    LinearCode,
    example1_code,
    grs_generator,
    is_mds,
    min_distance,
)
from .erasure import ErasureWord, erasure_decode, erasure_encode
from .errors import DataError, MdsLiftError
from .field import (
    DEFAULT_ORDER_LIMIT,
    FieldSpec,
    is_prime,
    make_extension_field,
    make_prime_field,
)
from .formats import (
    format_code,
    format_dh,
    format_element,
    format_erasure,
    parse_code,
    parse_dh,
    parse_element,
    parse_erasure,
)
from .lifting import diversity_count, lift, sample_dh, verify_lift


def _seed_value(s: str) -> int:
    v = int(s, 10)
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit value")
    return v


def _positive(s: str) -> int:
    v = int(s, 10)
    if v < 1:
        raise argparse.ArgumentTypeError("limit must be positive")
    return v


def _make_field(args: argparse.Namespace) -> FieldSpec:
    if args.t == 1:
        return make_prime_field(args.p, order_limit=args.max_order)
    return make_extension_field(args.p, args.t, order_limit=args.max_order)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _emit(args: argparse.Namespace, payload: str) -> None:
    text = f"# generated-by mdslift {__version__}\n" + payload
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_code(path: str) -> LinearCode:
    return parse_code(_read(path))


def cmd_field(args: argparse.Namespace) -> int:
    spec = _make_field(args)
    print(f"p={spec.p}")
    print(f"t={spec.t}")
    if spec.t > 1:
        print("modulus=" + ",".join(str(c) for c in spec.modulus))
        print("w=[" + ",".join(str(c) for c in spec.generator_w.coords) + "]")
    else:
        print(f"w={spec.generator_w.code}")
    print(f"order={spec.order}")
    print(f"group_order={spec.order - 1}")
    return 0


def cmd_grs(args: argparse.Namespace) -> int:
    spec = _make_field(args)
    code = grs_generator(spec, args.n, args.k)
    _emit(args, format_code(code))
    return 0


def cmd_example1(args: argparse.Namespace) -> int:
    _emit(args, format_code(example1_code()))
    return 0


def cmd_mindist(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    print(min_distance(code, enum_limit=args.max_enum))
    return 0


def cmd_ismds(args: argparse.Namespace) -> int:
    if is_mds(_load_code(args.code), minor_limit=args.max_minors):
        print("MDS")
        return 0
    print("not MDS")
    return 1


def cmd_dh(args: argparse.Namespace) -> int:
    spec = _make_field(args)
    _emit(args, format_dh(sample_dh(spec, args.n, args.seed)))
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    diag = parse_dh(_read(args.dh))
    lifted = lift(code, diag, strict_dh=args.strict, systematize=args.systematic)
    _emit(args, format_code(lifted))
    return 0


def cmd_verifylift(args: argparse.Namespace) -> int:
    report = verify_lift(_load_code(args.base), _load_code(args.lifted))
    print(report.summary())
    return 0 if report.passed else 1


def _count_too_long(p: int, t: int, n: int, limit: int) -> bool:
    """Whether C(N, n), N = p^t - 1, for a prime p, t >= 1 and n >= 0, has
    more than ``limit`` digits. For k = min(n, N - n) >= 1, C(N, k) >= (N/k)^k
    >= max(N, 2^k), which settles a large N or k by bit lengths and logs;
    any other count, of at most 2.8 ``limit`` digits, is computed."""
    if t * (p.bit_length() - 1) > 4 * limit + n.bit_length():
        return n > 0  # N >= 16^limit * n, so C(N, n) >= N unless n = 0
    big = p ** t - 1
    k = min(n, big - n)  # below 1 for a count of 1, or where diversity_count refuses
    return k > 0 and (k > 4 * limit or k * (math.log10(big) - math.log10(k)) > limit + 1
                      or math.comb(big, k) >= 10 ** limit)


def cmd_diversity(args: argparse.Namespace) -> int:
    p, t, n = args.p, args.t, args.n
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and is_prime(p) and t >= 1 and n >= 0 and _count_too_long(p, t, n, limit):
        raise MdsLiftError(f"C({p}^{t} - 1, {n}) has more than {limit} decimal digits; "
                           "PYTHONINTMAXSTRDIGITS raises that limit")
    print(diversity_count(p, t, n))
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    message = [parse_element(code.spec, tok) for tok in args.symbol]
    word = ErasureWord(code, erasure_encode(code, message))
    _emit(args, format_erasure(word))
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    code = _load_code(args.code)
    if args.word_file is not None:
        if args.symbol:
            raise MdsLiftError("give word tokens or --word-file, not both")
        text = _read(args.word_file)
    elif args.symbol:
        text = " ".join(args.symbol) + "\n"
    else:
        raise MdsLiftError("decode needs word tokens or --word-file")
    message = erasure_decode(parse_erasure(code, text))
    print(" ".join(format_element(e) for e in message))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdslift",
        description="MDS codes over F_p, lifted to F_{p^t} by distinct-entry diagonals.",
    )
    parser.add_argument("--version", action="version", version=f"mdslift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_args(sp, builds_field=True):
        sp.add_argument("-p", type=int, required=True, help="prime characteristic")
        sp.add_argument("-t", type=int, default=1, help="extension degree (default 1)")
        if builds_field:
            sp.add_argument("--max-order", type=_positive, default=DEFAULT_ORDER_LIMIT,
                            help="refuse fields of larger order p^t")

    def add_out(sp):
        sp.add_argument("-o", "--out", help="output file (default stdout)")

    sp = sub.add_parser("field", help="describe a field's deterministic construction")
    add_field_args(sp)
    sp.set_defaults(func=cmd_field)

    sp = sub.add_parser("grs", help="write a GRS code (first n points, unit multipliers)")
    add_field_args(sp)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-k", type=int, required=True)
    add_out(sp)
    sp.set_defaults(func=cmd_grs)

    sp = sub.add_parser("example1", help="write the reference [8,3] code over F_7")
    add_out(sp)
    sp.set_defaults(func=cmd_example1)

    sp = sub.add_parser("mindist", help="exact minimum distance of a code file")
    sp.add_argument("code")
    sp.add_argument("--max-enum", type=_positive, default=DEFAULT_ENUM_LIMIT,
                    help="refuse enumerations beyond this many codewords")
    sp.set_defaults(func=cmd_mindist)

    sp = sub.add_parser("ismds", help="minor-criterion check; exit 0 iff MDS")
    sp.add_argument("code")
    sp.add_argument("--max-minors", type=_positive, default=DEFAULT_MINOR_LIMIT,
                    help="refuse codes with more than this many C(n, k) minors")
    sp.set_defaults(func=cmd_ismds)

    sp = sub.add_parser("dh", help="sample a distinct-entry diagonal")
    add_field_args(sp)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--seed", type=_seed_value, default=0)
    add_out(sp)
    sp.set_defaults(func=cmd_dh)

    sp = sub.add_parser("lift", help="lift a code file by a diagonal file")
    sp.add_argument("code")
    sp.add_argument("dh")
    sp.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True,
                    help="require pairwise distinct diagonal entries")
    sp.add_argument("--systematic", action="store_true",
                    help="row-reduce the lifted generator to [I_k | A]")
    add_out(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser("verifylift", help="check a lift against its base code; exit 0 iff PASS")
    sp.add_argument("base")
    sp.add_argument("lifted")
    sp.set_defaults(func=cmd_verifylift)

    sp = sub.add_parser("diversity", help="count unordered dh diagonals: C(p^t - 1, n)")
    add_field_args(sp, builds_field=False)
    sp.add_argument("-n", type=int, required=True)
    sp.set_defaults(func=cmd_diversity)

    sp = sub.add_parser("encode", help="systematic encode of k message tokens")
    sp.add_argument("code")
    sp.add_argument("symbol", nargs="+", help="k message tokens")
    add_out(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("decode", help="recover the message from a word with ? erasures")
    sp.add_argument("code")
    sp.add_argument("symbol", nargs="*", help="n word tokens, ? for erased")
    sp.add_argument("--word-file", help="read the word from a file instead")
    sp.set_defaults(func=cmd_decode)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except MdsLiftError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1 if isinstance(e, DataError) else 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
