"""Command-line front end.

Subcommands: ``encode``, ``decode``, ``generate``, ``verify``,
``oeis-check``.  Exit codes: 0 success, 1 verification or comparison
mismatch, 2 bad arguments, 3 a source ran out, hit a value budget, or
produced an unusable term, e.g. a non-positive term where an index or
concatenation needs one (the failing position is reported), 4 not enough
reference data, 5 network failure in online mode.
"""

import argparse
import json
import sys

from . import oeis, oracle, schemes, transforms
from .schemes import SIMPLE_KINDS, Scheme, parse_scheme, tiling_scheme
from .sources import SourceError, parse_source
from .tiling import ORDERS, SpecExhaustedError
from .transforms import FAMILIES, FAMILY_TABLE, SEVERAL, TransformSpec

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_SOURCE = 3
EXIT_INSUFFICIENT = 4
EXIT_NETWORK = 5

def _add_scheme_flags(sub):
    sub.add_argument("--scheme", required=True, help="scheme name, e.g. cantor, angle, tiling")
    sub.add_argument("--spec", help="tiling spec, e.g. const:3x2, list:1,2x2,1, ramp:1+1x1+1")
    sub.add_argument("--order", default="row", help=f"tiling inner order: {', '.join(ORDERS)}")


def _scheme_from_args(parser, args) -> Scheme:
    try:
        if args.scheme == "tiling" or args.scheme.startswith("tiling:"):
            if args.scheme == "tiling":
                if not args.spec:
                    parser.error("--spec is required with --scheme tiling")
                return tiling_scheme(args.spec, args.order)
            return parse_scheme(args.scheme)
        if args.scheme not in SIMPLE_KINDS:
            parser.error(f"--scheme: unknown scheme {args.scheme!r}")
        return Scheme(args.scheme)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_schemeish(parser, flag, text) -> Scheme:
    try:
        return parse_scheme(text)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _source(parser, flag, text):
    try:
        return parse_source(text)
    except (ValueError, OSError) as exc:
        parser.error(f"{flag}: {exc}")


def _transform_from_args(parser, args) -> tuple[TransformSpec, list]:
    family = FAMILY_TABLE[args.family]
    if family.needs_k and args.k is None:
        parser.error(f"--k is required for family {args.family}")
    spec = TransformSpec(
        family=args.family,
        k=1 if args.k is None else args.k,
        d=args.d,
        combiner=args.combiner,
        convention=args.convention,
        inner=_parse_schemeish(parser, "--inner", args.inner) if args.inner else None,
        outer=_parse_schemeish(parser, "--outer", args.outer) if args.outer else None,
    )
    if family.sources == SEVERAL:
        return spec, [_source(parser, "--sources", s) for s in args.sources or ()]
    flags = (("--alpha", args.alpha), ("--beta", args.beta or "id"))[:family.sources]
    return spec, [_source(parser, flag, text) for flag, text in flags]


def _family_flags() -> argparse.ArgumentParser:
    """The flags that name a transformation, shared by generate and oeis-check."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--family", required=True, choices=FAMILIES, metavar="FAMILY",
                   help=f"one of: {', '.join(FAMILIES)}")
    p.add_argument("--alpha", default="id", help="first input sequence (default id)")
    p.add_argument("--beta", help="second input sequence, for --family pair")
    p.add_argument("--sources", nargs="+", help="input sequences, for the several-sequence families")
    p.add_argument("--k", type=int, help="shift parameter / power-sum exponent")
    p.add_argument("--d", type=int, default=2, help="tuple depth for --family eta")
    p.add_argument("--combiner", default="product", help="pair combiner: product, power-sum, concat, iterate")
    p.add_argument("--convention", default="linear", choices=("linear", "doubling"),
                   help="self-composition reading")
    p.add_argument("--inner", help="inner scheme for --family superpose, e.g. tiling:const:3x2:row")
    p.add_argument("--outer", help="outer scheme for --family superpose, e.g. center-out")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridseq",
        description="Grid enumeration schemes and the sequence transformations built on them.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("encode", help="position of a grid cell under a scheme")
    _add_scheme_flags(p)
    p.add_argument("--i", type=int, required=True, help="row (0-based for cantor0)")
    p.add_argument("--j", type=int, required=True, help="column (0-based for cantor0)")

    p = commands.add_parser("decode", help="grid cell at a position under a scheme")
    _add_scheme_flags(p)
    p.add_argument("--n", type=int, required=True)

    family_flags = _family_flags()
    p = commands.add_parser("generate", parents=[family_flags],
                            help="first terms of a transformed sequence")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", default="plain", choices=("plain", "json"))

    p = commands.add_parser("verify", help="check a scheme's formulas against the geometric walk")
    _add_scheme_flags(p)
    p.add_argument("--n-max", type=int, required=True)

    p = commands.add_parser("oeis-check", parents=[family_flags],
                            help="compare a generated prefix against OEIS reference data")
    p.add_argument("--anum", required=True, help="A-number, e.g. A002260")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--alignment", default="auto", help="'auto' or the b-file index of term 1")
    p.add_argument("--online", action="store_true",
                   help="fetch missing b-files from oeis.org (cached on disk)")
    return parser


def _positive(parser, flag, value, minimum=1):
    if value < minimum:
        parser.error(f"{flag}: must be >= {minimum}, got {value}")
    return value


def cmd_encode(parser, args) -> int:
    scheme = _scheme_from_args(parser, args)
    low = 0 if scheme.kind == "cantor0" else 1
    _positive(parser, "--i", args.i, low)
    _positive(parser, "--j", args.j, low)
    print(schemes.encode(scheme, args.i, args.j))
    return EXIT_OK


def cmd_decode(parser, args) -> int:
    scheme = _scheme_from_args(parser, args)
    _positive(parser, "--n", args.n, 0 if scheme.kind == "cantor0" else 1)
    i, j = schemes.decode(scheme, args.n)
    print(f"{i} {j}")
    return EXIT_OK


def _generate_terms(parser, args) -> list[int] | int:
    spec, srcs = _transform_from_args(parser, args)
    _positive(parser, "--count", args.count)
    terms = []
    for n in range(1, args.count + 1):
        try:
            terms.append(transforms.term(spec, srcs, n))
        except (SourceError, SpecExhaustedError) as exc:
            print(f"error at n={n}: {exc}", file=sys.stderr)
            return EXIT_SOURCE
    return terms


def cmd_generate(parser, args) -> int:
    terms = _generate_terms(parser, args)
    if isinstance(terms, int):
        return terms
    if args.format == "json":
        print(json.dumps([str(v) for v in terms]))
    else:
        for v in terms:
            print(v)
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    scheme = _scheme_from_args(parser, args)
    _positive(parser, "--n-max", args.n_max)
    report = oracle.verify_scheme(scheme, args.n_max)
    print(report)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_oeis_check(parser, args) -> int:
    try:
        anum = oeis.normalize_anum(args.anum)
    except ValueError as exc:
        parser.error(f"--anum: {exc}")
    terms = _generate_terms(parser, args)
    if isinstance(terms, int):
        return terms
    try:
        records = oeis.parse_bfile(oeis.fetch_bfile(anum, offline=not args.online))
    except oeis.NotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (oeis.NetworkError, oeis.CacheWriteError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_NETWORK
    alignment = args.alignment if args.alignment == "auto" else int(args.alignment)
    report = oeis.compare_prefix(terms, records, args.count, alignment, anum=anum)
    print(report)
    if report.status == "match":
        return EXIT_OK
    if report.status == "mismatch":
        return EXIT_MISMATCH
    return EXIT_INSUFFICIENT


_COMMANDS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "generate": cmd_generate,
    "verify": cmd_verify,
    "oeis-check": cmd_oeis_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](parser, args)
    except (ValueError, SpecExhaustedError) as exc:
        # a finite tiling spec that cannot cover the requested cell or
        # position range is an argument problem, like any other bad flag
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
