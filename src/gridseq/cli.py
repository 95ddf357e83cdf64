"""Command-line front end.

Subcommands: ``encode``, ``decode``, ``generate``, ``verify``,
``oeis-check``.  Exit codes: 0 success, 1 verification or comparison
mismatch, 2 bad arguments (the message names the flag), 3 a source ran
out, hit a value budget, or produced an unusable term, e.g. a non-positive
term where an index or concatenation needs one (the failing position is
reported, by ``oeis-check`` before any b-file is read), 4 not enough
reference data, 5 network failure in online mode.
"""

import argparse
import sys
from itertools import islice

from . import oeis, oracle, schemes, transforms
from .schemes import Scheme, parse_scheme, tiling_scheme
from .sources import SourceError, parse_source
from .tiling import ORDERS, SpecExhaustedError, parse_tiling_spec
from .transforms import COMBINERS, CONVENTIONS, FAMILIES, FAMILY_TABLE, SEVERAL, TransformSpec

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_SOURCE = 3
EXIT_INSUFFICIENT = 4
EXIT_NETWORK = 5

OUTPUT_CHUNK = 4096  # terms read at a time; generate formats each chunk into one string

# the input-sequence flags a family reads, by its source count
_SOURCE_FLAGS = {0: (), 1: ("alpha",), 2: ("alpha", "beta"), SEVERAL: ("sources",)}
# the flags of generate and oeis-check that configure a family: name ->
# (value applied when a family that reads the flag is not given it, argparse
# keywords).  argparse itself defaults each to None, so that a flag the
# family does not read can be told from one that was left out.
_FAMILY_OPTIONS = {
    "alpha": ("id", dict(help="first input sequence")),
    "beta": ("id", dict(help="second input sequence, for --family pair")),
    "sources": (None, dict(nargs="+", help="input sequences, for the several-sequence families")),
    "k": (1, dict(type=int, help="shift parameter / power-sum exponent; "
                                 "required by the shift families")),
    "d": (2, dict(type=int, help="tuple depth for --family eta")),
    "combiner": ("product", dict(help=f"pair combiner: {', '.join(COMBINERS)}")),
    "convention": ("linear", dict(choices=CONVENTIONS, help="self-composition reading")),
    "inner": (None, dict(help="inner scheme for --family superpose, e.g. tiling:const:3x2:row")),
    "outer": (None, dict(help="outer scheme for --family superpose, e.g. center-out")),
}


def _add_scheme_flags(sub):
    sub.add_argument("--scheme", required=True, help="scheme name, e.g. cantor, angle, tiling")
    sub.add_argument("--spec", help="tiling spec, e.g. const:3x2, list:1,2x2,1, ramp:1+1x1+1")
    sub.add_argument("--order", help=f"tiling inner order: {', '.join(ORDERS)} (default row)")


def _parsed(parser, flag, parse, *args):
    """parse(*args), with a ValueError or OSError refused as a usage error of ``flag``."""
    try:
        return parse(*args)
    except (ValueError, OSError) as exc:
        parser.error(f"{flag}: {exc}")


def _scheme_from_args(parser, args) -> Scheme:
    if args.scheme != "tiling":
        for flag in ("spec", "order"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} is read only with --scheme tiling")
        return _parsed(parser, "--scheme", parse_scheme, args.scheme)
    if not args.spec:
        parser.error("--spec is required with --scheme tiling")
    spec = _parsed(parser, "--spec", parse_tiling_spec, args.spec)
    order = "row" if args.order is None else args.order
    return _parsed(parser, "--order", tiling_scheme, spec, order)


def _transform_from_args(parser, args) -> tuple[TransformSpec, list]:
    family = FAMILY_TABLE[args.family]
    reads = family.reads + _SOURCE_FLAGS[family.sources]
    given = {flag: getattr(args, flag) for flag in _FAMILY_OPTIONS}
    for flag, text in given.items():
        if text is not None and flag not in reads:
            parser.error(f"--{flag} is not read by family {args.family}")
    if family.needs_k and args.k is None:
        parser.error(f"--k is required for family {args.family}")
    value = {flag: default if given[flag] is None else given[flag]
             for flag, (default, _) in _FAMILY_OPTIONS.items()}
    spec = TransformSpec(
        family=args.family,
        k=value["k"],
        d=value["d"],
        combiner=value["combiner"],
        convention=value["convention"],
        inner=None if args.inner is None else _parsed(parser, "--inner", parse_scheme, args.inner),
        outer=None if args.outer is None else _parsed(parser, "--outer", parse_scheme, args.outer),
    )
    if family.sources == SEVERAL:
        return spec, [_parsed(parser, "--sources", parse_source, s) for s in args.sources or ()]
    flags = (("--alpha", value["alpha"]), ("--beta", value["beta"]))[:family.sources]
    return spec, [_parsed(parser, flag, parse_source, text) for flag, text in flags]


def _family_flags() -> argparse.ArgumentParser:
    """The flags that name a transformation, shared by generate and oeis-check."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--family", required=True, choices=FAMILIES, metavar="FAMILY",
                   help=f"one of: {', '.join(FAMILIES)}")
    for flag, (default, keywords) in _FAMILY_OPTIONS.items():
        if default is not None:
            keywords = {**keywords, "help": f"{keywords['help']} (default {default})"}
        p.add_argument(f"--{flag}", **keywords)
    return p


def _alignment(text: str) -> str | int:
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridseq",
        description="Grid enumeration schemes and the sequence transformations built on them.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **keywords) -> argparse.ArgumentParser:
        # the subcommand's parser reports the usage errors found after parsing
        sub = subparsers.add_parser(name, **keywords)
        sub.set_defaults(handler=handler, command_parser=sub)
        return sub

    p = command("encode", cmd_encode, help="position of a grid cell under a scheme")
    _add_scheme_flags(p)
    p.add_argument("--i", type=int, required=True, help="row (0-based for cantor0)")
    p.add_argument("--j", type=int, required=True, help="column (0-based for cantor0)")

    p = command("decode", cmd_decode, help="grid cell at a position under a scheme")
    _add_scheme_flags(p)
    p.add_argument("--n", type=int, required=True)

    family_flags = _family_flags()
    p = command("generate", cmd_generate, parents=[family_flags],
                help="first terms of a transformed sequence")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", default="plain", choices=("plain", "json"))

    p = command("verify", cmd_verify, help="check a scheme's formulas against the geometric walk")
    _add_scheme_flags(p)
    p.add_argument("--n-max", type=int, required=True)

    p = command("oeis-check", cmd_oeis_check, parents=[family_flags],
                help="compare a generated prefix against OEIS reference data")
    p.add_argument("--anum", required=True, help="A-number, e.g. A002260")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--alignment", default="auto", type=_alignment,
                   help="'auto' or the b-file index of term 1")
    p.add_argument("--online", action="store_true",
                   help="fetch missing b-files from oeis.org (cached on disk)")
    return parser


def _positive(parser, flag, value, minimum=1):
    if value < minimum:
        parser.error(f"{flag}: must be >= {minimum}, got {value}")
    return value


def cmd_encode(parser, args) -> int:
    scheme = _scheme_from_args(parser, args)
    low = schemes.first_index(scheme)
    _positive(parser, "--i", args.i, low)
    _positive(parser, "--j", args.j, low)
    print(schemes.encode(scheme, args.i, args.j))
    return EXIT_OK


def cmd_decode(parser, args) -> int:
    scheme = _scheme_from_args(parser, args)
    _positive(parser, "--n", args.n, schemes.first_index(scheme))
    i, j = schemes.decode(scheme, args.n)
    print(f"{i} {j}")
    return EXIT_OK


def _prefix(parser, args):
    """The first ``--count`` terms, as (start, chunk): chunk holds terms start + 1 on,
    at most ``OUTPUT_CHUNK`` of them.

    A source or spec error is reported on stderr at the position of the
    term that failed, and ends the stream with a ``None`` chunk.
    """
    spec, srcs = _transform_from_args(parser, args)
    _positive(parser, "--count", args.count)
    start, chunk = 0, []
    try:
        terms = transforms.iter_terms(spec, srcs)
        for start in range(0, args.count, OUTPUT_CHUNK):
            chunk = []
            # extend keeps the terms made before a failure: they number n - 1
            chunk.extend(islice(terms, min(OUTPUT_CHUNK, args.count - start)))
            yield start, chunk
    except (SourceError, SpecExhaustedError) as exc:
        print(f"error at n={start + len(chunk) + 1}: {exc}", file=sys.stderr)
        yield start, None


def _first_unprintable(terms: list[int], limit: int) -> int:
    """Position of the first term with more than ``limit`` decimal digits, in
    a chunk that holds one.

    An int of at most 3 * limit bits is below 8**limit, so it has at most
    ``limit`` digits; only longer ones are tried, and str refuses those
    over the limit before converting anything.
    """
    for n, v in enumerate(terms, 1):
        if v.bit_length() > 3 * limit:
            try:
                str(v)
            except ValueError:
                return n


def cmd_generate(parser, args) -> int:
    template = '"%d", ' if args.format == "json" else "%d\n"
    texts = []  # each chunk's text, written once the whole prefix is known to succeed
    unprintable = None  # the error of the first term too long to print
    for start, chunk in _prefix(parser, args):
        if chunk is None:
            return EXIT_SOURCE
        if unprintable is not None:
            continue  # a source error further on is still the one reported
        try:
            texts.append((template * len(chunk)) % tuple(chunk))
        except ValueError:
            # CPython's %d refuses an int of more digits than its limit
            limit = sys.get_int_max_str_digits()
            unprintable = (f"error at n={start + _first_unprintable(chunk, limit)}: the term "
                           f"has more than {limit} decimal digits, too many to print")
            texts.clear()
    if unprintable is not None:
        print(unprintable, file=sys.stderr)
        return EXIT_SOURCE
    write = sys.stdout.write
    if args.format == "json":
        texts[-1] = texts[-1][:-2]  # no separator after the last value
        write("[")
        texts.append("]\n")
    for text in texts:
        write(text)
    return EXIT_OK


def cmd_verify(parser, args) -> int:
    scheme = _scheme_from_args(parser, args)
    _positive(parser, "--n-max", args.n_max)
    report = oracle.verify_scheme(scheme, args.n_max)
    print(report)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_oeis_check(parser, args) -> int:
    anum = _parsed(parser, "--anum", oeis.normalize_anum, args.anum)
    terms = []
    for _, chunk in _prefix(parser, args):
        if chunk is None:
            return EXIT_SOURCE
        terms += chunk
    try:
        records = oeis.parse_bfile(oeis.fetch_bfile(anum, offline=not args.online))
    except oeis.NotFoundError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INSUFFICIENT
    except (oeis.NetworkError, oeis.CacheWriteError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_NETWORK
    report = oeis.compare_prefix(terms, records, args.count, args.alignment, anum=anum)
    print(report)
    if report.status == "match":
        return EXIT_OK
    if report.status == "mismatch":
        return EXIT_MISMATCH
    return EXIT_INSUFFICIENT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    parser = args.command_parser
    try:
        return args.handler(parser, args)
    except (ValueError, SpecExhaustedError) as exc:
        # a finite tiling spec that cannot cover the requested cell or
        # position range is an argument problem, like any other bad flag
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
