"""One differential gate for the streamed generation paths.

Hypothesis draws a family with its parameters, its sources (short ``list:``
sources and small ``pow`` bit budgets among them, so that errors happen), a
start up to 10^30 and a count that crosses diagonal, shell and 4096-term
boundaries; ``superpose`` draws tilings among its schemes.  One
``superpose`` case in four instead reads a ``list:`` source whose length
is a boundary count, from n = 1 for a boundary count, so that they fail
late, next to a 4096-term chunk boundary.  ``iter_terms``,
``term`` and, where the CLI can take the case, ``cli.main(["generate",
...])`` must give the terms of the per-position closed forms
(``support.direct_term``), or fail as they do: the same exception type,
message and ``index``, at the same position, which is the exit-3 ``n`` of
the CLI.  Where ``generate`` fails on a source, ``oeis-check`` with the
same flags must fail with the same line.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from time import perf_counter

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from gridseq import cli, transforms as tr
from gridseq.pairing import triangle
from gridseq.schemes import SIMPLE_KINDS, Scheme, parse_scheme
from gridseq.sources import SourceError, euler_phi, from_list, identity, power_base, primes
from gridseq.transforms import COMBINERS, CONVENTIONS, FAMILY_TABLE, SEVERAL, TransformSpec
from support import describe, direct_term, outcome

ONE_BASED = [kind for kind in SIMPLE_KINDS if kind != "cantor0"]
# superpose also reads equal and growing tiles, as its inner or its outer scheme
TILINGS = ["tiling:const:3x2:row", "tiling:const:1x4:parity-tile", "tiling:ramp:2+0x3+0:col",
           "tiling:ramp:1+1x1+1:parity-diag"]
# the totient's cost grows with the square root of its argument, so phi is
# drawn only with starts whose source indices stay near 10^7 or below
PHI_START_MAX = 10**12
BOUNDARY_COUNTS = (4095, 4096, 4097, 8191, 8192, 8193, 8300)


def _texts(values):
    return "list:" + ",".join(map(str, values))


@st.composite
def sources_st(draw, n, phi):
    """n sources as (CLI text or None, source); None when the CLI cannot name it."""
    kinds = ["id", "id", "primes", "list", "pow"] + (["phi", "phi"] if phi else [])
    out = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "list":
            values = draw(st.lists(st.integers(-2, 40), min_size=1, max_size=40))
            out.append((_texts(values), from_list(values)))
        elif kind == "pow":
            out.append((None, power_base(2, draw(st.integers(4, 300)))))
        else:
            out.append((kind, {"id": identity, "primes": primes, "phi": euler_phi}[kind]()))
    return out


@st.composite
def cases(draw):
    """(spec, [(text, source)], CLI flags or None, whether the case should fail late)."""
    family = draw(st.sampled_from(sorted(FAMILY_TABLE)))
    row = FAMILY_TABLE[family]
    fields, flags = {}, []
    if row.needs_k:
        fields["k"] = draw(st.sampled_from(list(range(row.k_min, 6)) + [1000]))
    if family == "self-compose":
        fields["convention"] = draw(st.sampled_from(CONVENTIONS))
    if family == "pair":
        combiner = draw(st.sampled_from(COMBINERS + ("callable",)))
        fields["combiner"] = (lambda a, b: a - 3 * b) if combiner == "callable" else combiner
        if combiner == "power-sum":
            fields["k"] = draw(st.integers(1, 3))
    if family == "eta":
        fields["d"] = draw(st.integers(1, 6))
    if family == "superpose":
        fields["inner"] = parse_scheme(draw(st.sampled_from(ONE_BASED + TILINGS)))
        fields["outer"] = parse_scheme(draw(st.sampled_from(ONE_BASED + TILINGS)))
    count = draw(st.integers(2, 4)) if row.sources == SEVERAL else row.sources
    # superpose reads its source near index n, so a list of a boundary
    # count's length, built whole from a range, makes it fail next to a
    # 4096-term chunk boundary, as near n = 4096 or 8192; one case in four,
    # so that most superpose cases keep the other sources and the far starts
    late = family == "superpose" and draw(st.integers(0, 3)) == 3
    if late:
        first = draw(st.integers(-2, 40))
        values = range(first, first + draw(st.sampled_from(BOUNDARY_COUNTS)))
        srcs = [(_texts(values), from_list(values))]
    else:
        srcs = draw(sources_st(count, draw(st.booleans())))
    spec = TransformSpec(family, **fields)
    for name, value in fields.items():
        flags += [f"--{name}", value.text() if isinstance(value, Scheme) else str(value)]
    texts = [text for text, _ in srcs]
    if None in texts or callable(spec.combiner):
        return spec, srcs, None, late
    if row.sources == SEVERAL:
        flags += ["--sources", *texts]
    else:
        flags += [x for flag, text in zip(("--alpha", "--beta"), texts) for x in (flag, text)]
    return spec, srcs, flags, late


def starts(phi):
    top = PHI_START_MAX if phi else 10**30
    edge = st.integers(0, 10**15 if not phi else 10**6)
    return st.one_of(
        st.just(1),
        st.integers(1, 60),
        st.integers(1, 10**5),
        st.integers(1, top),
        # next to the first cell of an anti-diagonal or of a square shell
        st.builds(lambda t, off: max(1, min(top, triangle(t) + 1 + off)), edge, st.integers(-30, 30)),
        st.builds(lambda s, off: max(1, min(top, s * s + 1 + off)), edge, st.integers(-30, 30)),
    )


def expected_terms(spec, sources, start, count):
    for n in range(start, start + count):
        yield direct_term(spec, sources, n)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def expected_cli(terms, failure, fmt):
    """(exit code, stdout, stderr) that generate must give for these closed-form terms."""
    if failure is not None:
        kind, message, _, n = failure
        if issubclass(kind, SourceError):
            return 3, "", f"error at n={n}: {message}\n"
        return 2, "", None  # argparse's error; its usage line is not compared
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    for n, v in enumerate(terms, 1):
        if limit and v.bit_length() > 3 * limit:
            try:
                str(v)
            except ValueError:
                return 3, "", (f"error at n={n}: the term has more than {limit} decimal digits, "
                               "too many to print\n")
    if fmt == "json":
        return 0, json.dumps([str(v) for v in terms]) + "\n", ""
    return 0, "\n".join(map(str, terms)) + "\n", ""


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_streamed_paths_match_the_closed_forms(data):
    spec, srcs, flags, late = data.draw(cases())
    sources = [source for _, source in srcs]
    phi = any(source.name == "phi" for source in sources)
    # a late case runs from 1, so that the CLI takes it, for a boundary count
    start = 1 if late else data.draw(starts(phi), label="start")
    counts = st.sampled_from(BOUNDARY_COUNTS)
    if not late:
        counts = st.one_of(st.integers(1, 400), st.integers(400, 6000), counts)
    count = data.draw(counts, label="count")

    want, exc = outcome(expected_terms(spec, sources, start, count))
    failure = describe(exc, start + len(want))
    event(f"fails={failure is not None} long={len(want) > 1000} cli={flags is not None and start == 1}")
    got, exc = outcome(islice(tr.iter_terms(spec, sources, start), count))
    assert got == want
    assert describe(exc, start + len(got)) == failure

    first, exc = outcome(_term_once(spec, sources, start))
    assert describe(exc, start) == (failure if not want else None)
    assert first == want[:1]

    if flags is not None and start == 1:
        fmt = data.draw(st.sampled_from(("plain", "json")), label="format")
        argv = ["generate", "--family", spec.family, *flags, "--count", str(count)]
        if fmt == "json":
            argv += ["--format", "json"]
        code, out, err = run_cli(argv)
        want_code, want_out, want_err = expected_cli(want, failure, fmt)
        assert (code, out) == (want_code, want_out)
        if want_err is not None:
            assert err == want_err
        if failure is not None and issubclass(failure[0], SourceError):
            # oeis-check reads the same prefix, and fails at the same n
            argv = ["oeis-check", "--family", spec.family, *flags, "--count", str(count),
                    "--anum", "A002260"]
            assert run_cli(argv) == (3, "", want_err)


def _term_once(spec, sources, n):
    yield tr.term(spec, sources, n)


# one case of each family that the bound below times; every one reads its
# source at indices near the square root of n, or a small multiple of it
FAR_SPECS = [
    TransformSpec("reluctant"), TransformSpec("reverse-reluctant"),
    TransformSpec("double-reluctant"), TransformSpec("shifted-columns", k=3),
    TransformSpec("max-shift", k=2), TransformSpec("segment-shift", k=2),
    TransformSpec("shifted-columns-angle", k=3), TransformSpec("max-shift-angle", k=2),
    TransformSpec("segment-shift-angle", k=2), TransformSpec("pair"),
    TransformSpec("pair", combiner="concat"), TransformSpec("multi-replicate"),
    TransformSpec("braid"), TransformSpec("segment-braid"),
]
TERM_SECONDS = 2.0


@pytest.mark.parametrize("make", [euler_phi, primes], ids=["phi", "primes"])
@pytest.mark.parametrize("n", [10**16, 10**30], ids=["1e16", "1e30"])
def test_term_far_out_is_bounded(make, n):
    # the diagonal or shell of n holds about 10^8 or 10^15 cells: a term
    # that read all of it would not finish
    for spec in FAR_SPECS:
        count = FAMILY_TABLE[spec.family].sources
        sources = [make() for _ in range(3 if count == SEVERAL else count)]
        began = perf_counter()
        try:
            tr.term(spec, sources, n)
        except SourceError:
            pass
        assert perf_counter() - began < TERM_SECONDS, spec.family
