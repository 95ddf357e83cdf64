import pickle
from copy import deepcopy
from dataclasses import replace
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from gridseq import schemes
from gridseq.oracle import traverse
from gridseq.schemes import (
    SIMPLE_KINDS,
    Scheme,
    decode,
    encode,
    first_index,
    parse_scheme,
    tiling_scheme,
    walk,
)
from gridseq.sources import identity
from gridseq.tiling import ORDERS
from gridseq.transforms import TransformSpec, generate_prefix
from support import describe, outcome

# every kind, and const, ramp and list tilings under every order
VALUE_SCHEMES = [Scheme(kind) for kind in SIMPLE_KINDS] + [
    tiling_scheme(spec, order)
    for spec in ("const:3x2", "ramp:1+1x2+1", "list:3,1,4x2,7,1")
    for order in ORDERS
]


def test_parse_simple_names():
    for kind in SIMPLE_KINDS:
        assert parse_scheme(kind) == Scheme(kind)


def test_parse_tiling_compound():
    s = parse_scheme("tiling:const:3x2:row")
    assert s.kind == "tiling"
    assert s.order == "row"
    assert s.tiling.lengths.side(1) == 3 and s.tiling.heights.side(1) == 2
    assert parse_scheme(s.text()) == s
    assert parse_scheme("tiling:ramp:1+1x1+1:parity") == tiling_scheme("ramp:1+1x1+1", "parity-diag")


def test_parse_errors():
    for text in ("cantorx", "tiling:const:3x2", "tiling:const:3x2:diag", "tiling"):
        with pytest.raises(ValueError):
            parse_scheme(text)
    with pytest.raises(ValueError):
        Scheme("tiling")
    with pytest.raises(ValueError):
        Scheme("hilbert")
    # the eight simple kinds take no tiling fields, rather than dropping them
    spec = parse_scheme("tiling:const:3x2:row").tiling
    for kwargs in (dict(order="col"), dict(order="bogus"), dict(tiling=spec),
                   dict(tiling=spec, order="row")):
        with pytest.raises(ValueError):
            Scheme("cantor", **kwargs)
    assert Scheme("angle", order="row") == Scheme("angle")


def test_first_index():
    assert first_index(Scheme("cantor0")) == 0
    assert first_index(Scheme("cantor")) == 1
    assert first_index(tiling_scheme("const:2x2")) == 1


def test_every_kind_binds_an_encoder_and_a_reader():
    # one table holds the eight kinds, so no second table can drift from it;
    # a tiling binds both from its spec and order, and the reader's cell at a
    # position encodes back to it
    assert SIMPLE_KINDS == tuple(schemes._KINDS)
    tilings = [tiling_scheme(text) for text in ("const:3x2", "ramp:1+1x2+1", "list:3,1,4x2,7,1")]
    for scheme in [Scheme(kind) for kind in SIMPLE_KINDS] + tilings:
        position, cells, size = scheme.reader
        for n in range(first_index(scheme), 40):
            t, p = position(n)
            assert 1 <= p <= size(t)
            (cell,) = cells(t, p, p)
            assert scheme.encoder(*cell) == n and decode(scheme, n) == cell, (scheme, n)


def test_decode_by_search_examples():
    # the examples once answered by a table search, now by the closed forms
    assert decode(Scheme("center-out"), 4) == (2, 2)
    assert decode(Scheme("edges-in"), 1) == (1, 1)
    assert decode(Scheme("alternating"), 9) == (2, 3)


@pytest.mark.parametrize("kind", SIMPLE_KINDS)
def test_decode_matches_oracle(kind):
    scheme = Scheme(kind)
    base = first_index(scheme)
    cells = traverse(scheme, 100_000)
    for n, cell in enumerate(cells, base):
        assert decode(scheme, n) == cell, n
    assert list(islice(walk(scheme), 100_000)) == cells


def test_decode_matches_oracle_on_tiling():
    # the list spec runs out after 2229 positions
    lists = "list:3,1,4,1,5,9,2,6,5,3,5,8,9,7,9x2,7,1,8,2,8,1,8,2,8,4,5,9,4,5"
    for text in ("const:2x2", "const:3x2", "ramp:1+1x1+1", lists):
        for order in ("row", "col", "parity-diag", "parity-tile"):
            scheme = tiling_scheme(text, order)
            cells = traverse(scheme, 2_000)
            for n, cell in enumerate(cells, 1):
                assert decode(scheme, n) == cell, (scheme, n)
            assert list(islice(walk(scheme), 2_000)) == cells, scheme


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SIMPLE_KINDS), st.integers(0, 10**30), st.integers(1, 200))
def test_walk_from_any_start_matches_decode(kind, start, length):
    # the walk decodes its start once and then steps: across diagonal and
    # shell ends the steps must land where decoding each position lands
    scheme = Scheme(kind)
    start = max(start, first_index(scheme))
    expected = [decode(scheme, n) for n in range(start, start + length)]
    assert list(islice(walk(scheme, start), length)) == expected


def test_walk_across_block_ends_far_out():
    # random starts far out stay inside one diagonal or shell; these start
    # just before the last cell of diagonal m - 1 and of shell m, and cross
    for kind in SIMPLE_KINDS:
        scheme = Scheme(kind)
        for m in (10**6, 10**30):
            for end in (m * (m + 1) // 2, m * m):
                start = end - 2
                expected = [decode(scheme, n) for n in range(start, start + 5)]
                assert list(islice(walk(scheme, start), 5)) == expected, (kind, start)


def test_walk_validation():
    # a bad start is refused when the walk is made, not when it is first read
    for scheme, start in ((Scheme("cantor"), 0), (Scheme("angle"), -1), (Scheme("cantor0"), -1),
                          (tiling_scheme("const:2x2"), 0)):
        with pytest.raises(ValueError):
            walk(scheme, start)
    assert next(walk(Scheme("cantor0"))) == (0, 0)
    assert next(walk(Scheme("oxplow"), 5)) == decode(Scheme("oxplow"), 5)


def test_decode_validation():
    with pytest.raises(ValueError):
        decode(Scheme("cantor"), 0)
    with pytest.raises(ValueError):
        decode(Scheme("angle"), 0)
    assert decode(Scheme("cantor0"), 0) == (0, 0)
    with pytest.raises(ValueError):
        decode(Scheme("cantor0"), -1)


def test_scheme_text_and_str():
    assert str(Scheme("angle")) == "angle"
    assert str(tiling_scheme("const:3x2", "col")) == "tiling:const:3x2:col"
    assert schemes.CANTOR == Scheme("cantor")


def _copies(value):
    """The value through every pickle protocol, deepcopy and dataclasses.replace."""
    pickled = [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [*pickled, deepcopy(value), replace(value)]


def _first_cells(scheme, count=50):
    """The walk's first ``count`` cells, and the failure that ends it sooner, if any."""
    cells, exc = outcome(islice(walk(scheme), count))
    return cells, describe(exc, len(cells) + 1)


@pytest.mark.parametrize("scheme", VALUE_SCHEMES, ids=str)
def test_scheme_copies_as_a_plain_value(scheme):
    # the bound encoder and reader are not part of the value: a copy is
    # rebuilt from the three fields, compares and hashes equal, encodes the
    # same and walks the same (the list spec runs out after 47 cells)
    cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    walked = _first_cells(scheme)
    for copy in _copies(scheme):
        assert copy == scheme and hash(copy) == hash(scheme) and repr(copy) == repr(scheme)
        assert [copy.encoder(i, j) for i, j in cells] == [encode(scheme, i, j) for i, j in cells]
        assert _first_cells(copy) == walked
    if scheme.kind == "tiling":  # a replaced field binds its own encoder
        col = replace(scheme, order="col")
        assert col.encoder(1, 2) == encode(tiling_scheme(scheme.tiling, "col"), 1, 2)


def test_superpose_spec_copies_as_a_plain_value():
    spec = TransformSpec("superpose", inner=parse_scheme("tiling:const:3x2:parity"),
                         outer=parse_scheme("center-out"))
    expected = generate_prefix(spec, identity(), 200)
    for copy in _copies(spec):
        assert copy == spec and hash(copy) == hash(spec) and repr(copy) == repr(spec)
        assert generate_prefix(copy, identity(), 200) == expected
