import pytest

from gridseq import schemes
from gridseq.oracle import traverse
from gridseq.schemes import (
    SIMPLE_KINDS,
    Scheme,
    decode,
    first_index,
    parse_scheme,
    tiling_scheme,
)


def test_parse_simple_names():
    for kind in SIMPLE_KINDS:
        assert parse_scheme(kind) == Scheme(kind)


def test_parse_tiling_compound():
    s = parse_scheme("tiling:const:3x2:row")
    assert s.kind == "tiling"
    assert s.order == "row"
    assert s.tiling.length(1) == 3 and s.tiling.height(1) == 2
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


def test_first_index():
    assert first_index(Scheme("cantor0")) == 0
    assert first_index(Scheme("cantor")) == 1
    assert first_index(tiling_scheme("const:2x2")) == 1


def test_dispatch_tables_cover_every_kind():
    assert set(schemes._DECODERS) == set(schemes._ENCODERS) == set(SIMPLE_KINDS)


def test_decode_by_search_examples():
    # the examples once answered by a table search, now by the closed forms
    assert decode(Scheme("center-out"), 4) == (2, 2)
    assert decode(Scheme("edges-in"), 1) == (1, 1)
    assert decode(Scheme("alternating"), 9) == (2, 3)


@pytest.mark.parametrize("kind", SIMPLE_KINDS)
def test_decode_matches_oracle(kind):
    scheme = Scheme(kind)
    base = first_index(scheme)
    for n, cell in enumerate(traverse(scheme, 100_000), base):
        assert decode(scheme, n) == cell, n


def test_decode_matches_oracle_on_tiling():
    # the list spec runs out after 2229 positions
    lists = "list:3,1,4,1,5,9,2,6,5,3,5,8,9,7,9x2,7,1,8,2,8,1,8,2,8,4,5,9,4,5"
    for text in ("const:2x2", "const:3x2", "ramp:1+1x1+1", lists):
        for order in ("row", "col", "parity-diag", "parity-tile"):
            scheme = tiling_scheme(text, order)
            for n, cell in enumerate(traverse(scheme, 2_000), 1):
                assert decode(scheme, n) == cell, (scheme, n)


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
