from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseq import pairing
from support import (
    ALTERNATING_CELLS,
    ANGLE_CELLS,
    BOUSTROPHEDON_CELLS,
    CANTOR_CELLS,
    CENTER_OUT_CELLS,
    EDGES_IN_CELLS,
    OXPLOW_CELLS,
    newton_isqrt,
)

LISTINGS = [
    (pairing.cantor_encode, CANTOR_CELLS),
    (pairing.boustrophedon_encode, BOUSTROPHEDON_CELLS),
    (pairing.center_out_encode, CENTER_OUT_CELLS),
    (pairing.edges_in_encode, EDGES_IN_CELLS),
    (pairing.alternating_encode, ALTERNATING_CELLS),
    (pairing.angle_encode, ANGLE_CELLS),
    (pairing.oxplow_encode, OXPLOW_CELLS),
]


@pytest.mark.parametrize("encode,cells", LISTINGS, ids=lambda v: getattr(v, "__name__", ""))
def test_published_first_terms(encode, cells):
    assert [encode(i, j) for i, j in cells] == list(range(1, len(cells) + 1))


def test_cantor_examples():
    assert pairing.cantor_encode(1, 1) == 1
    assert pairing.cantor_encode(2, 1) == 3
    assert pairing.cantor_encode(1, 3) == 4
    assert pairing.cantor_decode(5) == (2, 2)
    assert pairing.cantor_decode(1) == (1, 1)
    assert pairing.cantor_decode(10) == (4, 1)


def test_cantor_z_examples():
    assert pairing.cantor_z(0, 0) == 0
    assert pairing.cantor_z(0, 1) == 1
    assert pairing.cantor_z(1, 0) == 2
    assert pairing.cantor_z_decode(0) == (0, 0)
    assert pairing.cantor_z_decode(4) == (1, 1)


def test_zero_based_correspondence():
    # the two classical forms differ by a unit shift in both coordinates;
    # the orientation is fixed by their respective first-terms listings
    for i in range(1, 200):
        for j in range(1, 201 - i):
            assert pairing.cantor_encode(i, j) == pairing.cantor_z(i - 1, j - 1) + 1


def test_diag_scheme_examples():
    assert pairing.boustrophedon_encode(3, 1) == 4
    assert pairing.boustrophedon_encode(2, 2) == 5
    assert pairing.boustrophedon_encode(1, 1) == 1
    assert pairing.center_out_encode(2, 2) == 4
    assert pairing.center_out_encode(1, 3) == 5
    assert pairing.edges_in_encode(3, 1) == 5
    assert pairing.edges_in_encode(2, 2) == 6
    assert pairing.alternating_encode(1, 4) == 7
    assert pairing.alternating_encode(3, 2) == 8
    assert pairing.boustrophedon_decode(4) == (3, 1)
    assert pairing.center_out_decode(4) == (2, 2)
    assert pairing.edges_in_decode(1) == (1, 1)
    assert pairing.edges_in_decode(5) == (3, 1)
    assert pairing.alternating_decode(9) == (2, 3)


def test_angle_examples():
    assert pairing.angle_encode(2, 2) == 3
    assert pairing.angle_encode(3, 2) == 8
    assert pairing.angle_decode(2) == (1, 2)
    assert pairing.angle_decode(7) == (3, 3)
    assert pairing.angle_decode(1) == (1, 1)


def test_oxplow_examples():
    assert pairing.oxplow_encode(3, 1) == 5
    assert pairing.oxplow_encode(2, 3) == 8
    assert pairing.oxplow_encode(1, 1) == 1
    assert pairing.oxplow_decode(5) == (3, 1)
    assert pairing.oxplow_decode(4) == (2, 1)
    assert pairing.oxplow_decode(1) == (1, 1)


def test_diagonal_confinement():
    encoders = (
        pairing.cantor_encode,
        pairing.boustrophedon_encode,
        pairing.center_out_encode,
        pairing.edges_in_encode,
        pairing.alternating_encode,
    )
    for i in range(1, 60):
        for j in range(1, 60):
            t = i + j - 2
            lo, hi = pairing.triangle(t), pairing.triangle(t + 1)
            for encode in encoders:
                assert lo < encode(i, j) <= hi, encode.__name__


def test_shell_confinement():
    for i in range(1, 60):
        for j in range(1, 60):
            s = max(i, j)
            for encode in (pairing.angle_encode, pairing.oxplow_encode):
                assert (s - 1) ** 2 < encode(i, j) <= s * s, encode.__name__


CLOSED_PAIRS = [
    (pairing.cantor_encode, pairing.cantor_decode),
    (pairing.boustrophedon_encode, pairing.boustrophedon_decode),
    (pairing.center_out_encode, pairing.center_out_decode),
    (pairing.edges_in_encode, pairing.edges_in_decode),
    (pairing.alternating_encode, pairing.alternating_decode),
    (pairing.angle_encode, pairing.angle_decode),
    (pairing.oxplow_encode, pairing.oxplow_decode),
]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**30))
def test_closed_decode_roundtrip(n):
    for encode, decode in CLOSED_PAIRS:
        assert encode(*decode(n)) == n, decode.__name__


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**12))
def test_cantor_z_roundtrip(z):
    assert pairing.cantor_z(*pairing.cantor_z_decode(z)) == z


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**15), st.integers(min_value=1, max_value=10**15))
def test_encode_decode_cell_roundtrip(i, j):
    for encode, decode in CLOSED_PAIRS:
        assert decode(encode(i, j)) == (i, j), decode.__name__


def test_index_helpers_match_loop_isqrt_to_a_million():
    # the closed forms rest on floor(sqrt(.)); one wrong floor breaks a decode
    for n in range(1, 1_000_001):
        assert isqrt(8 * n - 7) == newton_isqrt(8 * n - 7)
        assert isqrt(n - 1) == newton_isqrt(n - 1)


def test_validation():
    with pytest.raises(ValueError):
        pairing.cantor_encode(0, 1)
    with pytest.raises(ValueError):
        pairing.angle_encode(1, -2)
    with pytest.raises(ValueError):
        pairing.cantor_decode(0)
    with pytest.raises(ValueError):
        pairing.cantor_z(-1, 0)
    with pytest.raises(ValueError):
        pairing.cantor_z_decode(-1)
