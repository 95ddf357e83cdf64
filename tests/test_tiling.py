import sys
import threading
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridseq import oracle, pairing, schemes, tiling
from gridseq.schemes import tiling_scheme
from gridseq.tiling import (
    SideRule,
    SpecExhaustedError,
    TilingSpec,
    const_rule,
    list_rule,
    parse_tiling_spec,
    ramp_rule,
    rect_encoder,
)
from support import CONST32_TILING_CELLS, RAMP_TILING_CELLS, LoopTilingSpec, describe, outcome

CONST32 = parse_tiling_spec("const:3x2")
CONST22 = parse_tiling_spec("const:2x2")
RAMP = parse_tiling_spec("ramp:1+1x1+1")
# fifteen sides each way: complete tile diagonals cover positions 1..2229
LIST15 = "list:3,1,4,1,5,9,2,6,5,3,5,8,9,7,9x2,7,1,8,2,8,1,8,2,8,4,5,9,4,5"
# LIST15's heights beside ramp 1+1 lengths: complete tile diagonals cover positions 1..3000
MIXED15_REACH = 3_000


def _tile_of(i, j, spec):
    """(R, S): the whole tile rows above and the whole tile columns left of cell (i, j)."""
    return spec.heights.split(i)[0], spec.lengths.split(j)[0]


def test_published_first_terms_const_3x2():
    encode = rect_encoder(CONST32)
    assert [encode(i, j) for i, j in CONST32_TILING_CELLS] == list(
        range(1, len(CONST32_TILING_CELLS) + 1)
    )


def test_published_first_terms_ramp():
    encode = rect_encoder(RAMP)
    assert [encode(i, j) for i, j in RAMP_TILING_CELLS] == list(
        range(1, len(RAMP_TILING_CELLS) + 1)
    )


def test_locate_tile():
    assert _tile_of(3, 1, CONST22) == (1, 0)
    assert _tile_of(1, 1, RAMP) == (0, 0)
    assert _tile_of(1, 1, CONST32) == (0, 0)
    assert _tile_of(2, 4, RAMP) == (1, 2)  # prefix sums 1, 3, 6 against i=2, j=4


def test_locate_tile_spec_exhausted():
    spec = TilingSpec(list_rule([2, 1]), list_rule([1, 2]))
    assert _tile_of(3, 3, spec) == (1, 1)
    with pytest.raises(SpecExhaustedError):
        _tile_of(1, 4, spec)
    with pytest.raises(SpecExhaustedError):
        _tile_of(4, 1, spec)


def test_side_list_error_names_the_first_missing_entry():
    rule = list_rule([1, 2, 3])
    assert tuple(rule.sides(1, 3)) == (2, 3)
    for lo, hi, entry in ((1, 5, 4), (4, 6, 5)):
        with pytest.raises(SpecExhaustedError) as err:
            rule.sides(lo, hi)
        assert str(err.value) == f"side list has 3 entries, needed entry {entry}"


@pytest.mark.parametrize("rule", (const_rule(3), ramp_rule(1, 1), ramp_rule(2, 0), list_rule([1, 2, 3])),
                         ids=("const", "ramp", "ramp-step-0", "list"))
def test_rules_refuse_arguments_out_of_range(rule):
    # a negative side count and a coordinate below 1 raise, naming the
    # argument, as a side index below 1 does, rather than return a wrong value
    with pytest.raises(ValueError, match="tile side index is 1-based"):
        rule.side(0)
    for m in (-1, -2):
        with pytest.raises(ValueError, match=f"side count m must be >= 0, got {m}"):
            rule.total(m)
    for x in (0, -1):
        with pytest.raises(ValueError, match=f"coordinate x must be >= 1, got {x}"):
            rule.split(x)
    assert (rule.total(0), rule.split(1)) == (0, (0, 0))


def test_rowwise_examples():
    encode = rect_encoder(CONST32)
    assert encode(1, 4) == 7
    assert encode(2, 3) == 6
    assert rect_encoder(RAMP, "row")(2, 1) == 4


def test_colwise_examples():
    unit = parse_tiling_spec("const:1x1")
    assert rect_encoder(unit, "col")(2, 1) == 3
    assert rect_encoder(CONST32, "col")(2, 1) == 2
    assert rect_encoder(CONST32, "column")(1, 4) == 7


def test_parity_examples():
    unit = parse_tiling_spec("const:1x1")
    by_diag, by_tile = rect_encoder(unit, "parity-diag"), rect_encoder(unit, "parity-tile")
    for i in range(1, 12):
        for j in range(1, 12):
            assert by_diag(i, j) == pairing.cantor_encode(i, j)
            assert by_tile(i, j) == pairing.cantor_encode(i, j)
    encode = rect_encoder(CONST22, "parity-diag")
    assert encode(1, 1) == 1
    # tile diagonal 1 is odd, so its tiles are numbered column by column
    assert encode(2, 3) == 6
    assert rect_encoder(CONST22, "parity")(1, 4) == 7


def test_parity_sources_differ():
    # tile (0, 2) sits on an even tile diagonal but carries an odd tile
    # number, so the two parity sources number its interior differently
    spec = CONST22
    assert rect_encoder(spec, "parity-diag")(1, 6) != rect_encoder(spec, "parity-tile")(1, 6)
    for by in ("diag", "tile"):
        report = oracle.verify_scheme(tiling_scheme("const:2x2", f"parity-{by}"), 500)
        assert report.ok, str(report)


def test_const_fast_path_examples():
    assert rect_encoder(CONST32)(1, 4) == 7
    unit = rect_encoder(TilingSpec(const_rule(1), const_rule(1)))
    for i in range(1, 50):
        for j in range(1, 51 - i):
            assert unit(i, j) == pairing.cantor_encode(i, j)
    # (3, 3) sits in the fifth tile of the 2x2 cover, so its block is 17..20
    assert rect_encoder(CONST22)(3, 3) == 17


def test_const_fast_path_agrees_with_general_encode():
    for l, h in ((2, 2), (3, 2), (1, 4), (5, 3)):
        encode = rect_encoder(TilingSpec(const_rule(l), const_rule(h)))
        cells = oracle.traverse(tiling_scheme(f"const:{l}x{h}", "row"), 2_000)
        for n, (i, j) in enumerate(cells, 1):
            # the textbook position for constant l x h tiles, numbered row-wise
            R, S = (i - 1) // h, (j - 1) // l
            textbook = l * h * ((R + S) ** 2 + 3 * R + S) // 2 + l * (i - h * R - S - 1) + j
            assert textbook == n
            assert encode(i, j) == n


def test_unit_tile_reduction_all_orders():
    unit = parse_tiling_spec("const:1x1")
    encoders = [rect_encoder(unit, order) for order in tiling.ORDERS]
    for i in range(1, 200):
        for j in range(1, 201 - i):
            expected = pairing.cantor_encode(i, j)
            for encode in encoders:
                assert encode(i, j) == expected


def test_tile_interior_contiguity():
    # group the positions of a complete-tile-diagonal prefix by tile: each
    # tile must own one contiguous block of length height * length
    mixed = TilingSpec(list_rule([2, 1, 3]), list_rule([1, 2, 3]))
    for spec, diagonals in ((CONST32, 7), (RAMP, 6), (mixed, 2)):
        count = spec._cells_ahead(diagonals + 1, 0)
        scheme = tiling_scheme(spec, "row")
        by_tile = {}
        for n in range(1, count + 1):
            i, j = schemes.decode(scheme, n)
            by_tile.setdefault(_tile_of(i, j, spec), []).append(
                schemes.encode(scheme, i, j)
            )
        assert len(by_tile) == (diagonals + 1) * (diagonals + 2) // 2
        for (R, S), values in by_tile.items():
            size = spec.heights.side(R + 1) * spec.lengths.side(S + 1)
            assert values == list(range(min(values), min(values) + size))


def test_decode_examples():
    const_row, ramp_row = tiling_scheme(CONST32, "row"), tiling_scheme(RAMP, "row")
    assert schemes.decode(const_row, 7) == (1, 4)
    assert schemes.decode(const_row, 1) == (1, 1)
    assert schemes.decode(tiling_scheme(RAMP, "col"), 1) == (1, 1)
    assert schemes.decode(ramp_row, 4) == (2, 1)


def test_decode_roundtrip_all_orders():
    for spec_text in ("const:2x2", "const:3x2", "ramp:1+1x1+1"):
        spec = parse_tiling_spec(spec_text)
        for order in tiling.ORDERS:
            scheme = tiling_scheme(spec_text, order)
            encode = rect_encoder(spec, order)
            for n in range(1, 800):
                i, j = schemes.decode(scheme, n)
                assert schemes.encode(scheme, i, j) == n, (spec_text, order, n)
                assert encode(i, j) == n


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3000),
)
def test_decode_roundtrip_random_const(l, h, n):
    spec = TilingSpec(const_rule(l), const_rule(h))
    for order in tiling.ORDERS:
        scheme = tiling_scheme(spec, order)
        i, j = schemes.decode(scheme, n)
        assert schemes.encode(scheme, i, j) == n


def test_spec_text_roundtrip():
    for text in ("const:3x2", "list:1,2,3x2,1", "ramp:2+1x1+3"):
        assert parse_tiling_spec(text).text() == text
    assert parse_tiling_spec("const:3x2") == CONST32
    assert parse_tiling_spec("const:3x2") != CONST22


def test_bad_specs():
    for text in ("const:3", "grid:3x2", "const:0x2", "list:x1", "ramp:0+1x1+1", "const:ax2"):
        with pytest.raises(ValueError):
            parse_tiling_spec(text)
    with pytest.raises(ValueError):
        rect_encoder(TilingSpec(const_rule(0), const_rule(2)))
    with pytest.raises(ValueError):
        rect_encoder(CONST32, "diagonal")
    with pytest.raises(ValueError, match="constant tile side rule must have step 0"):
        SideRule("const", start=3, step=1)
    with pytest.raises(ValueError):
        tiling.canonical_order("diagonal")


def _affine_rule(kind, a, b):
    return const_rule(a) if kind == "const" else ramp_rule(a, b)


_affine_rules = st.builds(
    _affine_rule, st.sampled_from(("const", "ramp")), st.integers(1, 6), st.integers(0, 4)
)


@settings(max_examples=60, deadline=None)
@given(_affine_rules, _affine_rules, st.integers(1, 12), st.data())
def test_closed_forms_match_list_sums(lengths, heights, sides, data):
    # a list spec holding the first ``sides`` sides of a const or ramp spec
    # numbers the same cells the same way within its reach; its sums are
    # explicit, so it is the reference for the polynomials, as is a spec
    # that mixes one list with one const or ramp rule
    affine = TilingSpec(lengths, heights)
    listed = TilingSpec(
        list_rule(lengths.side(m) for m in range(1, sides + 1)),
        list_rule(heights.side(m) for m in range(1, sides + 1)),
    )
    mixed = TilingSpec(lengths, listed.heights)
    for m in range(sides + 1):
        assert lengths.total(m) == listed.lengths.total(m) == sum(lengths.side(k) for k in range(1, m + 1))
        assert heights.total(m) == listed.heights.total(m)
    for d in range(sides):
        assert affine._cells_ahead(d + 1, 0) == listed._cells_ahead(d + 1, 0)
        for R in range(d + 1):  # the tile-row polynomial, which no method holds alone
            assert affine._cells_ahead(d, R) == listed._cells_ahead(d, R) == mixed._cells_ahead(d, R), (d, R)
    for x in range(1, listed.lengths.total(sides) + 1):
        assert lengths.split(x) == listed.lengths.split(x)
    for x in range(1, listed.heights.total(sides) + 1):
        assert heights.split(x) == listed.heights.split(x)
    reach = listed._cells_ahead(sides, 0)
    positions = data.draw(st.lists(st.integers(1, reach), min_size=1, max_size=40)) + [reach]
    for order in tiling.ORDERS:
        by_list, *others = (tiling_scheme(spec, order) for spec in (listed, affine, mixed))
        for n in positions:
            cell = schemes.decode(by_list, n)
            for scheme in others:
                assert schemes.decode(scheme, n) == cell, (scheme, n)
            for scheme in (by_list, *others):
                assert schemes.encode(scheme, *cell) == n
    with pytest.raises(SpecExhaustedError):
        schemes.decode(tiling_scheme(listed), reach + 1)
    # mixed's lengths never run out, so its tiles go on along tile diagonal
    # ``sides`` up to the first one past the end of its heights list
    mixed_row = tiling_scheme(mixed)
    assert schemes.decode(mixed_row, reach + 1) == oracle.traverse(mixed_row, reach + 1)[-1]


_list_rules = st.lists(st.integers(1, 5), min_size=1, max_size=8).map(list_rule)
_any_rules = st.one_of(_list_rules, _affine_rules)


@settings(max_examples=200, deadline=None)
@given(_any_rules, _any_rules, st.sampled_from(tiling.ORDERS))
def test_scheme_text_parses_back(lengths, heights, order):
    # const, ramp and list specs, and mixed ones such as list lengths beside
    # ramp heights, which print as lengths[list:...]xheights[ramp:...]
    scheme = tiling_scheme(TilingSpec(lengths, heights), order)
    assert schemes.parse_scheme(scheme.text()) == scheme
    assert parse_tiling_spec(scheme.tiling.text()) == scheme.tiling


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are what is compared
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_any_rules, st.data())
def test_list_counts_match_loop_sums(lengths, data):
    # the product sums of a pure-list or mixed spec give what the generator
    # sums give, value for value, and past a list's end the same exception
    # with the same message, which the CLI prints
    draw = data.draw
    heights = draw(_list_rules if lengths.affine else _any_rules)
    spec, loop = TilingSpec(lengths, heights), LoopTilingSpec(lengths, heights)
    sides = min(len(rule.values) for rule in (lengths, heights) if not rule.affine)
    reach = loop._cells_ahead(sides, 0)
    for d in draw(st.lists(st.integers(-3, sides + 3), min_size=1, max_size=6)):
        assert _outcome(spec._cells_ahead, d + 1, 0) == _outcome(loop._cells_ahead, d + 1, 0), d
    cells = draw(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)), min_size=1, max_size=8))
    positions = draw(st.lists(st.integers(1, reach + 40), min_size=1, max_size=8)) + [reach, reach + 1]
    for order in tiling.ORDERS:
        by_spec, by_loop = tiling_scheme(spec, order), tiling_scheme(loop, order)
        for i, j in cells:
            assert _outcome(by_spec.encoder, i, j) == _outcome(by_loop.encoder, i, j)
        for n in positions:
            assert _outcome(schemes.decode, by_spec, n) == _outcome(schemes.decode, by_loop, n)
    # _cells_ahead(d, R), the one count per cell of a list spec's encoder, for
    # every tile of tile diagonals -1 to past the longer list's end: lengths
    # to d are read before heights to d, before lengths to d + 1
    longest = max(len(rule.values) for rule in (lengths, heights))
    for d in range(-1, longest + 3):
        for R in range(d + 1):
            assert _outcome(spec._cells_ahead, d, R) == _outcome(loop._cells_ahead, d, R), (d, R)


def _reference_encode(i, j, loop, encode):
    # the checks in their documented order: the cell, the heights split, the
    # lengths split, then the counts and the side; encode is bound to loop
    try:
        pairing._check_cell(i, j)
        loop.heights.split(i)
        loop.lengths.split(j)
    except Exception as exc:  # noqa: BLE001 - the type and message are what is compared
        return type(exc), str(exc)
    return _outcome(encode, i, j)


_coordinates = st.one_of(st.integers(-3, 0), st.integers(1, 60), st.integers(1, 10**30))


@settings(max_examples=300, deadline=None)
@given(_any_rules, _any_rules, st.sampled_from((*tiling.ORDERS, "parity", "column")),
       st.lists(st.tuples(_coordinates, _coordinates), min_size=1, max_size=8))
@example(list_rule([1, 3, 1]), list_rule([2, 1]), "row", [(4, 6)])
def test_bound_encoder_matches_loop_spec(lengths, heights, order, cells):
    # a scheme's encoder, bound once, gives what rect_encoder gives on a spec
    # that counts by loop sums: the same position, or past a list's end or
    # off the grid the same exception with the same message; past the end of
    # both lists, as in the example, the heights' list is the one reported
    scheme = tiling_scheme(TilingSpec(lengths, heights), order)
    loop = LoopTilingSpec(lengths, heights)
    loop_encode = rect_encoder(loop, order)
    for i, j in cells:
        assert _outcome(schemes.encode, scheme, i, j) == _reference_encode(i, j, loop, loop_encode)


@settings(max_examples=150, deadline=None)
@given(_affine_rules, _affine_rules, st.sampled_from(tiling.ORDERS),
       st.integers(1, 10**30), st.integers(1, 10**15), st.integers(1, 10**15))
def test_roundtrip_far_out(lengths, heights, order, n, i, j):
    spec = TilingSpec(lengths, heights)
    scheme = tiling_scheme(spec, order)
    ci, cj = schemes.decode(scheme, n)
    assert schemes.encode(scheme, ci, cj) == n
    R, S = _tile_of(ci, cj, spec)
    assert heights.total(R) < ci <= heights.total(R + 1)
    assert lengths.total(S) < cj <= lengths.total(S + 1)
    assert schemes.decode(scheme, schemes.encode(scheme, i, j)) == (i, j)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("const:3x2", "const:1x4", "ramp:1+1x1+1", "ramp:2+3x1+0", LIST15)),
       st.sampled_from(tiling.ORDERS), st.integers(1, 2_100), st.integers(1, 60))
def test_walk_from_any_start_matches_decode_and_oracle(text, order, start, length):
    # the list spec covers 2229 positions, so every walk here stays inside it
    scheme = tiling_scheme(text, order)
    cells = list(islice(schemes.walk(scheme, start), length))
    assert cells == [schemes.decode(scheme, n) for n in range(start, start + length)]
    assert cells == oracle.traverse(scheme, start + length - 1)[start - 1:]


def _walk_from(scheme, start, length):
    # lazily, so that a start the walk refuses fails where a decode would
    yield from islice(schemes.walk(scheme, start), length)


def _read(cells, start=1):
    """(the cells before the first failure, the failure's type, message and position)."""
    got, exc = outcome(cells)
    return got, describe(exc, start + len(got))


@settings(max_examples=150, deadline=None)
@given(_list_rules, _any_rules, st.booleans(), st.sampled_from(tiling.ORDERS), st.data())
@example(list_rule([1, 2, 3, 4, 5]), list_rule([1, 2]), False, "row", None)
@example(list_rule([1, 2]), list_rule([1, 2, 3, 4, 5]), False, "col", None)
@example(list_rule([3, 1, 2]), ramp_rule(1), True, "parity-tile", None)
def test_list_tilings_read_every_tile_the_oracle_reads(listed, other, swap, order, data):
    # past the end of its shorter list a spec still holds the tiles of the
    # next tile diagonal up to the first one with a missing side, in the
    # oracle's order; decode, walk and encode read exactly those cells, and
    # past them raise what the oracle raises, at the same position
    lengths, heights = (other, listed) if swap else (listed, other)
    scheme = tiling_scheme(TilingSpec(lengths, heights), order)
    cells, failure = _read(oracle.iter_cells(scheme))
    assert failure is not None and failure[0] is SpecExhaustedError
    reach = len(cells)
    assert _read(schemes.decode(scheme, n) for n in range(1, reach + 4)) == (cells, failure)
    assert _read(schemes.walk(scheme)) == (cells, failure)
    starts = [1, reach, reach + 1, reach + 9] if data is None else data.draw(
        st.lists(st.integers(1, reach + 9), min_size=1, max_size=4))
    for start in starts:
        walked = _read(_walk_from(scheme, start, reach + 9), start)
        assert walked == (cells[start - 1:], (*failure[:3], max(start, reach + 1)))
    assert [schemes.encode(scheme, *cell) for cell in cells] == list(range(1, reach + 1))


_far_starts = st.one_of(st.integers(1, 400), st.integers(1, 10**30))


@settings(max_examples=300, deadline=None)
@given(_any_rules, _any_rules, st.sampled_from((*tiling.ORDERS, "parity", "column")),
       _far_starts, st.integers(1, 120))
def test_walk_steps_where_decode_lands(lengths, heights, order, start, length):
    # the walk places its start once and then steps tile by tile: across tile
    # ends, tile diagonals and a list's end it must land, and fail, where
    # decoding each position lands and fails
    scheme = tiling_scheme(TilingSpec(lengths, heights), order)
    decoded = (schemes.decode(scheme, n) for n in range(start, start + length))
    assert _read(_walk_from(scheme, start, length), start) == _read(decoded, start)


def _counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments in the returned list."""
    calls, fn = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or fn(*args, **kw))
    return calls


@pytest.mark.parametrize("text", ("const:3x2", "ramp:1+1x1+1", "ramp:2+0x3+0"))
@pytest.mark.parametrize("start", (1, 10**30))
def test_walk_bisects_only_for_its_start(text, start, monkeypatch):
    # a walk places its start and then steps: over 20k cells and many tiles,
    # the ramp bisects twice in all (the tile diagonal, then the tile), where
    # decoding each position would take two per cell; equal tiles place the
    # start by one divmod, with no bisection and no count at all
    scheme = tiling_scheme(text, "parity-tile")
    expected = [schemes.decode(scheme, n) for n in (start, start + 9_999, start + 19_999)]
    bisections = _counted(monkeypatch, tiling, "_last_below")
    counts = _counted(monkeypatch, TilingSpec, "_cells_ahead")
    cells = list(islice(schemes.walk(scheme, start), 20_000))
    assert [cells[0], cells[9_999], cells[19_999]] == expected
    if text == "ramp:1+1x1+1":
        assert len(bisections) == 2
    else:
        assert (len(bisections), len(counts)) == (0, 0)


# -- equal tiles: Cantor's numbering of the tiles, times the tile area ------------------

# the tile sides a (heights) and c (lengths): small, or one near 10^20
_tile_side = st.one_of(st.integers(1, 9), st.integers(10**20 - 3, 10**20 + 3))
_equal_orders = st.sampled_from((*tiling.ORDERS, "parity", "column"))


def _equal_scheme(kind, a, c, order):
    text = f"const:{c}x{a}" if kind == "const" else f"ramp:{c}+0x{a}+0"
    return tiling_scheme(text, order)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("const", "ramp")), _tile_side, _tile_side, _equal_orders,
       st.lists(st.tuples(st.integers(1, 10**30), st.integers(1, 10**30)), min_size=1, max_size=6),
       st.lists(st.integers(1, 10**30), min_size=1, max_size=6))
def test_equal_tiles_encode_by_the_count_and_decode_back(kind, a, c, order, cells, positions):
    # the closed form against the general count: the cells ahead of tile
    # (R, S), then the cell's place in the tile under the order
    scheme = _equal_scheme(kind, a, c, order)
    spec = scheme.tiling
    for i, j in cells:
        R, di = divmod(i - 1, a)
        S, dj = divmod(j - 1, c)
        place = a * dj + di if tiling._colwise(scheme.order, R, S) else c * di + dj
        n = schemes.encode(scheme, i, j)
        assert n == spec._cells_ahead(R + S, R) + 1 + place
        assert schemes.decode(scheme, n) == (i, j)
    for n in positions:
        assert schemes.encode(scheme, *schemes.decode(scheme, n)) == n
    for i, j in ((0, 1), (1, 0), (-2, 5)):
        with pytest.raises(ValueError, match="cell coordinates must be >= 1"):
            schemes.encode(scheme, i, j)
    with pytest.raises(ValueError, match="position must be >= 1"):
        schemes.decode(scheme, 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("const", "ramp")), _tile_side, _tile_side, _equal_orders)
def test_equal_tiles_match_the_oracle(kind, a, c, order):
    scheme = _equal_scheme(kind, a, c, order)
    cells = list(islice(oracle.iter_cells(scheme), 5_000))
    assert [schemes.encode(scheme, i, j) for i, j in cells] == list(range(1, 5_001))
    assert [schemes.decode(scheme, n) for n in range(1, 5_001)] == cells


@pytest.mark.parametrize("order", tiling.ORDERS)
def test_equal_tiles_take_no_count(order, monkeypatch):
    # 10^4 encodes, 10^4 decodes and a 10^4-cell walk from far out make no
    # count and no bisection: the scheme is built once the counters are in
    counts = _counted(monkeypatch, TilingSpec, "_cells_ahead")
    bisections = _counted(monkeypatch, tiling, "_last_below")
    scheme = tiling_scheme("const:3x2", order)
    for i in range(1, 101):
        for j in range(10**20, 10**20 + 100):
            assert schemes.decode(scheme, schemes.encode(scheme, i, j)) == (i, j)
    assert len(list(islice(schemes.walk(scheme, 10**30), 10_000))) == 10_000
    assert (len(counts), len(bisections)) == (0, 0)


def _specs():
    listed = parse_tiling_spec(LIST15)
    return parse_tiling_spec("ramp:1+1x1+1"), listed, TilingSpec(ramp_rule(1), listed.heights)


def _tiling_calls(ramp, listed, mixed):
    out = [ramp.lengths.total(20_000), ramp.heights.total(20_000), ramp._cells_ahead(301, 0),
           listed.lengths.total(15), listed._cells_ahead(15, 0), mixed._cells_ahead(15, 0)]
    for spec, top in ((ramp, 10**6), (listed, 2_229), (mixed, MIXED15_REACH)):
        for order in tiling.ORDERS:
            scheme = tiling_scheme(spec, order)
            for n in range(1, top, top // 10):
                i, j = schemes.decode(scheme, n)
                out.append((i, j, schemes.encode(scheme, i, j)))
            out.append(schemes.encode(scheme, 9, 12))
    return out


def test_threads_share_one_spec():
    # four threads start together on fresh ramp, list and mixed specs per
    # trial and must see exactly what one thread sees; a spec that grows
    # memos or tables on use fails this
    expected = _tiling_calls(*_specs())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            specs = _specs()
            gate = threading.Barrier(4, timeout=60)
            results = [None] * 4

            def run(k):
                gate.wait()
                results[k] = _tiling_calls(*specs)

            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
