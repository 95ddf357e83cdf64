import inspect

import pytest

from gridseq import oracle
from gridseq.schemes import Scheme, tiling_scheme
from gridseq.tiling import SpecExhaustedError
from support import (
    ALTERNATING_CELLS,
    ANGLE_CELLS,
    BOUSTROPHEDON_CELLS,
    CANTOR_CELLS,
    CENTER_OUT_CELLS,
    CONST32_TILING_CELLS,
    EDGES_IN_CELLS,
    OXPLOW_CELLS,
    RAMP_TILING_CELLS,
    verification_schemes,
)


def test_traverse_published_orders():
    assert oracle.traverse(Scheme("cantor"), 6) == CANTOR_CELLS
    assert oracle.traverse(Scheme("boustrophedon"), 21) == BOUSTROPHEDON_CELLS
    assert oracle.traverse(Scheme("center-out"), 21) == CENTER_OUT_CELLS
    assert oracle.traverse(Scheme("edges-in"), 21) == EDGES_IN_CELLS
    assert oracle.traverse(Scheme("alternating"), 21) == ALTERNATING_CELLS
    assert oracle.traverse(Scheme("angle"), 16) == ANGLE_CELLS
    assert oracle.traverse(Scheme("oxplow"), 25) == OXPLOW_CELLS
    assert oracle.traverse(tiling_scheme("ramp:1+1x1+1", "row"), 15) == RAMP_TILING_CELLS
    assert oracle.traverse(tiling_scheme("const:3x2", "row"), 18) == CONST32_TILING_CELLS


def test_traverse_spec_examples():
    assert oracle.traverse(Scheme("angle"), 4) == [(1, 1), (1, 2), (2, 2), (2, 1)]
    assert oracle.traverse(Scheme("oxplow"), 9)[-2:] == [(2, 3), (1, 3)]
    assert oracle.traverse(Scheme("cantor0"), 3) == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("scheme", verification_schemes(), ids=str)
def test_prefix_is_permutation_of_complete_blocks(scheme):
    # 210 = 20 complete diagonals; also 14 complete shells plus a remainder,
    # so compare against the plain-order cell set diagonal by diagonal
    cells = oracle.traverse(scheme, 210)
    assert len(set(cells)) == len(cells)
    if scheme.kind not in ("angle", "oxplow", "tiling"):
        assert set(cells) == {(i, d + 1 - i) for d in range(1, 21) for i in range(1, d + 1)}


def test_shell_blocks_cover_squares():
    for kind in ("angle", "oxplow"):
        cells = oracle.traverse(Scheme(kind), 100)  # 10 complete shells
        assert set(cells) == {(i, j) for i in range(1, 11) for j in range(1, 11)}


def test_block_sizes():
    cells = oracle.traverse(Scheme("cantor"), 210)
    pos = 0
    for d in range(1, 21):
        block = cells[pos : pos + d]
        assert len({i + j for i, j in block}) == 1  # one anti-diagonal, d cells
        pos += d
    cells = oracle.traverse(Scheme("angle"), 100)
    pos = 0
    for s in range(1, 11):
        block = cells[pos : pos + 2 * s - 1]
        assert {max(i, j) for i, j in block} == {s}
        pos += 2 * s - 1
    scheme = tiling_scheme("ramp:1+1x1+1", "row")
    cells = oracle.traverse(scheme, 1 * 1 + 1 * 2 + 2 * 1)  # tile diagonals 0 and 1
    assert cells[0] == (1, 1)
    assert len(cells) == 5


def test_traverse_tiling_spec_exhausted():
    scheme = tiling_scheme("list:2,1x1,2", "row")
    assert len(oracle.traverse(scheme, 7)) == 7  # 2 + 1 + 4 coverable cells
    with pytest.raises(SpecExhaustedError):
        oracle.traverse(scheme, 8)


@pytest.mark.parametrize("scheme", verification_schemes(), ids=str)
def test_verify_scheme_passes(scheme):
    report = oracle.verify_scheme(scheme, 2_000)
    assert report.ok, str(report)
    assert report.checked == 2_000


def test_verify_scheme_reports_mismatch(monkeypatch):
    good = oracle.schemes.encode

    def skewed(scheme, i, j):
        n = good(scheme, i, j)
        return 99 if n == 5 else n

    monkeypatch.setattr(oracle.schemes, "encode", skewed)
    report = oracle.verify_scheme(Scheme("cantor"), 100)
    assert not report.ok
    assert report.mismatch_position == 5
    assert report.mismatch_cell == (2, 2)
    assert report.mismatch_encoded == 99
    assert "mismatch" in str(report)


def test_traversal_code_is_formula_free():
    # review gate: the walks must never consult a closed-form position
    source = inspect.getsource(oracle)
    walk_code = source.split("def verify_scheme")[0]
    forbidden = (
        "cantor_encode",
        "cantor_z",
        "boustrophedon_encode",
        "center_out_encode",
        "edges_in_encode",
        "alternating_encode",
        "angle_encode",
        "oxplow_encode",
        "rect_encode",
        "isqrt",
        "diagonal_index",
        "shell_index",
        "triangle(",
        ".encode(",
        "pairing.",
        "_decode",
        "decode(",
    )
    for name in forbidden:
        assert name not in walk_code, f"oracle walk references {name}"


def test_traverse_validation():
    with pytest.raises(ValueError):
        oracle.traverse(Scheme("cantor"), 0)
