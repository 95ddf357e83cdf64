"""Ground-truth cell orderings built by walking the grid geometrically.

Every enumeration scheme is re-derived here from its geometric description
alone: diagonals with per-diagonal permutations, square shells walked
along their two sides, rectangle tiles taken along tile anti-diagonals.
Nothing in this module uses a closed-form position formula; that is the
whole point, since :func:`verify_scheme` exists to catch the formulas out.
"""

from dataclasses import dataclass
from itertools import count as _count, islice
from typing import Iterator

from . import schemes
from .pairing import Cell
from .schemes import Scheme


def _diag_plain(d: int) -> list[Cell]:
    # top-right to bottom-left, the classical direction
    return [(r, d + 1 - r) for r in range(1, d + 1)]


def _diag_boustrophedon(d: int) -> list[Cell]:
    cells = _diag_plain(d)
    # cells of diagonal d share i+j = d+1; reverse when that sum is even
    return cells[::-1] if (d + 1) % 2 == 0 else cells


def _diag_center_out(d: int) -> list[Cell]:
    rows = []
    if d % 2:  # odd-length diagonal: single centre cell first
        k = (d + 1) // 2
        rows.append(k)
        for m in range(1, k):
            rows += [k - m, k + m]
    else:  # even length: start with the inner pair, upper cell first
        k = d // 2
        for m in range(k):
            rows += [k - m, k + 1 + m]
    return [(r, d + 1 - r) for r in rows]


def _diag_edges_in(d: int) -> list[Cell]:
    rows = []
    for m in range((d + 1) // 2):
        rows.append(1 + m)
        if d - m != 1 + m:
            rows.append(d - m)
    return [(r, d + 1 - r) for r in rows]


def _diag_alternating(d: int) -> list[Cell]:
    # Walk in from the edges taking alternate sides, then mirror the walk
    # back out; odd diagonals start at the bottom edge, even at the top.
    half = []
    if d % 2:
        lo, hi, take_hi = 2, d, True
    else:
        lo, hi, take_hi = 1, d - 1, False
    for _ in range((d + 1) // 2):
        if take_hi:
            half.append(hi)
            hi -= 2
        else:
            half.append(lo)
            lo += 2
        take_hi = not take_hi
    rows = half + [d + 1 - r for r in reversed(half[: d // 2])]
    return [(r, d + 1 - r) for r in rows]


_DIAG_BUILDERS = {
    "cantor": _diag_plain,
    "boustrophedon": _diag_boustrophedon,
    "center-out": _diag_center_out,
    "edges-in": _diag_edges_in,
    "alternating": _diag_alternating,
}


def _shell_angle(s: int) -> list[Cell]:
    # down the column j = s, then left along the row i = s
    return [(i, s) for i in range(1, s + 1)] + [(s, j) for j in range(s - 1, 0, -1)]


def _shell_oxplow(s: int) -> list[Cell]:
    if s % 2:  # odd shells run along the row first, then up the column
        return [(s, j) for j in range(1, s + 1)] + [(i, s) for i in range(s - 1, 0, -1)]
    return _shell_angle(s)


def _iter_tiling(scheme: Scheme) -> Iterator[Cell]:
    height, length = scheme.tiling.heights.side, scheme.tiling.lengths.side
    ordinal = 0  # tiles already emitted; keys the parity-tile order
    rows_above = [0]  # rows_above[R]: grid rows in tile rows 0..R-1, summed here
    cols_left = [0]
    for d in _count():
        for R in range(d + 1):
            S = d - R
            h = height(R + 1)
            l = length(S + 1)
            i0 = rows_above[R]
            j0 = cols_left[S]
            if scheme.order == "col":
                colwise = True
            elif scheme.order == "parity-diag":
                colwise = d % 2 == 1
            elif scheme.order == "parity-tile":
                colwise = ordinal % 2 == 1
            else:
                colwise = False
            if colwise:
                yield from ((i0 + a, j0 + b) for b in range(1, l + 1) for a in range(1, h + 1))
            else:
                yield from ((i0 + a, j0 + b) for a in range(1, h + 1) for b in range(1, l + 1))
            ordinal += 1
        # tile row d and tile column d were both just read, so these cannot run out
        rows_above.append(rows_above[-1] + height(d + 1))
        cols_left.append(cols_left[-1] + length(d + 1))


def iter_cells(scheme: Scheme) -> Iterator[Cell]:
    """Stream the scheme's cells in enumeration order, geometrically."""
    if scheme.kind == "tiling":
        yield from _iter_tiling(scheme)
    elif scheme.kind == "cantor0":
        for s in _count():
            yield from ((x, s - x) for x in range(s + 1))
    elif scheme.kind in _DIAG_BUILDERS:
        build = _DIAG_BUILDERS[scheme.kind]
        for d in _count(1):
            yield from build(d)
    elif scheme.kind == "angle":
        for s in _count(1):
            yield from _shell_angle(s)
    elif scheme.kind == "oxplow":
        for s in _count(1):
            yield from _shell_oxplow(s)
    else:
        raise ValueError(f"no traversal for scheme {scheme}")


def traverse(scheme: Scheme, count: int) -> list[Cell]:
    """First ``count`` cells of the scheme's enumeration."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = list(islice(iter_cells(scheme), count))
    if len(out) < count:
        raise AssertionError("traversal ended early")
    return out


@dataclass
class VerificationReport:
    scheme: Scheme
    checked: int
    ok: bool
    mismatch_position: int | None = None
    mismatch_cell: Cell | None = None
    mismatch_encoded: int | None = None

    def __str__(self):
        if self.ok:
            return f"{self.scheme}: {self.checked} positions verified"
        return (
            f"{self.scheme}: mismatch at position {self.mismatch_position}: "
            f"cell {self.mismatch_cell} encodes to {self.mismatch_encoded}"
        )


def verify_scheme(scheme: Scheme, count: int) -> VerificationReport:
    """Check that the scheme's bound encoder agrees with the geometric walk.

    Confirms ``scheme.encoder(*cell_k) == k`` for the first ``count`` cells
    of the walk (k starting at the scheme's first index).  A mismatch is
    reported, not raised.
    """
    base = schemes.first_index(scheme)
    encode = scheme.encoder
    for position, (i, j) in enumerate(islice(iter_cells(scheme), count), base):
        if (got := encode(i, j)) != position:
            return VerificationReport(scheme, position - base, False, position, (i, j), got)
    return VerificationReport(scheme, count, True)
