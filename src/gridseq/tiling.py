"""Grid enumeration generalised to covers by variable-size rectangles.

The grid is covered by rectangle tiles: tile column s has width
``lengths[s]``, tile row r has height ``heights[r]``.  Tiles are numbered
along tile anti-diagonals exactly like cells are in the classical order,
and the cells inside each tile are numbered row by row, column by column,
or by one of two parity-alternating mixes of the two.

Tile side rules are finite descriptions (constant, explicit list, linear
ramp) so a cover can be written down, parsed back, and reproduced.  A
constant rule is a ramp with step 0.  One count serves every job: the
cells ahead of a tile, in the tile diagonals before it and in the tiles
above it on its own.  It has two paths: exact polynomials when neither
rule is a list, and otherwise one O(d) product sum over the side tuples
each rule holds (a list's sides and side sums, an affine rule's sides
laid out as a range), with no per-diagonal table.  Encoding evaluates it
once a cell.  :func:`rect_reader` bisects it, over the tile diagonals and
then over the tile rows, to place a position, O(log n) evaluations, then
walks on tile by tile with no count.  When every tile is a x c (both
rules step 0), the tiling is Cantor's numbering of the tiles: tile T
holds cells a*c*T + 1..a*c*(T + 1), so an encode takes no count and a
decode places n by one ``divmod``.  Rules and specs never change, so
they can be shared across threads.
"""

from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, repeat
from math import isqrt
from operator import mul

from .pairing import Cell, cantor_z, diagonal_index, _check_cell, _check_index

ORDERS = ("row", "col", "parity-diag", "parity-tile")
_ORDER_ALIASES = {"parity": "parity-diag", "column": "col"}


class SpecExhaustedError(Exception):
    """An explicit side-rule list ended before covering the requested cell."""


def canonical_order(order: str) -> str:
    order = _ORDER_ALIASES.get(order, order)
    if order not in ORDERS:
        raise ValueError(f"unknown inner order {order!r}, expected one of {ORDERS}")
    return order


@dataclass(frozen=True)
class SideRule:
    """Rule producing the m-th tile side (1-based): const c, explicit list, or a + b*(m-1)."""

    kind: str  # "const" | "list" | "ramp"
    const: int = 0
    values: tuple[int, ...] = ()
    start: int = 0
    step: int = 0

    def __post_init__(self):
        if self.kind == "const":
            if self.const < 1:
                raise ValueError("constant tile side must be >= 1")
            affine = (self.const, 0)
        elif self.kind == "list":
            if not self.values or any(v < 1 for v in self.values):
                raise ValueError("tile side list must be non-empty with sides >= 1")
            affine = None
            object.__setattr__(self, "_sums", tuple(accumulate(self.values, initial=0)))
        elif self.kind == "ramp":
            if self.start < 1 or self.step < 0:
                raise ValueError("ramp must start >= 1 with a non-negative step")
            affine = (self.start, self.step)
        else:
            raise ValueError(f"unknown side rule kind {self.kind!r}")
        # fixed here, so no later call grows anything: affine = (a, b) with
        # side(m) = a + b*(m-1), None for a list, whose _sums[m] = sides 1..m
        object.__setattr__(self, "affine", affine)

    def side(self, m: int) -> int:
        if m < 1:
            raise ValueError("tile side index is 1-based")
        if self.affine:
            a, b = self.affine
            return a + b * (m - 1)
        if m > len(self.values):
            raise self._exhausted(m)
        return self.values[m - 1]

    def total(self, m: int) -> int:
        """Sum of the first m sides (0 for m = 0)."""
        if self.affine:
            a, b = self.affine
            return a * m + b * (m * (m - 1) // 2)
        if m >= len(self._sums):
            raise self._exhausted(len(self._sums))
        return self._sums[m]

    def sides(self, lo: int, hi: int) -> Sequence[int]:
        """Sides lo + 1..hi, in order, as a tuple or a range."""
        if self.affine:
            a, b = self.affine
            return range(a + b * lo, a + b * hi, b) if b else (a,) * (hi - lo)
        if hi > len(self.values):
            raise self._exhausted(max(lo, len(self.values)) + 1)
        return self.values[lo:hi]

    def totals(self, lo: int, hi: int) -> Sequence[int]:
        """total(lo)..total(hi), in order."""
        if self.affine:
            return list(accumulate(self.sides(lo, hi), initial=self.total(lo)))
        if hi >= len(self._sums):
            raise self._exhausted(len(self._sums))
        return self._sums[lo:hi + 1]

    def split(self, x: int) -> tuple[int, int]:
        """(m, k) for coordinate x >= 1: m whole tiles lie before it, k cells of tile m + 1 too."""
        if self.affine:
            a, b = self.affine
            if b == 0:
                return divmod(x - 1, a)
            # the largest m >= 0 with b*m^2 + c*m <= 2(x - 1); taking the integer
            # square root first loses nothing, since 2*b*m + c is an integer
            c = 2 * a - b
            m = (isqrt(c * c + 8 * b * (x - 1)) - c) // (2 * b)
            return m, x - 1 - self.total(m)
        if x > self._sums[-1]:
            raise self._exhausted(len(self._sums))
        m = bisect_left(self._sums, x) - 1
        return m, x - 1 - self._sums[m]

    def _exhausted(self, m: int) -> SpecExhaustedError:
        return SpecExhaustedError(f"side list has {len(self.values)} entries, needed entry {m}")

    def text(self) -> str:
        if self.kind == "const":
            return str(self.const)
        if self.kind == "ramp":
            return f"{self.start}+{self.step}"
        return ",".join(str(v) for v in self.values)


def const_rule(c: int) -> SideRule:
    return SideRule("const", const=c)


def list_rule(values) -> SideRule:
    return SideRule("list", values=tuple(values))


def ramp_rule(start: int, step: int = 1) -> SideRule:
    return SideRule("ramp", start=start, step=step)


class TilingSpec:
    """A rectangle cover: a lengths rule (along columns) and a heights rule (along rows)."""

    __slots__ = ("lengths", "heights", "_coeffs")

    def __init__(self, lengths: SideRule, heights: SideRule):
        self.lengths = lengths
        self.heights = heights
        # with no list rule, tile row r (0-based) is A + B*r high, tile column s is C + E*s wide
        self._coeffs = (*heights.affine, *lengths.affine) if heights.affine and lengths.affine else None

    def __eq__(self, other):
        return (isinstance(other, TilingSpec)
                and (self.lengths, self.heights) == (other.lengths, other.heights))

    def __hash__(self):
        return hash((self.lengths, self.heights))

    def __repr__(self):
        return f"TilingSpec({self.text()!r})"

    def __reduce__(self):
        # pickles and copies under every protocol, as its two rules
        return type(self), (self.lengths, self.heights)

    def text(self) -> str:
        kind = self.heights.kind
        heights = self.heights.text() if kind == self.lengths.kind else f"{kind}:{self.heights.text()}"
        return f"{self.lengths.kind}:{self.lengths.text()}x{heights}"

    def length(self, m: int) -> int:
        return self.lengths.side(m)

    def height(self, m: int) -> int:
        return self.heights.side(m)

    def lsum(self, m: int) -> int:
        """l_1 + ... + l_m (0 for m = 0)."""
        return self.lengths.total(m)

    def hsum(self, m: int) -> int:
        return self.heights.total(m)

    def diag_cells(self, d: int) -> int:
        """Total cells in tile anti-diagonals 0..d."""
        return self._cells_ahead(d + 1, 0)

    def _cells_ahead(self, d: int, R: int) -> int:
        # cells in tile anti-diagonals 0..d-1 and in the R tiles above tile (R, d - R)
        if self._coeffs is None:
            # one product sum: tile row r contributes h_r*lsum(d + 1 - r + [r <= R]),
            # so h_1..h_d meet lsum(d + 1)..lsum(1) with lsum(d + 1 - R) left out.
            # Lengths to d, heights to d, then lengths to d + 1 are read, in that
            # order, so a short lengths list raises before a short heights list,
            # and an affine side is laid out only once the list rules hold d sides
            if d < 1:
                return 0
            self.lengths.total(d)
            heights = self.heights.sides(0, d)
            sums, S = self.lengths.totals(1, d + (R > 0)), d - R
            return sum(map(mul, heights, reversed(sums[:S] + sums[S + 1:])))
        # A*C*binom(d+1, 2) + (A*E + B*C)*binom(d+1, 3) + B*E*binom(d+1, 4),
        # in Horner form over the common factor (d+1)*d/24; the division is exact
        A, B, C, E = self._coeffs
        ahead = (d + 1) * d * (12 * A * C + (d - 1) * (4 * (A * E + B * C) + B * E * (d - 2))) // 24
        if R:
            # plus A*K*R + (B*K - A*E)*R(R-1)/2 - B*E*(R-1)R(2R-1)/6 with K = C + E*d,
            # over the common factor R/6; the division is exact
            K = C + E * d
            ahead += R * (6 * A * K + (R - 1) * (3 * (B * K - A * E) - B * E * (2 * R - 1))) // 6
        return ahead


_KINDS = ("const", "list", "ramp")


def _parse_rule(kind: str, text: str) -> SideRule:
    if kind == "const":
        return const_rule(int(text))
    if kind == "list":
        return list_rule(map(int, text.split(",")))
    start, _, step = text.partition("+")
    return ramp_rule(int(start), int(step or 1))


def parse_tiling_spec(text: str) -> TilingSpec:
    """Parse ``const:<l>x<h>``, ``list:<l1,...>x<h1,...>`` or ``ramp:<a>+<b>x<a>+<b>``.

    Heights of another kind than the lengths name it, e.g. ``list:1,2xramp:1+1``.
    """
    kind, sep, body = text.partition(":")
    if not sep or kind not in _KINDS:
        raise ValueError(f"bad tiling spec {text!r}")
    left, sep, right = body.partition("x")
    if not sep:
        raise ValueError(f"bad tiling spec {text!r}: expected <lengths>x<heights>")
    height_kind, _, heights = right.partition(":")
    if height_kind not in _KINDS:  # the heights are of the lengths' kind
        height_kind, heights = kind, right
    try:
        return TilingSpec(_parse_rule(kind, left), _parse_rule(height_kind, heights))
    except ValueError as exc:
        raise ValueError(f"bad tiling spec {text!r}: {exc}") from None


def locate_tile(i: int, j: int, spec: TilingSpec) -> tuple[int, int]:
    """(R, S): whole tile rows above and whole tile columns left of cell (i, j)."""
    _check_cell(i, j)
    return spec.heights.split(i)[0], spec.lengths.split(j)[0]


def _colwise(order: str, R: int, S: int) -> bool:
    # parity-tile keys to the tile's zero-based number in the tile enumeration
    if order == "parity-diag":
        return (R + S) % 2 == 1
    if order == "parity-tile":
        return cantor_z(R, S) % 2 == 1
    return order == "col"


def _equal_tiles(spec: TilingSpec) -> bool:
    # every tile has one size: both rules are affine with step 0
    return spec._coeffs is not None and not spec._coeffs[1] and not spec._coeffs[3]


def rect_encoder(spec: TilingSpec, order: str = "row") -> Callable[[int, int], int]:
    """The function (i, j) -> position of cell (i, j), numbered inside its tile by ``order``.

    The order, each rule's split (one ``divmod`` for a step-0 side) and the
    spec's count are bound here, once.  Per cell it checks the cell, splits
    i by the heights, then j by the lengths, then counts the cells ahead of
    the tile (one ``_cells_ahead`` call), so a spec whose lists both run out
    raises the heights' ``SpecExhaustedError``.  Equal a x c tiles take no
    count: tile T = ``cantor_z(R, S)`` starts at a*c*T + 1.
    """
    order = canonical_order(order)
    # a, c: the side of a step-0 heights or lengths rule, else 0
    a, c = (rule.affine[0] if rule.affine and not rule.affine[1] else 0
            for rule in (spec.heights, spec.lengths))
    split_i, split_j = spec.heights.split, spec.lengths.split
    ahead = spec._cells_ahead
    height, length = spec.height, spec.length
    colwise = order == "col" if order in ("row", "col") else None
    by_tile, area = order == "parity-tile", a * c

    def encode_equal(i: int, j: int) -> int:
        if i < 1 or j < 1:
            _check_cell(i, j)
        R, di = divmod(i - 1, a)
        S, dj = divmod(j - 1, c)
        d = R + S
        T = d * (d + 1) // 2 + R
        # the parity orders key on the tile diagonal d or the tile number T
        if colwise or (colwise is None and (T if by_tile else d) % 2):
            return area * T + 1 + a * dj + di
        return area * T + 1 + c * di + dj

    def encode(i: int, j: int) -> int:
        _check_cell(i, j)
        R, di = divmod(i - 1, a) if a else split_i(i)
        S, dj = divmod(j - 1, c) if c else split_j(j)
        head = ahead(R + S, R) + 1
        if colwise or (colwise is None and _colwise(order, R, S)):
            return head + (a or height(R + 1)) * dj + di
        return head + (c or length(S + 1)) * di + dj

    return encode_equal if _equal_tiles(spec) else encode


def rect_encode(i: int, j: int, spec: TilingSpec, order: str = "row") -> int:
    """Position of cell (i, j), numbered inside its tile by ``order`` (one of ORDERS).

    This binds ``rect_encoder(spec, order)`` for the one cell; to encode
    many cells of one spec, bind the encoder once and call it.
    """
    return rect_encoder(spec, order)(i, j)


def _last_below(count, n: int, below: int, hi: int) -> tuple[int, int]:
    # (x, count(x)) for the largest x in [0, hi) with count(x) < n, where count
    # increases from count(0) = below < n and n <= count(hi), which is never evaluated
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (c := count(mid)) < n:
            lo, below = mid, c
        else:
            hi = mid
    return lo, below


def rect_reader(spec: TilingSpec, order: str = "row") -> tuple[Callable, Callable, Callable]:
    """The reader (position, cells, size) that walks the tiling tile by tile.

    Tile T is tile (R, S) = ``cantor_z_decode(T)``; ``position(n)`` = (T, p)
    puts n at place p of tile T, bisecting the cells ahead of a tile over the
    tile diagonals, then the tile rows; equal a x c tiles place n by one
    ``divmod`` by a*c instead.  ``cells(T, p, q)`` gives places p..q in
    ``order``, reading the tile's origin and side once.  Tile T has ``size(T)`` cells.
    """
    order = canonical_order(order)
    height, hsum = spec.heights.side, spec.heights.total
    length, lsum = spec.lengths.side, spec.lengths.total
    # no tile has fewer than A*C cells, so n lies no further out than on a cover
    # by A x C tiles, whose diagonals are triangular; lists of L sides complete
    # tile diagonals 0..L-1, and diagonal L up to its first tile with a missing side
    flat = spec._coeffs[0] * spec._coeffs[2] if spec._coeffs else 1
    sides = [len(rule.values) for rule in (spec.lengths, spec.heights) if not rule.affine]

    def position(n: int) -> tuple[int, int]:
        _check_index(n)
        hi = min(sides) + 1 if sides else diagonal_index(-(-n // flat)) + 1
        d, before = _last_below(partial(spec._cells_ahead, R=0), n, 0, hi)
        hi = min(d, (n - before - 1) // flat) + 1
        R, ahead = _last_below(partial(spec._cells_ahead, d), n, before, hi)
        height(R + 1), length(d - R + 1)  # past a list's end, raise as the geometric walk does
        return cantor_z(R, d - R), n - ahead

    def position_equal(n: int) -> tuple[int, int]:
        _check_index(n)
        T, p = divmod(n - 1, flat)
        return T, p + 1

    def tile(T: int) -> tuple[int, int]:  # cantor_z_decode(T), with no checks
        d = (isqrt(8 * T + 1) - 1) // 2
        return T - d * (d + 1) // 2, d * (d + 3) // 2 - T

    def cells(T: int, p: int, q: int) -> Iterator[Cell]:
        R, S = tile(T)
        i0, j0 = hsum(R) + 1, lsum(S) + 1
        if _colwise(order, R, S):  # place x of a tile h high is (x mod h, x div h)
            return ((i0 + di, j0 + dj) for dj, di in map(divmod, range(p - 1, q), repeat(height(R + 1))))
        return ((i0 + di, j0 + dj) for di, dj in map(divmod, range(p - 1, q), repeat(length(S + 1))))

    def size(T: int) -> int:
        R, S = tile(T)
        return height(R + 1) * length(S + 1)

    return position_equal if _equal_tiles(spec) else position, cells, size


def rect_decode(n: int, spec: TilingSpec, order: str = "row") -> Cell:
    """Cell at position n: ``rect_reader(spec, order)``'s tile and place of n, then that cell."""
    position, cells, _ = rect_reader(spec, order)
    T, p = position(n)
    return next(cells(T, p, p))
