"""Enumeration scheme descriptors and the encode/decode dispatch over them.

A :class:`Scheme` names one bijection between grid cells and positions:
one of the eight enumerations, each encoded and decoded in closed form, or
a rectangle tiling with an inner numbering order.  ``cantor0`` is the
zero-based classic and works on pairs (x, y) >= 0; every other scheme works
on 1-based cells.  A scheme binds its encoder (``Scheme.encoder``) and its
reader (``Scheme.reader``) once, when it is built, so no encode, decode or
walk looks at its kind again.  The reader is the triple
(position, cells, size) over the scheme's blocks: the anti-diagonals or
square shells of the eight kinds, or the tiles of ``tiling.rect_reader``.
A scheme, its encoder and its reader never change and can be shared across
threads, and a scheme pickles and copies as its three fields.
:func:`walk` streams the cells in order from any position.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat, starmap

from . import pairing, tiling
from .pairing import Cell
from .tiling import TilingSpec


def _diagonal_size(t: int) -> int:
    return t + 1


def _shell_size(s: int) -> int:
    return 2 * s - 1


RUN_CAP = 4096  # the most cells in one run of a walk

# kind -> (encode, position, cell, size): encode(i, j) is the closed form;
# position(n) = (t, p) puts n at the p-th cell of block t, an anti-diagonal
# or a square shell; cell(t, p) is that cell; block t holds size(t) cells
_KINDS = {
    "cantor": (pairing.cantor_encode, pairing.diagonal_position,
               pairing.cantor_cell, _diagonal_size),
    "cantor0": (pairing.cantor_z, pairing.cantor_z_position,
                pairing.cantor_z_cell, _diagonal_size),
    "boustrophedon": (pairing.boustrophedon_encode, pairing.diagonal_position,
                      pairing.boustrophedon_cell, _diagonal_size),
    "center-out": (pairing.center_out_encode, pairing.diagonal_position,
                   pairing.center_out_cell, _diagonal_size),
    "edges-in": (pairing.edges_in_encode, pairing.diagonal_position,
                 pairing.edges_in_cell, _diagonal_size),
    "alternating": (pairing.alternating_encode, pairing.diagonal_position,
                    pairing.alternating_cell, _diagonal_size),
    "angle": (pairing.angle_encode, pairing.shell_position, pairing.angle_cell, _shell_size),
    "oxplow": (pairing.oxplow_encode, pairing.shell_position, pairing.oxplow_cell, _shell_size),
}
SIMPLE_KINDS = tuple(_KINDS)


def _block_cells(cell, t: int, p: int, q: int) -> Iterator[Cell]:
    return map(cell, repeat(t), range(p, q + 1))


@dataclass(frozen=True)
class Scheme:
    kind: str
    tiling: TilingSpec | None = None
    order: str = "row"
    # (i, j) -> position and the reader, bound once here; not part of the value
    encoder: Callable[[int, int], int] = field(init=False, repr=False, compare=False)
    reader: tuple[Callable, Callable, Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "tiling":
            if self.tiling is None:
                raise ValueError("tiling scheme needs a TilingSpec")
            object.__setattr__(self, "order", tiling.canonical_order(self.order))
            encoder = tiling.rect_encoder(self.tiling, self.order)
            reader = tiling.rect_reader(self.tiling, self.order)
        elif self.kind not in _KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        elif self.tiling is not None or self.order != "row":
            raise ValueError(f"scheme {self.kind!r} takes no tiling and no inner order")
        else:
            encoder, position, cell, size = _KINDS[self.kind]
            reader = position, partial(_block_cells, cell), size
        object.__setattr__(self, "encoder", encoder)
        object.__setattr__(self, "reader", reader)

    def __reduce__(self):
        # rebuilt from its fields, so the bound encoder and reader are never pickled
        return type(self), (self.kind, self.tiling, self.order)

    def text(self) -> str:
        if self.kind == "tiling":
            return f"tiling:{self.tiling.text()}:{self.order}"
        return self.kind

    def __str__(self):
        return self.text()


CANTOR = Scheme("cantor")


def tiling_scheme(spec: TilingSpec | str, order: str = "row") -> Scheme:
    if isinstance(spec, str):
        spec = tiling.parse_tiling_spec(spec)
    return Scheme("tiling", spec, order)


def parse_scheme(text: str) -> Scheme:
    """Parse a scheme name, e.g. ``angle`` or ``tiling:const:3x2:row``."""
    if text in SIMPLE_KINDS:
        return Scheme(text)
    if text.startswith("tiling:"):
        body, sep, order = text.removeprefix("tiling:").rpartition(":")
        if not sep:
            raise ValueError(f"bad tiling scheme {text!r}: expected tiling:<spec>:<order>")
        return tiling_scheme(body, order)
    raise ValueError(
        f"unknown scheme {text!r}; expected one of {', '.join(SIMPLE_KINDS)} "
        "or tiling:<spec>:<order>"
    )


def first_index(scheme: Scheme) -> int:
    """Position of the first cell: 0 for the zero-based classic, else 1."""
    return 0 if scheme.kind == "cantor0" else 1


def encode(scheme: Scheme, i: int, j: int) -> int:
    """Position of cell (i, j) under the scheme: its bound encoder."""
    return scheme.encoder(i, j)


def decode(scheme: Scheme, n: int) -> Cell:
    """Cell at position n under the scheme: its reader's block and place of n, then that cell."""
    position, cells, _ = scheme.reader
    t, p = position(n)
    return next(cells(t, p, p))


def walk(scheme: Scheme, start: int | None = None) -> Iterator[Cell]:
    """The scheme's cells in order, from position ``start`` on (default: the first).

    The walk locates ``start`` once, as :func:`decode` does, then reads on
    through each diagonal, shell or tile with the same reader, so no cell
    after the first costs a square root or a bisection.
    A bad ``start`` raises here, not on the first ``next``.
    """
    return chain.from_iterable(starmap(scheme.reader[1], runs(scheme, start)))


def runs(scheme: Scheme, start: int | None = None) -> Iterator[tuple[int, int, int]]:
    """The scheme's walk as runs (t, p, q): cells p..q of block t, a diagonal, shell or tile.

    The first run is one cell and each next run at most twice as long, up
    to ``RUN_CAP`` cells, so that a reader that stops early has read little
    past where it stopped.  A bad ``start`` raises here.
    """
    position, _, size = scheme.reader
    return _runs(size, *position(first_index(scheme) if start is None else start))


def _runs(size, t: int, p: int) -> Iterator[tuple[int, int, int]]:
    width = 1
    while True:
        end = size(t)
        while p <= end:
            q = min(end, p + width - 1)
            yield t, p, q
            p, width = q + 1, min(2 * width, RUN_CAP)
        t, p = t + 1, 1
