"""Enumeration scheme descriptors and the encode/decode dispatch over them.

A :class:`Scheme` names one bijection between grid cells and positions:
one of the eight enumerations, each encoded and decoded in closed form, or
a rectangle tiling with an inner numbering order.  ``cantor0`` is the
zero-based classic and works on pairs (x, y) >= 0; every other scheme works
on 1-based cells.
"""

from dataclasses import dataclass

from . import pairing, tiling
from .pairing import Cell
from .tiling import TilingSpec

SIMPLE_KINDS = (
    "cantor",
    "cantor0",
    "boustrophedon",
    "center-out",
    "edges-in",
    "alternating",
    "angle",
    "oxplow",
)

_ENCODERS = {
    "cantor": pairing.cantor_encode,
    "cantor0": pairing.cantor_z,
    "boustrophedon": pairing.boustrophedon_encode,
    "center-out": pairing.center_out_encode,
    "edges-in": pairing.edges_in_encode,
    "alternating": pairing.alternating_encode,
    "angle": pairing.angle_encode,
    "oxplow": pairing.oxplow_encode,
}

_DECODERS = {
    "cantor": pairing.cantor_decode,
    "cantor0": pairing.cantor_z_decode,
    "boustrophedon": pairing.boustrophedon_decode,
    "center-out": pairing.center_out_decode,
    "edges-in": pairing.edges_in_decode,
    "alternating": pairing.alternating_decode,
    "angle": pairing.angle_decode,
    "oxplow": pairing.oxplow_decode,
}


@dataclass(frozen=True)
class Scheme:
    kind: str
    tiling: TilingSpec | None = None
    order: str = "row"

    def __post_init__(self):
        if self.kind == "tiling":
            if self.tiling is None:
                raise ValueError("tiling scheme needs a TilingSpec")
            object.__setattr__(self, "order", tiling.canonical_order(self.order))
        elif self.kind not in SIMPLE_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")

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
    """Position of cell (i, j) under the scheme."""
    if scheme.kind == "tiling":
        if scheme.order == "row":
            return tiling.rect_encode_rowwise(i, j, scheme.tiling)
        if scheme.order == "col":
            return tiling.rect_encode_colwise(i, j, scheme.tiling)
        return tiling.rect_encode_parity(
            i, j, scheme.tiling, by=scheme.order.removeprefix("parity-")
        )
    return _ENCODERS[scheme.kind](i, j)


def decode(scheme: Scheme, n: int) -> Cell:
    """Cell at position n under the scheme."""
    if scheme.kind == "tiling":
        return tiling.rect_decode(n, scheme.tiling, scheme.order)
    return _DECODERS[scheme.kind](n)
