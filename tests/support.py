"""Shared test data and independent reference helpers.

The listings below are frozen first terms of each enumeration and
transformation, copied from the published source material; tests treat
them as byte-exact fixtures.  The ``f_*``/``s_*`` functions restate each
index family's defining array rule directly, giving the closed forms an
independent route to be checked against, and ``newton_isqrt`` is a
loop-based integer square root used to stress the exactness of the
``math.isqrt``-based index arithmetic.  ``LoopTilingSpec`` counts the
cells ahead of a tile of a spec with a ``list`` rule by plain generator
sums over the rules' per-side methods, the reference for the product sum of
``TilingSpec._cells_ahead``, the one count its encoder and reader call.
``outcome`` and ``describe`` reduce a stream of terms to what two
generation paths must agree on, failures included.
"""

from gridseq import tiling_scheme, transforms
from gridseq.schemes import Scheme
from gridseq.tiling import TilingSpec


def _cells(text):
    return [(int(tok[0]), int(tok[1])) for tok in text.split()]


# first cells of each enumeration, in order (single digits only)
CANTOR_CELLS = _cells("11 12 21 13 22 31")
BOUSTROPHEDON_CELLS = _cells("11 12 21 31 22 13 14 23 32 41 51 42 33 24 15 16 25 34 43 52 61")
CENTER_OUT_CELLS = _cells("11 12 21 22 13 31 23 32 14 41 33 24 42 15 51 34 43 25 52 16 61")
EDGES_IN_CELLS = _cells("11 12 21 13 31 22 14 41 23 32 15 51 24 42 33 16 61 25 52 34 43")
ALTERNATING_CELLS = _cells("11 12 21 31 22 13 14 32 23 41 51 24 33 42 15 16 52 34 43 25 61")
ANGLE_CELLS = _cells("11 12 22 21 13 23 33 32 31 14 24 34 44 43 42 41")
OXPLOW_CELLS = _cells("11 12 22 21 31 32 33 23 13 14 24 34 44 43 42 41 51 52 53 54 55 45 35 25 15")
RAMP_TILING_CELLS = _cells("11 12 13 21 31 14 15 16 22 23 32 33 41 51 61")
CONST32_TILING_CELLS = _cells("11 12 13 21 22 23 14 15 16 24 25 26 31 32 33 41 42 43")

# transformation listings: source indices (m) or (index, sequence) pairs
RELUCTANT_INDICES = [1, 1, 2, 1, 2, 3]
REVERSE_RELUCTANT_INDICES = [1, 2, 1, 3, 2, 1]
DOUBLE_RELUCTANT_INDICES = [1, 1, 1, 1, 1, 2, 1, 1, 2, 1, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 3]
PHI_SELF_COMPOSE_TERMS = [1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 1, 1, 1, 4, 1, 1, 1, 1, 2, 2]
PRIME_DOUBLING_TERMS = [2, 3, 3, 11, 5, 5, 5381, 31, 11, 7]


def shifted_columns_listing(k):
    return [1, k + 1, 2, 2 * k + 1, k + 2, 3, 3 * k + 1, 2 * k + 2, k + 3, 4]


def max_shift_listing(k):
    return [1, k + 1, k + 1, 2 * k + 1, k + 2, 2 * k + 1, 3 * k + 1, 2 * k + 2, 2 * k + 2, 3 * k + 1]


def segment_shift_listing(k):
    return [1, k, 2, k + 1, 1, 3, k + 2, k, 2, 4, k + 3, k + 1, 1, 3, 5]


def shifted_columns_angle_listing(k):
    return [1, k + 1, k + 2, 2, 2 * k + 1, 2 * k + 2, 2 * k + 3, k + 3, 3,
            3 * k + 1, 3 * k + 2, 3 * k + 3, 3 * k + 4, 2 * k + 4, k + 4, 4]


def max_shift_angle_listing(k):
    return [1, k + 1, k + 2, k + 1, 2 * k + 1, 2 * k + 2, 2 * k + 3, 2 * k + 2, 2 * k + 1,
            3 * k + 1, 3 * k + 2, 3 * k + 3, 3 * k + 4, 3 * k + 3, 3 * k + 2, 3 * k + 1]


def segment_shift_angle_listing(k):
    return [1, k, 1, 2, k + 1, k, 1, 2, 3, k + 2, k + 1, k, 1, 2, 3, 4]


ETA_LISTINGS = {
    2: [11, 12, 21, 13, 22, 31, 14, 23, 32, 41],
    3: [111, 112, 121, 113, 122, 211, 114, 123, 212, 131],
    4: [1111, 1112, 1121, 1113, 1122, 1211, 1114, 1123, 1212, 1131],
    5: [11111, 11112, 11121, 11113, 11122, 11211, 11114, 11123, 11212, 11131],
}

# (sequence number r, element number m) listings for the l=3 families
MULTI_REPLICATE_L3 = [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3),
                      (1, 1), (3, 2), (2, 3), (1, 4), (2, 1), (1, 2), (3, 3), (2, 4), (1, 5)]
BRAID_L3 = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
            (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5)]
SEGMENT_BRAID_L3 = [(1, 1), (3, 1), (1, 2), (3, 2), (2, 1), (1, 3), (3, 3), (3, 1), (2, 2), (1, 4),
                    (3, 4), (3, 2), (1, 1), (2, 3), (1, 5), (3, 5), (3, 3), (3, 1), (1, 2), (2, 4), (1, 6)]

# superposition of the 3x2 row-wise tiling through the centre-out reading:
# only the first 6 published terms are reliable (see ERRATA.md)
SUPERPOSE_FIRST6 = [1, 2, 4, 5, 3, 13]
SUPERPOSE_PUBLISHED21 = [1, 2, 4, 5, 3, 13, 6, 14, 7, 16, 15, 10, 17, 8, 32,
                         26, 18, 10, 33, 9, 35]


# -- array rules for the index families, stated directly ------------------------

def f_shifted(i, j, k):
    return i + k * j - k


def f_max(i, j, k):
    return max(k * i + j - k, i + k * j - k)


def f_segment(i, j, k):
    return i - j + 1 if i >= j else j - i + k - 1


def s_multi(i, j, l):
    return 1 + (j - 1) % l


def s_braid(i, j, l):
    return 1 + (i + j - 2) % l


def s_segment_braid(i, j, l):
    return 1 + (j - 1) % (l - 1) if i >= j else l


def direct_term(spec, sources, n):
    """omega(n) from the closed-form function named after the family, not through the family table."""
    family = spec.family
    if family.endswith("-angle"):  # the shell readings are stated as index closed forms
        index = getattr(transforms, family.replace("-", "_") + "_index")
        return sources[0].value(index(spec.k, n))
    if family == "pair":
        return transforms.pair_transform(*sources, spec.combiner, n, spec.k)
    fn = getattr(transforms, family.replace("-", "_"))
    if family == "eta":
        return fn(spec.d, n)
    if family == "self-compose":
        return fn(sources[0], n, spec.convention)
    if family == "superpose":
        return fn(sources[0], spec.inner, spec.outer, n)
    if family in ("multi-replicate", "braid", "segment-braid"):
        return fn(sources, n)
    if "shift" in family:
        return fn(sources[0], spec.k, n)
    return fn(sources[0], n)


def outcome(terms):
    """(the terms before the first failure, the failure or None)."""
    got = []
    try:
        for v in terms:
            got.append(v)
    except Exception as exc:  # noqa: BLE001 - any failure must be matched exactly
        return got, exc
    return got, None


def describe(exc, position):
    """(type, message, index, position) of a failure, or None: what two paths must agree on."""
    if exc is None:
        return None
    return type(exc), str(exc), getattr(exc, "index", None), position


def loop_cells_before(spec, d):
    """Cells in tile anti-diagonals 0..d-1: h_r * lsum(d + 1 - r) summed over r = 1..d."""
    return sum(spec.heights.side(r) * spec.lengths.total(d + 1 - r) for r in range(1, d + 1))


def loop_cells_above(spec, d, R):
    """Cells in the R tiles above tile (R, d - R): h_r * l_(d + 2 - r) summed over r = 1..R."""
    return sum(spec.heights.side(r) * spec.lengths.side(d + 2 - r) for r in range(1, R + 1))


class LoopTilingSpec(TilingSpec):
    """A spec whose list count is the generator sums above, one side at a time."""

    __slots__ = ()

    def _cells_ahead(self, d, R):
        if self._coeffs is None:
            return loop_cells_before(self, d) + loop_cells_above(self, d, R)
        return super()._cells_ahead(d, R)


def newton_isqrt(n):
    """Integer square root by plain Newton iteration; floor-exact."""
    if n < 0:
        raise ValueError("negative")
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 1) // 2)
    while True:
        y = (x + n // x) // 2
        if y >= x:
            return x
        x = y


# schemes under full verification (the tiling set covers all three inner orders)
def verification_schemes():
    schemes = [
        Scheme("cantor"),
        Scheme("boustrophedon"),
        Scheme("center-out"),
        Scheme("edges-in"),
        Scheme("alternating"),
        Scheme("angle"),
        Scheme("oxplow"),
    ]
    for spec in ("const:2x2", "const:3x2", "ramp:1+1x1+1"):
        for order in ("row", "col", "parity-diag"):
            schemes.append(tiling_scheme(spec, order))
    return schemes
