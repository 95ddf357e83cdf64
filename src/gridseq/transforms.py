"""Sequence transformations built on the grid enumerations.

Each family fills the infinite array from one, two, or l input sequences
and reads it back as a single sequence omega.  For every family the
position-to-source-index map has a closed form (the ``*_index`` functions
here); the value operations just look the index up in the source.  Index
arithmetic is exact throughout.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce
from math import isqrt
from typing import NamedTuple

from . import schemes as _schemes
from .pairing import cantor_decode, diagonal_index, half_round_sqrt, triangle
from .schemes import Scheme
from .sources import (
    BudgetExceededError,
    NonPositiveTermError,
    SequenceSource,
    brief_int,
)

MAX_COMPOSE_STEPS = 1_000_000


# -- single-sequence families --------------------------------------------------

def reluctant_index(n: int) -> int:
    """Row-repetition triangle: term n reads source term n - t(t+1)/2."""
    return n - triangle(diagonal_index(n))


def reverse_reluctant_index(n: int) -> int:
    """Reversed-rows triangle: term n reads source term (t^2+3t+4)/2 - n."""
    t = diagonal_index(n)
    return (t * t + 3 * t + 4) // 2 - n


def double_reluctant_index(n: int) -> int:
    """Row repetition applied twice."""
    return reluctant_index(reluctant_index(n))


def shifted_columns_index(k: int, n: int) -> int:
    """Columns shifted by k against each other: m = k(t+1) + (k-1)(t(t+1)/2 - n)."""
    if k < 0:
        raise ValueError(f"shift must be >= 0, got {k}")
    t = diagonal_index(n)
    return k * (t + 1) + (k - 1) * (triangle(t) - n)


def max_shift_index(k: int, n: int) -> int:
    """Symmetric max of the two k-shift readings."""
    if k < 1:
        raise ValueError(f"shift must be >= 1, got {k}")
    t = diagonal_index(n)
    return k * (t + 1) + (k - 1) * max(triangle(t) - n, n - (t * t + 3 * t + 4) // 2)


def segment_shift_index(k: int, n: int) -> int:
    """Columns prefixed by reversed k-offset segments of the source."""
    if k < 1:
        raise ValueError(f"shift must be >= 1, got {k}")
    t = diagonal_index(n)
    return abs((t + 1) ** 2 - 2 * n) + k * ((t * t + 3 * t + 2 - 2 * n) // (t + 1))


def reluctant(alpha: SequenceSource, n: int) -> int:
    return alpha.value(reluctant_index(n))


def reverse_reluctant(alpha: SequenceSource, n: int) -> int:
    return alpha.value(reverse_reluctant_index(n))


def double_reluctant(alpha: SequenceSource, n: int) -> int:
    return alpha.value(double_reluctant_index(n))


def shifted_columns(alpha: SequenceSource, k: int, n: int) -> int:
    return alpha.value(shifted_columns_index(k, n))


def max_shift(alpha: SequenceSource, k: int, n: int) -> int:
    return alpha.value(max_shift_index(k, n))


def segment_shift(alpha: SequenceSource, k: int, n: int) -> int:
    return alpha.value(segment_shift_index(k, n))


def _positive_value(source: SequenceSource, m: int, use: str) -> int:
    v = source.value(m)
    if v < 1:
        raise NonPositiveTermError(
            f"{source.name}({brief_int(m)}) = {brief_int(v)}; {use} needs positive terms",
            index=m,
        )
    return v


def _compose(source: SequenceSource, start: int, times: int) -> int:
    if start < 1:
        raise NonPositiveTermError(
            f"composition start {brief_int(start)} is not a positive index"
        )
    v = start
    for step in range(times):
        if step >= MAX_COMPOSE_STEPS:
            raise BudgetExceededError(
                f"composition did not stabilise within {MAX_COMPOSE_STEPS} steps"
            )
        nxt = source.value(v)  # inline, not _positive_value: this runs once per step
        if nxt < 1:
            raise NonPositiveTermError(
                f"{source.name}({brief_int(v)}) = {brief_int(nxt)}; "
                "composition needs positive terms",
                index=v,
            )
        if nxt == v:
            return v  # fixed point: further composition cannot change anything
        v = nxt
    return v


def self_compose(alpha: SequenceSource, n: int, convention: str = "linear") -> int:
    """Column j holds the j-fold self-composition of the source.

    ``linear`` applies the source j times in column j.  ``doubling``
    applies it 2**(j-1) times, the reading under which iterating the
    primes reproduces its published first terms; see ERRATA.md.
    """
    i, j = cantor_decode(n)
    if convention == "linear":
        times = j
    elif convention == "doubling":
        times = 1 << (j - 1)
    else:
        raise ValueError(f"convention must be 'linear' or 'doubling', got {convention!r}")
    return _compose(alpha, i, times)


# -- two-sequence families -----------------------------------------------------

def pair_indices(n: int) -> tuple[int, int]:
    """(m1, m2) with m1 reading down the rows and m2 across the columns."""
    return reluctant_index(n), reverse_reluctant_index(n)


def concat_numbers(a: int, b: int) -> int:
    """Decimal concatenation: 12 and 345 give 12345."""
    if a < 1 or b < 1:
        raise ValueError(f"concatenation needs positive integers, got {a} and {b}")
    return a * 10 ** len(str(b)) + b


COMBINERS = ("product", "power-sum", "concat", "iterate")


def pair_transform(alpha, beta, combiner, n: int, k: int = 1) -> int:
    """Combine alpha[m1] with beta[m2] under the named (or callable) combiner.

    ``power-sum`` uses exponent k; ``iterate`` applies beta m2 times
    starting from alpha[m1].
    """
    m1, m2 = pair_indices(n)
    if callable(combiner):
        return combiner(alpha.value(m1), beta.value(m2))
    if combiner == "product":
        return alpha.value(m1) * beta.value(m2)
    if combiner == "power-sum":
        if k < 1:
            raise ValueError(f"power-sum exponent must be >= 1, got {k}")
        return alpha.value(m1) ** k + beta.value(m2) ** k
    if combiner == "concat":
        return concat_numbers(_positive_value(alpha, m1, "concatenation"),
                              _positive_value(beta, m2, "concatenation"))
    if combiner == "iterate":
        return _compose(beta, alpha.value(m1), m2)
    raise ValueError(f"unknown combiner {combiner!r}, expected one of {COMBINERS}")


def eta(d: int, n: int) -> int:
    """d-digit tuple enumeration by repeated decimal concatenation."""
    if d < 1:
        raise ValueError(f"tuple depth must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"position must be >= 1, got {n}")
    suffixes = []
    for _ in range(d - 1):  # eta(d, n) = concat(eta(d - 1, m1), m2)
        n, m2 = pair_indices(n)
        suffixes.append(m2)
    return reduce(concat_numbers, reversed(suffixes), n)


# -- several-sequence families ---------------------------------------------------

def _check_family(sources) -> int:
    l = len(sources)
    if l < 2:
        raise ValueError(f"need at least 2 sequences, got {l}")
    return l


def multi_replicate_indices(l: int, n: int) -> tuple[int, int]:
    """(m, r): l columns replicated in rotation."""
    t = diagonal_index(n)
    m = n - triangle(t)
    r = 1 + ((t * t + 3 * t + 4) // 2 - n - 1) % l
    return m, r


def braid_indices(l: int, n: int) -> tuple[int, int]:
    """(m, r): every diagonal drawn from a single, rotating sequence."""
    t = diagonal_index(n)
    return n - triangle(t), 1 + t % l


def segment_braid_indices(l: int, n: int) -> tuple[int, int]:
    """(m, r): rotating columns shifted by reversed segments of the last sequence."""
    t = diagonal_index(n)
    m = abs((t + 1) ** 2 - 2 * n) + (t * t + 3 * t + 2 - 2 * n) // (t + 1)
    v = (2 * n - t * (t + 1) + 1) // (t + 3)
    r = l + v * (((t * t + 3 * t + 4) // 2 - n - 1) % (l - 1) - l + 1)
    return m, r


def multi_replicate(sources, n: int) -> int:
    m, r = multi_replicate_indices(_check_family(sources), n)
    return sources[r - 1].value(m)


def braid(sources, n: int) -> int:
    m, r = braid_indices(_check_family(sources), n)
    return sources[r - 1].value(m)


def segment_braid(sources, n: int) -> int:
    m, r = segment_braid_indices(_check_family(sources), n)
    return sources[r - 1].value(m)


# -- index families under the square-shell order ---------------------------------

def shifted_columns_angle_index(k: int, n: int) -> int:
    """Shifted-columns array read along square shells."""
    if k < 0:
        raise ValueError(f"shift must be >= 0, got {k}")
    q = isqrt(n - 1)
    t = n - q * q - q - 1
    return (k + 1) * (q - (abs(t) + t) // 2) + t + 1


def max_shift_angle_index(k: int, n: int) -> int:
    """Max-shift array read along square shells."""
    if k < 1:
        raise ValueError(f"shift must be >= 1, got {k}")
    q = isqrt(n - 1)
    return (k + 1) * q + 1 - abs(n - q * q - q - 1)


def segment_shift_angle_index(k: int, n: int) -> int:
    """Segment-shift array read along square shells.

    Uses the corrected shell index t = floor(sqrt(n) + 1/2); the published
    closed form carries a spurious +1 (see ERRATA.md).
    """
    if k < 1:
        raise ValueError(f"shift must be >= 1, got {k}")
    t = half_round_sqrt(n)
    v = (n - 1) // t - t + 1
    return k * v + (2 * v - 1) * (t * t - n) + t


def shifted_columns_angle(alpha, k: int, n: int) -> int:
    return alpha.value(shifted_columns_angle_index(k, n))


def max_shift_angle(alpha, k: int, n: int) -> int:
    return alpha.value(max_shift_angle_index(k, n))


def segment_shift_angle(alpha, k: int, n: int) -> int:
    return alpha.value(segment_shift_angle_index(k, n))


# -- superposition of two enumerations --------------------------------------------

def superpose(alpha: SequenceSource, inner: Scheme, outer: Scheme, n: int) -> int:
    """Fill the array by the inner numbering, read it out in the outer order."""
    if inner.kind == "cantor0" or outer.kind == "cantor0":
        raise ValueError("superposition needs 1-based schemes")
    cell = _schemes.decode(outer, n)
    return alpha.value(_schemes.encode(inner, *cell))


# -- uniform prefix generation ------------------------------------------------------

SEVERAL = -1  # source count of the families that read two or more sequences


class Family(NamedTuple):
    """One row of the family table."""

    sources: int  # input sequences read: 0, 1, 2, or SEVERAL
    needs_k: bool  # k has no default and must be given
    omega: Callable  # omega(spec, sources, n)


FAMILY_TABLE = {
    "reluctant": Family(1, False, lambda s, src, n: reluctant(src[0], n)),
    "reverse-reluctant": Family(1, False, lambda s, src, n: reverse_reluctant(src[0], n)),
    "double-reluctant": Family(1, False, lambda s, src, n: double_reluctant(src[0], n)),
    "self-compose": Family(1, False, lambda s, src, n: self_compose(src[0], n, s.convention)),
    "shifted-columns": Family(1, True, lambda s, src, n: shifted_columns(src[0], s.k, n)),
    "max-shift": Family(1, True, lambda s, src, n: max_shift(src[0], s.k, n)),
    "segment-shift": Family(1, True, lambda s, src, n: segment_shift(src[0], s.k, n)),
    "shifted-columns-angle": Family(
        1, True, lambda s, src, n: shifted_columns_angle(src[0], s.k, n)),
    "max-shift-angle": Family(1, True, lambda s, src, n: max_shift_angle(src[0], s.k, n)),
    "segment-shift-angle": Family(1, True, lambda s, src, n: segment_shift_angle(src[0], s.k, n)),
    "pair": Family(2, False, lambda s, src, n: pair_transform(src[0], src[1], s.combiner, n, s.k)),
    "eta": Family(0, False, lambda s, src, n: eta(s.d, n)),
    "multi-replicate": Family(SEVERAL, False, lambda s, src, n: multi_replicate(src, n)),
    "braid": Family(SEVERAL, False, lambda s, src, n: braid(src, n)),
    "segment-braid": Family(SEVERAL, False, lambda s, src, n: segment_braid(src, n)),
    "superpose": Family(1, False, lambda s, src, n: superpose(src[0], s.inner, s.outer, n)),
}
FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class TransformSpec:
    """Names one transformation family and its parameters."""

    family: str
    k: int = 0
    d: int = 1
    combiner: str = "product"
    convention: str = "linear"
    inner: Scheme | None = None
    outer: Scheme | None = None

    def __post_init__(self):
        if self.family not in FAMILY_TABLE:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.family == "superpose" and (self.inner is None or self.outer is None):
            raise ValueError("family superpose needs both an inner and an outer scheme")


def _as_sources(sources) -> list[SequenceSource]:
    if sources is None:
        return []
    if isinstance(sources, SequenceSource):
        return [sources]
    return list(sources)


def term(spec: TransformSpec, sources, n: int) -> int:
    """omega(n) for the configured family."""
    # callers looping over positions pass the same list each time; skip the copy
    src = sources if type(sources) is list else _as_sources(sources)
    wanted, _, omega = FAMILY_TABLE[spec.family]
    if len(src) != wanted and (wanted != SEVERAL or len(src) < 2):
        need = "at least 2" if wanted == SEVERAL else wanted
        raise ValueError(f"family {spec.family} reads {need} input sequences, got {len(src)}")
    return omega(spec, src, n)


def generate_prefix(spec: TransformSpec, sources, count: int) -> list[int]:
    """[omega(1), ..., omega(count)] for the configured family."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    src = _as_sources(sources)
    return [term(spec, src, n) for n in range(1, count + 1)]
