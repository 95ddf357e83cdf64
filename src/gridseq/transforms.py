"""Sequence transformations built on the grid enumerations.

Each family fills the infinite array from one, two, or l input sequences
by an array rule, and reads the array back as a single sequence omega
along an enumeration, its reader: the anti-diagonals (``cantor``) for
most families, the square shells (``angle``) for the three ``-angle``
families, and the outer scheme for ``superpose``.  A row of
:data:`FAMILY_TABLE` holds the rule and the reader, and most rows a block
rule too, which reads a run of cells of one diagonal or shell in batched
:meth:`~gridseq.sources.SequenceSource.values` calls.

Eleven families are stated once, by their forms: on each side of the main
diagonal, cell (i, j) reads the source e + f*i + g*j (mod the pool size)
of a pool of the sources, at index c + a*i + b*j.  Their array rule
evaluates the forms at a cell.  Their block rule composes the forms with
the reader's two halves of a diagonal or shell, whose cells are affine in
their place p, so along a half the index is affine in p: one strided read,
or one per residue of the pick when the source rotates.
``double-reluctant``, ``eta``, ``pair``, ``self-compose`` and
``superpose`` keep rules of their own.  ``double-reluctant`` and ``eta``
read a prefix of their inner sequence that grows by one row per
diagonal.  In ``self-compose`` (linear) and ``pair --combiner iterate``,
cell (i, j + 1) is the source (alpha, or beta) at cell (i, j), so their
block rule maps the source over the diagonal before and adds cell
(t + 1, 1).  Only ``superpose`` and ``self-compose`` under the
``doubling`` convention stay on the array rule.

:func:`iter_terms` reads the reader's walk run by run
(:func:`schemes.runs`) through the block rule, and redoes a run cell by
cell through the array rule when a batched read fails, so a failure names
the same cell and index as the array rule does.  Rows with no block rule
apply the array rule over each run's cells.  :func:`term` builds
only the array rule and applies it to the one cell :func:`schemes.decode`
gives.

The ``*_index`` functions, and the functions named after the families
other than the three ``-angle`` ones, are the paper's closed forms,
position straight to source index.  They stay
as the explicit formulas, and the tests check the rules against them.
Index arithmetic is exact throughout.
"""

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, islice, starmap
from math import gcd, isqrt
from operator import mul
from typing import NamedTuple

from . import schemes as _schemes
from .pairing import cantor_decode, cantor_encode, diagonal_index, half_round_sqrt, triangle
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


def _doubling_times(j: int) -> int:
    """2**(j-1), capped where it already exceeds the step budget of _compose.

    Past the cap _compose stops at the same fixed point or raises the same
    budget error, so the cap changes no result; it only keeps a far-out
    column from allocating a (j-1)-bit count.
    """
    return 1 << min(j - 1, MAX_COMPOSE_STEPS.bit_length())


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
        times = _doubling_times(j)
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
CONVENTIONS = ("linear", "doubling")  # the self-composition readings


def _check_exponent(k: int) -> None:
    if k < 1:
        raise ValueError(f"power-sum exponent must be >= 1, got {k}")


# product, power-sum (exponent k) and concat as functions of two terms
_COMBINE = {"product": lambda k: mul, "power-sum": lambda k: lambda x, y: x ** k + y ** k,
            "concat": lambda k: concat_numbers}


def _combiner(alpha, beta, combiner, k: int) -> Callable:
    """combine(m1, m2): alpha[m1] with beta[m2] under the named (or callable) combiner."""
    a, b = alpha.value, beta.value
    if combiner == "iterate":
        return lambda m1, m2: _compose(beta, a(m1), m2)
    if not (callable(combiner) or combiner in COMBINERS):
        raise ValueError(f"unknown combiner {combiner!r}, expected one of {COMBINERS}")
    if combiner == "power-sum":
        _check_exponent(k)
    if combiner == "concat":  # a non-positive term names its source
        a, b = (partial(_positive_value, source, use="concatenation") for source in (alpha, beta))
    combine = combiner if callable(combiner) else _COMBINE[combiner](k)
    return lambda m1, m2: combine(a(m1), b(m2))


def pair_transform(alpha, beta, combiner, n: int, k: int = 1) -> int:
    """Combine alpha[m1] with beta[m2] under the named (or callable) combiner.

    ``power-sum`` uses exponent k; ``iterate`` applies beta m2 times
    starting from alpha[m1].
    """
    m1, m2 = pair_indices(n)
    return _combiner(alpha, beta, combiner, k)(m1, m2)


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


# -- superposition of two enumerations --------------------------------------------

def superpose(alpha: SequenceSource, inner: Scheme, outer: Scheme, n: int) -> int:
    """Fill the array by the inner numbering, read it out in the outer order."""
    if inner.kind == "cantor0" or outer.kind == "cantor0":
        raise ValueError("superposition needs 1-based schemes")
    cell = _schemes.decode(outer, n)
    return alpha.value(_schemes.encode(inner, *cell))


# -- array rules ----------------------------------------------------------------------
# rule(spec, sources) -> cell(i, j), the value the family puts at cell (i, j).
# A rule runs once per call of iter_terms or term: TransformSpec has checked
# the parameters and _bind the sources, and each source's value method is
# bound here, so the cell functions check nothing per cell.

def _double_reluctant_rule(spec, sources):
    value = sources[0].value
    return lambda i, j: value(reluctant_index(i))


def _self_compose_rule(spec, sources):
    alpha = sources[0]
    if spec.convention == "linear":
        return lambda i, j: _compose(alpha, i, j)
    return lambda i, j: _compose(alpha, i, _doubling_times(j))


def _pair_rule(spec, sources):
    return _combiner(sources[0], sources[1], spec.combiner, spec.k)


def _eta_rule(spec, sources):
    d = spec.d
    if d == 1:
        return cantor_encode  # eta(1, n) = n: the array is the Cantor numbering itself
    return lambda i, j: concat_numbers(eta(d - 1, i), j)


def _superpose_rule(spec, sources):
    value, encode = sources[0].value, spec.inner.encoder
    return lambda i, j: value(encode(i, j))


# -- block rules ----------------------------------------------------------------------
# block(spec, sources) -> read(t, p0, p1), the values of cells p0..p1 of the
# reader's diagonal or shell t, or None when the family's parameters leave
# it on the array rule.  Anti-diagonal t holds cells p = 1..t+1 at
# (i, j) = (p, t+2-p); shell s holds q = 1..s at (q, s), then q = s+1..2s-1
# at (s, 2s-q).  A read must not return where the array rule raises; it may
# raise where the array rule does not, and the run is then redone cell by
# cell.

def _read(source, first: int, step: int, n: int) -> Sequence[int]:
    """The source's terms at the n indices first, first + step, ...: one batched read."""
    if step:
        return source.values(range(first, first + step * n, step))
    return [source.values(range(first, first + 1))[0]] * n


def _double_reluctant_block(spec, sources):
    # cell (i, j) holds reluctant(alpha) at i: the rows of a prefix of the
    # reluctant triangle, grown a row at a time, each row one read of 1..u;
    # a read that does not follow on from the prefix, or ends past RUN_CAP,
    # walks reluctant(alpha) from p0 instead
    alpha, prefix, rows = sources[0], [], 0

    def read(t, p0, p1):
        nonlocal rows
        if p1 > _schemes.RUN_CAP or p0 > len(prefix) + 1:
            return list(islice(iter_terms(TransformSpec("reluctant"), alpha, p0), p1 - p0 + 1))
        while len(prefix) < p1:
            prefix.extend(alpha.values(range(1, rows + 2)))
            rows += 1
        return prefix[p0 - 1:p1]
    return read


def _eta_heads(depth: int) -> Callable:
    """heads(p0, p1): eta(depth, p) for p = p0..p1.

    Level e keeps a prefix of eta(e) made of whole anti-diagonals; diagonal
    s of level e concatenates the first s + 1 terms of level e - 1 with
    s + 1, s, ..., 1.  A read grows the levels from the bottom up, so
    nothing recurses however deep the tuples.  A read that does not follow
    on from the prefix, or ends past ``RUN_CAP`` terms, takes the closed
    form.
    """
    prefixes = [None, range(1, _schemes.RUN_CAP + 2)] + [[] for _ in range(depth - 1)]
    rows = [0] * (depth + 1)

    def grow(e, length):
        plan = []
        while e > 1 and len(prefixes[e]) < length:
            s = rows[e]
            while triangle(s) < length:
                s += 1
            plan.append((e, s))
            e, length = e - 1, s
        for e, s in reversed(plan):
            below = prefixes[e - 1]
            for row in range(rows[e], s):
                prefixes[e].extend(map(concat_numbers, below[:row + 1], range(row + 1, 0, -1)))
            rows[e] = s

    def heads(p0, p1):
        if p1 > _schemes.RUN_CAP or p0 > len(prefixes[depth]) + 1:
            return [eta(depth, p) for p in range(p0, p1 + 1)]
        grow(depth, p1)
        return prefixes[depth][p0 - 1:p1]
    return heads


def _eta_block(spec, sources):
    if spec.d == 1:
        return lambda t, p0, p1: range(triangle(t) + p0, triangle(t) + p1 + 1)
    heads = _eta_heads(spec.d - 1)
    return lambda t, p0, p1: list(map(concat_numbers, heads(p0, p1),
                                      range(t + 2 - p0, t + 1 - p1, -1)))


def _column_block(step, cell):
    """read(t, p0, p1) of an array whose cell (i, j + 1) is step(cell(i, j)).

    Anti-diagonal t is then step mapped over cells 1..t of diagonal t - 1,
    and cell (t + 1, 1), which the array rule gives.  The read keeps the
    prefix of the last diagonal read from its first cell and the whole
    diagonal before it.  A read that does not follow on from the prefix
    computes its own cells by the array rule, as does the first diagonal
    read with no diagonal held before it; a diagonal t >= ``RUN_CAP``
    takes the array rule and holds nothing.  A mapped term below 1
    raises, and the run is redone by the array rule, which names the cell.
    """
    value, before, held, held_t = step.value, [], [], -1

    def by_rule(t, p0, p1):
        return [cell(p, t + 2 - p) for p in range(p0, p1 + 1)]

    def read(t, p0, p1):
        nonlocal before, held, held_t
        if p0 == 1:
            before, held, held_t = held if held_t == t - 1 else [], [], t
        if t >= _schemes.RUN_CAP or held_t != t or len(held) != p0 - 1:
            return by_rule(t, p0, p1)
        mapped = min(p1, t)  # cell t + 1 has no cell before it
        if len(before) < mapped:
            run = by_rule(t, p0, p1)
        else:
            run = list(map(value, before[p0 - 1:mapped]))
            if run and min(run) < 1:
                raise NonPositiveTermError("composition needs positive terms")
            if p1 > t:
                run.append(cell(t + 1, 1))
        held += run
        return run
    return read


def _self_compose_block(spec, sources):
    if spec.convention == "doubling":
        return None  # column j composes 2**(j-1) times: no one-step recurrence
    return _column_block(sources[0], _self_compose_rule(spec, sources))


def _pair_block(spec, sources):
    if spec.combiner == "iterate":
        return _column_block(sources[1], _pair_rule(spec, sources))  # beta over the diagonal before
    alpha, beta = sources[0], sources[1]
    combine = spec.combiner if callable(spec.combiner) else _COMBINE[spec.combiner](spec.k)
    # concat_numbers raises on a non-positive term, and the redo then
    # raises the array rule's NonPositiveTermError
    return lambda t, p0, p1: list(map(combine, alpha.values(range(p0, p1 + 1)),
                                      beta.values(range(t + 2 - p0, t + 1 - p1, -1))))


# -- affine families ----------------------------------------------------------------------
# Eleven families are stated once, as forms(k) -> (lower, upper): lower holds
# at the cells (i, j) with i >= j, upper at those with i < j.  The array rule
# and the block read are both derived from the forms.

_ALL, _BUT_LAST, _LAST = slice(None), slice(None, -1), slice(-1, None)


def _form(c: int, a: int, b: int, pool: slice = _ALL, e: int = 0, f: int = 0, g: int = 0):
    """Cell (i, j) reads the source sources[pool][(e + f*i + g*j) % pool size] at c + a*i + b*j."""
    return c, a, b, pool, e, f, g


def _fixed(lower, upper=None):
    """forms(k) of a family that reads no k: the same pair, built once."""
    forms = lower, upper or lower
    return lambda k: forms


def _shifted_forms(k):
    form = _form(-k, 1, k)  # i + k(j - 1)
    return form, form


def _max_shift_forms(k):
    # max(k(i - 1) + j, i + k(j - 1)), whose first argument wins when i >= j
    return _form(-k, k, 1), _form(-k, 1, k)


def _segment_shift_forms(k):
    return _form(1, 1, -1), _form(k - 1, -1, 1)  # i - j + 1, or j - i + k - 1 above the diagonal


def _affine_rule(forms, spec, sources):
    lower, upper = forms(spec.k)

    def cell(i, j):
        c, a, b, pool, e, f, g = lower if i >= j else upper
        pool = sources[pool]
        return pool[(e + f * i + g * j) % len(pool)].value(c + a * i + b * j)
    return cell


# reader kind -> (split, upper cell, lower cell): cells p < split(t) of block
# t lie above the main diagonal and p >= split(t) on or below it; each half's
# cell p is (i0 + it*t + di*p, j0 + jt*t + dj*p), given as (i0, it, di, j0, jt, dj)
_HALVES = {
    "cantor": (lambda t: (t + 3) // 2, (0, 0, 1, 2, 1, -1), (0, 0, 1, 2, 1, -1)),  # (p, t+2-p)
    "angle": (lambda s: s, (0, 0, 1, 0, 1, 0), (0, 1, 0, 0, 2, -1)),  # (q, s), then (s, 2s-q)
}


def _half_read(form, cell, sources) -> Callable:
    """read(t, x, y): cells x..y of one half of block t, one strided read per residue of the pick."""
    c, a, b, pool, e, f, g = form
    i0, it, di, j0, jt, dj = cell
    pool = sources[pool]
    l = len(pool)
    # the index and the pick, each affine in t and p along the half
    index0, index_t, index_p = c + a * i0 + b * j0, a * it + b * jt, a * di + b * dj
    pick0, pick_t, pick_p = e + f * i0 + g * j0, f * it + g * jt, f * di + g * dj
    period = l // gcd(pick_p, l)  # the pick repeats every period cells
    if period == 1:
        return lambda t, x, y: _read(pool[(pick0 + pick_t * t) % l],
                                     index0 + index_t * t + index_p * x, index_p, y - x + 1)

    def read(t, x, y):
        n = y - x + 1
        out = [0] * n
        for o in range(min(period, n)):
            p = x + o
            out[o::period] = _read(pool[(pick0 + pick_t * t + pick_p * p) % l],
                                   index0 + index_t * t + index_p * p, index_p * period,
                                   len(range(o, n, period)))
        return out
    return read


def _affine_block(forms, halves, spec, sources):
    split, upper_cell, lower_cell = halves
    lower, upper = forms(spec.k)
    below = _half_read(lower, lower_cell, sources)
    if (lower, lower_cell) == (upper, upper_cell):
        return below  # one form over the whole block: no split
    above = _half_read(upper, upper_cell, sources)

    def read(t, p0, p1):
        m = split(t)
        if p1 < m:
            return above(t, p0, p1)
        if p0 >= m:
            return below(t, p0, p1)
        return [*above(t, p0, m - 1), *below(t, m, p1)]
    return read


# -- the family table and generation ------------------------------------------------------

SEVERAL = -1  # source count of the families that read two or more sequences
ANGLE = Scheme("angle")


class Family(NamedTuple):
    """One row of the family table: an array rule, the order that reads it, and its block rule."""

    sources: int  # input sequences read: 0, 1, 2, or SEVERAL
    reads: tuple[str, ...]  # the TransformSpec fields the rule reads
    rule: Callable  # rule(spec, sources) -> cell(i, j)
    reader: Scheme | None = _schemes.CANTOR  # None: the spec's outer scheme
    k_min: int | None = None  # least shift, for the families whose k must be given
    block: Callable | None = None  # block(spec, sources) -> read(t, p0, p1) along reader, or None

    @property
    def needs_k(self) -> bool:
        """k has no default and must be given."""
        return self.k_min is not None


def _affine_family(sources: int, forms, reader: Scheme = _schemes.CANTOR,
                   k_min: int | None = None) -> Family:
    """The row of a family stated by its forms: both rules are derived from them."""
    return Family(sources, () if k_min is None else ("k",), partial(_affine_rule, forms),
                  reader, k_min, partial(_affine_block, forms, _HALVES[reader.kind]))


FAMILY_TABLE = {
    "reluctant": _affine_family(1, _fixed(_form(0, 1, 0))),  # i
    "reverse-reluctant": _affine_family(1, _fixed(_form(0, 0, 1))),  # j
    "double-reluctant": Family(1, (), _double_reluctant_rule, block=_double_reluctant_block),
    "self-compose": Family(1, ("convention",), _self_compose_rule, block=_self_compose_block),
    "shifted-columns": _affine_family(1, _shifted_forms, k_min=0),
    "max-shift": _affine_family(1, _max_shift_forms, k_min=1),
    "segment-shift": _affine_family(1, _segment_shift_forms, k_min=1),
    "shifted-columns-angle": _affine_family(1, _shifted_forms, ANGLE, k_min=0),
    "max-shift-angle": _affine_family(1, _max_shift_forms, ANGLE, k_min=1),
    "segment-shift-angle": _affine_family(1, _segment_shift_forms, ANGLE, k_min=1),
    "pair": Family(2, ("combiner", "k"), _pair_rule, block=_pair_block),
    "eta": Family(0, ("d",), _eta_rule, block=_eta_block),
    # source (j - 1) mod l at i
    "multi-replicate": _affine_family(SEVERAL, _fixed(_form(0, 1, 0, _ALL, -1, 0, 1))),
    # source (i + j - 2) mod l at i: one source per anti-diagonal
    "braid": _affine_family(SEVERAL, _fixed(_form(0, 1, 0, _ALL, -2, 1, 1))),
    # source (j - 1) mod (l - 1) at i - j + 1, or the last source at j - i above the diagonal
    "segment-braid": _affine_family(SEVERAL, _fixed(_form(1, 1, -1, _BUT_LAST, -1, 0, 1),
                                                     _form(0, -1, 1, _LAST))),
    "superpose": Family(1, ("inner", "outer"), _superpose_rule, reader=None),
}
FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class TransformSpec:
    """Names one transformation family and its parameters.

    Every parameter is checked here, once, whichever family reads it.
    """

    family: str
    k: int = 0
    d: int = 1
    combiner: str | Callable = "product"
    convention: str = "linear"
    inner: Scheme | None = None
    outer: Scheme | None = None

    def __post_init__(self):
        row = FAMILY_TABLE.get(self.family)
        if row is None:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not (callable(self.combiner) or self.combiner in COMBINERS):
            raise ValueError(f"unknown combiner {self.combiner!r}, expected one of {COMBINERS}")
        if self.convention not in CONVENTIONS:
            raise ValueError(
                f"convention must be 'linear' or 'doubling', got {self.convention!r}")
        if self.d < 1:
            raise ValueError(f"tuple depth must be >= 1, got {self.d}")
        if row.k_min is not None and self.k < row.k_min:
            raise ValueError(f"family {self.family}: shift must be >= {row.k_min}, got {self.k}")
        if self.family == "pair" and self.combiner == "power-sum":
            _check_exponent(self.k)
        if self.family == "superpose":
            if self.inner is None or self.outer is None:
                raise ValueError("family superpose needs both an inner and an outer scheme")
            if "cantor0" in (self.inner.kind, self.outer.kind):
                raise ValueError("superposition needs 1-based schemes")


def _as_sources(sources) -> list[SequenceSource]:
    if sources is None:
        return []
    if isinstance(sources, SequenceSource):
        return [sources]
    return list(sources)


def _bind(spec: TransformSpec, sources) -> tuple[Family, list[SequenceSource], Scheme]:
    """(family row, sources, reader) of the spec, once the source count is checked."""
    src = _as_sources(sources)
    row = FAMILY_TABLE[spec.family]
    if len(src) != row.sources and (row.sources != SEVERAL or len(src) < 2):
        need = "at least 2" if row.sources == SEVERAL else row.sources
        raise ValueError(f"family {spec.family} reads {need} input sequences, got {len(src)}")
    return row, src, row.reader or spec.outer


def term(spec: TransformSpec, sources, n: int) -> int:
    """omega(n) for the configured family: its array rule at the reader's cell n."""
    row, src, reader = _bind(spec, sources)
    return row.rule(spec, src)(*_schemes.decode(reader, n))


def iter_terms(spec: TransformSpec, sources, start: int = 1) -> Iterator[int]:
    """omega(start), omega(start + 1), ...: the family read along its reader's walk.

    The spec, the sources and ``start`` are checked when this is called; the
    terms are computed as they are read, a run of at most
    ``schemes.RUN_CAP`` cells at a time through the block rule, or through
    the array rule over the run's cells when the row has no block rule.
    """
    row, src, reader = _bind(spec, sources)
    cell, cells = row.rule(spec, src), reader.reader[1]
    block = row.block and row.block(spec, src) or (lambda t, p, q: starmap(cell, cells(t, p, q)))
    return chain.from_iterable(_block_runs(cell, block, cells, _schemes.runs(reader, start)))


def _block_runs(cell, block, cells, runs) -> Iterator[Sequence[int]]:
    for t, p, q in runs:
        try:
            yield block(t, p, q)
        except Exception:  # noqa: BLE001 - the array rule raises the exact error
            yield starmap(cell, cells(t, p, q))


def generate_prefix(spec: TransformSpec, sources, count: int) -> list[int]:
    """[omega(1), ..., omega(count)] for the configured family."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return list(islice(iter_terms(spec, sources), count))
