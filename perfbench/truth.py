"""Ground truth the benchmark computes without the library's closed forms.

Cells are produced by walking the grid, source values by the benchmark's
own sieves, family values by each family's array-fill rule restated here,
and constant tilings by their textbook position formula.  Only the
geometric oracle is borrowed from the library, where a workload checks a
composition against it.
"""

from math import log
from pathlib import Path


# -- grid walks -------------------------------------------------------------------

def antidiagonal_cells(count):
    """First ``count`` cells in anti-diagonal order, each diagonal top-right to bottom-left."""
    cells = []
    d = 1
    while len(cells) < count:
        cells.extend((r, d + 1 - r) for r in range(1, d + 1))
        d += 1
    del cells[count:]
    return cells


def shell_cells(count):
    """First ``count`` cells along square shells: down column s, then back along row s."""
    cells = []
    s = 1
    while len(cells) < count:
        cells.extend((i, s) for i in range(1, s + 1))
        cells.extend((s, j) for j in range(s - 1, 0, -1))
        s += 1
    del cells[count:]
    return cells


# -- sequence sources -----------------------------------------------------------

def prime_table(count):
    """The first ``count`` primes, by a plain sieve of Eratosthenes."""
    bound = 30 if count < 6 else int(count * (log(count) + log(log(count)))) + 10
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    p = 2
    while p * p <= bound:
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
        p += 1
    found = [k for k in range(bound + 1) if sieve[k]]
    if len(found) < count:
        raise AssertionError(f"sieve bound {bound} holds only {len(found)} primes")
    return found[:count]


def totient_table(limit):
    """phi(0..limit) by the multiplicative sieve; index 0 is unused."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


class Values:
    """Source lookups for one family call, sized once for its largest index."""

    def __init__(self, names, max_index):
        self._tables = {}
        for name in set(names):
            if name == "primes":
                self._tables[name] = [0] + prime_table(max_index)
            elif name == "phi":
                self._tables[name] = totient_table(max_index)
            elif name != "id":
                raise ValueError(f"no ground truth for source {name!r}")

    def __call__(self, name, m):
        if name == "id":
            return m
        return self._tables[name][m]


# -- family array rules ------------------------------------------------------------

def f_shifted(i, j, k):
    return i + k * j - k


def f_max(i, j, k):
    return max(k * i + j - k, i + k * j - k)


def f_segment(i, j, k):
    return i - j + 1 if i >= j else j - i + k - 1


def concat(a, b):
    return int(f"{a}{b}")


_SHIFT_RULES = {"shifted-columns": f_shifted, "max-shift": f_max, "segment-shift": f_segment}


def family_values(call):
    """omega(1..count) for a ``generate`` call described by ``call``.

    ``call`` is a dict with ``family``, ``count``, ``sources`` (names) and
    the family's parameters ``k``, ``d`` or ``combiner``.
    """
    family, count, names = call["family"], call["count"], call["sources"]
    k = call.get("k")
    cells = shell_cells(count) if family.endswith("-angle") else antidiagonal_cells(count)
    base = family.removesuffix("-angle")

    if base in _SHIFT_RULES:
        rule = _SHIFT_RULES[base]
        index = [rule(i, j, k) for i, j in cells]
        return _lookup(names[0], index)
    if base == "reluctant":
        return _lookup(names[0], [i for i, _ in cells])
    if base == "reverse-reluctant":
        return _lookup(names[0], [j for _, j in cells])
    if base == "double-reluctant":
        return _lookup(names[0], [cells[i - 1][0] for i, _ in cells])
    if base == "self-compose":
        values = Values(names, max(i for i, _ in cells) + 1)
        out = []
        for i, j in cells:
            v = i
            for _ in range(j):
                nxt = values(names[0], v)
                if nxt == v:
                    break
                v = nxt
            out.append(v)
        return out
    if base == "pair":
        a = _lookup(names[0], [i for i, _ in cells])
        b = _lookup(names[1], [j for _, j in cells])
        combiner = call["combiner"]
        if combiner == "product":
            return [x * y for x, y in zip(a, b)]
        if combiner == "concat":
            return [concat(x, y) for x, y in zip(a, b)]
        raise ValueError(f"no ground truth for combiner {combiner!r}")
    if base == "eta":
        level = list(range(1, count + 1))
        for _ in range(call["d"] - 1):
            level = [concat(level[i - 1], j) for i, j in cells]
        return level
    if base in ("multi-replicate", "braid", "segment-braid"):
        l = len(names)
        picks = []
        for i, j in cells:
            if base == "multi-replicate":
                picks.append((1 + (j - 1) % l, i))
            elif base == "braid":
                picks.append((1 + (i + j - 2) % l, i))
            else:
                picks.append((1 + (j - 1) % (l - 1) if i >= j else l, f_segment(i, j, 1)))
        values = Values(names, max(m for _, m in picks))
        return [values(names[r - 1], m) for r, m in picks]
    raise ValueError(f"no ground truth for family {family!r}")


def _lookup(name, index):
    values = Values([name], max(index))
    return [values(name, m) for m in index]


# -- constant tilings ---------------------------------------------------------------

def const_tiling_position(i, j, l, h, order):
    """Position of (i, j) under constant l x h tiles with the given inner order."""
    R, S = (i - 1) // h, (j - 1) // l
    tile = ((R + S) ** 2 + 3 * R + S) // 2  # zero-based tile number
    a, b = i - h * R, j - l * S  # 1-based place inside the tile
    colwise = (
        order == "col"
        or (order == "parity-diag" and (R + S) % 2 == 1)
        or (order == "parity-tile" and tile % 2 == 1)
    )
    inside = h * (b - 1) + a if colwise else l * (a - 1) + b
    return l * h * tile + inside


# -- OEIS fixtures -------------------------------------------------------------------

def read_fixture(root, anum):
    """(first index, values) of a shipped b-file, parsed here line by line."""
    path = Path(root) / "src" / "gridseq" / "oeis_fixtures" / f"b{anum[1:]}.txt"
    first, values = None, []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        index, value = line.split()
        if first is None:
            first = int(index)
        values.append(int(value))
    return first, values


# (family, parameter) readings over the naturals that a shipped b-file pins
FIXTURE_PINS = {
    ("reluctant", None): "A002260",
    ("reverse-reluctant", None): "A004736",
    ("shifted-columns", 1): "A002024",
    ("shifted-columns", 2): "A128076",
    ("shifted-columns", 3): "A131914",
    ("max-shift", 2): "A204004",
    ("max-shift", 3): "A204008",
    ("segment-shift", 2): "A143182",
    ("eta", 2): "A066686",
    ("segment-shift-angle", 1): "A004739",
    ("segment-shift-angle", 2): "A004738",
}


def fixture_offset(fixture, prefix):
    """b-file index of term 1 at which ``prefix`` matches the fixture, else None."""
    first, values = fixture
    for start in (1, 0):
        lo = start - first
        if lo >= 0 and values[lo : lo + len(prefix)] == prefix:
            return start
    return None
