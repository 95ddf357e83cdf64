"""Lazy, total, 1-based integer sequences used as transformation inputs.

Built-in kinds: the naturals, the primes, Euler's totient, fixed-base
powers ``n -> m**n``, explicit lists, and file-backed lists (one integer
per line, index = line number).  Values are plain Python ints, so they are
arbitrary precision; what is bounded instead is the work a source will
agree to do, via a bit budget on power values and an index cap on the
prime sieve.

Every source also reads a whole run of indices at once, :meth:`SequenceSource.values`:
the naturals return the run itself, the primes, the totients below their
cap and the lists slice their array or list, and the other kinds map their
value function over it.

The primes come from one shared table that is only ever replaced whole, by
a larger sieve of the odd numbers.  The table packs each prime into 8 bytes
of one ``array('q')``; while it grows, the sieve holds one more byte for
every two numbers up to its bound.  The totients up to
``TOTIENT_TABLE_CAP`` come from a second table of the same kind, in which
entry n is phi(n), so a run of them is one slice.  Past that cap the
totient divides by the primes sieved so far and splits what is left with
Brent's rho, so its memory does not grow with its argument or with the
number of arguments asked.  Neither table is locked, and concurrent first
hits at most duplicate work.
"""

from array import array
from collections.abc import Sequence
from itertools import chain, compress, count
from math import gcd, isqrt, log
from pathlib import Path

DEFAULT_BIT_BUDGET = 1_000_000
PRIME_INDEX_CAP = 1_000_000
TOTIENT_TABLE_CAP = 1 << 16


def brief_int(n: int) -> str:
    """Render n for error messages; huge values by bit length, not digits."""
    if abs(n) < 10**18:
        return str(n)
    return f"a {n.bit_length()}-bit integer"


class SourceError(Exception):
    """Base for source evaluation failures; carries the offending index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SourceExhaustedError(SourceError):
    """A finite source was asked past its last term."""


class BudgetExceededError(SourceError):
    """Producing the term would blow the configured size budget."""


class NonPositiveTermError(SourceError):
    """A term that must be a positive index turned out not to be."""


class SequenceSource:
    """A total map from positive index to integer value."""

    def __init__(self, name: str, fn, run=None):
        self.name = name
        self._fn = fn
        self._run = run  # run(r): the terms at the indices of r, all >= 1

    def value(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"sequence index must be >= 1, got {n}")
        return self._fn(n)

    def values(self, r: range) -> Sequence[int]:
        """The terms at the indices of r, in r's order, in one read.

        Raises what :meth:`value` raises for one of the indices, though not
        necessarily for the first of them that fails.
        """
        if not r:
            return []
        if min(r[0], r[-1]) < 1:
            raise ValueError(f"sequence index must be >= 1, got {min(r[0], r[-1])}")
        if self._run is None:
            return list(map(self._fn, r))
        return self._run(r)

    def prefix(self, count: int) -> list[int]:
        return [self.value(n) for n in range(1, count + 1)]

    def __repr__(self):
        return f"SequenceSource({self.name!r})"


# (sieved bound, every prime up to it) and (bound, phi(0..bound)), entry 0
# unused: growth replaces each pair whole, so a reader sees one consistent
# table however threads interleave.  Two threads that sieve at once may
# leave the smaller table; it still holds what its caller asked for, and a
# later call regrows it.  _FIRST_PRIMES and _FIRST_TOTIENTS are the tables
# a fresh process starts from.
_prime_table = _FIRST_PRIMES = (13, array("q", (2, 3, 5, 7, 11, 13)))
_phi_table = _FIRST_TOTIENTS = (1, array("q", (0, 1)))


def _slice(terms: Sequence[int], r: range, first: int = 1) -> Sequence[int]:
    """The terms at the indices of r, which all lie within ``terms``, whose entry 0 has index first."""
    stop = r.stop - first
    return terms[r.start - first:stop if stop >= 0 else None:r.step]


def nth_prime(n: int) -> int:
    """The n-th prime (2 is the first)."""
    if n < 1:
        raise ValueError(f"prime index must be >= 1, got {n}")
    return _primes_through(n)[n - 1]


def _prime_run(r: range) -> Sequence[int]:
    # slice the table that growth returned: the global may since have been
    # replaced by a smaller one that a concurrent call sieved
    return _slice(_primes_through(max(r[0], r[-1])), r)


def _primes_through(n: int) -> array:
    """A prime table that holds at least the first n primes."""
    global _prime_table
    if n > PRIME_INDEX_CAP:
        raise BudgetExceededError(
            f"prime index {brief_int(n)} exceeds the sieve cap {PRIME_INDEX_CAP}",
            index=n,
        )
    bound, table = _prime_table
    if n > len(table):
        # the table holds six primes, so n >= 7, and p_n < n (ln n + ln ln n)
        # for n >= 6: one sieve to that bound holds the n-th prime
        bound = max(int(n * (log(n) + log(log(n)))) + 10, 2 * bound)
        sieve = bytearray([1]) * ((bound + 1) // 2)  # sieve[k] stands for 2k + 1
        sieve[0] = 0
        for p in range(3, isqrt(bound) + 1, 2):
            if sieve[p // 2]:
                sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
        table = array("q", (2,))
        table.extend(compress(range(1, bound + 1, 2), sieve))
        _prime_table = bound, table
    return table


def _phi_run(r: range) -> Sequence[int]:
    top = max(r[0], r[-1])
    if top > TOTIENT_TABLE_CAP:
        return list(map(totient, r))
    # slice the table that growth returned, as _prime_run does
    return _slice(_totients_through(top), r, 0)


def _totients_through(n: int) -> array:
    """A totient table that holds phi(n), for n up to ``TOTIENT_TABLE_CAP``."""
    global _phi_table
    bound, table = _phi_table
    if n > bound:
        bound = min(max(n, 2 * bound), TOTIENT_TABLE_CAP)
        table = array("q", range(bound + 1))
        for p in range(2, bound + 1):
            if table[p] == p:  # no smaller prime divides p
                table[p::p] = array("q", (v - v // p for v in table[p::p]))
        _phi_table = bound, table
    return table


# Miller-Rabin with the first 13 primes as bases decides every n below
# _MR_LIMIT (Sorenson and Webster 2015).  Below _MR_FLOOR, dividing by the
# at most 512 odd numbers up to the root costs about as much as the test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_FLOOR = 1 << 20


def _proved_prime(m: int) -> bool:
    """True when m is in the deterministic range and passes every base; else False."""
    if not _MR_FLOOR <= m < _MR_LIMIT or m % 2 == 0:
        return False
    s = ((m - 1) & (1 - m)).bit_length() - 1  # m - 1 = d * 2**s with d odd
    d = (m - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _brent(m: int) -> int:
    """A factor 1 < d < m of the odd composite m, by Brent's variant of Pollard's rho."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            for k in range(0, r, 128):  # one gcd for each 128 steps
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                if g != 1:
                    break
            r *= 2
        if g == m:  # the batch overshot: step again from its start, one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g  # else the cycle closed without a factor: another c


def _split(m: int) -> set[int]:
    """The primes that divide the odd number m < _MR_LIMIT."""
    if m < _MR_FLOOR:
        return _prime_divisors(m)
    if _proved_prime(m):
        return {m}
    d = _brent(m)
    return _split(d) | _split(m // d)


def _prime_divisors(m: int) -> set[int]:
    """The primes that divide m >= 1.

    Divides by the primes already sieved, then by odd numbers; a composite
    divisor never divides what is left, so the table is read, never grown.
    Once the division has passed the table, or the primes up to the root of
    _MR_FLOOR, what is left in the range of the primality test is split by
    rho instead.  Above that range the division runs on to the root.
    """
    found = set()
    table = _prime_table[1]
    last = table[-1]
    for p in chain(table, count(last + 2, 2)):
        if p * p > m:
            break
        if m % p == 0:
            found.add(p)
            while m % p == 0:
                m //= p
        if (p >= last or p * p > _MR_FLOOR) and _MR_FLOOR <= m < _MR_LIMIT:
            return found | _split(m)
    if m > 1:
        found.add(m)
    return found


def totient(n: int) -> int:
    """Euler's totient: read from the table up to ``TOTIENT_TABLE_CAP``, else
    from the distinct primes that divide n.

    Past the cap, those primes come from division by small primes and then
    Brent's rho on a cofactor that a deterministic Miller-Rabin test does not
    prove prime, below about 3.3e24.  Above that range the division runs to
    the root of the cofactor, so every value is exact, however slow.
    """
    if n < 1:
        raise ValueError(f"totient wants a positive argument, got {n}")
    if n <= TOTIENT_TABLE_CAP:
        return _totients_through(n)[n]
    result = n
    for p in _prime_divisors(n):
        result -= result // p
    return result


def identity() -> SequenceSource:
    return SequenceSource("id", lambda n: n, run=lambda r: r)


def primes() -> SequenceSource:
    return SequenceSource("primes", nth_prime, run=_prime_run)


def euler_phi() -> SequenceSource:
    return SequenceSource("phi", totient, run=_phi_run)


def power_base(m: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> SequenceSource:
    """The powers m**1, m**2, ... of a fixed base m > 1."""
    if m <= 1:
        raise ValueError(f"power base must be > 1, got {m}")

    def fn(n, _bits=m.bit_length() - 1):
        # m**n has at least n*(bit_length(m)-1) bits; refuse before computing
        if n * _bits > bit_budget:
            raise BudgetExceededError(
                f"{m}**{brief_int(n)} would exceed the {bit_budget}-bit value budget",
                index=n,
            )
        return m**n

    return SequenceSource(f"pow:{m}", fn)


def geometric(p: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> SequenceSource:
    """Same values as power_base; the conventional name when p is prime."""
    src = power_base(p, bit_budget)
    src.name = f"geo:{p}"
    return src


def from_list(values) -> SequenceSource:
    values = [int(v) for v in values]

    def fn(n):
        if n > len(values):
            raise SourceExhaustedError(
                f"list source has {len(values)} terms, index {brief_int(n)} requested",
                index=n,
            )
        return values[n - 1]

    def run(r):
        fn(max(r[0], r[-1]))  # raises past the last term
        return _slice(values, r)

    return SequenceSource(f"list:{','.join(map(str, values))}", fn, run)


def from_file(path) -> SequenceSource:
    """One integer per line; the index of a term is its line number."""
    path = Path(path)
    lines = path.read_text().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    values = []
    for lineno, raw in enumerate(lines, 1):
        try:
            values.append(int(raw.strip()))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not an integer: {raw!r}") from None
    src = from_list(values)
    src.name = f"file:{path}"
    return src


def custom(fn, name: str = "custom") -> SequenceSource:
    return SequenceSource(name, fn)


def parse_source(text: str) -> SequenceSource:
    """Parse ``id``, ``primes``, ``phi``, ``pow:<m>``, ``geo:<p>``, ``list:<v,...>``, ``file:<path>``."""
    if text == "id":
        return identity()
    if text == "primes":
        return primes()
    if text == "phi":
        return euler_phi()
    kind, sep, body = text.partition(":")
    if sep:
        if kind == "pow":
            return power_base(int(body))
        if kind == "geo":
            return geometric(int(body))
        if kind == "list":
            return from_list(v for v in body.split(","))
        if kind == "file":
            return from_file(body)
    raise ValueError(f"unknown source spec {text!r}")
