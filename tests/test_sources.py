import subprocess
import sys
import tracemalloc
from itertools import islice
from math import log2
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gridseq import sources
from gridseq.pairing import triangle
from gridseq.sources import (
    BudgetExceededError,
    SourceExhaustedError,
    euler_phi,
    from_file,
    from_list,
    geometric,
    identity,
    nth_prime,
    parse_source,
    power_base,
    primes,
    totient,
)
from gridseq.transforms import TransformSpec, iter_terms


def test_identity():
    assert identity().prefix(5) == [1, 2, 3, 4, 5]


def test_primes_against_sympy():
    src = primes()
    assert src.prefix(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for n in (1, 2, 50, 100, 499, 500, 1234):
        assert src.value(n) == sympy.prime(n)


def test_prime_cap(monkeypatch):
    monkeypatch.setattr(sources, "PRIME_INDEX_CAP", 10)
    with pytest.raises(BudgetExceededError) as err:
        nth_prime(11)
    assert err.value.index == 11
    assert nth_prime(10) == 29


def test_a_rising_stream_of_prime_indices_resieves_logarithmically(monkeypatch):
    # shifted-columns with k = 1000 reads index 1 + 1000 t first on diagonal
    # t, so the indices read rise by 1000 a diagonal up to 10^5 + 1; each
    # sieve at least doubles the bound, so the table is replaced about
    # log2(10^5) times at most, not once for every few diagonals
    grow, asked, sieves = sources._primes_through, [], []

    def counted(n):
        before = sources._prime_table
        table = grow(n)
        asked.append(n)
        if sources._prime_table is not before:
            sieves.append(n)
        return table

    monkeypatch.setattr(sources, "_prime_table", sources._FIRST_PRIMES)
    monkeypatch.setattr(sources, "_primes_through", counted)
    spec = TransformSpec("shifted-columns", k=1000)
    for _ in islice(iter_terms(spec, primes()), triangle(101)):
        pass
    assert max(asked) == 10**5 + 1
    assert len(sieves) <= log2(10**5), sieves


def test_a_rising_stream_of_totient_indices_resieves_logarithmically(monkeypatch):
    # the same stream over phi: the totient table at least doubles until it
    # stops at its cap, and the runs past the cap sieve nothing
    grow, sieves = sources._totients_through, []

    def counted(n):
        before = sources._phi_table
        table = grow(n)
        if sources._phi_table is not before:
            sieves.append(n)
        return table

    monkeypatch.setattr(sources, "_phi_table", sources._FIRST_TOTIENTS)
    monkeypatch.setattr(sources, "_totients_through", counted)
    spec = TransformSpec("shifted-columns", k=1000)
    for _ in islice(iter_terms(spec, euler_phi()), triangle(101)):
        pass
    assert len(sieves) <= log2(sources.TOTIENT_TABLE_CAP), sieves
    assert sources._phi_table[0] == sources.TOTIENT_TABLE_CAP


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM from /proc")
def test_the_prime_table_costs_under_32_bytes_a_prime():
    # peak RSS of a fresh interpreter across one sieve to the cap: 8 bytes a
    # prime in the table, and a transient byte for every two numbers sieved
    src = str(Path(sources.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from gridseq import sources\n"
            "def peak():\n"
            "    return next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "                if line.startswith('VmHWM:'))\n"
            "before = peak(); sources.nth_prime(sources.PRIME_INDEX_CAP); print(peak() - before)")
    done = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=120, check=True)
    grown = int(done.stdout) * 1024 / sources.PRIME_INDEX_CAP
    assert grown < 32, f"{grown:.1f} bytes per prime"


def test_totient_against_sympy(monkeypatch):
    src = euler_phi()
    assert [totient(n) for n in (1, 2, 10, 97, 360)] == [1, 1, 4, 96, 96]
    for n in range(1, 500):
        assert src.value(n) == sympy.totient(n)

    monkeypatch.setattr(sources, "_phi_table", sources._FIRST_TOTIENTS)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**10))
    def matches(n):
        assert totient(n) == sympy.totient(n)

    matches()
    assert totient(10**12 + 39) == 10**12 + 38  # a prime: proved prime past the sieved primes
    # one divisor finishes it, so it allocates nothing that grows with n
    tracemalloc.start()
    try:
        assert totient(2**50) == 2**49
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_the_totient_table_is_read_in_runs_and_stops_at_its_cap(monkeypatch):
    # strided and decreasing runs that end at, below and past the cap, each
    # against sympy; the table never holds more than the cap
    cap = sources.TOTIENT_TABLE_CAP
    monkeypatch.setattr(sources, "_phi_table", sources._FIRST_TOTIENTS)
    src = euler_phi()
    for r in (range(1, 2), range(9, -3, -4), range(1, 3001, 7), range(3000, 0, -1000),
              range(cap - 9, cap + 1), range(cap + 3, cap - 7, -2), range(cap - 2 * 10**4, 5, -999)):
        assert list(src.values(r)) == [sympy.totient(n) for n in r], r
        assert sources._phi_table[0] <= cap
    assert sources._phi_table[0] == cap
    assert totient(cap + 1) == sympy.totient(cap + 1)


def test_totients_past_the_table_hold_nothing_that_grows(monkeypatch):
    # 2000 and then 20000 more distinct arguments past the cap: the peak
    # must not grow with the number of arguments asked, as a memo's would
    monkeypatch.setattr(sources, "_phi_table", sources._FIRST_TOTIENTS)
    first = 10**5
    assert first > sources.TOTIENT_TABLE_CAP
    tracemalloc.start()
    try:
        for n in range(first, first + 2000):
            totient(n)
        small = tracemalloc.get_traced_memory()[1]
        for n in range(first + 2000, first + 22_000):
            totient(n)
        large = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert large < 1.25 * small, (small, large)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**18))
def test_totient_on_uniform_draws_to_a_quintillion(n):
    # a uniform draw is often a product of two primes near 10^9, which
    # division alone would take seconds to split; rho takes milliseconds
    assert totient(n) == sympy.totient(n)


def test_power_base_and_geometric():
    assert power_base(2).prefix(5) == [2, 4, 8, 16, 32]
    assert geometric(3).prefix(4) == [3, 9, 27, 81]
    assert geometric(3).name == "geo:3"
    with pytest.raises(ValueError):
        power_base(1)


def test_power_budget():
    tight = power_base(2, bit_budget=64)
    assert tight.value(64) == 2**64
    with pytest.raises(BudgetExceededError) as err:
        tight.value(65)
    assert err.value.index == 65


def test_list_source():
    src = from_list([5, 7, 11])
    assert src.prefix(3) == [5, 7, 11]
    with pytest.raises(SourceExhaustedError) as err:
        src.value(4)
    assert err.value.index == 4


def test_file_source(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3\n1\n4\n1\n5\n\n")
    src = from_file(path)
    assert src.prefix(5) == [3, 1, 4, 1, 5]
    with pytest.raises(SourceExhaustedError):
        src.value(6)
    bad = tmp_path / "bad.txt"
    bad.write_text("3\nx\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        from_file(bad)


def test_parse_source():
    assert parse_source("id").value(7) == 7
    assert parse_source("primes").value(4) == 7
    assert parse_source("phi").value(10) == 4
    assert parse_source("pow:3").value(2) == 9
    assert parse_source("geo:5").value(3) == 125
    assert parse_source("list:2,4,6").prefix(3) == [2, 4, 6]
    with pytest.raises(ValueError):
        parse_source("fib")
    with pytest.raises(ValueError):
        parse_source("pow:x")


def test_parse_file_source(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("9\n8\n")
    assert parse_source(f"file:{path}").prefix(2) == [9, 8]


def test_index_validation():
    with pytest.raises(ValueError):
        identity().value(0)
    with pytest.raises(ValueError):
        totient(0)
    with pytest.raises(ValueError):
        nth_prime(0)



@pytest.mark.parametrize("text", ["id", "primes", "phi", "list:5,6,7,8"])
def test_values_refuses_a_range_that_ends_below_1(text):
    # a decreasing range is checked at its low end too, and refused as value(0) is
    source = parse_source(text)
    with pytest.raises(ValueError) as want:
        source.value(0)
    with pytest.raises(ValueError) as got:
        source.values(range(3, -1, -1))
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# strong pseudoprimes to the first 4, 5, 6, 8, 9 and 12 prime bases: the
# 13 bases of the test must still find each composite
STRONG_PSEUDOPRIMES = (3215031751, 2152302898747, 3474749660383, 341550071728321,
                       3825123056546413051, 318665857834031151167461)


def test_miller_rabin_is_deterministic_below_its_limit():
    for m in STRONG_PSEUDOPRIMES:
        assert not sources._proved_prime(m), m
    for m in (sympy.prevprime(sources._MR_LIMIT), sympy.nextprime(10**18), 2**61 - 1, 1_048_583):
        assert sources._proved_prime(m), m
    # below the floor, at or above the limit, and even numbers are left to division
    assert not sources._proved_prime(1_048_573)  # a prime below 2**20
    assert not sources._proved_prime(sources._MR_LIMIT)
    assert not sources._proved_prime(2**64)


@settings(max_examples=300, deadline=None)
@given(st.integers(sources._MR_FLOOR, 10**30))
def test_miller_rabin_against_sympy(m):
    assert sources._proved_prime(m) == (m < sources._MR_LIMIT and sympy.isprime(m))


def test_totient_to_a_quintillion(monkeypatch):
    monkeypatch.setattr(sources, "_phi_table", sources._FIRST_TOTIENTS)

    # the division runs up to the second-largest prime factor, so the draws
    # are built from a part below 10^5 and a large prime, which the test ends
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.integers(1, 10**12),
        st.builds(lambda a, p: a * sympy.nextprime(p), st.integers(1, 10**5), st.integers(1, 10**13)),
        st.builds(lambda a, p: a * sympy.nextprime(p) ** 2, st.integers(1, 10**3), st.integers(1, 10**4)),
    ))
    def matches(n):
        assert totient(n) == sympy.totient(n)

    matches()
    assert totient(10**18 + 9) == 10**18 + 8  # a prime
    assert totient(3 * (10**17 + 3)) == 2 * (10**17 + 2)


def test_totient_leaves_small_arguments_to_division(monkeypatch):
    # the families read phi at small indices; the primality test never runs there
    def refuse(m):
        raise AssertionError(f"primality test on {m}")

    monkeypatch.setattr(sources, "_phi_table", sources._FIRST_TOTIENTS)
    monkeypatch.setattr(sources, "_prime_table", sources._FIRST_PRIMES)
    monkeypatch.setattr(sources, "_proved_prime", lambda m: m >= sources._MR_FLOOR and refuse(m))
    assert [totient(n) for n in range(1, 5000)] == [sympy.totient(n) for n in range(1, 5000)]
