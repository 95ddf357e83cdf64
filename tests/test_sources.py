import tracemalloc

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from gridseq import sources
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


def test_totient_against_sympy(monkeypatch):
    src = euler_phi()
    assert [totient(n) for n in (1, 2, 10, 97, 360)] == [1, 1, 4, 96, 96]
    for n in range(1, 500):
        assert src.value(n) == sympy.totient(n)

    monkeypatch.setattr(sources, "_phi_memo", {})

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**10))
    def matches(n):
        assert totient(n) == sympy.totient(n)

    matches()
    assert totient(10**12 + 39) == 10**12 + 38  # a prime: divides past the sieved primes
    # one divisor finishes it, so it allocates nothing that grows with n
    tracemalloc.start()
    try:
        assert totient(2**50) == 2**49
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
