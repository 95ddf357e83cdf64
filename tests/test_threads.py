"""Threads that share the prime table and the totient table see what one thread sees.

Each trial resets both tables to the ones a fresh process starts from,
then four threads start together under a one-microsecond switch interval
and run the same calls in different orders, so that a thread reads a
table while another replaces it.  The block rules slice the tables in
batched reads, strided ones among them, so a read that sliced a shared
table after a smaller one replaced it would come up short or wrong.  ``cli.main`` is left out: it writes to
``sys.stdout``, which is shared by the whole process, so the threads'
outputs could not be told apart.
"""

import sys
import threading
from itertools import islice

import sympy

from gridseq import sources
from gridseq.schemes import CANTOR, Scheme, walk
from gridseq.sources import euler_phi, nth_prime, primes, totient
from gridseq.transforms import TransformSpec, iter_terms

THREADS = 4
TRIALS = 10


def _prefix(family, srcs, start, count=2000, **fields):
    return lambda: list(islice(iter_terms(TransformSpec(family, **fields), srcs, start), count))


# prime indices far enough apart that each can force a regrowth
JOBS = [
    *(lambda n=n: nth_prime(n) for n in (7, 40, 300, 2500, 20_000, 9)),
    lambda: [totient(n) for n in range(1, 3000)],
    lambda: [totient(n) for n in range(10**9, 10**9 + 200)],
    _prefix("reluctant", [primes()], 1),
    _prefix("reluctant", [euler_phi()], 10**6),
    _prefix("pair", [primes(), euler_phi()], 1),
    _prefix("pair", [euler_phi(), primes()], 10**7),
    _prefix("braid", [primes(), euler_phi(), primes()], 1),
    _prefix("braid", [euler_phi(), primes(), euler_phi()], 3 * 10**4),
    # batched reads of the prime table: runs, strided runs and interleaved ones
    _prefix("shifted-columns", [primes()], 1, 300, k=1000),
    _prefix("shifted-columns", [primes()], 400, 300, k=1000),
    _prefix("max-shift-angle", [primes()], 1, k=3),
    _prefix("multi-replicate", [primes(), euler_phi(), primes()], 1),
    # batched reads of the totient table, strided ones among them
    _prefix("max-shift-angle", [euler_phi()], 1, k=3),
    _prefix("segment-shift", [euler_phi()], 1, k=2),
    _prefix("pair", [euler_phi(), euler_phi()], 1, combiner="concat"),
]


def _reset(monkeypatch):
    monkeypatch.setattr(sources, "_prime_table", sources._FIRST_PRIMES)
    monkeypatch.setattr(sources, "_phi_table", sources._FIRST_TOTIENTS)


def test_threads_share_the_prime_table_and_the_totient_table(monkeypatch):
    _reset(monkeypatch)
    expected = [job() for job in JOBS]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(TRIALS):
            _reset(monkeypatch)
            gate = threading.Barrier(THREADS, timeout=60)
            results = [None] * THREADS

            def run(k):
                gate.wait()
                # thread k starts k jobs in, so the threads grow the table out of step
                order = range(k, k + len(JOBS))
                answers = {i % len(JOBS): JOBS[i % len(JOBS)]() for i in order}
                results[k] = [answers[i] for i in range(len(JOBS))]

            threads = [threading.Thread(target=run, args=(k,)) for k in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert results == [expected] * THREADS
    finally:
        sys.setswitchinterval(interval)


def test_a_batched_read_slices_the_table_its_growth_returned(monkeypatch):
    # the interleaving that the race above makes rare, made certain: a
    # smaller table replaces the shared one just after this read's growth
    grow = sources._primes_through

    def grow_then_replaced(n):
        table = grow(n)
        sources._prime_table = sources._FIRST_PRIMES
        return table

    _reset(monkeypatch)
    monkeypatch.setattr(sources, "_primes_through", grow_then_replaced)
    expected = list(sympy.primerange(2, 300_000))
    assert list(primes().values(range(1, 3001, 7))) == expected[:3000:7]
    assert list(primes().values(range(3000, 0, -1000))) == expected[2999::-1000]
    terms = list(islice(iter_terms(TransformSpec("shifted-columns", k=1000), primes()), 300))
    assert terms == [expected[i + 1000 * (j - 1) - 1] for i, j in islice(walk(CANTOR), 300)]


def test_a_batched_totient_read_slices_the_table_its_growth_returned(monkeypatch):
    # the same interleaving for the totient table
    grow = sources._totients_through

    def grow_then_replaced(n):
        table = grow(n)
        sources._phi_table = sources._FIRST_TOTIENTS
        return table

    _reset(monkeypatch)
    monkeypatch.setattr(sources, "_totients_through", grow_then_replaced)
    expected = [sympy.totient(n) for n in range(1, 4001)]
    assert list(euler_phi().values(range(1, 3001, 7))) == expected[:3000:7]
    assert list(euler_phi().values(range(3000, 0, -1000))) == expected[2999::-1000]
    terms = list(islice(iter_terms(TransformSpec("max-shift-angle", k=3), euler_phi()), 2000))
    assert terms == [expected[max(3 * (i - 1) + j, i + 3 * (j - 1)) - 1]
                     for i, j in islice(walk(Scheme("angle")), 2000)]
