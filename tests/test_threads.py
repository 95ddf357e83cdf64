"""Threads that share the prime table and the totient memo see what one thread sees.

Each trial resets the table to its first six primes and empties the memo,
then four threads start together under a one-microsecond switch interval
and run the same calls in different orders, so that a thread reads the
table while another replaces it.  ``cli.main`` is left out: it writes to
``sys.stdout``, which is shared by the whole process, so the threads'
outputs could not be told apart.
"""

import sys
import threading
from itertools import islice

from gridseq import sources
from gridseq.sources import euler_phi, nth_prime, primes, totient
from gridseq.transforms import TransformSpec, iter_terms

SIX_PRIMES = (13, (2, 3, 5, 7, 11, 13))
THREADS = 4
TRIALS = 10


def _prefix(family, srcs, start, count=2000):
    return lambda: list(islice(iter_terms(TransformSpec(family), srcs, start), count))


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
]


def _reset(monkeypatch):
    monkeypatch.setattr(sources, "_prime_table", SIX_PRIMES)
    monkeypatch.setattr(sources, "_phi_memo", {})


def test_threads_share_the_prime_table_and_the_totient_memo(monkeypatch):
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
