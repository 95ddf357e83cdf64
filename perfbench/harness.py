"""Closed-loop harness: one CLI call at a time through ``gridseq.cli.main``.

Each call's stdout goes to a :class:`Sink` that hashes as it writes and
keeps only a short head, so the harness's own memory stays flat however
much a call prints.  Calls are issued in rounds; the next call starts only
when the previous one has returned.
"""

import hashlib
import resource
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import ceil
from time import perf_counter

HEAD_CHARS = 4096


class Sink:
    """Write-only text stream: a running digest plus the first HEAD_CHARS characters."""

    def __init__(self, corrupt=False):
        self._hash = hashlib.blake2b(digest_size=16)
        self._head = []
        self._kept = 0
        if corrupt:  # a deliberately wrong answer, for the gate's self-test
            self.write("9")

    def write(self, text):
        self._hash.update(text.encode())
        if self._kept < HEAD_CHARS:
            self._head.append(text)
            self._kept += len(text)
        return len(text)

    def flush(self):
        pass

    def digest(self):
        return self._hash.hexdigest()

    def head(self):
        return "".join(self._head)[:HEAD_CHARS]


def text_digest(lines):
    """Digest a Sink would hold after ``print`` wrote each line."""
    h = hashlib.blake2b(digest_size=16)
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


@dataclass
class Call:
    """One CLI invocation; ``ops`` is how many operations it performs."""

    argv: list
    ops: int
    check: object  # (Outcome) -> bool, run after the timed region


@dataclass
class Outcome:
    call: Call
    code: object  # exit status, or the unexpected exception that escaped main
    digest: str
    head: str
    seconds: float


def invoke(main, call, corrupt=False):
    out, err = Sink(corrupt), Sink()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(call.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an unexpected raise is a failed operation, not a crash
        code = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    return Outcome(call, code, out.digest(), out.head(), seconds)


def run_rounds(main, calls, seconds, corrupt_first=False):
    """Repeat ``calls`` in order, whole rounds only, until ``seconds`` have passed.

    Returns one (outcomes, wall seconds) pair per round; always at least one round.
    """
    rounds = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        outcomes = [invoke(main, call, corrupt_first and not rounds and k == 0)
                    for k, call in enumerate(calls)]
        rounds.append((outcomes, perf_counter() - round_start))
        if perf_counter() - start >= seconds:
            return rounds


def count_failures(outcomes):
    """(operations attempted, operations failed); a failed call fails all its operations."""
    attempted = failed = 0
    verdicts = {}
    for o in outcomes:
        attempted += o.call.ops
        key = (id(o.call), o.code, o.digest, o.head)
        if key not in verdicts:
            try:
                verdicts[key] = o.code == 0 and bool(o.call.check(o))
            except ValueError:  # a round trip rejected a malformed answer
                verdicts[key] = False
        if not verdicts[key]:
            failed += o.call.ops
    return attempted, failed


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
