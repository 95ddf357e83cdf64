"""Named probes, one per row of ROADMAP's re-anchor baseline table.

Each probe times one library operation with tracing off and returns the
median of several repeats, in the unit its name ends with.  A probe whose
answer is wrong raises, so a fast wrong answer never reads as a gain.
"""

import subprocess
import sys
from statistics import median
from time import perf_counter

import truth

REPEATS = 5
MIN_REPEAT_S = 0.02  # a fast operation is looped until one repeat takes this long
CONST_CELL = (3000, 3000)
CONST_POSITION = truth.const_tiling_position(*CONST_CELL, 3, 2, "row")


def per_call_s(fn, repeats=REPEATS):
    """Median seconds per call of ``fn()``, looping fast calls to beat clock noise."""
    loops = 1
    while True:
        start = perf_counter()
        for _ in range(loops):
            fn()
        if perf_counter() - start >= MIN_REPEAT_S:
            break
        loops *= 2
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(loops):
            fn()
        samples.append((perf_counter() - start) / loops)
    return median(samples)


def _expect(got, want, what):
    if got != want:
        raise AssertionError(f"probe {what}: got {got!r}, expected {want!r}")


def run(lib, src_dir):
    schemes, tiling, transforms, sources = lib.schemes, lib.tiling, lib.transforms, lib.sources
    out = {}

    for kind, exp in (("center-out", 9), ("alternating", 9), ("cantor", 9), ("angle", 9),
                      ("cantor", 30)):
        scheme, n = schemes.Scheme(kind), 10**exp
        cell = schemes.decode(scheme, n)
        _expect(schemes.encode(scheme, *cell), n, f"decode {kind} 10^{exp}")
        out[f"probe.decode_us.{kind}.e{exp}"] = per_call_s(lambda: schemes.decode(scheme, n)) * 1e6

    const = schemes.parse_scheme("tiling:const:3x2:row")
    _expect(schemes.encode(const, *CONST_CELL), CONST_POSITION, "warm tiling encode")
    out["probe.tiling_encode_us.warm"] = per_call_s(lambda: schemes.encode(const, *CONST_CELL)) * 1e6

    # the constant-tile fast path; once it is folded into the general path
    # the probe times that path on a warm constant spec instead
    fast = getattr(tiling, "rect_encode_const", None)
    const_encode = (lambda: fast(*CONST_CELL, 3, 2)) if fast else (
        lambda: schemes.encode(const, *CONST_CELL))
    _expect(const_encode(), CONST_POSITION, "constant-tile encode")
    out["probe.rect_encode_const_us"] = per_call_s(const_encode) * 1e6

    cold_cell = (10**6, 1)
    cold_position = truth.const_tiling_position(*cold_cell, 3, 2, "row")
    cold = []
    for _ in range(3):
        fresh = schemes.parse_scheme("tiling:const:3x2:row")
        start = perf_counter()
        got = schemes.encode(fresh, *cold_cell)
        cold.append(perf_counter() - start)
        _expect(got, cold_position, "cold tiling encode")
    out["probe.tiling_encode_ms.cold.e6"] = median(cold) * 1e3

    spec = transforms.TransformSpec("superpose", inner=schemes.parse_scheme("tiling:const:3x2:row"),
                                    outer=schemes.parse_scheme("center-out"))
    start = perf_counter()
    terms = transforms.generate_prefix(spec, [sources.identity()], 100_000)
    out["probe.superpose_s.100k"] = perf_counter() - start
    _expect(terms[:6], [1, 2, 4, 5, 3, 13], "superpose first terms")

    reluctant = transforms.TransformSpec("reluctant")
    terms = transforms.generate_prefix(reluctant, [sources.identity()], 100_000)
    _expect(terms[-1], 100_000 - 446 * 447 // 2, "reluctant term 100000")
    out["probe.reluctant_ms.100k"] = per_call_s(
        lambda: transforms.generate_prefix(reluctant, [sources.identity()], 100_000), 3) * 1e3

    out["probe.cli_one_term_ms"] = _cli_one_term_s(src_dir) * 1e3
    return out


def _cli_one_term_s(src_dir):
    """Interpreter start, import and one generated term, in a fresh process."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from gridseq.cli import main; "
            "sys.exit(main(['generate', '--family', 'reluctant', '--count', '1']))")
    samples = []
    for _ in range(REPEATS):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-I", "-c", code, str(src_dir)],
                              capture_output=True, text=True, timeout=60)
        samples.append(perf_counter() - start)
        _expect((done.returncode, done.stdout), (0, "1\n"), "CLI one term")
    return median(samples)
