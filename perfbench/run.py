#!/usr/bin/env python3
"""gridseq benchmark: four closed-loop CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a gridseq checkout; the library is imported from
``src/``.  Every call goes through ``gridseq.cli.main(argv)`` in this one
process and thread, the next call only after the previous one returned.

``--trace 0`` runs whole rounds of the workload for ``--seconds`` and
prints the end-to-end metrics.  A call's time is the fastest of its
repetitions; ``setup_s`` is the median of several set-ups.
``--trace 1`` alternates untraced and traced rounds of a smaller round
for half of ``--seconds``, then times the probes untraced.  It prints
per-layer counts and self times per traced round, the tracing overhead
and the probes.
Either way every output is checked against ground truth after the timed
region, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
records the seed, the environment and the workload size.

``--smoke`` runs every workload at a small size in both modes, checks
that each metric in BENCHMARK.json is emitted with its unit, and that a
deliberately corrupted answer is counted as failed.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import harness
import probes
import spans
import truth
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
# traced rounds are smaller: tracing multiplies the cost of every call it wraps
TRACE_SCALE = {"superpose": 0.25, "families": 0.1, "verify": 0.25, "requests": 1}
SMOKE_SCALE = 0.02
SPANS_DIR = Path(__file__).resolve().parent / "out"


def load_library():
    """Import gridseq from this checkout's src/, and only from there."""
    if not (SRC / "gridseq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gridseq sources under {SRC}; run from a gridseq checkout")
    sys.path.insert(0, str(SRC))
    import gridseq
    from gridseq import cli, oeis, oracle, pairing, schemes, sources, tiling, transforms

    if Path(gridseq.__file__).resolve().parent != SRC / "gridseq":
        raise SystemExit(f"perfbench: imported gridseq from {gridseq.__file__}, not {SRC}")
    return SimpleNamespace(root=str(ROOT), cli=cli, schemes=schemes, tiling=tiling,
                           pairing=pairing, transforms=transforms, sources=sources,
                           oracle=oracle, oeis=oeis)


def import_seconds():
    """Seconds to import gridseq and its CLI in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import gridseq, gridseq.cli; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def environment(args):
    return {
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _size(calls, unit):
    return {"calls_per_round": len(calls), "ops_per_round": sum(c.ops for c in calls), "op": unit}


def _outcomes(rounds):
    return [o for outcomes, _ in rounds for o in outcomes]


def timed_run(args, lib, scale=1, corrupt=False):
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        start = perf_counter()
        calls = workloads.build(args.workload, args.seed, scale, lib)
        setups.append(imported + perf_counter() - start)

    spans.assert_untraced(lib)
    main = lib.cli.main
    timed = harness.run_rounds(main, calls, args.seconds, corrupt_first=corrupt)
    rss = harness.peak_rss_mb()

    # Each call's time is the fastest of its repetitions.  Load from other
    # tenants of a shared machine only ever adds time, and comes in bursts of
    # seconds that a median over a few rounds does not outlast.  The fastest
    # repetition also leaves out the first round's cache fills (the sieve).
    best = [min(outcomes[k].seconds for outcomes, _ in timed) for k in range(len(calls))]
    latency_us = sorted(s / c.ops * 1e6 for s, c in zip(best, calls))
    attempted, failed = harness.count_failures(_outcomes(timed))
    metrics = {
        "ops_per_s": (sum(c.ops for c in calls) / sum(best), "1/s"),
        "op_p50_us": (harness.percentile(latency_us, 0.50), "us"),
        "op_p99_us": (harness.percentile(latency_us, 0.99), "us"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (median(setups), "s"),
    }
    info = dict(environment(args), **_size(calls, workloads.WORKLOADS[args.workload][1]),
                rounds=len(timed), timed_s=sum(s for _, s in timed),
                latency_samples=len(latency_us), setup_samples=len(setups),
                fail_ratio=failed / attempted)
    return attempted, failed, metrics, info


def traced_run(args, lib, scale=None, corrupt=False):
    scale = TRACE_SCALE[args.workload] if scale is None else scale
    calls = workloads.build(args.workload, args.seed, scale, lib)
    main = lambda argv: lib.cli.main(argv)  # noqa: E731  looked up per call, so it sees the rebinding
    spans.assert_untraced(lib)
    outcomes = _outcomes(harness.run_rounds(main, calls, 0, corrupt_first=corrupt))  # warm-up

    tracer = spans.Tracer(lib)
    untraced_s = traced_s = 0.0
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < args.seconds / 2:
        [(done, seconds)] = harness.run_rounds(main, calls, 0)
        outcomes += done
        untraced_s += seconds
        tracer.install()
        try:
            [(done, seconds)] = harness.run_rounds(main, calls, 0)
        finally:
            tracer.restore()
        outcomes += done
        traced_s += seconds
        rounds += 1
    probe_metrics = probes.run(lib, SRC)
    tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    attempted, failed = harness.count_failures(outcomes)

    per = 1 / rounds
    calls_of = lambda span: tracer.calls[span] * per  # noqa: E731
    self_of = lambda span: tracer.self_s[span] * per  # noqa: E731
    decodes = tracer.calls["schemes.decode"]
    searches = tracer.calls["schemes.search"]
    metrics = {
        "schemes.decode.calls": (calls_of("schemes.decode"), "count"),
        "schemes.decode.self_s": (self_of("schemes.decode"), "s"),
        "schemes.search.calls": (calls_of("schemes.search"), "count"),
        "schemes.search.self_s": (self_of("schemes.search"), "s"),
        "schemes.search.incl_s": (tracer.incl_s["schemes.search"] * per, "s"),
        "schemes.search.share": (searches / decodes if decodes else 0.0, "ratio"),
        "schemes.search.cells_per_hit": (
            tracer.edges["schemes.search", "schemes.encode"] / searches if searches else 0.0,
            "cells"),
        "schemes.encode.calls": (calls_of("schemes.encode"), "count"),
        "schemes.encode.self_s": (self_of("schemes.encode"), "s"),
        "tiling.encode.calls": (calls_of("tiling.encode"), "count"),
        "tiling.encode.self_s": (self_of("tiling.encode"), "s"),
        "tiling.decode.calls": (calls_of("tiling.decode"), "count"),
        "tiling.decode.self_s": (self_of("tiling.decode"), "s"),
        "transforms.term.calls": (calls_of("transforms.term"), "count"),
        "transforms.self_s": (tracer.layer_self_s("transforms") * per, "s"),
        "pairing.calls": (tracer.layer_calls("pairing") * per, "count"),
        "pairing.self_s": (tracer.layer_self_s("pairing") * per, "s"),
        "sources.value.calls": (calls_of("sources.value"), "count"),
        "sources.self_s": (tracer.layer_self_s("sources") * per, "s"),
        "sources.prime.self_s": (self_of("sources.prime"), "s"),
        "sources.totient.self_s": (self_of("sources.totient"), "s"),
        "oracle.verify.positions": (tracer.verified * per, "count"),
        "oracle.verify.self_s": (self_of("oracle.verify"), "s"),
        "oeis.calls": (tracer.layer_calls("oeis") * per, "count"),
        "oeis.fetch.self_s": (self_of("oeis.fetch"), "s"),
        "oeis.parse.self_s": (self_of("oeis.parse"), "s"),
        "oeis.compare.self_s": (self_of("oeis.compare"), "s"),
        "cli.calls": (calls_of("cli.main"), "count"),
        "cli.self_s": (tracer.layer_self_s("cli") * per, "s"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    }
    for name, value in probe_metrics.items():
        metrics[name] = (value, name.split(".")[1].rpartition("_")[2])  # e.g. decode_us -> us
    info = dict(environment(args), **_size(calls, workloads.WORKLOADS[args.workload][1]),
                trace_scale=scale, traced_rounds=rounds, traced_s=traced_s,
                untraced_s=untraced_s, spans_kept=len(tracer.spans),
                spans_dropped=tracer.dropped, fail_ratio=failed / attempted)
    return attempted, failed, metrics, info


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def smoke(lib):
    """Small runs of every workload in both modes; raise on the first broken promise."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        raise AssertionError("BENCHMARK.json names other workloads than workloads.py")
    _check_const_formula(lib)
    for name in workloads.WORKLOADS:
        for mode, run in ((0, timed_run), (1, traced_run)):
            args = SimpleNamespace(workload=name, seed=1, seconds=0, trace=mode)
            attempted, failed, metrics, _ = run(args, lib, SMOKE_SCALE)
            got = {k: u for k, (_, u) in metrics.items()}
            if got != wanted[mode]:
                raise AssertionError(f"{name} trace={mode}: metrics {got} != {wanted[mode]}")
            if failed or attempted < 1:
                raise AssertionError(f"{name} trace={mode}: {failed} of {attempted} failed")
            if mode == 0 and any(v <= 0 for v, _ in metrics.values()):
                raise AssertionError(f"{name}: an end-to-end metric reads 0: {metrics}")
        args = SimpleNamespace(workload=name, seed=1, seconds=0, trace=0)
        attempted, failed, _, _ = timed_run(args, lib, SMOKE_SCALE, corrupt=True)
        if not failed:
            raise AssertionError(f"{name}: a corrupted answer was not counted as failed")
        print(f"smoke {name}: ok (corrupted answer failed {failed} of {attempted} ops)")


def _check_const_formula(lib):
    """The benchmark's constant-tile formula against the library's geometric walk."""
    for order in workloads.ORDERS:
        walk = lib.oracle.traverse(lib.schemes.parse_scheme(f"tiling:const:3x2:{order}"), 3000)
        for n, (i, j) in enumerate(walk, 1):
            if truth.const_tiling_position(i, j, 3, 2, order) != n:
                raise AssertionError(f"const 3x2 {order}: formula disagrees at {n}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    lib = load_library()
    if args.smoke:
        smoke(lib)
        return 0
    run = traced_run if args.trace else timed_run
    attempted, failed, metrics, info = run(args, lib)
    print(json.dumps({"info": info}))
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
