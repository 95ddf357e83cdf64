#!/usr/bin/env python3
"""Record alternating parent/change pairs of the benchmark into a BENCH_<n>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_27.json --seed 2711 \\
        --claim families:peak_rss_mb --change-note "what changed"

PARENT and CHANGE are commits of this repository.  Each is copied from its
committed files (``git archive``) into a fresh temporary directory, and every
run is ``python3 perfbench/run.py --workload W --seed S --seconds X --trace 0``
from that copy, one at a time, where X is ``run_seconds`` of the parent's
BENCHMARK.json.

The workload named by ``--claim`` gets 10 pairs, every other workload 3.
Pair k uses seed ``--seed`` + k and runs the workloads in the order verify,
superpose, families, requests, each while k is below its pair count; within
each workload the parent runs first when k is even and the change first when
k is odd.  A failing run stops the tool with the workload, pair and side it
failed on.  The record holds, for every end-to-end metric of the parent's
BENCHMARK.json, each side's runs, median and quartiles (inclusive method),
the number of pairs in which the change reads better (ties count for neither
side), and the ratio of the medians, and each run's ``info.rounds``.  ``host`` is read from run.py's ``info`` line.
Only the temporary directories and ``--out`` are written.
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
ORDER = ("verify", "superpose", "families", "requests")
SIDES = ("parent", "change")
HOST_FIELDS = ("python", "implementation", "nproc", "platform", "machine")
CLAIMED_PAIRS, OTHER_PAIRS = 10, 3


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def checkout(commit: str, dest: Path) -> Path:
    """The committed files of commit, extracted under dest."""
    dest.mkdir()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(info, result) of one untraced run.py run from tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600, check=True)
    *_, info, result = done.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


def pair_counts(claimed: str | None) -> dict[str, int]:
    return {w: CLAIMED_PAIRS if w == claimed else OTHER_PAIRS for w in ORDER}


def schedule(pairs: dict[str, int]) -> list[tuple[int, str, tuple[str, str]]]:
    """(pair k, workload, side order) for every pair, in the order they run."""
    return [(k, w, SIDES if k % 2 == 0 else SIDES[::-1])
            for k in range(max(pairs.values())) for w in ORDER if k < pairs[w]]


def summary(values: list[float]) -> dict:
    q1, mid, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": round(mid, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in values]}


def record(runs: dict, pairs: dict[str, int], seed: int, metrics: list[dict]) -> dict:
    """The per-workload part of the record from runs[(workload, k, side)] = (info, result)."""
    out = {}
    for w in ORDER:
        n = pairs[w]
        results = {s: [runs[w, k, s][1] for k in range(n)] for s in SIDES}
        block = {
            "pairs": n,
            "seeds": [seed + k for k in range(n)],
            "failed": {s: sum(r["failed"] for r in results[s]) for s in SIDES},
            "attempted": {s: sum(r["attempted"] for r in results[s]) for s in SIDES},
            "correct": {s: all(r["correct"] for r in results[s]) for s in SIDES},
            # rounds each run fitted into its seconds: the harness keeps every
            # round, so peak_rss_mb grows with them
            "rounds": {s: [runs[w, k, s][0]["rounds"] for k in range(n)] for s in SIDES},
            "metrics": {},
        }
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            values = {s: [r["metrics"][name]["value"] for r in results[s]] for s in SIDES}
            block["metrics"][name] = {
                "unit": m["unit"],
                "better": m["better"],
                **{s: summary(values[s]) for s in SIDES},
                "change_better_pairs": sum(sign * (c - p) > 0
                                           for p, c in zip(values["parent"], values["change"])),
                "median_ratio_change_over_parent": round(
                    median(values["change"]) / median(values["parent"]), 4),
            }
        out[w] = block
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", help="<workload>:<metric> whose gain the change claims")
    parser.add_argument("--change-note", default="", help="one line on what the change does")
    args = parser.parse_args(argv)

    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in ORDER:
            parser.error(f"--claim: unknown workload {workload!r}")
        claim = {"workload": workload, "metric": metric}
    pairs = pair_counts(claim and claim["workload"])
    commits = {"parent": args.parent, "change": args.change}
    runs, hosts = {}, set()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {s: checkout(commits[s], Path(tmp) / s) for s in SIDES}
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        if claim and claim["metric"] not in {m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim: {claim['metric']!r} is not an end-to-end metric")
        seconds = spec["run_seconds"]
        for k, w, sides in schedule(pairs):
            for s in sides:
                try:
                    info, result = run_once(trees[s], w, args.seed + k, seconds)
                except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
                    stderr = e.stderr.decode() if isinstance(e.stderr, bytes) else e.stderr or ""
                    raise SystemExit(f"bench_pairs: {w} pair {k} ({s}, seed {args.seed + k}) "
                                     f"failed: {e}\n{stderr}") from None
                runs[w, k, s] = info, result
                hosts.add(tuple(info[f] for f in HOST_FIELDS))
                print(f"pair {k} {w} {s}: " + ", ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), file=sys.stderr)
    if len(hosts) != 1:
        raise SystemExit(f"bench_pairs: the runs report more than one host: {sorted(hosts)}")

    out = {
        "change": args.change_note,
        "parent_commit": git("rev-parse", "--short", args.parent).decode().strip(),
        "change_commit": git("rev-parse", "--short", args.change).decode().strip(),
        "command": ("python3 perfbench/run.py --workload <name> --seed <seed> "
                    f"--seconds {seconds:g} --trace 0"),
        "run_from": "a fresh copy of each tree's committed files",
        "host": dict(zip(HOST_FIELDS, hosts.pop())),
        "pairs": pairs,
        "seeds": [args.seed + k for k in range(max(pairs.values()))],
        "alternation": (f"pair k uses seed {args.seed} + k and runs the workloads in the order "
                        f"{', '.join(ORDER)}, each while k is below its pair count; within each "
                        "workload the parent runs first when k is even and the change first "
                        "when k is odd"),
        "statistics": ("median and quartiles (inclusive method) over the runs of each side; "
                       "change_better_pairs counts pairs where the change reads better, "
                       "ties for neither"),
        "claim": claim,
        "workloads": record(runs, pairs, args.seed, spec["end_to_end"]),
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
