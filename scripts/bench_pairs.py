"""Paired before/after benchmark of two checkouts, written to one JSON file.

Usage:

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        [--first-seed 701]

Each checkout's own ``perfbench/run.py`` is run as a separate process from
the root of that checkout; nothing under ``perfbench/`` is imported.  The
workloads and the run length are those of the change's ``BENCHMARK.json``.
For each workload, pair i runs seed ``first_seed + i`` on both sides with
``--trace 0``, parent first on even pairs and change first on odd ones, so
a slow phase of the host does not land on one side only.  Then each side
makes one traced run (``--trace 1``) at seed 11 for its per-layer counts.

The output holds, per workload: every run's last-line JSON with its seed,
side and exit code; each side's number of failed runs; per end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles, the number
of pairs the change wins and whether the change clears the benchmark's
rule; and each side's traced result.  The rule: the change wins at least 9
in 10 of all pairs run, where a pair with a failed run on either side is
not a win; its median beats the parent's by more than the parent's
interquartile range; and no more of its runs fail than the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TRACE_SEED = 11
TRACE_SECONDS = 10.0


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process; its last stdout line, parsed."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"seed": seed, "trace": trace, "returncode": proc.returncode,
            "wall_s": time.perf_counter() - t0, "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


def failed(run: dict) -> bool:
    """A run that exited non-zero, printed no result or failed an answer."""
    res = run["result"]
    return run["returncode"] != 0 or res is None or bool(res["failed"])


def metric(run: dict, name: str) -> float | None:
    """The metric's value, or None when the run failed or lacks it."""
    if failed(run) or name not in run["result"]["metrics"]:
        return None
    return run["result"]["metrics"][name]["value"]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(runs: dict[str, list[dict]], name: str, better: str) -> dict:
    """Side spreads, pair wins and the benchmark's rule for one metric."""
    pairs = [(metric(p, name), metric(c, name)) for p, c in zip(runs["parent"], runs["change"])]
    values = {side: [v for v in (metric(r, name) for r in runs[side]) if v is not None]
              for side in SIDES}
    failures = {side: sum(map(failed, runs[side])) for side in SIDES}
    if min(len(v) for v in values.values()) < 2:
        return {"pairs": len(pairs), "failed_runs": failures, "claim_holds": False}
    sign = 1.0 if better == "lower" else -1.0
    parent, change = spread(values["parent"]), spread(values["change"])
    wins = sum(1 for p, c in pairs if p is not None and c is not None and sign * (p - c) > 0)
    gap = sign * (parent["median"] - change["median"])
    return {
        "better": better, "pairs": len(pairs), "failed_runs": failures,
        "parent": parent, "change": change, "change_wins": wins, "median_gap": gap,
        "relative_gap": gap / parent["median"] if parent["median"] else None,
        "claim_holds": (wins >= 0.9 * len(pairs) and gap > parent["iqr"]
                        and failures["change"] <= failures["parent"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout before the change")
    parser.add_argument("--change", type=Path, required=True, help="checkout with the change")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--first-seed", type=int, default=701,
                        help="seed of the first pair; use seeds not tried while building")
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "settings": {"first_seed": args.first_seed, "pairs": PAIRS, "run_seconds": seconds,
                     "trace_seed": TRACE_SEED, "trace_seconds": TRACE_SECONDS},
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i in range(PAIRS):
            seed = args.first_seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run = run_once(roots[side], workload, seed, seconds, 0)
                runs[side].append(run)
                print(f"{workload} pair {i} seed {seed} {side}: solve_s "
                      f"{metric(run, 'solve_s')} rc {run['returncode']}", flush=True)
        traced = {side: run_once(roots[side], workload, TRACE_SEED, TRACE_SECONDS, 1)
                  for side in SIDES}
        out["workloads"][workload] = {
            "runs": runs,
            "end_to_end": {m["name"]: compare(runs, m["name"], m["better"])
                           for m in bench["end_to_end"]},
            "traced": traced,
        }
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
