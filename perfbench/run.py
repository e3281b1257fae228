"""Certified-answer benchmark for choquard: one workload run per process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {ground_state,saddle} \\
        --seed N --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up, solve wall time, peak memory);
with ``--trace 1`` they are the per-layer ones of layers.py.  Every answer
goes through the gate in workloads.py before its time counts.  Files go to
``.perfbench_out/`` in the checkout.
"""

import os

# one thread everywhere: pin BLAS/OpenMP before numpy loads; the configs
# set one FFT worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import PER_LAYER, entry_points, is_count, summarize  # noqa: E402
from setup_child import set_up  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, gate, make_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB")]


def window(seconds: float, step, min_reps: int = 1) -> None:
    """Call step(rep) for rep = 0, 1, ... while the next call, at the mean
    duration so far, would be at least half done within ``seconds``: the
    run makes the whole number of calls nearest to filling the window, so a
    slow phase of the host does not cut a call that would nearly fit."""
    t0 = time.perf_counter()
    durations = []
    while True:
        durations.append(step(len(durations)))
        elapsed = time.perf_counter() - t0
        if len(durations) >= min_reps and elapsed + statistics.fmean(durations) / 2 > seconds:
            return


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "choquard").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Solver:
    """Runs one certified answer through ``choquard.cli.run`` and gates it."""

    def __init__(self, cq, workload: str, config_paths: list[Path], run_dir: Path):
        self.cq = cq
        self.workload = workload
        self.cfgs = [cq.cli.parse_config(p) for p in config_paths]
        self.run_dir = run_dir
        self.geometry = None
        self.attempted = 0
        self.failures: list[str] = []
        original = cq.saddle.check_geometry

        def keep_geometry(*args, **kwargs):
            self.geometry = original(*args, **kwargs)
            return self.geometry

        # the saddle gate needs the barrier estimate the solve computed
        cq.saddle.check_geometry = keep_geometry

    def solve(self, rep: int, index: int) -> tuple[float, float]:
        """Wall and CPU seconds from the solve call to a report on disk."""
        cfg = self.cfgs[index]
        out = self.run_dir / f"solve{rep}"
        self.geometry = None
        error = ""
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = self.cq.cli.run(cfg, out)
        except self.cq.ChoquardError as exc:
            rc, error = None, f"{type(exc).__name__}: {exc}"
        report = json.loads((out / "report.json").read_text()) if rc is not None else None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        fails = gate(self.workload, rc, report, error, self.geometry)
        self.attempted += 1
        self.failures += [f"solve{rep} (input {index}): {why}" for why in fails]
        return wall, cpu


def set_up_in_child(config_path: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), str(ROOT), str(config_path)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def plain_run(solver: Solver, config_paths: list[Path], seconds: float) -> dict:
    """One cold set-up before each solve, topped up to SETUP_REPEATS at the
    end, so set-up is sampled across the run rather than in one burst."""
    setups, walls = [], []

    def step(rep):
        t0 = time.perf_counter()
        setups.append(set_up_in_child(config_paths[0]))
        wall, _ = solver.solve(rep, rep % len(config_paths))
        walls.append(wall)
        return time.perf_counter() - t0

    window(seconds, step)
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up_in_child(config_paths[0]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (solver.run_dir / "times.json").write_text(json.dumps({"setup_s": setups, "solve_s": walls}))
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(walls),
        "peak_rss_mb": rss_mb,
    }


def traced_run(cq, solver: Solver, config_paths: list[Path], seconds: float,
               workload: str, seed: int) -> tuple[dict, list[str]]:
    """Traced set-up once, then traced and untraced solves of the first
    input in turn.  Returns the per-layer metrics and any count mismatch."""
    tracer = Tracer()
    entries = entry_points(cq)
    tracer.install(entries)
    tracer.trace_id = "setup"
    with tracer.region("setup"):
        set_up(cq, config_paths[0])
    tracer.uninstall()
    setup_spans = list(tracer.spans)

    traced, plain, cpu = [], [], []
    summaries = []

    def step(rep):
        if rep % 2 == 0:
            first = len(tracer.spans)
            tracer.trace_id = f"solve{rep}"
            tracer.install(entries)
            try:
                with tracer.region("solve"):
                    wall, _ = solver.solve(rep, 0)
            finally:
                tracer.uninstall()
            traced.append(wall)
            summaries.append(summarize(setup_spans + tracer.spans[first:]))
        else:
            wall, c = solver.solve(rep, 0)
            plain.append(wall)
            cpu.append(c)
        return wall

    window(seconds, step, min_reps=2)

    counts = [{k: v for k, v in s.items() if is_count(k)} for s in summaries]
    mismatches = [f"traced solve {2 * i} counts differ from solve 0: "
                  + ", ".join(f"{k} {c[k]} != {counts[0][k]}" for k in c if c[k] != counts[0][k])
                  for i, c in enumerate(counts) if c != counts[0]]
    mismatches += check_registry(f"{workload}|seed={seed}|code={code_hash()}", counts[0])

    metrics = {name: statistics.median(s[name] for s in summaries)
               for name, _ in PER_LAYER if name in summaries[0]}
    metrics.update(counts[0])
    metrics["process.cpu_s"] = statistics.median(cpu)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    run_dir = solver.run_dir
    tracer.write(run_dir / "spans.jsonl")
    (run_dir / "layers.json").write_text(json.dumps(
        {"metrics": metrics, "per_traced_solve": summaries, "traced_s": traced,
         "untraced_s": plain, "unwrapped": sorted(set(tracer.missing)),
         "info_errors": sorted({s.info["info_error"] for s in tracer.spans
                                if s.info and "info_error" in s.info})}, indent=1))
    return metrics, mismatches


def check_registry(key: str, counts: dict) -> list[str]:
    """Compare the counts with those an earlier run of the same code and
    seed recorded; record them when this is the first such run."""
    path = OUT / "counts.json"
    registry = json.loads(path.read_text()) if path.exists() else {}
    earlier = registry.get(key)
    if earlier is None:
        registry[key] = counts
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return []
    return [f"{k}: {counts.get(k)} != {earlier[k]} recorded by an earlier run"
            for k in earlier if counts.get(k) != earlier[k]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src" / "choquard"
    if not (src / "__init__.py").is_file():
        print(f"error: no choquard sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import choquard as cq
    import choquard.cli  # noqa: F401  (binds cq.cli)

    if Path(cq.__file__).resolve().parent != src.resolve():
        print(f"error: imported choquard from {cq.__file__}, not {src}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    config_paths = []
    for i, cfg in enumerate(make_inputs(args.workload, args.seed)):
        path = run_dir / f"config{i}.json"
        path.write_text(json.dumps(cfg, indent=1))
        config_paths.append(path)
    solver = Solver(cq, args.workload, config_paths, run_dir)
    threads = {var: os.environ[var] for var in THREAD_VARS}
    threads["fft_workers"] = sorted({cfg.threads for cfg in solver.cfgs})
    (run_dir / "run.json").write_text(json.dumps(
        {"args": vars(args), "threads": threads, "python": sys.version}, indent=1))
    print("threads: " + " ".join(f"{k}={v}" for k, v in threads.items()))
    mismatches: list[str] = []
    if args.trace:
        values, mismatches = traced_run(cq, solver, config_paths, args.seconds,
                                        args.workload, args.seed)
        units = dict(PER_LAYER)
    else:
        values = plain_run(solver, config_paths, args.seconds)
        units = dict(END_TO_END)

    for why in solver.failures:
        print(f"failed answer: {why}", file=sys.stderr)
    for why in mismatches:
        print(f"COUNT MISMATCH: {why}", file=sys.stderr)
    result = {
        "correct": not solver.failures and not mismatches,
        "attempted": solver.attempted,
        "failed": len(solver.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 3 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
