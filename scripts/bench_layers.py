#!/usr/bin/env python3
"""Per-layer timings of the solvers' field operators on both layouts.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 scripts/bench_layers.py --out BENCH_LAYERS.json \\
        [--cases 3:32,3:64,3:96,1:1024,2:256] [--repeats 7]

A reflection-even solve holds its fields on the (M/2 + 1)^N octant; any
other solve, and every certificate, on the full M^N grid.  For each case
``dim:M`` this times, on both layouts, one call of each layer: the kinetic
norm, -Laplacian, the (sigma - Laplacian)^{-1} preconditioner, x . grad
(the saddle's fiber tangent), the Riesz convolution, ``evaluate_state``
and ``gradient_values``; and, once per case, an uncached
``build_convolver``, which serves both layouts.  The state is a
pair of centered Gaussians of different widths, so no layer takes the
mirrored (u = v) shortcut, and the model is the ``ground_state`` benchmark
model (alpha = N/2 in 1-D and 2-D, where alpha < N).

Each timing is the median over ``--repeats`` samples of the time per call,
where a sample loops the call often enough to last about 0.1 s, and at
least three times, after one warm-up call.  Next to it, ``peak_mib`` is
the call's tracemalloc peak:
the most memory that numpy and Python allocated at once during one extra,
untimed call, its result included.  Next to each pair of timings the JSON
holds the largest difference between the two layouts' results, relative
to the largest full result: a faster layer that gives a different answer
is no gain.  The convolution splits the x = -L face between -L and +L on
the octant, so its difference is of the size of the fields there.  The output also
records the host, the numpy and scipy versions and the thread settings.
BLAS and OpenMP pools are pinned to one thread unless the environment
sets them, and scipy.fft runs one worker.

``cold_solves`` holds, for the ``ground_state`` and ``saddle`` benchmark
workloads, the tracemalloc peak of one certified solve of the benchmark's
input (``perfbench/workloads.py``, seed 11, its first input) in a fresh
process, so every cache starts empty: ``choquard.cli.run`` from the start
state to the written report, in MiB, with its exit code.  It is one solve's
own memory, which the benchmark's process peak over many solves does not
isolate.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.fft  # noqa: E402

import choquard as cq  # noqa: E402
from choquard.energy import evaluate_state, gradient_values, sample_model  # noqa: E402
from choquard.flow import _precondition  # noqa: E402
from choquard.grid import (  # noqa: E402
    fold, from_octant, grad_norm_sq_values, neg_laplacian_values, x_grad_values,
)
from choquard.riesz import riesz_convolve_values  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CASES = "3:32,3:64,3:96,1:1024,2:256"
SOLVES = ("ground_state", "saddle")
HALF_EXTENT = {1: 40.0, 2: 16.0, 3: 12.0}
SAMPLE_S = 0.1
MIN_CALLS = 3  # per sample: at 64^3 and above one 0.02 s sample was one call
SIGMA = 1.3  # a preconditioner shift of the size the flow uses
SOLVE_SEED = 11

# run in a fresh interpreter: config path in, one JSON line out
COLD_SOLVE = """
import json, sys, tempfile, tracemalloc
import choquard.cli
cfg = choquard.cli.parse_config(sys.argv[1])
with tempfile.TemporaryDirectory() as out:
    tracemalloc.start()
    rc = choquard.cli.run(cfg, out)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
print(json.dumps({"rc": rc, "peak_mib": peak / 2**20}))
"""


def params_for(dim: int) -> cq.ModelParams:
    return cq.ModelParams(
        dim=dim, alpha=2.0 if dim == 3 else dim / 2.0, p=2.0, q=2.0, mu1=5.0, mu2=5.0,
        xi=1.0, eta=1.0, coupling=cq.CouplingSpec("constant", 0.1),
    )


def traced_peak_mib(call) -> float:
    """The tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def time_call(call, repeats: int) -> dict:
    """Median and quartiles of the seconds per call, in ms, and the traced
    peak of one more call."""
    call()
    t0 = time.perf_counter()
    call()
    number = max(MIN_CALLS, int(SAMPLE_S / max(time.perf_counter() - t0, 1e-9)))
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        per_call.append(1e3 * (time.perf_counter() - t0) / number)
    peak = traced_peak_mib(call)
    if repeats == 1:
        return {"median_ms": per_call[0], "q1_ms": per_call[0], "q3_ms": per_call[0],
                "calls_per_sample": number, "peak_mib": peak}
    q1, median, q3 = statistics.quantiles(per_call, n=4, method="inclusive")
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "calls_per_sample": number,
            "peak_mib": peak}


def rel_diff(octant_result, full_result) -> float:
    """Largest layout difference relative to the largest full result; an
    array result is compared on the full grid, a pair item by item."""
    if isinstance(full_result, tuple):
        return max(rel_diff(o, f) for o, f in zip(octant_result, full_result))
    if isinstance(full_result, np.ndarray):
        octant_result = from_octant(octant_result)
    scale = float(np.max(np.abs(full_result)))
    return float(np.max(np.abs(np.asarray(octant_result) - full_result))) / scale


def layer_calls(grid, params, conv, u, v, model) -> dict:
    """name -> a call of that layer on the layout of u and v, with ``model``
    the full grid's samples, returning its result."""
    ev = evaluate_state(u, v, params, conv, model)
    return {
        "kinetic_norm": lambda: grad_norm_sq_values(grid, u),
        "neg_laplacian": lambda: neg_laplacian_values(grid, u),
        "precondition": lambda: _precondition(grid, u, SIGMA),
        "x_grad": lambda: x_grad_values(grid, u),
        "convolve": lambda: riesz_convolve_values(conv, u * u),
        "evaluate_state": lambda: evaluate_state(u, v, params, conv, model).breakdown.total,
        "gradient_values": lambda: gradient_values(ev, params),
    }


def measure_case(dim: int, m: int, repeats: int) -> dict:
    grid = cq.GridSpec(dim, HALF_EXTENT[dim], m)
    params = params_for(dim)
    conv = cq.build_convolver(grid, params.alpha)
    model = sample_model(params, grid)
    u = cq.gaussian_field(grid, 1.5, mass=1.0).values
    v = cq.gaussian_field(grid, 1.8, mass=1.0).values
    full = layer_calls(grid, params, conv, u, v, model)
    octant = layer_calls(grid, params, conv, fold(u), fold(v), model)
    out = {"dim": dim, "points_per_axis": m, "half_extent": grid.half_extent, "layers": {},
           "build_convolver": time_call(
               lambda: cq.build_convolver.__wrapped__(grid, params.alpha), repeats)}
    for name in full:
        timings = {"full": time_call(full[name], repeats),
                   "octant": time_call(octant[name], repeats)}
        out["layers"][name] = {
            **timings,
            "speedup": timings["full"]["median_ms"] / timings["octant"]["median_ms"],
            "rel_diff": rel_diff(octant[name](), full[name]()),
        }
    return out


def benchmark_input(workload: str) -> dict:
    """The benchmark's first input of ``workload`` at SOLVE_SEED, read from
    ``perfbench/workloads.py`` without writing bytecode next to it."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.make_inputs(workload, SOLVE_SEED)[0]


def cold_solve(config: dict) -> dict:
    """The tracemalloc peak (MiB) and exit code of one ``cli.run`` of
    ``config`` in a fresh interpreter that imports this process's choquard."""
    src = str(Path(cq.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        proc = subprocess.run([sys.executable, "-c", COLD_SOLVE, str(path)], env=env,
                              capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_cases(text: str) -> list[tuple[int, int]]:
    cases = []
    for item in text.split(","):
        dim, m = item.split(":")
        cases.append((int(dim), int(m)))
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--cases", default=DEFAULT_CASES, help="comma-separated dim:M list")
    parser.add_argument("--repeats", type=int, default=7, help="timed samples per layer")
    args = parser.parse_args(argv)

    out = {
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "processor": platform.processor(), "system": platform.system(),
                 "python": platform.python_version()},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {**{var: os.environ.get(var) for var in THREAD_VARS},
                    "fft_workers": scipy.fft.get_workers()},
        "settings": {"repeats": args.repeats, "sample_s": SAMPLE_S, "min_calls": MIN_CALLS,
                     "sigma": SIGMA, "solve_seed": SOLVE_SEED},
        "cases": [],
        "cold_solves": {},
    }
    for workload in SOLVES:
        config = benchmark_input(workload)
        solve = {"points_per_axis": config["grid"]["points_per_axis"], **cold_solve(config)}
        out["cold_solves"][workload] = solve
        print(f"cold {workload} solve at M={solve['points_per_axis']}: rc {solve['rc']}, "
              f"tracemalloc peak {solve['peak_mib']:.3f} MiB", flush=True)
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for dim, m in parse_cases(args.cases):
        case = measure_case(dim, m, args.repeats)
        out["cases"].append(case)
        summary = ", ".join(f"{name} {lay['full']['median_ms']:.3g} -> "
                            f"{lay['octant']['median_ms']:.3g} ms ({lay['full']['peak_mib']:.3g}"
                            f" -> {lay['octant']['peak_mib']:.3g} MiB)"
                            for name, lay in case["layers"].items())
        build = case["build_convolver"]
        print(f"{dim}-D M={m}: {summary}; build_convolver "
              f"{build['median_ms']:.3g} ms ({build['peak_mib']:.3g} MiB)", flush=True)
        args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
