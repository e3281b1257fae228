"""``scripts/bench_layers.py`` times every layer on both layouts and the
convolver build, traces their peak memory, and records where it ran; a
small 3-D case runs end to end, next to one cold solve of each benchmark
workload."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"
LAYERS = {"kinetic_norm", "neg_laplacian", "precondition", "x_grad", "convolve",
          "evaluate_state", "gradient_values"}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_at_m16(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script's import defaults, undone after the test
    out = tmp_path / "layers.json"
    assert load_script().main(["--out", str(out), "--cases", "3:16", "--repeats", "2"]) == 0
    data = json.loads(out.read_text())
    assert data["numpy"] and data["scipy"] and data["host"]["cpus"]
    assert data["threads"]["fft_workers"] == 1
    assert data["settings"]["min_calls"] == 3
    solves = data["cold_solves"]
    assert {name: (s["points_per_axis"], s["rc"]) for name, s in solves.items()} == {
        "ground_state": (64, 0), "saddle": (40, 0)}
    # one cold 64^3 ground-state solve held at most 17.5 MiB at once
    # (22.5 MiB while the caches kept the full grid's |x|^2 and weights)
    assert 0.0 < solves["ground_state"]["peak_mib"] <= 17.5
    assert solves["saddle"]["peak_mib"] > 0.0
    [case] = data["cases"]
    assert (case["dim"], case["points_per_axis"]) == (3, 16)
    assert set(case["layers"]) == LAYERS
    build = case["build_convolver"]
    assert 0.0 < build["q1_ms"] <= build["median_ms"] <= build["q3_ms"]
    assert build["peak_mib"] > 0.0
    for name, layer in case["layers"].items():
        for layout in ("full", "octant"):
            t = layer[layout]
            assert 0.0 < t["q1_ms"] <= t["median_ms"] <= t["q3_ms"], (name, layout)
            assert t["calls_per_sample"] >= 3, (name, layout)
            assert t["peak_mib"] > 0.0, (name, layout)
        assert layer["speedup"] > 0.0
        # the width-1.5 Gaussian is below 1e-13 on the face, so even the
        # face-split convolution agrees with the full grid to roundoff
        assert layer["rel_diff"] < 1e-13, name
