"""Tests of the benchmark's own code: metric names, span arithmetic, the
correctness gate and the count-repeatability check.

Run from the checkout root: python3 -m pytest perfbench/tests
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from choquard.errors import ChoquardError, NoDescentStep  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- metric names -----------------------------------------------------------


def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert declared == layers.PER_LAYER
    emitted = set(layers.summarize([])) | {"process.cpu_s", "trace.overhead_s"}
    assert emitted == {name for name, _ in declared}


def test_end_to_end_metrics_match_benchmark_json(monkeypatch, tmp_path):
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == run.END_TO_END
    monkeypatch.setattr(run, "set_up_in_child", lambda path: 0.5)
    fake = SimpleNamespace(solve=lambda rep, index: (0.01, 0.01), run_dir=tmp_path)
    emitted = run.plain_run(fake, [Path("config0.json")], seconds=0.0)
    assert list(emitted) == [name for name, _ in declared]
    assert all(v > 0 for v in emitted.values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


# --- spans and self time ----------------------------------------------------


def _span(i, name, start, end, parent=None, info=None):
    return Span(i, name, start, end, parent, "t", info)


def test_self_time_subtracts_covered_child_intervals_once():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        _span(3, "c", 8.0, 12.0, 0),  # clipped to the parent's end
        _span(4, "a.child", 2.0, 3.0, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_summarize_on_a_synthetic_tree():
    spans = [
        _span(0, "flow.solve", 0.0, 10.0, None, {"iterations": 2}),
        _span(1, "flow.descend", 0.5, 9.5, 0, {"accepted": 2}),
        _span(2, "energy.evaluate", 1.0, 3.0, 1),  # start of the descent
        _span(3, "riesz.convolve", 1.5, 2.5, 2, {"bytes": 100}),
        _span(4, "energy.evaluate", 4.0, 5.0, 1),  # three line-search trials
        _span(5, "energy.evaluate", 5.0, 6.0, 1),
        _span(6, "energy.evaluate", 6.0, 7.0, 1),
        _span(7, "grid.spectral", 7.0, 7.5, 1),
        _span(8, "grid.spectral", 7.1, 7.2, 7),  # nested: counted, not timed twice
    ]
    m = layers.summarize(spans)
    assert m["energy.evaluate.calls"] == 4
    assert m["energy.evaluate.s"] == pytest.approx(5.0)
    assert m["energy.evaluate.self_s"] == pytest.approx(4.0)
    assert m["riesz.convolve.ms_per_call"] == pytest.approx(1000.0)
    assert m["riesz.convolve.bytes_computed"] == 100
    assert m["grid.spectral.calls"] == 2
    assert m["grid.spectral.s"] == pytest.approx(0.5)
    assert m["flow.solves"] == 1 and m["flow.iterations"] == 2
    assert m["flow.line_search.accept_ratio"] == pytest.approx(2 / 3)
    assert m["flow.self_s"] == pytest.approx(1.0 + 9.0 - 5.0 - 0.5)
    assert m["grid.dilate.calls"] == 0 and m["saddle.line_search.accept_ratio"] == 0.0


def test_tracer_wraps_records_parents_and_restores():
    inner = SimpleNamespace()
    inner.leaf = lambda x: x + 1
    outer = SimpleNamespace()
    outer.top = lambda x: inner.leaf(x) * 2

    def boom():
        raise ValueError("boom")

    outer.boom = boom
    tracer = Tracer()
    originals = (inner.leaf, outer.top, outer.boom)
    def bad_hook(args, result):
        raise IndexError("result layout changed")

    tracer.install([(outer, "top", "top", None), (inner, "leaf", "leaf", bad_hook),
                    (outer, "boom", "boom", None), (outer, "gone", "gone", None),
                    (None, "engine_method", "gone too", None)])
    tracer.trace_id = "r1"
    with tracer.region("request"):
        assert outer.top(1) == 4
        with pytest.raises(ValueError):
            outer.boom()
    tracer.uninstall()
    assert (inner.leaf, outer.top, outer.boom) == originals
    names = {s.name: s for s in tracer.spans}
    assert names["top"].parent == names["request"].id
    assert names["leaf"].parent == names["top"].id
    assert names["boom"].end >= names["boom"].start > 0.0
    assert {s.trace for s in tracer.spans} == {"r1"}
    assert names["leaf"].info == {"info_error": "IndexError('result layout changed')"}
    assert len(tracer.missing) == 2 and tracer.missing[0].endswith(".gone")


# --- correctness gate -------------------------------------------------------


def _ground_state_report(energy=workloads.GROUND_STATE_ENERGY, drift=0.0):
    return {"result": {"converged": True, "residuals": {"mass_drift": drift},
                       "energy": {"total": energy}}}


def _saddle_report(level=workloads.SADDLE_LEVEL):
    return {"result": {
        "converged": True,
        "energy": {"total": level, "grad_sq_u": 1.0, "grad_sq_v": 1.0},
        "residuals": {"pohozaev": 1e-7, "multiplier_identity_gap": 1e-7},
        "multipliers": {"lambda1": 0.47, "lambda2": 0.47},
    }}


GEOMETRY = SimpleNamespace(separated=True, inf_barrier_estimate=0.2)


def test_gate_accepts_reference_answers():
    assert workloads.gate("ground_state", 0, _ground_state_report()) == []
    assert workloads.gate("saddle", 0, _saddle_report(), geometry=GEOMETRY) == []


def test_gate_flags_perturbed_energies():
    e = workloads.GROUND_STATE_ENERGY * (1 + 1e-6)
    assert len(workloads.gate("ground_state", 0, _ground_state_report(energy=e))) == 1
    assert len(workloads.gate("ground_state", 0, _ground_state_report(drift=1e-9))) == 1
    level = workloads.SADDLE_LEVEL * (1 + 1e-6)
    assert len(workloads.gate("saddle", 0, _saddle_report(level), geometry=GEOMETRY)) == 1
    low_barrier = SimpleNamespace(separated=True, inf_barrier_estimate=1.0)
    assert len(workloads.gate("saddle", 0, _saddle_report(), geometry=low_barrier)) == 1


def test_gate_counts_errors_and_exit_codes_as_failed_answers():
    assert workloads.gate("ground_state", None, None, "NoDescentStep: x") == ["raised NoDescentStep: x"]
    assert workloads.gate("saddle", None, None, "Stalled: x") == ["raised Stalled: x"]
    assert workloads.gate("saddle", 3, _saddle_report(), geometry=GEOMETRY) == ["exit code 3"]


def test_solver_counts_a_raised_error_as_a_failed_answer(tmp_path):
    def raise_error(cfg, out):
        raise NoDescentStep("step size underflowed")

    cq = SimpleNamespace(
        ChoquardError=ChoquardError,
        cli=SimpleNamespace(parse_config=lambda path: path, run=raise_error),
        saddle=SimpleNamespace(check_geometry=None),
    )
    solver = run.Solver(cq, "ground_state", [tmp_path / "config0.json"], tmp_path)
    wall, cpu = solver.solve(0, 0)
    assert wall >= 0.0 and math.isfinite(cpu)
    assert solver.attempted == 1
    assert len(solver.failures) == 1 and "NoDescentStep" in solver.failures[0]


# --- inputs and count repeatability -----------------------------------------


def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
    a, b = workloads.make_inputs("ground_state", 3), workloads.make_inputs("ground_state", 4)
    assert a != b
    for cfg in a + b:
        assert 1.2 <= cfg["init"]["width_u"] <= 1.8 and 1.2 <= cfg["init"]["width_v"] <= 1.8


def test_window_makes_the_nearest_whole_number_of_calls(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def calls(seconds, duration):
        made = []

        def step(rep):
            made.append(rep)
            clock[0] += duration
            return duration

        run.window(seconds, step)
        return len(made)

    assert calls(50.0, 18.0) == 3  # the third call ends 4 s late
    assert calls(50.0, 21.0) == 2  # a third would end 13 s late
    assert calls(50.0, 8.0) == 6
    assert calls(0.0, 8.0) == 1

def test_registry_flags_counts_that_change_between_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    counts = {"riesz.convolve.calls": 78, "flow.iterations": 27}
    assert run.check_registry("k", counts) == []
    assert run.check_registry("k", dict(counts)) == []
    changed = run.check_registry("k", {"riesz.convolve.calls": 80, "flow.iterations": 27})
    assert changed == ["riesz.convolve.calls: 80 != 78 recorded by an earlier run"]
    assert run.check_registry("other", {"flow.iterations": 1}) == []
