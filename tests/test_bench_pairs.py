"""``scripts/bench_pairs.py`` summarizes paired runs by the benchmark's rule:
the change wins at least 9 of all pairs run in 10, its median beats the
parent's by more than the parent's interquartile range, and no more of its
runs fail than the parent's."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(values):
    """One run per value; None is a run that failed its answer."""
    return [{"returncode": 0,
             "result": {"failed": int(v is None), "metrics": {"solve_s": {"value": v}}}}
            for v in values]


PARENT = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]


def test_nine_wins_and_a_wide_gap_hold():
    out = load_script().compare(
        {"parent": runs(PARENT), "change": runs([2.0] * 9 + [4.0])}, "solve_s", "lower"
    )
    assert out["pairs"] == 10 and out["change_wins"] == 9
    assert abs(out["parent"]["iqr"] - 0.45) < 1e-12  # quartiles 3.225 and 3.675
    assert out["claim_holds"]


def test_a_gap_inside_the_parent_spread_does_not_hold():
    out = load_script().compare(
        {"parent": runs(PARENT), "change": runs([v - 0.1 for v in PARENT])}, "solve_s", "lower"
    )
    assert out["change_wins"] == 10 and not out["claim_holds"]


def test_a_failed_change_run_is_a_lost_pair():
    out = load_script().compare(
        {"parent": runs(PARENT), "change": runs([2.0] * 9 + [None])}, "solve_s", "lower"
    )
    assert out["pairs"] == 10 and out["change_wins"] == 9
    assert out["failed_runs"] == {"parent": 0, "change": 1}
    assert not out["claim_holds"]


def test_a_run_without_output_is_failed():
    script = load_script()
    crashed = {"returncode": 1, "result": None}
    assert script.failed(crashed) and script.metric(crashed, "solve_s") is None
    out = script.compare(
        {"parent": runs(PARENT), "change": runs([2.0] * 8) + [crashed] * 2}, "solve_s", "lower"
    )
    assert out["pairs"] == 10 and out["change_wins"] == 8 and not out["claim_holds"]
