"""Config parsing, run orchestration, artifacts and exit codes."""

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st

import choquard as cq
from choquard.cli import main, parse_config, run


def tiny_minimize_config(**overrides):
    cfg = {
        "mode": "minimize",
        "grid": {"dim": 3, "half_extent": 8.0, "points_per_axis": 16},
        "model": {
            "alpha": 2.0, "p": 2.0, "q": 2.0, "mu1": 5.0, "mu2": 5.0,
            "xi": 1.0, "eta": 1.0,
            "coupling": {"kind": "constant", "beta0": 0.1},
        },
        "flow": {"max_iters": 400, "grad_tol": 1e-4, "symmetrize_every": 10},
        "init": {"width_u": 1.5, "width_v": 1.5},
        "seed": 1,
    }
    cfg.update(overrides)
    return cfg


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParse:
    def test_minimal_valid(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, tiny_minimize_config()))
        assert cfg.mode == "minimize"
        assert cfg.grid.points_per_axis == 16
        assert cfg.params.mu1 == 5.0
        assert cfg.resolved["model"]["coupling"]["beta0"] == 0.1

    def test_missing_mode(self, tmp_path):
        payload = tiny_minimize_config()
        del payload["mode"]
        with pytest.raises(cq.SchemaError, match="mode"):
            parse_config(write_config(tmp_path, payload))

    def test_exponent_at_upper_limit_rejected(self, tmp_path):
        payload = tiny_minimize_config()
        payload["model"]["p"] = 5.0  # (N + alpha)/(N - 2) = 5 at N=3, alpha=2
        with pytest.raises(cq.RangeError, match="admissible window"):
            parse_config(write_config(tmp_path, payload))

    def test_unknown_field(self, tmp_path):
        payload = tiny_minimize_config()
        payload["extra"] = 1
        with pytest.raises(cq.SchemaError, match="unknown field"):
            parse_config(write_config(tmp_path, payload))

    def test_bad_grid(self, tmp_path):
        payload = tiny_minimize_config()
        payload["grid"]["points_per_axis"] = 15
        with pytest.raises(cq.RangeError):
            parse_config(write_config(tmp_path, payload))

    def test_missing_file(self, tmp_path):
        with pytest.raises(cq.SchemaError, match="does not exist"):
            parse_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config(self, tmp_path, capsys, kind):
        path = tmp_path / "run.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{")
        assert main(["minimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {path}: cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("field, literal", [
        ("xi", "NaN"), ("mu1", "Infinity"), ("mu2", "-Infinity"), ("eta", "1e999"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, field, literal):
        payload = tiny_minimize_config()
        payload["model"][field] = "@"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload).replace('"@"', literal))
        with pytest.raises(cq.SchemaError, match=f"number {literal} is not finite"):
            parse_config(path)
        code = main(["minimize", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spec", ["coupling", "v1"])
    def test_missing_tabulated_file(self, tmp_path, capsys, spec):
        payload = tiny_minimize_config()
        payload["model"][spec] = {"kind": "tabulated", "path": str(tmp_path / "nope.npy")}
        path = write_config(tmp_path, payload)
        with pytest.raises(cq.SchemaError, match=f"config.model.{spec}.path"):
            parse_config(path)
        assert main(["minimize", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"config error: config.model.{spec}.path" in capsys.readouterr().err

    @pytest.mark.parametrize("case, expected", [
        ("tabulated coupling shape", "config.model.coupling.path"),
        ("tabulated potential shape", "config.model.v2.path"),
        ("tabulated saddle coupling", "config.model.coupling"),
        ("flow step", "config.flow"),
        ("saddle step", "config.saddle"),
        ("saddle iterations", "config.saddle"),
        ("alpha above dim", "alpha must lie in (0, 1)"),
        ("decreasing scan masses", "config.scan.xi_list"),
        ("no scan starts", "config.scan.n_starts"),
        ("negative seed", "config.seed"),
        ("negative seed override", "--seed"),
        ("unread coupling field", "config.model.coupling.decay: unknown field"),
        ("path on a built-in kind", "config.model.v1.path: unknown field"),
        ("family field on a table", "config.model.coupling.beta0: unknown field"),
    ])
    def test_rejected_at_parse(self, tmp_path, capsys, case, expected):
        payload = tiny_minimize_config()
        flags = []
        table = tmp_path / "table.npy"
        tabulated = {"kind": "tabulated", "path": str(table)}
        np.save(table, np.full((7,), 0.01))
        if case == "tabulated coupling shape":
            payload["model"]["coupling"] = tabulated
        elif case == "tabulated potential shape":
            payload["model"]["v2"] = tabulated
        elif case == "tabulated saddle coupling":
            np.save(table, np.full((16,) * 3, 0.01))
            payload["mode"] = "saddle"
            payload["model"].update(p=3.0, q=3.0, coupling=tabulated)
        elif case == "flow step":
            payload["flow"]["initial_step"] = -1
        elif case == "saddle step":
            payload["saddle"] = {"initial_step": 0.0}
        elif case == "saddle iterations":
            payload["saddle"] = {"max_iters": 0}
        elif case == "alpha above dim":
            payload["grid"].update(dim=1, points_per_axis=32)
            payload["model"]["alpha"] = 1.5
        elif case == "negative seed":
            payload["seed"] = -1
        elif case == "negative seed override":
            flags = ["--seed", "-1"]
        elif case == "unread coupling field":
            payload["model"]["coupling"] = {"kind": "constant", "beta0": 0.1, "decay": 2.0}
        elif case == "path on a built-in kind":
            payload["model"]["v1"] = {"kind": "harmonic", "path": str(table)}
        elif case == "family field on a table":
            np.save(table, np.full((16,) * 3, 0.01))
            payload["model"]["coupling"] = {**tabulated, "beta0": 0.1}
        else:
            payload["mode"] = "scan"
            payload["scan"] = {"xi_list": [1.0, 0.5], "eta_list": [0.0, 1.0]}
            if case == "no scan starts":
                payload["scan"].update(xi_list=[0.5, 1.0], n_starts=0)
        path = write_config(tmp_path, payload)
        code = main([payload["mode"], "--config", str(path), "--out", str(tmp_path / "out")] + flags)
        assert code == 2
        assert f"config error: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_relative_table_path(self, tmp_path, monkeypatch):
        # a relative .npy path is read next to the config, not in the cwd
        (tmp_path / "conf").mkdir()
        np.save(tmp_path / "conf" / "table.npy", np.full((16,) * 3, 0.01))
        payload = tiny_minimize_config()
        payload["model"]["coupling"] = {"kind": "tabulated", "path": "table.npy"}
        path = write_config(tmp_path / "conf", payload)
        monkeypatch.chdir(tmp_path)
        assert np.all(parse_config(path).params.coupling.values == 0.01)

    def test_table_echoed_by_path_and_digest(self, tmp_path):
        # two runs with different tables must not report the same config,
        # even when both configs name the same relative path
        payload = tiny_minimize_config()
        payload["model"]["coupling"] = {"kind": "tabulated", "path": "table.npy"}
        echoes = []
        for value in (0.01, 0.02):
            run_dir = tmp_path / str(value)
            run_dir.mkdir()
            table = np.full((16,) * 3, value)
            np.save(run_dir / "table.npy", table)
            resolved = parse_config(write_config(run_dir, payload)).resolved["model"]
            assert resolved["coupling"] == {
                "kind": "tabulated", "path": "table.npy",
                "sha256": hashlib.sha256(table.tobytes()).hexdigest()}
            assert resolved["v1"] == {"kind": "zero"}
            echoes.append(resolved["coupling"])
        assert echoes[0] != echoes[1]

    @pytest.mark.parametrize("table, key, value, expected", [
        (None, "threads", 2**64, "config.threads"),
        ("scan", "n_starts", 2**64, "config.scan.n_starts"),
        ("init", "width_u", 1e300, "config.init.width_u"),
        ("init", "width_u", 0.0, "config.init.width_u"),
        ("init", "width_v", -1.5, "config.init.width_v"),
        ("grid", "half_extent", 5e-324, "config.grid"),
    ])
    def test_out_of_range_at_parse(self, tmp_path, capsys, table, key, value, expected):
        payload = tiny_minimize_config(mode="scan")
        payload["scan"] = {"xi_list": [0.5, 1.0], "eta_list": [0.5, 1.0]}
        (payload[table] if table else payload)[key] = value
        path = write_config(tmp_path, payload)
        assert main(["scan", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {expected}" in capsys.readouterr().err

    def test_grid_capped_by_convolution_workspace(self, tmp_path):
        # parse only: a run would allocate the (2M)^3 padded convolution arrays
        payload = tiny_minimize_config()
        payload["grid"]["points_per_axis"] = 512
        with pytest.raises(cq.RangeError, match=r"^config\.grid: grid too large"):
            parse_config(write_config(tmp_path, payload))
        payload["grid"]["points_per_axis"] = 256
        assert parse_config(write_config(tmp_path, payload)).grid.size == 256**3

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_shipped_config_echo(self, name):
        # the echo restates every value the file gives and fills in the rest
        raw = json.loads((CONFIGS / name).read_text())
        grid = raw["grid"]
        expected = {
            "mode": raw["mode"],
            "grid": {**grid, "spacing": 2.0 * grid["half_extent"] / grid["points_per_axis"]},
            "model": {
                "dim": grid["dim"], "mu1": 1.0, "mu2": 1.0, "xi": 1.0, "eta": 1.0,
                "coupling": {"kind": "constant", "beta0": 0.0},
                "v1": {"kind": "zero"}, "v2": {"kind": "zero"}, **raw["model"],
            },
            "flow": {**dataclasses.asdict(cq.FlowOptions()), **raw.get("flow", {})},
            "saddle": {**dataclasses.asdict(cq.SaddleOptions()), **raw.get("saddle", {})},
            "scan": {"xi_list": [], "eta_list": [], "n_starts": 3, **raw.get("scan", {})},
            "init": {"width_u": None, "width_v": None, **raw.get("init", {})},
            "seed": raw.get("seed", 0),
            "threads": raw.get("threads", 1),
        }
        assert parse_config(CONFIGS / name).resolved == expected

    def test_scan_needs_lists(self, tmp_path):
        payload = tiny_minimize_config(mode="scan")
        with pytest.raises(cq.SchemaError, match="xi_list"):
            parse_config(write_config(tmp_path, payload))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
FUZZED_FIELDS = [
    ("mode",), ("seed",), ("threads",), ("extra",),
    ("grid",), ("grid", "dim"), ("grid", "half_extent"), ("grid", "points_per_axis"),
    ("model",), ("model", "dim"), ("model", "alpha"), ("model", "p"), ("model", "q"),
    ("model", "mu1"), ("model", "xi"), ("model", "eta"),
    ("model", "coupling"), ("model", "coupling", "kind"), ("model", "coupling", "beta0"),
    ("model", "coupling", "decay"), ("model", "coupling", "path"),
    ("model", "v1"), ("model", "v1", "kind"), ("model", "v2", "stiffness"),
    ("flow",), ("flow", "max_iters"), ("flow", "initial_step"), ("flow", "step_rule"),
    ("flow", "precondition"), ("saddle",), ("saddle", "initial_step"), ("saddle", "s_min"),
    ("scan",), ("scan", "xi_list"), ("scan", "n_starts"), ("init",), ("init", "width_u"),
]


class TestParseFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(field=st.sampled_from(FUZZED_FIELDS), value=JSON_VALUES)
    def test_only_config_errors_escape(self, tmp_path_factory, field, value):
        # a tiny 1-D config with one field set to an arbitrary JSON value
        payload = {
            "mode": "minimize",
            "grid": {"dim": 1, "half_extent": 8.0, "points_per_axis": 16},
            "model": {"alpha": 0.5, "p": 2.0, "q": 2.0,
                      "coupling": {"kind": "constant", "beta0": 0.1}},
            "flow": {"max_iters": 10},
        }
        table = payload
        for key in field[:-1]:
            table = table.setdefault(key, {})
        table[field[-1]] = value
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(payload))
        try:
            parse_config(path)
        except (cq.SchemaError, cq.RangeError):
            pass


def main_fuzz_payload(mode):
    # a tiny 1-D run: M = 16 and at most 10 iterations per solve
    p = 4.0 if mode in ("saddle", "check") else 2.0
    return {
        "mode": mode,
        "grid": {"dim": 1, "half_extent": 8.0, "points_per_axis": 16},
        "model": {"alpha": 0.5, "p": p, "q": p, "coupling": {"kind": "constant", "beta0": 0.1}},
        "flow": {"max_iters": 10},
        "saddle": {"max_iters": 10},
        "scan": {"xi_list": [0.5, 1.0], "eta_list": [0.5, 1.0], "n_starts": 1},
    }


# fields whose value scales the work of a run (iteration and start counts,
# grid size, whole option tables) stay at the payload's tiny values
MAIN_FUZZED_FIELDS = [
    f for f in FUZZED_FIELDS
    if f not in {("flow",), ("flow", "max_iters"), ("saddle",), ("scan", "n_starts"),
                 ("grid", "points_per_axis")}
] + [
    ("model", "mu2"), ("model", "v1", "depth"), ("model", "v1", "width"), ("model", "v2"),
    ("flow", "energy_tol"), ("flow", "grad_tol"), ("flow", "symmetrize_every"),
    ("saddle", "grad_tol"), ("saddle", "pohozaev_rel_tol"), ("init", "width_v"),
    ("scan", "eta_list"),
]
EXTREME_NUMBERS = st.sampled_from([0, -1, 2**64, 5e-324, 1e-300, 1e-12, 1e300, -1e300]) | st.floats(
    allow_nan=False, allow_infinity=False
) | st.integers(min_value=-5, max_value=40)


class TestMainFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        mode=st.sampled_from(cq.cli._MODES),
        field=st.sampled_from(MAIN_FUZZED_FIELDS),
        value=JSON_VALUES | EXTREME_NUMBERS,
    )
    @example(mode="check", field=("model", "alpha"), value=1e-12)
    @example(mode="saddle", field=("model", "xi"), value=1e200)
    @example(mode="scan", field=("grid", "half_extent"), value=0.5)
    def test_only_exit_codes_escape(self, tmp_path_factory, mode, field, value):
        payload = main_fuzz_payload(mode)
        table = payload
        for key in field[:-1]:
            table = table.setdefault(key, {})
        table[field[-1]] = value
        out = tmp_path_factory.mktemp("main_fuzz")
        path = out / "run.json"
        path.write_text(json.dumps(payload))
        assert main([mode, "--config", str(path), "--out", str(out / "out")]) in {0, 2, 3, 4}


class TestExtremeModels:
    """Fuzz-found models that the fuzz's derandomized examples do not reach."""

    @pytest.mark.parametrize("mode", cq.cli._MODES)
    def test_alpha_below_floor_rejected_at_parse(self, tmp_path, capsys, mode):
        payload = main_fuzz_payload(mode)
        payload["model"]["alpha"] = 1e-7
        path = write_config(tmp_path, payload)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config error: alpha = 1e-07 is below" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["saddle", "check"])
    def test_overflowing_barrier_constant_is_a_solver_error(self, tmp_path, capsys, mode):
        # mu1 this large makes the barrier constant overflow to inf
        payload = main_fuzz_payload(mode)
        payload["model"]["mu1"] = 1.1148454871493666e308
        path = write_config(tmp_path, payload)
        assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "RangeError"
        assert "Traceback" not in capsys.readouterr().err


class TestRunMinimize:
    def test_artifacts_and_exit(self, tmp_path):
        path = write_config(tmp_path, tiny_minimize_config())
        code = main(["minimize", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["mode"] == "minimize"
        assert report["config"]["model"]["mu1"] == 5.0  # audit trail
        assert report["result"]["converged"] is True
        assert report["result"]["energy"]["total"] < 0
        profile = (tmp_path / "out" / "profiles.csv").read_text().splitlines()
        assert profile[0] == "r,u,v,v1,v2,beta"
        assert len(profile) == 1 + 8  # M/2 radial samples

    def test_solver_failure_exit(self, tmp_path):
        payload = tiny_minimize_config()
        payload["flow"] = {"max_iters": 3, "grad_tol": 1e-12, "energy_tol": 1e-14}
        path = write_config(tmp_path, payload)
        code = main(["minimize", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        assert (tmp_path / "out" / "report.json").exists()

    def test_mode_subcommand_mismatch(self, tmp_path):
        path = write_config(tmp_path, tiny_minimize_config())
        assert main(["scan", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_config_error_exit(self, tmp_path):
        payload = tiny_minimize_config()
        payload["model"]["p"] = 5.0
        path = write_config(tmp_path, payload)
        assert main(["minimize", "--config", str(path), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_override_below_one(self, tmp_path, capsys, threads):
        path = write_config(tmp_path, tiny_minimize_config())
        code = main(["minimize", "--config", str(path), "--threads", threads,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: --threads" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
        assert scipy.fft.get_workers() == 1

    def test_error_record_on_solver_exception(self, tmp_path):
        payload = tiny_minimize_config()
        payload["model"]["p"] = 3.0  # supercritical: minimize must refuse
        payload["model"]["q"] = 3.0
        path = write_config(tmp_path, payload)
        code = main(["minimize", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "NotSubcritical"


class TestRunSaddle:
    def test_matches_library_solve(self, tmp_path):
        # the p = q = 3, mu = 60 saddle of tests/test_saddle.py on its M = 48 grid
        model = {"alpha": 2.0, "p": 3.0, "q": 3.0, "mu1": 60.0, "mu2": 60.0,
                 "coupling": {"kind": "constant", "beta0": 0.015}}
        saddle = {"max_iters": 300, "grad_tol": 2e-5, "pohozaev_rel_tol": 1e-6}
        payload = tiny_minimize_config(
            mode="saddle", grid={"dim": 3, "half_extent": 10.0, "points_per_axis": 48},
            model=model, saddle=saddle, init={"width_u": 1.2, "width_v": 1.2},
        )
        del payload["flow"]
        path = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["saddle", "--config", str(path), "--out", str(tmp_path / "out")])
            grid = cq.GridSpec(3, 10.0, 48)
            bump = cq.gaussian_field(grid, 1.2, mass=1.0)
            params = cq.ModelParams(
                dim=3, **{**model, "coupling": cq.CouplingSpec("constant", 0.015)}, xi=1.0, eta=1.0
            )
            lib = cq.mountain_pass_solve(
                params, cq.StatePair(bump, bump.copy()), cq.SaddleOptions(**saddle)
            )
        assert code == 0
        result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
        assert result["converged"] is True
        assert abs(result["energy"]["total"] - lib.energy.total) <= 1e-10
        assert (tmp_path / "out" / "profiles.csv").exists()


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        path = write_config(tmp_path, tiny_minimize_config())
        for name in ("a", "b"):
            assert main(["minimize", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        for fname in ("report.json", "profiles.csv"):
            a = (tmp_path / "a" / fname).read_bytes()
            b = (tmp_path / "b" / fname).read_bytes()
            assert a == b

    @pytest.mark.parametrize("widths, digest", [
        ((1.5, 1.5), "2c959efc4fa56b1cf79047fda2ac823a091feb95fbc1b578ad5465a474d3474a"),
        ((1.5, 1.2), "2138133899b4bd9ee5d8dc6a492df39d2ed85530148d214367de79811256c9aa"),
    ], ids=["mirrored", "diagonal-rule"])
    def test_constant_coupling_report_is_unchanged(self, tmp_path, widths, digest):
        # the sha256 of report.json recorded when beta = 0.1 was sampled on
        # every grid point: holding it as its value changes no byte
        payload = tiny_minimize_config(init={"width_u": widths[0], "width_v": widths[1]})
        assert run(parse_config(write_config(tmp_path, payload)), tmp_path / "out") == 0
        data = (tmp_path / "out" / "report.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_seed_override_changes_default_init(self, tmp_path):
        payload = tiny_minimize_config()
        del payload["init"]
        path = write_config(tmp_path, payload)
        outs = []
        for seed, name in ((1, "s1"), (2, "s2")):
            main(["minimize", "--config", str(path), "--seed", str(seed),
                  "--out", str(tmp_path / name)])
            outs.append(json.loads((tmp_path / name / "report.json").read_text()))
        assert outs[0]["config"]["seed"] == 1 and outs[1]["config"]["seed"] == 2


class TestCheckMode:
    def test_admissible_coupling_passes(self, tmp_path):
        payload = tiny_minimize_config(mode="check")
        payload["model"].update(p=3.0, q=3.0, mu1=60.0, mu2=60.0)
        payload["model"]["coupling"] = {"kind": "constant", "beta0": 0.01}
        path = write_config(tmp_path, payload)
        code = main(["check", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        assert report["result"]["coupling"]["condition3_ok"] is True
        assert "geometry" in report["result"]

    def test_inadmissible_coupling_fails(self, tmp_path):
        payload = tiny_minimize_config(mode="check")
        payload["model"].update(p=3.0, q=3.0, mu1=60.0, mu2=60.0)
        payload["model"]["coupling"] = {"kind": "constant", "beta0": 5.0}
        path = write_config(tmp_path, payload)
        code = main(["check", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 4
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        assert report["result"]["coupling"]["sup_ok"] is False

    def test_potential_classes_reported(self, tmp_path):
        payload = tiny_minimize_config(mode="check")
        payload["model"]["v1"] = {"kind": "gaussian_well", "depth": 1.0, "width": 1.0}
        payload["model"]["v2"] = {"kind": "harmonic", "stiffness": 1.0}
        path = write_config(tmp_path, payload)
        code = main(["check", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["result"]["v1"]["label"] == "V1"
        assert report["result"]["v2"]["label"] == "V2"

    def test_tabulated_trap_falls_back_to_v2(self, tmp_path):
        # a tabulated potential is first checked as a vanishing well (V1);
        # a trap fails that and is then reported against the V2 class
        payload = tiny_minimize_config(mode="check")
        grid = cq.GridSpec(3, 8.0, 16)
        np.save(tmp_path / "trap.npy", grid.radius_sq())
        payload["model"]["v1"] = {"kind": "tabulated", "path": "trap.npy"}
        path = write_config(tmp_path, payload)
        code = main(["check", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        assert report["result"]["v1"]["label"] == "V2"
        assert report["result"]["v1"]["requested"] == "V2"
        assert report["result"]["v1"]["passed"] is True


class TestProfiles:
    """profiles.csv samples V1, V2 and beta on its ray only; its bytes are
    those of reading the ray out of the full grid's samples, for every
    built-in kind and a table."""

    @staticmethod
    def full_grid_text(cfg, state):
        r, u = cq.radial_profile(state.u)
        _, v = cq.radial_profile(state.v)
        c = cfg.grid.points_per_axis // 2
        ray = (slice(c, None),) + (c,) * (cfg.grid.dim - 1)
        p = cfg.params
        v1, v2 = (cq.model.potential_values(spec, cfg.grid)[ray] for spec in (p.v1, p.v2))
        beta = cq.model.coupling_values(p.coupling, cfg.grid)[ray]
        rows = ["r,u,v,v1,v2,beta"] + [",".join(repr(float(x)) for x in vals)
                                       for vals in zip(r, u, v, v1, v2, beta)]
        return "\n".join(rows) + "\n"

    @pytest.mark.parametrize("dim,m", [(1, 32), (2, 16), (3, 16)])
    def test_ray_samples_are_the_full_grid_samples(self, tmp_path, dim, m):
        from types import SimpleNamespace

        from choquard.cli import _write_profiles

        g = cq.GridSpec(dim, 5.5, m)
        rng = np.random.default_rng(dim)
        state = cq.StatePair(cq.ScalarField(g, rng.standard_normal(g.shape)),
                             cq.ScalarField(g, rng.standard_normal(g.shape)))
        potentials = [cq.PotentialSpec("zero"), cq.PotentialSpec("gaussian_well", 1.3, 1.7),
                      cq.PotentialSpec("harmonic", stiffness=0.37),
                      cq.PotentialSpec("tabulated", values=rng.standard_normal(g.shape))]
        couplings = [cq.CouplingSpec("constant", 0.0), cq.CouplingSpec("constant", 0.1),
                     cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0),
                     cq.CouplingSpec("tabulated", values=rng.standard_normal(g.shape))]
        for i, (v1, v2, coupling) in enumerate(zip(potentials, potentials[::-1], couplings)):
            cfg = SimpleNamespace(grid=g, params=SimpleNamespace(v1=v1, v2=v2, coupling=coupling))
            _write_profiles(tmp_path / f"profiles{i}.csv", cfg, state)
            got = (tmp_path / f"profiles{i}.csv").read_text()
            assert got == self.full_grid_text(cfg, state), (v1.kind, v2.kind, coupling.kind)


class TestOracleMode:
    def test_equivalence_passes(self, tmp_path):
        payload = tiny_minimize_config(mode="oracle")
        payload["grid"] = {"dim": 2, "half_extent": 6.0, "points_per_axis": 24}
        payload["model"]["alpha"] = 1.2
        path = write_config(tmp_path, payload)
        code = main(["oracle", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["result"]["max_rel_linf_error"] < 1e-8


class TestScanMode:
    def test_scan_artifacts_and_monotone_with_wells(self, tmp_path):
        payload = tiny_minimize_config(mode="scan")
        payload["model"].update(p=1.8, q=1.8, mu1=8.0, mu2=8.0)
        payload["model"]["v1"] = {"kind": "gaussian_well", "depth": 0.5, "width": 2.0}
        payload["model"]["v2"] = {"kind": "gaussian_well", "depth": 0.5, "width": 2.0}
        payload["scan"] = {"xi_list": [1.0, 2.0], "eta_list": [1.0, 2.0], "n_starts": 2}
        payload["flow"] = {"max_iters": 400, "grad_tol": 1e-4}
        path = write_config(tmp_path, payload)
        code = main(["scan", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        rows = (tmp_path / "out" / "scan.csv").read_text().splitlines()
        assert rows[0] == "xi,eta,energy,converged,iterations"
        assert len(rows) == 1 + 4
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        energies = np.array(report["result"]["energies"])
        assert energies.shape == (2, 2)
        assert np.all(energies < 0)
        # every row's energy is a plain number equal to the report's
        for row, want in zip(rows[1:], energies.ravel()):
            assert float(row.split(",")[2]) == want
        # deeper problems at larger masses: nonincreasing along each axis
        assert np.all(np.diff(energies, axis=0) <= 1e-3)
        assert np.all(np.diff(energies, axis=1) <= 1e-3)


class TestThreads:
    def test_energies_agree_across_worker_counts(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, tiny_minimize_config())
        solve = cq.cli.minimize_normalized
        inside = []
        monkeypatch.setattr(
            cq.cli, "minimize_normalized",
            lambda *a: inside.append(scipy.fft.get_workers()) or solve(*a),
        )
        totals = []
        for threads, name in ((1, "t1"), (2, "t2")):
            code = main(["minimize", "--config", str(path), "--threads", str(threads),
                         "--out", str(tmp_path / name)])
            assert code == 0
            assert scipy.fft.get_workers() == 1
            rep = json.loads((tmp_path / name / "report.json").read_text())
            totals.append(rep["result"]["energy"]["total"])
        assert inside == [1, 2]
        assert abs(totals[0] - totals[1]) <= 1e-10 * max(1.0, abs(totals[0]))


class TestShippedConfigsUseEvenSubspace:
    """Every shipped solve config is reflection-even, so each of its solves
    descends on the octant convolution and makes full-grid convolutions only
    for its certificate.  The check and oracle configs solve nothing."""

    @pytest.mark.parametrize("name", ["minimize.json", "saddle.json", "scan.json"])
    def test_full_grid_convolutions_per_solve(self, name, tmp_path, monkeypatch):
        cfg = parse_config(CONFIGS / name)
        cfg.flow = dataclasses.replace(cfg.flow, max_iters=3)
        cfg.saddle = dataclasses.replace(cfg.saddle, max_iters=2)
        counts = {"full": 0, "even": 0}

        def counting(conv, values, _f=cq.energy.riesz_convolve_values):
            counts["even" if cq.grid.on_octant(conv.grid, values) else "full"] += 1
            return _f(conv, values)

        monkeypatch.setattr(cq.energy, "riesz_convolve_values", counting)
        per_solve = []
        for module, fn in ((cq.flow, "_descend"), (cq.saddle, "_saddle_descend")):
            original = getattr(module, fn)

            def solve(engine, *args, _f=original):
                before = dict(counts)
                out = _f(engine, *args)
                per_solve.append((counts["full"] - before["full"], counts["even"] - before["even"]))
                return out

            monkeypatch.setattr(module, fn, solve)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run(cfg, tmp_path)
        assert len(per_solve) == (27 if cfg.mode == "scan" else 1)
        assert all(full <= 2 and even > 0 for full, even in per_solve), per_solve
