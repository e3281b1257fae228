"""Configuration parsing, run orchestration and report emission.

Subcommands: ``minimize`` (subcritical ground state), ``saddle``
(supercritical mountain pass), ``scan`` (mass-grid ground-state map),
``check`` (coupling/potential validators + saddle geometry), ``oracle``
(fast-vs-direct convolution equivalence).

A run reads one JSON config, executes the mode and writes machine-readable
artifacts into the output directory:

* ``report.json``   -- resolved config echo plus the mode's results
* ``profiles.csv``  -- radial slices r, u(r), v(r), V1(r), V2(r), beta(r)
* ``scan.csv``      -- xi, eta, energy, converged, iterations (scan mode)
* ``error.json``    -- machine-readable error record on failure

Each model field of a config is named once: the ``FIELDS`` table of
``CouplingSpec`` and ``PotentialSpec`` lists the fields each kind reads,
whose defaults are the dataclass's, and ``_MODEL_NUMBERS`` the model's
numbers with theirs (``_MODEL_SPECS`` names the three family slots).
Parsing, the unknown-field check and the report's config echo all read
these tables; the grid's fields are those of ``GridSpec``.

Exit codes: 0 success, 2 config error, 3 solver failure, 4 validation
failure.  Reports contain no timestamps; a fixed (config, seed) pair gives
byte-identical output at a fixed thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft

from .errors import ChoquardError, RangeError, SchemaError
from .grid import GridSpec, ScalarField, StatePair, gaussian_field, radial_profile
from .model import (
    CouplingSpec,
    ModelParams,
    PotentialSpec,
    coupling_radial_values,
    potential_radial_values,
    validate_coupling,
    validate_potential,
)
from .flow import FlowOptions, SolveReport, check_scan_field, mass_scan, minimize_normalized
from .riesz import build_convolver, riesz_convolve, riesz_convolve_oracle
from .saddle import SaddleOptions, check_geometry, mountain_pass_solve

_MODES = ("minimize", "saddle", "scan", "check", "oracle")
_SCHEMA_VERSION = 1
_MAX_COUNT = 1024  # most FFT workers or scan starts a config may ask for

# the model's numbers with their defaults; None marks a required one
_MODEL_NUMBERS = {
    "alpha": None, "p": None, "q": None, "mu1": 1.0, "mu2": 1.0, "xi": 1.0, "eta": 1.0
}
# the model's family fields, each with its spec class and default kind
_MODEL_SPECS = {
    "coupling": (CouplingSpec, "constant"), "v1": (PotentialSpec, "zero"),
    "v2": (PotentialSpec, "zero"),
}


@dataclass
class RunConfig:
    """Fully validated run description with all defaults materialized."""

    mode: str
    grid: GridSpec
    params: ModelParams
    flow: FlowOptions
    saddle: SaddleOptions
    xi_list: list[float]
    eta_list: list[float]
    n_starts: int
    init_width_u: float | None
    init_width_v: float | None
    seed: int
    threads: int
    resolved: dict = field(repr=False, default_factory=dict)


def _expect(table: dict, key: str, kind, path: str, default=None, required=False):
    if key not in table:
        if required:
            raise SchemaError(f"{path}.{key}", "missing required field")
        return default
    val = table[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise SchemaError(f"{path}.{key}", f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _check_known(table: dict, allowed: set[str], path: str) -> None:
    for key in table:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown field")


def _load_table(table: dict, path: str, grid: GridSpec, here: Path) -> np.ndarray:
    """The ``.npy`` array at ``table["path"]``, relative to the config's directory ``here``."""
    npy = _expect(table, "path", str, path, required=True)
    try:
        values = np.load(here / npy)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"{path}.path", f"cannot load {npy!r}: {exc}") from exc
    shape = getattr(values, "shape", None)
    if shape != grid.shape:
        raise SchemaError(f"{path}.path", f"{npy!r} holds shape {shape}, the grid is {grid.shape}")
    return values


def _parse_family(table: dict, path: str, spec_cls, grid: GridSpec, here: Path):
    """A ``CouplingSpec`` or ``PotentialSpec`` of a kind in its ``FIELDS``: a
    built-in kind with only the fields it reads, each left out taking the
    dataclass's default, or a ``tabulated`` one with only a ``path``."""
    kind = _expect(table, "kind", str, path, required=True)
    if kind == "tabulated":
        _check_known(table, {"kind", "path"}, path)
        return spec_cls(kind, values=_load_table(table, path, grid, here))
    if kind not in spec_cls.FIELDS:
        raise SchemaError(f"{path}.kind", f"unknown kind {kind!r}, expected one of "
                          f"{tuple(spec_cls.FIELDS)}")
    _check_known(table, {"kind", *spec_cls.FIELDS[kind]}, path)
    fields = {key: _expect(table, key, float, path) for key in table if key != "kind"}
    return spec_cls(kind, **fields)


def _in_range(key: str, value: int, path: str) -> int:
    """``value`` once its range is checked, for ``seed`` and ``threads``, the
    fields that ``--seed`` and ``--threads`` override."""
    if key == "seed" and value < 0:
        raise SchemaError(path, "seed must be >= 0")
    if key == "threads" and not 1 <= value <= _MAX_COUNT:
        raise SchemaError(path, f"threads must be in [1, {_MAX_COUNT}]")
    return value


def _mass_list(table: dict, key: str) -> list[float]:
    masses = _expect(table, key, list, "config.scan", default=[])
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in masses):
        raise SchemaError(f"config.scan.{key}", "expected a list of numbers")
    return [float(x) for x in masses]


def _field_kinds(cls) -> dict:
    """The type of each field of the dataclass ``cls``, by field name."""
    return {f.name: {"int": int, "float": float, "bool": bool, "str": str}[f.type]
            for f in dataclasses.fields(cls)}


def _options_from(table: dict, cls, path: str):
    kinds = _field_kinds(cls)
    _check_known(table, set(kinds), path)
    try:
        return cls(**{key: _expect(table, key, kinds[key], path) for key in table})
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def parse_config(path: str | Path) -> RunConfig:
    """Read, validate and materialize a run configuration."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(str(path), "config file does not exist")

    def finite(text: str) -> float:
        val = float(text)
        if not math.isfinite(val):
            raise SchemaError(str(path), f"number {text} is not finite")
        return val

    def integer(text: str) -> int:
        finite(text)
        return int(text)

    try:
        raw = json.loads(
            path.read_text(), parse_float=finite, parse_constant=finite, parse_int=integer
        )
    except json.JSONDecodeError as exc:
        raise SchemaError(str(path), f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(str(path), f"cannot read: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(str(path), "config root must be an object")
    _check_known(
        raw, {"mode", "grid", "model", "flow", "saddle", "scan", "init", "seed", "threads"}, "config"
    )
    mode = _expect(raw, "mode", str, "config", required=True)
    if mode not in _MODES:
        raise SchemaError("config.mode", f"mode must be one of {_MODES}, got {mode!r}")

    gtab = _expect(raw, "grid", dict, "config", required=True)
    kinds = _field_kinds(GridSpec)
    _check_known(gtab, set(kinds), "config.grid")
    try:
        grid = GridSpec(
            **{key: _expect(gtab, key, kind, "config.grid", required=True)
               for key, kind in kinds.items()}
        )
    except ValueError as exc:
        raise RangeError(f"config.grid: {exc}") from exc

    mtab = _expect(raw, "model", dict, "config", required=True)
    _check_known(mtab, {"dim", *_MODEL_NUMBERS, *_MODEL_SPECS}, "config.model")
    dim = _expect(mtab, "dim", int, "config.model", default=grid.dim)
    if dim != grid.dim:
        raise SchemaError("config.model.dim", f"model dim {dim} != grid dim {grid.dim}")
    specs = {
        key: _parse_family(
            _expect(mtab, key, dict, "config.model", default={"kind": kind}),
            f"config.model.{key}", spec_cls, grid, path.parent,
        )
        for key, (spec_cls, kind) in _MODEL_SPECS.items()
    }
    if mode == "saddle" and specs["coupling"].kind == "tabulated":
        raise SchemaError(
            "config.model.coupling", "saddle mode needs a built-in coupling family, not a table"
        )
    params = ModelParams(
        dim=grid.dim,
        **{key: _expect(mtab, key, float, "config.model", default=d, required=d is None)
           for key, d in _MODEL_NUMBERS.items()},
        **specs,
    )

    flow = _options_from(_expect(raw, "flow", dict, "config", default={}), FlowOptions, "config.flow")
    sad = _options_from(
        _expect(raw, "saddle", dict, "config", default={}), SaddleOptions, "config.saddle"
    )

    stab = _expect(raw, "scan", dict, "config", default={})
    _check_known(stab, {"xi_list", "eta_list", "n_starts"}, "config.scan")
    xi_list = _mass_list(stab, "xi_list")
    eta_list = _mass_list(stab, "eta_list")
    n_starts = _expect(stab, "n_starts", int, "config.scan", default=3)
    if mode == "scan":
        for name, value in (("xi_list", xi_list), ("eta_list", eta_list), ("n_starts", n_starts)):
            try:
                check_scan_field(name, value)
            except ValueError as exc:
                raise SchemaError(f"config.scan.{name}", str(exc)) from None
        if n_starts > _MAX_COUNT:
            raise SchemaError("config.scan.n_starts", f"need at most {_MAX_COUNT} starts")

    itab = _expect(raw, "init", dict, "config", default={})
    _check_known(itab, {"width_u", "width_v"}, "config.init")
    width_u = _expect(itab, "width_u", float, "config.init")
    width_v = _expect(itab, "width_v", float, "config.init")
    for k, w in (("width_u", width_u), ("width_v", width_v)):
        if w is not None and not (w > 0 and 0 < w * w < math.inf):
            raise SchemaError(f"config.init.{k}", "width must be > 0 with a nonzero finite square")

    threads = _in_range("threads", _expect(raw, "threads", int, "config", default=1),
                        "config.threads")
    seed = _in_range("seed", _expect(raw, "seed", int, "config", default=0), "config.seed")

    cfg = RunConfig(
        mode=mode, grid=grid, params=params, flow=flow, saddle=sad, xi_list=xi_list,
        eta_list=eta_list, n_starts=n_starts, init_width_u=width_u, init_width_v=width_v,
        seed=seed, threads=threads,
    )
    tables = {key: mtab[key]["path"] for key, spec in specs.items() if spec.kind == "tabulated"}
    cfg.resolved = _resolve(cfg, tables)
    return cfg


def _spec_dict(spec, table_path: str | None) -> dict:
    if spec.kind == "tabulated":
        # the path is resolved against the config's directory and its file
        # may change between runs, so the echo also names the values loaded
        values = np.ascontiguousarray(spec.values, dtype=np.float64)
        return {"kind": spec.kind, "path": table_path,
                "sha256": hashlib.sha256(values.tobytes()).hexdigest()}
    return {"kind": spec.kind, **{key: getattr(spec, key) for key in spec.FIELDS[spec.kind]}}


def _resolve(cfg: RunConfig, tables: dict[str, str]) -> dict:
    """Fully resolved config echo (all defaults materialized) for the report;
    ``tables`` maps each tabulated family slot to its ``.npy`` path as given;
    the echo adds the SHA-256 of the values loaded from it."""
    p = cfg.params
    return {
        "mode": cfg.mode,
        "grid": {**dataclasses.asdict(cfg.grid), "spacing": cfg.grid.spacing},
        "model": {
            "dim": p.dim,
            **{key: getattr(p, key) for key in _MODEL_NUMBERS},
            **{key: _spec_dict(getattr(p, key), tables.get(key)) for key in _MODEL_SPECS},
        },
        "flow": dataclasses.asdict(cfg.flow),
        "saddle": dataclasses.asdict(cfg.saddle),
        "scan": {"xi_list": cfg.xi_list, "eta_list": cfg.eta_list, "n_starts": cfg.n_starts},
        "init": {"width_u": cfg.init_width_u, "width_v": cfg.init_width_v},
        "seed": cfg.seed,
        "threads": cfg.threads,
    }


def _report_of_solve(rep: SolveReport) -> dict:
    return {
        "energy": dataclasses.asdict(rep.energy),
        "multipliers": dataclasses.asdict(rep.multipliers),
        "residuals": rep.residuals,
        "iterations": rep.iterations,
        "converged": rep.converged,
        "regime": rep.regime,
        "message": rep.message,
        "energy_trace": rep.energy_trace,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_profiles(path: Path, cfg: RunConfig, state: StatePair) -> None:
    """u, v, V1, V2 and beta along the +x1 semi-axis.  The model is sampled
    on that ray only: there |x|^2 is r^2 bitwise, the other coordinates
    being 0, and a table is read at the ray's points."""
    r, u = radial_profile(state.u)
    _, v = radial_profile(state.v)
    c = cfg.grid.points_per_axis // 2
    ray = (slice(c, None),) + (c,) * (cfg.grid.dim - 1)

    def on_ray(spec, radial_values) -> np.ndarray:
        if spec.kind == "tabulated":
            return np.asarray(spec.values, dtype=np.float64)[ray]
        return radial_values(spec, r**2)

    params = cfg.params
    v1, v2 = (on_ray(spec, potential_radial_values) for spec in (params.v1, params.v2))
    beta = on_ray(params.coupling, coupling_radial_values)
    rows = ["r,u,v,v1,v2,beta"]
    for vals in zip(r, u, v, v1, v2, beta):
        rows.append(",".join(repr(float(x)) for x in vals))
    path.write_text("\n".join(rows) + "\n")


def _default_init(cfg: RunConfig) -> StatePair:
    rng = np.random.default_rng(cfg.seed)
    lo, hi = math.log(0.5), math.log(max(cfg.grid.half_extent / 3.0, 1.0))
    wu = cfg.init_width_u or float(np.exp(rng.uniform(lo, hi)))
    wv = cfg.init_width_v or float(np.exp(rng.uniform(lo, hi)))
    zero = np.zeros(cfg.grid.shape)
    u = gaussian_field(cfg.grid, wu).values if cfg.params.xi > 0 else zero
    v = gaussian_field(cfg.grid, wv).values if cfg.params.eta > 0 else zero
    return StatePair(ScalarField(cfg.grid, u), ScalarField(cfg.grid, v))


def run(cfg: RunConfig, out_dir: str | Path = ".") -> int:
    """Execute the configured mode with ``cfg.threads`` FFT workers; write
    artifacts; return the exit code.  The worker count holds for this run
    only."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report: dict = {"schema_version": _SCHEMA_VERSION, "mode": cfg.mode, "config": cfg.resolved}
    with scipy.fft.set_workers(cfg.threads):
        try:
            if cfg.mode in ("minimize", "saddle"):
                solve, opts = (
                    (minimize_normalized, cfg.flow) if cfg.mode == "minimize"
                    else (mountain_pass_solve, cfg.saddle)
                )
                rep = solve(cfg.params, _default_init(cfg), opts)
                report["result"] = _report_of_solve(rep)
                _write_json(out / "report.json", report)
                _write_profiles(out / "profiles.csv", cfg, rep.state)
                return 0 if rep.converged else 3
            if cfg.mode == "scan":
                table = mass_scan(cfg.params, cfg.grid, cfg.xi_list, cfg.eta_list, cfg.flow,
                                  n_starts=cfg.n_starts, seed=cfg.seed)
                rows = ["xi,eta,energy,converged,iterations"]
                for i, xi in enumerate(table.xi_list):
                    for j, eta in enumerate(table.eta_list):
                        rows.append(
                            f"{xi!r},{eta!r},{float(table.energies[i, j])!r},"
                            f"{bool(table.converged[i, j])},{int(table.iterations[i, j])}"
                        )
                (out / "scan.csv").write_text("\n".join(rows) + "\n")
                report["result"] = {
                    "energies": table.energies.tolist(),
                    "converged": table.converged.tolist(),
                    "xi_list": table.xi_list,
                    "eta_list": table.eta_list,
                }
                _write_json(out / "report.json", report)
                return 0 if bool(table.converged.all()) else 3
            if cfg.mode == "check":
                return _run_check(cfg, out, report)
            if cfg.mode == "oracle":
                return _run_oracle(cfg, out, report)
            raise SchemaError("config.mode", f"unhandled mode {cfg.mode!r}")
        except ChoquardError as exc:
            _write_json(
                out / "error.json",
                {"error": type(exc).__name__, "message": str(exc), "mode": cfg.mode},
            )
            raise


def _run_check(cfg: RunConfig, out: Path, report: dict) -> int:
    params = cfg.params
    coupling_rep = validate_coupling(params.coupling, params, cfg.grid)
    result = {"coupling": dataclasses.asdict(coupling_rep)}
    passed = coupling_rep.passed
    for name, spec in (("v1", params.v1), ("v2", params.v2)):
        if spec.is_zero:
            continue
        label = "V2" if spec.kind == "harmonic" else "V1"
        pot_rep = validate_potential(spec, label, cfg.grid)
        if spec.kind == "tabulated" and not pot_rep.passed:
            other = validate_potential(spec, "V2" if label == "V1" else "V1", cfg.grid)
            if other.passed:
                pot_rep = other
        result[name] = dataclasses.asdict(pot_rep)
        passed = passed and pot_rep.passed
    if params.saddle_regime and params.xi > 0 and params.eta > 0:
        try:
            geo = check_geometry(params, cfg.grid)
            result["geometry"] = dataclasses.asdict(geo)
            passed = passed and geo.separated
        except ChoquardError as exc:
            result["geometry"] = {"error": type(exc).__name__, "message": str(exc)}
            passed = False
    report["result"] = result
    report["passed"] = passed
    _write_json(out / "report.json", report)
    return 0 if passed else 4


def _run_oracle(cfg: RunConfig, out: Path, report: dict) -> int:
    rng = np.random.default_rng(cfg.seed)
    rho = ScalarField(cfg.grid, rng.standard_normal(cfg.grid.shape))
    conv = build_convolver(cfg.grid, cfg.params.alpha)
    fast = riesz_convolve(conv, rho).values
    slow = riesz_convolve_oracle(cfg.grid, cfg.params.alpha, rho).values
    rel = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    passed = rel < 1e-8
    report["result"] = {"max_rel_linf_error": rel, "tolerance": 1e-8, "passed": passed}
    _write_json(out / "report.json", report)
    return 0 if passed else 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="choquard",
        description="Normalized-solution solvers for linearly coupled Choquard systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _MODES:
        sp = sub.add_parser(name, help=f"run in {name} mode")
        sp.add_argument("--config", required=True, help="path to the JSON run config")
        sp.add_argument("--out", default=".", help="output directory (default: cwd)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.add_argument("--threads", type=int, default=None, help="override the FFT worker count")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        for key in ("threads", "seed"):
            value = getattr(args, key)
            if value is not None:
                setattr(cfg, key, _in_range(key, value, f"--{key}"))
                cfg.resolved[key] = value
    except (SchemaError, RangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.mode != args.command:
        print(
            f"config error: config.mode {cfg.mode!r} does not match subcommand {args.command!r}",
            file=sys.stderr,
        )
        return 2

    try:
        return run(cfg, args.out)
    except ChoquardError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
