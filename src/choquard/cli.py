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

Exit codes: 0 success, 2 config error, 3 solver failure, 4 validation
failure.  Reports contain no timestamps; a fixed (config, seed) pair gives
byte-identical output at a fixed thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    classify,
    coupling_values,
    potential_values,
    validate_coupling,
    validate_potential,
)
from .flow import FlowOptions, SolveReport, mass_scan, minimize_normalized
from .riesz import build_convolver, riesz_convolve, riesz_convolve_oracle
from .saddle import SaddleOptions, check_geometry, mountain_pass_solve

_MODES = ("minimize", "saddle", "scan", "check", "oracle")
_SCHEMA_VERSION = 1
_MAX_COUNT = 1024  # most FFT workers or scan starts a config may ask for


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


def _parse_coupling(table: dict, path: str, grid: GridSpec, here: Path) -> CouplingSpec:
    _check_known(table, {"kind", "beta0", "decay", "path"}, path)
    kind = _expect(table, "kind", str, path, required=True)
    if kind == "tabulated":
        return CouplingSpec("tabulated", values=_load_table(table, path, grid, here))
    beta0 = _expect(table, "beta0", float, path, default=0.0)
    if kind == "constant":
        return CouplingSpec("constant", beta0)
    if kind == "rational_decay":
        decay = _expect(table, "decay", float, path, default=1.0)
        return CouplingSpec("rational_decay", beta0, decay)
    raise SchemaError(f"{path}.kind", f"unknown coupling kind {kind!r}")


def _parse_potential(table: dict, path: str, grid: GridSpec, here: Path) -> PotentialSpec:
    _check_known(table, {"kind", "depth", "width", "stiffness", "path"}, path)
    kind = _expect(table, "kind", str, path, required=True)
    if kind == "zero":
        return PotentialSpec("zero")
    if kind == "gaussian_well":
        return PotentialSpec(
            "gaussian_well",
            depth=_expect(table, "depth", float, path, default=1.0),
            width=_expect(table, "width", float, path, default=1.0),
        )
    if kind == "harmonic":
        return PotentialSpec(
            "harmonic", stiffness=_expect(table, "stiffness", float, path, default=1.0)
        )
    if kind == "tabulated":
        return PotentialSpec("tabulated", values=_load_table(table, path, grid, here))
    raise SchemaError(f"{path}.kind", f"unknown potential kind {kind!r}")


def _mass_list(table: dict, key: str) -> list[float]:
    masses = _expect(table, key, list, "config.scan", default=[])
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in masses):
        raise SchemaError(f"config.scan.{key}", "expected a list of numbers")
    return [float(x) for x in masses]


def _options_from(table: dict, cls, path: str):
    kinds = {f.name: {"int": int, "float": float, "bool": bool, "str": str}[f.type]
             for f in dataclasses.fields(cls)}
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
    _check_known(gtab, {"dim", "half_extent", "points_per_axis"}, "config.grid")
    try:
        grid = GridSpec(
            dim=_expect(gtab, "dim", int, "config.grid", required=True),
            half_extent=_expect(gtab, "half_extent", float, "config.grid", required=True),
            points_per_axis=_expect(gtab, "points_per_axis", int, "config.grid", required=True),
        )
    except ValueError as exc:
        raise RangeError(f"config.grid: {exc}") from exc

    mtab = _expect(raw, "model", dict, "config", required=True)
    _check_known(
        mtab, {"dim", "alpha", "p", "q", "mu1", "mu2", "xi", "eta", "coupling", "v1", "v2"},
        "config.model",
    )
    dim = _expect(mtab, "dim", int, "config.model", default=grid.dim)
    if dim != grid.dim:
        raise SchemaError("config.model.dim", f"model dim {dim} != grid dim {grid.dim}")
    coupling = _parse_coupling(
        _expect(mtab, "coupling", dict, "config.model", default={"kind": "constant", "beta0": 0.0}),
        "config.model.coupling",
        grid,
        path.parent,
    )
    if mode == "saddle" and coupling.kind == "tabulated":
        raise SchemaError(
            "config.model.coupling", "saddle mode needs a built-in coupling family, not a table"
        )
    v1, v2 = (
        _parse_potential(
            _expect(mtab, key, dict, "config.model", default={"kind": "zero"}),
            f"config.model.{key}", grid, path.parent,
        )
        for key in ("v1", "v2")
    )
    params = ModelParams(
        dim=grid.dim,
        alpha=_expect(mtab, "alpha", float, "config.model", required=True),
        p=_expect(mtab, "p", float, "config.model", required=True),
        q=_expect(mtab, "q", float, "config.model", required=True),
        mu1=_expect(mtab, "mu1", float, "config.model", default=1.0),
        mu2=_expect(mtab, "mu2", float, "config.model", default=1.0),
        xi=_expect(mtab, "xi", float, "config.model", default=1.0),
        eta=_expect(mtab, "eta", float, "config.model", default=1.0),
        coupling=coupling,
        v1=v1,
        v2=v2,
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
        for name, lst in (("xi_list", xi_list), ("eta_list", eta_list)):
            if len(lst) < 2:
                raise SchemaError(f"config.scan.{name}", "need a list of at least two masses")
            if lst[0] < 0 or any(b <= a for a, b in zip(lst, lst[1:])):
                raise SchemaError(
                    f"config.scan.{name}", "masses must be >= 0 and strictly increasing"
                )
        if not 1 <= n_starts <= _MAX_COUNT:
            raise SchemaError("config.scan.n_starts", f"need 1 to {_MAX_COUNT} starts")

    itab = _expect(raw, "init", dict, "config", default={})
    _check_known(itab, {"width_u", "width_v"}, "config.init")
    width_u = _expect(itab, "width_u", float, "config.init")
    width_v = _expect(itab, "width_v", float, "config.init")
    for k, w in (("width_u", width_u), ("width_v", width_v)):
        if w is not None and not (w > 0 and 0 < w * w < math.inf):
            raise SchemaError(f"config.init.{k}", "width must be > 0 with a nonzero finite square")

    seed = _expect(raw, "seed", int, "config", default=0)
    threads = _expect(raw, "threads", int, "config", default=1)
    if not 1 <= threads <= _MAX_COUNT:
        raise SchemaError("config.threads", f"threads must be in [1, {_MAX_COUNT}]")
    if seed < 0:
        raise SchemaError("config.seed", "seed must be >= 0")

    cfg = RunConfig(
        mode=mode,
        grid=grid,
        params=params,
        flow=flow,
        saddle=sad,
        xi_list=xi_list,
        eta_list=eta_list,
        n_starts=n_starts,
        init_width_u=width_u,
        init_width_v=width_v,
        seed=seed,
        threads=threads,
    )
    cfg.resolved = _resolve(cfg)
    return cfg


def _spec_dict(spec) -> dict:
    out = {"kind": spec.kind}
    if isinstance(spec, CouplingSpec):
        if spec.kind == "constant":
            out["beta0"] = spec.beta0
        elif spec.kind == "rational_decay":
            out.update(beta0=spec.beta0, decay=spec.decay)
    else:
        if spec.kind == "gaussian_well":
            out.update(depth=spec.depth, width=spec.width)
        elif spec.kind == "harmonic":
            out["stiffness"] = spec.stiffness
    return out


def _resolve(cfg: RunConfig) -> dict:
    """Fully resolved config echo (all defaults materialized) for the report."""
    p = cfg.params
    return {
        "mode": cfg.mode,
        "grid": {
            "dim": cfg.grid.dim,
            "half_extent": cfg.grid.half_extent,
            "points_per_axis": cfg.grid.points_per_axis,
            "spacing": cfg.grid.spacing,
        },
        "model": {
            "dim": p.dim,
            "alpha": p.alpha,
            "p": p.p,
            "q": p.q,
            "mu1": p.mu1,
            "mu2": p.mu2,
            "xi": p.xi,
            "eta": p.eta,
            "coupling": _spec_dict(p.coupling),
            "v1": _spec_dict(p.v1),
            "v2": _spec_dict(p.v2),
        },
        "flow": dataclasses.asdict(cfg.flow),
        "saddle": dataclasses.asdict(cfg.saddle),
        "scan": {"xi_list": cfg.xi_list, "eta_list": cfg.eta_list, "n_starts": cfg.n_starts},
        "init": {"width_u": cfg.init_width_u, "width_v": cfg.init_width_v},
        "seed": cfg.seed,
        "threads": cfg.threads,
    }


def _report_of_solve(rep: SolveReport) -> dict:
    bd = dataclasses.asdict(rep.energy)
    return {
        "energy": bd,
        "multipliers": {"lambda1": rep.multipliers.lambda1, "lambda2": rep.multipliers.lambda2},
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
    r, u = radial_profile(state.u)
    _, v = radial_profile(state.v)
    v1 = potential_values(cfg.params.v1, cfg.grid)
    v2 = potential_values(cfg.params.v2, cfg.grid)
    beta = coupling_values(cfg.params.coupling, cfg.grid)
    m = cfg.grid.points_per_axis
    c = m // 2
    ray = (slice(c, None),) + (c,) * (cfg.grid.dim - 1)
    rows = ["r,u,v,v1,v2,beta"]
    for vals in zip(r, u, v, v1[ray], v2[ray], beta[ray]):
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
    report: dict = {
        "schema_version": _SCHEMA_VERSION,
        "mode": cfg.mode,
        "config": cfg.resolved,
    }
    with scipy.fft.set_workers(cfg.threads):
        try:
            if cfg.mode == "minimize":
                rep = minimize_normalized(cfg.params, _default_init(cfg), cfg.flow)
                report["result"] = _report_of_solve(rep)
                _write_json(out / "report.json", report)
                _write_profiles(out / "profiles.csv", cfg, rep.state)
                return 0 if rep.converged else 3
            if cfg.mode == "saddle":
                rep = mountain_pass_solve(cfg.params, _default_init(cfg), cfg.saddle)
                report["result"] = _report_of_solve(rep)
                _write_json(out / "report.json", report)
                _write_profiles(out / "profiles.csv", cfg, rep.state)
                return 0 if rep.converged else 3
            if cfg.mode == "scan":
                table = mass_scan(
                    cfg.params,
                    cfg.grid,
                    cfg.xi_list,
                    cfg.eta_list,
                    cfg.flow,
                    n_starts=cfg.n_starts,
                    seed=cfg.seed,
                )
                rows = ["xi,eta,energy,converged,iterations"]
                for i, xi in enumerate(table.xi_list):
                    for j, eta in enumerate(table.eta_list):
                        rows.append(
                            f"{xi!r},{eta!r},{table.energies[i, j]!r},"
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
    supercritical = (
        params.p == params.q
        and classify(params.dim, params.alpha, params.p) == "supercritical"
        and params.xi > 0
        and params.eta > 0
    )
    if supercritical:
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
        if args.threads is not None and not 1 <= args.threads <= _MAX_COUNT:
            raise SchemaError("--threads", f"threads must be in [1, {_MAX_COUNT}]")
        if args.seed is not None and args.seed < 0:
            raise SchemaError("--seed", "seed must be >= 0")
    except (SchemaError, RangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.mode != args.command:
        print(
            f"config error: config.mode {cfg.mode!r} does not match subcommand {args.command!r}",
            file=sys.stderr,
        )
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.resolved["seed"] = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
        cfg.resolved["threads"] = args.threads

    try:
        return run(cfg, args.out)
    except ChoquardError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
