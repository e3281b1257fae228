"""The choquard layers the traced run wraps, and the per-layer metrics.

Every entry point is wrapped under each name its callers bound at import:
``choquard.energy`` calls ``riesz_convolve_values`` through its own module
attribute, so wrapping ``choquard.riesz`` alone would miss those calls.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Span, has_ancestor, self_times

# (metric, unit) in the order BENCHMARK.json declares them
PER_LAYER = [
    ("riesz.convolve.calls", "count"),
    ("riesz.convolve.s", "s"),
    ("riesz.convolve.ms_per_call", "ms"),
    ("riesz.convolve.bytes_computed", "B"),
    ("riesz.build.calls", "count"),
    ("riesz.build.s", "s"),
    ("grid.spectral.calls", "count"),
    ("grid.spectral.s", "s"),
    ("flow.precondition.calls", "count"),
    ("flow.precondition.s", "s"),
    ("grid.dilate.calls", "count"),
    ("grid.dilate.s", "s"),
    ("saddle.fiber_max.calls", "count"),
    ("saddle.fiber_max.s", "s"),
    ("saddle.fiber_tangent.calls", "count"),
    ("saddle.fiber_tangent.s", "s"),
    ("model.coupling_scaled.calls", "count"),
    ("model.coupling_scaled.s", "s"),
    ("saddle.geometry.s", "s"),
    ("saddle.geometry.evals", "count"),
    ("saddle.descent.s", "s"),
    ("saddle.iterations", "count"),
    ("saddle.line_search.accept_ratio", "ratio"),
    ("energy.evaluate.calls", "count"),
    ("energy.evaluate.s", "s"),
    ("energy.evaluate.self_s", "s"),
    ("energy.gradient.calls", "count"),
    ("energy.gradient.s", "s"),
    ("flow.solves", "count"),
    ("flow.iterations", "count"),
    ("flow.line_search.accept_ratio", "ratio"),
    ("flow.self_s", "s"),
    ("grid.rearrange.calls", "count"),
    ("grid.rearrange.s", "s"),
    ("grid.gaussian_field.calls", "count"),
    ("grid.gaussian_field.s", "s"),
    ("cli.parse.s", "s"),
    ("cli.write.s", "s"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
]

# layers reported as <layer>.calls and <layer>.s
_TIMED_LAYERS = (
    "riesz.convolve",
    "riesz.build",
    "grid.spectral",
    "flow.precondition",
    "grid.dilate",
    "saddle.fiber_max",
    "saddle.fiber_tangent",
    "model.coupling_scaled",
    "energy.evaluate",
    "energy.gradient",
    "grid.rearrange",
    "grid.gaussian_field",
)
_FLOW_SPANS = ("flow.solve", "flow.descend", "flow.symmetrize")


def is_count(metric: str) -> bool:
    return metric.endswith((".calls", ".iterations", ".evals", ".solves"))


def _iterations(args, report) -> dict:
    return {"iterations": report.iterations}


def _flow_accepted(args, result) -> dict:
    # _descend returns (ev, residuals, iters, converged, trace, message);
    # the trace gains one entry per accepted step
    return {"accepted": len(result[4]) - 1}


def _saddle_accepted(args, result) -> dict:
    # _descent_round returns (ev, s, psi, iters, descended, tau, message);
    # the last iteration takes no step when it converged or the search ran dry
    iters, descended, message = result[3], result[4], result[6]
    return {"accepted": iters - (1 if descended or message else 0)}


def _convolve_bytes(args, out) -> dict:
    """Bytes the padded convolution touches, computed from array sizes:
    input and cropped output, padded input and inverse output, forward and
    product spectra, and the kernel spectrum."""
    conv, values = args[0], args[1]
    spec = conv.kernel_spectrum
    padded = (2 * conv.grid.points_per_axis) ** conv.grid.dim
    return {"bytes": values.nbytes + out.nbytes + 2 * 8 * padded + 2 * 16 * spec.size + spec.nbytes}


def entry_points(cq) -> list[tuple]:
    """(owner, attribute, span name, info hook) for every binding to wrap."""
    cli, energy, flow, grid, riesz, saddle = cq.cli, cq.energy, cq.flow, cq.grid, cq.riesz, cq.saddle
    engine = getattr(saddle, "_SaddleEngine", None)
    return [
        (cli, "parse_config", "cli.parse", None),
        (cli, "run", "cli.run", None),
        (cli, "_write_json", "cli.write", None),
        (cli, "_write_profiles", "cli.write", None),
        (cli, "minimize_normalized", "flow.solve", _iterations),
        (flow, "minimize_normalized", "flow.solve", _iterations),
        (flow, "_descend", "flow.descend", _flow_accepted),
        (flow, "_symmetrized", "flow.symmetrize", None),
        (flow, "_precondition", "flow.precondition", None),
        (cli, "mountain_pass_solve", "saddle.solve", None),
        (cli, "check_geometry", "saddle.geometry", None),
        (saddle, "check_geometry", "saddle.geometry", None),
        (saddle, "_saddle_descend", "saddle.descent", _iterations),
        (saddle, "_descent_round", "saddle.descent_round", _saddle_accepted),
        (engine, "fiber_max", "saddle.fiber_max", None),
        (engine, "fiber_tangent", "saddle.fiber_tangent", None),
        (saddle, "coupling_scaled_values", "model.coupling_scaled", None),
        (cq, "build_convolver", "riesz.build", None),
        (cli, "build_convolver", "riesz.build", None),
        (flow, "build_convolver", "riesz.build", None),
        (riesz, "riesz_convolve_values", "riesz.convolve", _convolve_bytes),
        (energy, "riesz_convolve_values", "riesz.convolve", _convolve_bytes),
        (energy, "sample_model", "energy.sample_model", None),
        (flow, "sample_model", "energy.sample_model", None),
        (energy, "evaluate_state", "energy.evaluate", None),
        (flow, "evaluate_state", "energy.evaluate", None),
        (energy, "gradient_values", "energy.gradient", None),
        (flow, "gradient_values", "energy.gradient", None),
        (saddle, "gradient_values", "energy.gradient", None),
        (grid, "grad_norm_sq_values", "grid.spectral", None),
        (grid, "neg_laplacian_values", "grid.spectral", None),
        (energy, "grad_norm_sq_values", "grid.spectral", None),
        (energy, "neg_laplacian_values", "grid.spectral", None),
        (saddle, "neg_laplacian_values", "grid.spectral", None),
        (cq, "dilate", "grid.dilate", None),
        (saddle, "dilate", "grid.dilate", None),
        (flow, "rearrange_radial_decreasing", "grid.rearrange", None),
        (cq, "gaussian_field", "grid.gaussian_field", None),
        (cli, "gaussian_field", "grid.gaussian_field", None),
        (flow, "gaussian_field", "grid.gaussian_field", None),
        (saddle, "gaussian_field", "grid.gaussian_field", None),
    ]


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced request, except the two that need
    untraced runs (``process.cpu_s`` and ``trace.overhead_s``)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def secs(name: str) -> float:
        # a span nested in one of the same name is already inside its time
        return sum(s.duration for s in named[name] if not has_ancestor(s, by_id, {name}))

    def info_sum(name: str, key: str) -> int:
        return sum((s.info or {}).get(key, 0) for s in named[name])

    def trials(parent_name: str) -> int:
        return sum(1 for s in named["energy.evaluate"] if s.parent is not None
                   and by_id[s.parent].name == parent_name)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for layer in _TIMED_LAYERS:
        m[f"{layer}.calls"] = len(named[layer])
        m[f"{layer}.s"] = secs(layer)
    m["riesz.convolve.ms_per_call"] = 1e3 * ratio(m["riesz.convolve.s"], m["riesz.convolve.calls"])
    m["riesz.convolve.bytes_computed"] = info_sum("riesz.convolve", "bytes")
    m["saddle.geometry.s"] = secs("saddle.geometry")
    m["saddle.geometry.evals"] = sum(
        1 for s in named["energy.evaluate"] if has_ancestor(s, by_id, {"saddle.geometry"})
    )
    m["saddle.descent.s"] = secs("saddle.descent")
    m["saddle.iterations"] = info_sum("saddle.descent", "iterations")
    m["saddle.line_search.accept_ratio"] = ratio(
        info_sum("saddle.descent_round", "accepted"), trials("saddle.descent_round")
    )
    m["energy.evaluate.self_s"] = sum(own[s.id] for s in named["energy.evaluate"])
    m["flow.solves"] = len(named["flow.solve"])
    m["flow.iterations"] = info_sum("flow.solve", "iterations")
    # every _descend evaluates its start once before the line search
    m["flow.line_search.accept_ratio"] = ratio(
        info_sum("flow.descend", "accepted"), trials("flow.descend") - len(named["flow.descend"])
    )
    m["flow.self_s"] = sum(own[s.id] for n in _FLOW_SPANS for s in named[n])
    m["cli.parse.s"] = secs("cli.parse")
    m["cli.write.s"] = secs("cli.write")
    return m
