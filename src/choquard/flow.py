"""Mass-constrained ground-state computation in the subcritical regime.

The solver is a projected gradient descent on the product of L2 spheres:
take the energy gradient, remove the radial (constraint-violating)
component on each sphere, precondition with (sigma - Laplacian)^{-1}
(a Sobolev-gradient step that tames the stiffness of the spectral
Laplacian), step, and retract by exact mass rescaling.  Optionally every
k-th iterate is replaced by the radial decreasing rearrangement of its
absolute value, which never raises the energy for constant coupling and
radial nonincreasing wells and accelerates convergence to the radial
minimizer.

Both this flow and the saddle run one descent loop, ``_descent_round``,
with one backtracking search, ``_line_search``.  What differs is an engine
method that the saddle's engine overrides: ``residual``, ``step``,
``prepare``, ``settled``, ``measure`` and ``stuck``.  The flow's step has
slope 0, so its search asks for plain decrease and its energy trace is
nonincreasing.  Both end the same way: the engine's ``certificate`` gives
the final state's residuals and whether they meet the tolerances, and
``_report`` builds the ``SolveReport``.

The diagonal rule: a swap-symmetric model (``ModelParams.swap_symmetric``)
with beta >= 0 descends from the lower of (u0, u0) and (v0, v0).  With F the
one-component energy, E(u, v) = F(u) + F(v) - int beta u v, and 2uv <= u^2 + v^2
gives E(u, u) + E(v, v) <= 2 E(u, v), so that start is never worse, and the
descent keeps it bitwise u = v at one component's cost.  No minimizer is lost:
at a diagonal critical point the constrained curvature along (a, -a) is that
along (a, a) plus 4 int beta a^2, so a local minimum on the diagonal is one of
the full problem.

A problem whose sampled V1, V2, beta and start are reflection-even in every
axis descends in the even subspace: ``_SphereDescent.enter_even_subspace``
returns the start on the (M/2 + 1)^N octant, every norm, projection,
Laplacian, preconditioner and convolution takes its octant form from the
arrays' shape, and each evaluation carries the samples of its layout.  A
map with no octant form, such as the rearrangement, expands the octant,
runs on the full grid and folds its result back (``through_full_grid``).
The final state is expanded to the full grid and measured there once more
(``leave_even_subspace``); ``certificate``, the report and ``converged``
come from that.

The tangential gradient equals the Euler-Lagrange residual with the
multipliers extracted from the constraint pairing, so the reported
projected-gradient norm is the EL residual of the discrete system.

``scalar_ground_state`` runs the same engine with the second component
frozen at zero, which computes the single-equation ground-state value
m(c, mu); ``mass_scan`` maps the ground-state value over a mass grid with
seeded multi-start initialization.  A frozen component is zeroed by the
retraction (``_normalized``) and its residual by ``_tangential``; a map
applied alike to u and v goes through ``StateEval.each``, once on a
mirrored (u = v) state, whose tangent projection (``_sphere_tangent``)
likewise projects u's side once and shares it with v's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoDescentStep, NoInteriorMax, NonFinite, NotSubcritical, ZeroMass
from .grid import (
    GridSpec,
    ScalarField,
    StatePair,
    fold,
    from_octant,
    gaussian_field,
    grid_sum,
    is_even,
    on_octant,
    rearrange_radial_decreasing,
    laplacian_resolvent_values,
)
from .energy import (
    EnergyBreakdown,
    Multipliers,
    StateEval,
    evaluate_state,
    gradient_values,
    multipliers_from_breakdown,
    sample_model,
)
from .model import ModelParams, CouplingSpec, ZERO_POTENTIAL
from .riesz import build_convolver

_STEP_GROWTH = 1.3  # an accepted step grows by this factor for the next search,
_MAX_STEP = 50.0  # up to this cap


@dataclass
class FlowOptions:
    """Knobs of the projected-descent loop."""

    max_iters: int = 2000
    energy_tol: float = 1e-10
    grad_tol: float = 1e-5
    symmetrize_every: int = 0  # 0 = never

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.energy_tol <= 0 or self.grad_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.symmetrize_every < 0:
            raise ValueError("symmetrize_every must be >= 0")


@dataclass
class SolveReport:
    """Converged state with energies, multipliers, residuals and the trace."""

    state: StatePair
    energy: EnergyBreakdown
    multipliers: Multipliers
    residuals: dict[str, float]
    iterations: int
    converged: bool
    regime: str
    energy_trace: list[float] = field(repr=False, default_factory=list)
    message: str = ""


@dataclass
class ScanTable:
    """Ground-state values over a (xi, eta) mass grid."""

    xi_list: list[float]
    eta_list: list[float]
    energies: np.ndarray  # shape (len(xi_list), len(eta_list))
    converged: np.ndarray
    iterations: np.ndarray

    def energy_at(self, xi: float, eta: float) -> float:
        i = self.xi_list.index(xi)
        j = self.eta_list.index(eta)
        return float(self.energies[i, j])


def project_masses(state: StatePair, xi: float, eta: float) -> StatePair:
    """Retraction onto the constraint set: rescale each component to its
    target norm.  A zero target yields the zero field."""
    return StatePair(
        ScalarField(state.grid, _normalized(state.u.values, xi, state.grid)),
        ScalarField(state.grid, _normalized(state.v.values, eta, state.grid)),
    )


def _normalized(values: np.ndarray, target_norm: float, grid: GridSpec) -> np.ndarray:
    """values rescaled to the target L2 norm, on the grid or on its octant."""
    if target_norm == 0.0:
        return np.zeros_like(values)
    nrm = math.sqrt(grid.cell_volume * grid_sum(grid, values * values))
    if nrm == 0.0:
        raise ZeroMass("cannot project a zero field onto a positive mass sphere")
    return values * (target_norm / nrm)


def _tangential(grid: GridSpec, g: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
    """Remove the component of g along u; return it and the Rayleigh ratio.
    An all-zero u (a component frozen at zero mass) gives zeros."""
    uu = grid_sum(grid, u * u)
    if uu == 0.0:
        return np.zeros_like(g), 0.0
    c = grid_sum(grid, g * u) / uu
    return g - c * u, c


def _sphere_tangent(
    grid: GridSpec, gu: np.ndarray, gv: np.ndarray, ev: StateEval
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Project a gradient pair onto the tangent space of the mass spheres at
    the evaluated state: (ru, rv, cu, cv) with the Rayleigh ratios.  On a
    mirrored state, whose pairs are bitwise u's on both sides, u's side is
    projected once and shared."""
    ru, cu = _tangential(grid, gu, ev.u)
    if ev.mirrored:
        return ru, ru, cu, cu
    rv, cv = _tangential(grid, gv, ev.v)
    return ru, rv, cu, cv


_precondition = laplacian_resolvent_values  # patched by tests and the traced benchmark


class _SphereDescent:
    """Projected descent on the pair of mass spheres, as the flow runs it.
    ``_SaddleEngine`` overrides the loop's hooks (``residual``, ``step``,
    ``prepare``, ``settled``, ``stuck``, ``exhausted``), ``measure``,
    ``kinetic_cap`` and the end of a solve's hook, ``certificate`` with its
    ``uncertified`` message.  ``opts`` holds the engine's options and
    ``sampled`` the full grid's samples of the model; the engine holds no
    layout, which each field's shape gives."""

    exhausted = "line search exhausted at small residual"
    uncertified = "the full-grid residual is above grad_tol"

    def __init__(self, params: ModelParams, grid: GridSpec, opts=None):
        self.params = params
        self.grid = grid
        self.opts = opts or FlowOptions()
        self.conv = build_convolver(grid, params.alpha)
        self.sampled = sample_model(params, grid)
        self.h_n = grid.cell_volume

    def enter_even_subspace(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The start (u, v) on its octant if the sampled V1, V2 and beta and
        the start are all bitwise reflection-even, else as it is; a constant
        (0-d) sample is even."""
        s = self.sampled
        even = all(np.ndim(w) == 0 or is_even(w) for w in (s.v1, s.v2, s.beta, u, v))
        return (fold(u), fold(v)) if even else (u, v)

    def leave_even_subspace(self, ev: StateEval) -> tuple[StateEval, float, float] | None:
        """The ``measure`` of an octant state expanded to the full grid, for
        the certificate; None for a full-grid state.  A mirrored state is
        expanded once and its one array is both sides."""
        if not on_octant(self.grid, ev.u):
            return None
        u = from_octant(ev.u)
        return self.measure(u, u if ev.mirrored else from_octant(ev.v))

    def through_full_grid(self, f):
        """A map of full-grid fields as a map of fields on either layout: an
        octant is expanded, mapped and folded back."""
        return lambda w: fold(f(from_octant(w))) if on_octant(self.grid, w) else f(w)

    def evaluate(self, u: np.ndarray, v: np.ndarray) -> StateEval:
        ev = evaluate_state(u, v, self.params, self.conv, self.sampled)
        if not math.isfinite(ev.breakdown.total):
            raise NonFinite("energy evaluated to a non-finite value")
        return ev

    def measure(self, u: np.ndarray, v: np.ndarray) -> tuple[StateEval, float, float]:
        """(ev, merit, fiber offset) of a state on the spheres."""
        ev = self.evaluate(u, v)
        return ev, ev.breakdown.total, 0.0

    def kinetic_cap(self, merit: float) -> float:
        """Largest kinetic term a trial state at this merit may have."""
        return math.inf

    def residual(self, ev: StateEval, s: float):
        """(ru, rv, cu, cv, gauge): the sphere-tangential energy gradient, its
        Rayleigh ratios, and no gauge direction."""
        gu, gv = gradient_values(ev, self.params)
        return *_sphere_tangent(self.grid, gu, gv, ev), None

    def grad_norm(self, ru: np.ndarray, rv: np.ndarray) -> float:
        return math.sqrt(self.h_n * (grid_sum(self.grid, ru * ru) + grid_sum(self.grid, rv * rv)))

    def certificate(self, ev: StateEval, s: float) -> tuple[dict[str, float], bool]:
        """(residuals, ok) of the final state: the residual norm, which is the
        EL residual, and the mass drift; ok when the norm is below grad_tol."""
        g = self.grad_norm(*self.residual(ev, s)[:2])
        residuals = {"projected_gradient": g, "el_residual": g, "mass_drift": self.mass_drift(ev)}
        return residuals, g < self.opts.grad_tol

    def step(self, ev, ru, rv, cu, cv, gauge) -> tuple[np.ndarray, np.ndarray, float]:
        """(du, dv, slope): solve with (sigma - Lap) spectrally, sigma = max(1, |c|)
        per component, damp regions where a trapping potential dominates (split
        Jacobi factor), re-project; slope 0 makes the search a plain decrease."""
        sigma_u, sigma_v = max(1.0, abs(cu)), max(1.0, abs(cv))
        du = _precondition(self.grid, ru, sigma_u)
        dv = du if ev.mirrored else _precondition(self.grid, rv, sigma_v)
        if ev.sampled.v1 is not None:
            du = du / (1.0 + np.maximum(ev.sampled.v1, 0.0) / sigma_u)
        if ev.sampled.v2 is not None:
            dv = dv / (1.0 + np.maximum(ev.sampled.v2, 0.0) / sigma_v)
        du, dv, _, _ = _sphere_tangent(self.grid, du, dv, ev)
        return du, dv, 0.0

    def prepare(self, it: int, ev: StateEval, merit: float, s: float):
        """(ev, merit, s) to start iteration ``it`` from: every k-th iterate is
        symmetrized (k = ``symmetrize_every``) unless that raises the energy."""
        k = self.opts.symmetrize_every
        ev_s = _symmetrized(self, ev) if k and it % k == 0 else None
        return (ev, merit, s) if ev_s is None else (ev_s, ev_s.breakdown.total, s)

    def settled(self, trace: list[float]) -> bool:
        """Whether the energy moved less than ``energy_tol`` (relative) over
        the last ten steps."""
        if len(trace) <= 10:
            return False
        return abs(trace[-1] - trace[-11]) < self.opts.energy_tol * max(1.0, abs(trace[-1]))

    def stuck(self, it: int, res: float) -> Exception:
        return NoDescentStep(f"step size underflowed at iteration {it} with residual {res:.3e}")

    def retract(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each component rescaled to its mass."""
        return _normalized(u, self.params.xi, self.grid), _normalized(v, self.params.eta, self.grid)

    def mass_drift(self, ev: StateEval) -> float:
        mu_ = self.h_n * grid_sum(self.grid, ev.u * ev.u)
        mv_ = self.h_n * grid_sum(self.grid, ev.v * ev.v)
        return max(abs(mu_ - self.params.xi**2), abs(mv_ - self.params.eta**2))


def _symmetrized(engine: _SphereDescent, ev: StateEval) -> StateEval | None:
    """Absolute value + radial decreasing rearrangement of both components
    (once for a mirrored state), retracted; None if that raises the energy
    (can only happen through discretization residue, the continuum move
    never does for constant coupling and radial wells)."""

    def rearranged(w: np.ndarray) -> np.ndarray:
        return rearrange_radial_decreasing(ScalarField(engine.grid, np.abs(w))).values

    ev_s = engine.evaluate(*engine.retract(*ev.each(engine.through_full_grid(rearranged))))
    if ev_s.breakdown.total <= ev.breakdown.total + 1e-12 * max(1.0, abs(ev.breakdown.total)):
        return ev_s
    return None


def _line_search(
    engine: _SphereDescent, ev: StateEval, merit: float, du: np.ndarray, dv: np.ndarray,
    tau: float, slope: float,
) -> tuple[tuple[StateEval, float, float] | None, float]:
    """Backtracking search along -(du, dv) from the evaluated state.

    A trial is the retracted step scored by ``engine.measure``; it is
    accepted when merit_t <= merit - 1e-4 tau slope (with slope 0, a plain
    decrease) and its kinetic term is within ``engine.kinetic_cap(merit_t)``.
    The step halves after a rejected or non-finite trial.  Returns the
    accepted ``measure`` triple and the grown step for the next search, or
    None once the step underflows 1e-18."""
    while tau > 1e-18:
        try:
            ev_t, merit_t, s_t = engine.measure(*engine.retract(ev.u - tau * du, ev.v - tau * dv))
        except (NonFinite, NoInteriorMax):
            tau *= 0.5
            continue
        kin_t = ev_t.breakdown.grad_sq_u + ev_t.breakdown.grad_sq_v
        if merit_t <= merit - 1e-4 * tau * slope and kin_t <= engine.kinetic_cap(merit_t):
            return (ev_t, merit_t, s_t), min(tau * _STEP_GROWTH, _MAX_STEP)
        ev_t = None  # frees the rejected trial before the next one is measured
        tau *= 0.5
    return None, tau


def _descent_round(
    engine: _SphereDescent, ev: StateEval, s: float, merit: float, budget: int, tau: float,
    trace: list[float] | None,
):
    """Up to ``budget`` steps from the measured state (ev, s, merit), each
    accepted merit appended to ``trace`` unless it is None.  Returns (ev, s,
    merit, iters, settled, tau, message).  A search that runs dry within 10
    grad_tol ends the round with the ``exhausted`` message and the step
    reset to 1 for the next round; farther out it raises ``engine.stuck``."""
    grad_tol = engine.opts.grad_tol
    message = ""
    settled = False
    iters = 0
    for it in range(1, budget + 1):
        iters = it
        ev, merit, s = engine.prepare(it, ev, merit, s)
        ru, rv, cu, cv, gauge = engine.residual(ev, s)
        grad_norm = engine.grad_norm(ru, rv)
        if grad_norm < grad_tol and engine.settled(trace):
            settled = True
            break
        du, dv, slope = engine.step(ev, ru, rv, cu, cv, gauge)
        del ru, rv, gauge  # freed before the search's trial states
        trial, tau = _line_search(engine, ev, merit, du, dv, tau, slope)
        if trial is None:
            if grad_norm < 10.0 * grad_tol:
                message, settled, tau = engine.exhausted, grad_norm < grad_tol, 1.0
                break
            raise engine.stuck(it, grad_norm)
        ev, merit, s = trial
        if trace is not None:
            trace.append(merit)
    return ev, s, merit, iters, settled, tau, message


def _descend(
    engine: _SphereDescent, u0: np.ndarray, v0: np.ndarray
) -> tuple[StateEval, dict[str, float], int, bool, list[float], str]:
    u0, v0 = engine.retract(u0, v0)
    beta = engine.sampled.beta
    diagonal = engine.params.swap_symmetric and (beta is None or np.min(beta) >= 0.0)
    if diagonal and not np.array_equal(u0, v0):  # the diagonal rule of the module docstring
        start = [min((engine.evaluate(w, w) for w in (u0, v0)),
                     key=lambda ev: ev.breakdown.total)]
    else:
        start = [engine.evaluate(u0, v0)]
    del u0, v0
    trace = [start[0].breakdown.total]
    # popped, so that only the loop holds the start state and frees it
    ev, _, _, iters, converged, _, message = _descent_round(
        engine, start.pop(), 0.0, trace[0], engine.opts.max_iters, 1.0, trace
    )
    full = engine.leave_even_subspace(ev)
    if full is not None:  # the full-grid certificate, which ends the trace
        ev, trace[-1], _ = full
    residuals, ok = engine.certificate(ev, 0.0)
    if converged and not ok:
        converged, message = False, engine.uncertified
    if not (converged or message):
        message = "iteration budget exhausted"
    return ev, residuals, iters, converged, trace, message


def _report(engine: _SphereDescent, ev: StateEval, residuals: dict[str, float], iters: int,
            converged: bool, trace: list[float], message: str) -> SolveReport:
    """The report of a finished solve, with the state, energy and multipliers
    of its certified evaluation ``ev``."""
    params = engine.params
    return SolveReport(
        state=StatePair(ScalarField(engine.grid, ev.u), ScalarField(engine.grid, ev.v)),
        energy=ev.breakdown,
        multipliers=multipliers_from_breakdown(ev.breakdown, params, params.xi**2, params.eta**2),
        residuals=residuals, iterations=iters, converged=converged,
        regime=params.regime().label, energy_trace=trace, message=message,
    )


def minimize_normalized(
    params: ModelParams, init: StatePair, opts: FlowOptions | None = None
) -> SolveReport:
    """Ground state of the coupled system on the mass constraint.

    Requires both exponents mass-subcritical (the energy is bounded from
    below there).  Components with a zero mass target are frozen at zero by
    the retraction, which is how the scalar problem and scan edge cells are
    realized; a zero start component with a positive target raises ZeroMass.
    """
    regime = params.regime()
    if not (regime.label_p == "subcritical" and regime.label_q == "subcritical"):
        raise NotSubcritical(
            f"ground-state flow requires subcritical exponents, got {regime.label_p}/{regime.label_q}"
        )
    engine = _SphereDescent(params, init.grid, opts)
    start = list(engine.enter_even_subspace(init.u.values, init.v.values))
    del init  # popped, so that only the descent holds the start and frees it
    return _report(engine, *_descend(engine, start.pop(0), start.pop(0)))


def _scalar_params(c: float, mu: float, p: float, dim: int, alpha: float) -> ModelParams:
    return ModelParams(
        dim=dim,
        alpha=alpha,
        p=p,
        q=p,
        mu1=mu,
        mu2=mu,
        xi=c,
        eta=0.0,
        coupling=CouplingSpec("constant", 0.0),
        v1=ZERO_POTENTIAL,
        v2=ZERO_POTENTIAL,
    )


def scalar_ground_state(
    c: float,
    mu: float,
    p: float,
    alpha: float,
    grid: GridSpec,
    opts: FlowOptions | None = None,
    init_width: float | None = None,
) -> SolveReport:
    """Ground-state value m(c, mu) of the single Choquard equation at mass
    c^2: the pair engine with the second component frozen at zero."""
    if c <= 0:
        raise ZeroMass("scalar mass c must be positive")
    params = _scalar_params(c, mu, p, grid.dim, alpha)
    width = init_width if init_width is not None else grid.half_extent / 4.0
    # popped, as in _descend, so that only the solve holds the start
    bump = [gaussian_field(grid, width, mass=c**2)]
    return minimize_normalized(params, StatePair(bump[0], bump.pop()), opts)


def check_scan_field(name: str, value) -> None:
    """Raise ValueError unless a mass scan's input ``name`` keeps its rule:
    n_starts >= 1, and a mass list holds two or more increasing masses >= 0."""
    if name == "n_starts":
        if value < 1:
            raise ValueError("n_starts must be >= 1")
    elif len(value) < 2:
        raise ValueError(f"{name} needs at least two entries")
    elif any(b <= a for a, b in zip(value, value[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    elif any(x < 0 for x in value):
        raise ValueError(f"{name} must be nonnegative")


def mass_scan(
    params: ModelParams,
    grid: GridSpec,
    xi_list: list[float],
    eta_list: list[float],
    opts: FlowOptions | None = None,
    n_starts: int = 3,
    seed: int = 0,
) -> ScanTable:
    """Ground-state value over a mass grid with seeded multi-start widths.

    Every cell is solved from ``n_starts`` Gaussian initializations whose
    widths are drawn (deterministically from ``seed``) log-uniformly within
    the box scale; the lowest converged energy wins, so the table
    approximates the global infimum map rather than one basin.
    """
    for name, value in (("xi_list", xi_list), ("eta_list", eta_list), ("n_starts", n_starts)):
        check_scan_field(name, value)
    rng = np.random.default_rng(seed)
    widths = np.exp(
        rng.uniform(math.log(0.4), math.log(max(grid.half_extent / 2.5, 0.4)), size=n_starts)
    )
    energies = np.zeros((len(xi_list), len(eta_list)))
    flags = np.zeros_like(energies, dtype=bool)
    iters = np.zeros_like(energies, dtype=int)
    for i, xi in enumerate(xi_list):
        for j, eta in enumerate(eta_list):
            if xi == 0.0 and eta == 0.0:
                energies[i, j] = 0.0
                flags[i, j] = True
                continue
            cell = params.with_masses(xi, eta)
            best: SolveReport | None = None
            for w in widths:
                bump = [gaussian_field(grid, float(w))]  # popped, as above
                rep = minimize_normalized(cell, StatePair(bump[0], bump.pop()), opts)
                if best is None or _scan_key(rep) < _scan_key(best):
                    best = rep
            energies[i, j] = best.energy.total
            flags[i, j] = best.converged
            iters[i, j] = best.iterations
    return ScanTable(list(xi_list), list(eta_list), energies, flags, iters)


def _scan_key(rep: SolveReport) -> tuple[int, float]:
    return (0 if rep.converged else 1, rep.energy.total)
