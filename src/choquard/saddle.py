"""Mountain-pass saddle computation in the supercritical regime (p = q).

The energy is unbounded below on the constraint set, so the ground-state
flow is useless; instead the solver works with the dilation fiber

    s * (u, v) = (e^{Ns/2} u(e^s x), e^{Ns/2} v(e^s x)),

along which the invariants transform in closed form:

    kinetic -> e^{2s} K,   B(., p) -> e^{2 p delta_p s} B,
    coupling -> int beta(e^{-s} x) u v.

``fiber_maximize`` finds the maximum of the fiber energy with Brent's
bounded golden-section and parabolic step (``_bounded_max``); the
stationarity condition d/ds E(s * state) = 0 is exactly the dilation
(Pohozaev-type) identity, so states at their fiber maximum satisfy it by
construction.

``mountain_pass_solve`` minimizes the fiber-maximized energy over
profiles.  The merit is dilation-invariant, so the fiber direction is a
gauge.  Each descent round is the flow's loop, ``flow._descent_round``,
run with ``_SaddleEngine``: its ``residual`` is the pulled-back gradient
with the fiber tangent removed, its ``step`` removes that gauge from the
preconditioned direction and returns the Armijo slope, its ``measure`` is
the fiber-maximized energy, and its kinetic trust cap rejects
sub-resolution spike states.  The profile is dilated to its own fiber
maximum only between rounds, and each round ends with the engine's
``certificate``: the transverse and EL residuals of one pulled-back
gradient and the dilation and multiplier-sum identities.  The last
certificate and ``flow._report`` end the solve as they end the flow's.  As
in the flow, a reflection-even problem descends with its fields on the
(M/2 + 1)^N octant, where every operator takes its octant form from the
arrays' shape and each evaluation carries the samples of its layout, and
is certified on the full grid; only the recentering dilation, which has no
octant form, runs through ``_SphereDescent.through_full_grid``.  The
retraction zeroes a frozen component, and the fiber tangent and the
dilation go through ``StateEval.each``, once for a u = v profile of a
swap-symmetric model and not at all for a zero component.  At the fixed
point the state is simultaneously a fiber maximum (dilation identity
holds) and transversally critical: a discrete mountain-pass critical
point.  The level is reported without any minimality claim among such
points.

Admissibility of the coupling (sup-norm below the barrier bound, sign
condition on 2 beta + x.grad beta / delta_p) is checked by
``check_geometry`` together with sampled estimates of the energy well and
barrier separation; for a swap-symmetric model it samples each unordered
width pair once, since E(a, b) = E(b, a).  Its samples, centred Gaussian
pairs and the constant pair, are products of N equal 1-D factors, so their
kinetic norms and B values are 1-D sums (``rank_one_grad_norm_sq``,
``riesz_energy_rank_one``): the check runs no N-D transform or convolution
and samples only each accepted pair on the grid.

The fiber needs beta(e^{-s} x) off the grid, which only the built-in
coupling families provide in closed form, so ``_SaddleEngine``, which also
checks p = q, the supercritical regime and zero potentials (the guard of
the dilation identities, ``energy._require_saddle_regime``), refuses a
tabulated coupling; ``check_geometry`` samples at s = 0 only and accepts it.
The built-in families are also radial, so the fiber's coupling integral is
a sum over the grid's radial shells (``_FiberBasis``): each step of the
fiber maximizer evaluates beta once per distinct radius, not once per
point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BetaTooLarge,
    DilationOutOfBox,
    GeometryFailed,
    ModeMismatch,
    NoInteriorMax,
    NonFinite,
    NotConverged,
    Stalled,
    ZeroMass,
)
from .grid import (
    GridSpec,
    ScalarField,
    StatePair,
    dilate,
    gaussian_field,
    grid_sum,
    neg_laplacian_values,  # noqa: F401  (a traced-benchmark binding; the gradient is energy's)
    rank_one_grad_norm_sq,
    shell_sums,
    x_grad_values,
)
from .energy import (
    SampledModel,
    StateEval,
    _power_density,
    _require_saddle_regime,
    assemble_breakdown,
    gradient_values,
    multiplier_sum_from_state,
    pohozaev_from_state,
    sample_model,
)
from .flow import (
    SolveReport, _SphereDescent, _descent_round, _report, _scalar_params, _sphere_tangent,
)
from .model import ModelParams, coupling_bound, coupling_radial_values, coupling_scaled_values
from .riesz import RieszConvolver, riesz_energy_rank_one

_FIBER_BRACKET = (-4.0, 4.0)  # first bracket of the fiber maximizer, widened once
_FIBER_TOL = 1e-11  # tolerance on the maximizing s
_FIBER_BUDGET = 500  # fiber energies per bracket
# recenter (dilate the profile to its own fiber maximum) whenever the
# maximizing s exceeds this; the dilation-identity residual of the
# reported profile scales with the leftover offset, so keep it tiny
_RECENTER_TOL = 1e-7


@dataclass
class SaddleOptions:
    """Knobs of the fiber min-max loop."""

    max_iters: int = 800
    grad_tol: float = 1e-5
    pohozaev_rel_tol: float = 1e-6  # |d_s E| below this times the kinetic term

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol <= 0 or self.pohozaev_rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class GeometryReport:
    """Sampled mountain-pass geometry: kinetic thresholds, well/barrier
    energy estimates and the coupling bound check."""

    k1: float
    k2: float
    hmax: float
    beta_bound: float
    beta_sup: float
    inf_barrier_estimate: float
    sup_well_estimate: float
    separated: bool
    analytic_barrier_lower_bound: float


def _remove_component(
    grid: GridSpec, du: np.ndarray, dv: np.ndarray, tu: np.ndarray, tv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(du, dv) with its component along (tu, tv) removed, on either layout."""
    tt = grid_sum(grid, tu * tu) + grid_sum(grid, tv * tv)
    if tt <= 0.0:
        return du, dv
    c = (grid_sum(grid, du * tu) + grid_sum(grid, dv * tv)) / tt
    return du - c * tu, dv - c * tv


def _coupling_sup(sampled: SampledModel, pdp: float) -> float:
    """sup |2 p delta_p beta + x.grad beta| over the grid."""
    if sampled.beta is None:
        return 0.0
    combo = 2.0 * pdp * sampled.beta
    if sampled.x_grad_beta is not None:
        combo = combo + sampled.x_grad_beta
    return float(np.max(np.abs(combo)))


class _FiberBasis:
    """Numbers of one profile from which the whole fiber is reconstructed.

    The kinetic and nonlocal terms scale in closed form.  The coupling term
    int beta(e^{-s} x) u v does not, but beta is radial, so it is the shell
    sum h^N sum_k beta(e^{-s} r_k) W_k over the distinct grid radii r_k,
    with W_k the sum of u v over the points of shell k (an octant point
    counted with its multiplicity).  W is binned once per profile and each
    fiber point evaluates beta on the shells only (727 of them on a 40^3
    grid against 64,000 points).  A constant coupling does not move along
    the fiber and needs no shells."""

    def __init__(self, engine: "_SaddleEngine", ev: StateEval):
        self.engine = engine
        bd = ev.breakdown
        self.kinetic = bd.grad_sq_u + bd.grad_sq_v
        self.weighted_b = engine.params.mu1 * bd.b_u + engine.params.mu2 * bd.b_v
        self.coupling0 = bd.coupling_integral
        if engine.params.coupling.kind != "constant":
            self.shell_r2, self.shell_uv = shell_sums(engine.grid, ev.u * ev.v)

    def coupling_at(self, s: float) -> float:
        spec = self.engine.params.coupling
        if spec.kind == "constant":
            return self.coupling0
        beta_s = coupling_radial_values(spec, math.exp(-s) ** 2 * self.shell_r2)
        return float(self.engine.grid.cell_volume * np.dot(beta_s, self.shell_uv))

    def energy_at(self, s: float) -> float:
        p = self.engine.params.p
        pdp = p * self.engine.params.delta_p
        return (
            0.5 * math.exp(2.0 * s) * self.kinetic
            - math.exp(2.0 * pdp * s) * self.weighted_b / (2.0 * p)
            - self.coupling_at(s)
        )


def _bounded_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """(s, fn(s)) at the maximum of fn over [lo, hi], s to ``_FIBER_TOL``.

    Brent's bounded minimization of -fn (Algorithms for Minimization without
    Derivatives, 1973, ch. 5): a parabola through the three best points when
    its vertex lies inside the bracket and its step is under half the step
    before last, a golden-section step otherwise.  Transcribed from scipy's
    BSD-licensed ``_minimize_scalar_bounded``, so it returns the floats of
    ``minimize_scalar(method="bounded")``.  Raises NonFinite on a non-finite
    fn and NoInteriorMax once it has spent ``_FIBER_BUDGET`` evaluations."""

    def f(s: float) -> float:
        value = fn(s)
        if not math.isfinite(value):
            raise NonFinite(f"fiber energy {value} at s = {s:.6g}")
        return -value

    sqrt_eps = math.sqrt(2.2e-16)
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    x = w = v = a + golden * (b - a)  # best, second best, previous second best
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step and the one before
    evals = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(x) + _FIBER_TOL / 3.0
    tol2 = 2.0 * tol1
    while abs(x - xm) > tol2 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:  # the parabola through (v, w, x)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            r, e = e, d
            parabolic = abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x)
        if parabolic:
            d = p / q
            if (x + d - a) < tol2 or (b - (x + d)) < tol2:
                d = tol1 if xm >= x else -tol1
        else:
            e = (a if x >= xm else b) - x
            d = golden * e
        u = x + (max(abs(d), tol1) if d >= 0.0 else -max(abs(d), tol1))
        fu = f(u)
        evals += 1
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + _FIBER_TOL / 3.0
        tol2 = 2.0 * tol1
        if evals >= _FIBER_BUDGET:
            raise NoInteriorMax(f"fiber maximizer spent its {evals} evaluations in [{lo}, {hi}]")
    return x, -fx


class _SaddleEngine(_SphereDescent):
    exhausted = "line search exhausted near the residual tolerance"
    uncertified = "the full-grid certificate misses the tolerances"

    def __init__(self, params: ModelParams, grid: GridSpec, opts: SaddleOptions | None = None):
        _require_saddle_regime(params, "the saddle solver")
        if params.coupling.kind == "tabulated":
            raise ModeMismatch("the dilation fiber needs a built-in coupling family, not a table")
        super().__init__(params, grid, opts or SaddleOptions())
        self.coupling_sup = _coupling_sup(self.sampled, params.p * params.delta_p)

    def kinetic_cap(self, level: float) -> float:
        """Trust cap on the kinetic term during descent.

        Bounded critical sequences at merit level c satisfy
        (p delta_p - 1) K <= 2 p delta_p c + sup|2 p delta_p beta + x.grad beta| xi eta;
        unresolved grid spikes violate this by orders of magnitude (the
        discrete nonlocal term escapes the continuum kinetic bound below the
        resolution scale), so trial states beyond a generous multiple of the
        bound are rejected."""
        params = self.params
        pdp = params.p * params.delta_p
        bound = (
            2.0 * pdp * max(level, 0.0) + self.coupling_sup * params.xi * params.eta
        ) / (pdp - 1.0)
        return 4.0 * max(bound, 1e-6)

    def measure(self, u: np.ndarray, v: np.ndarray) -> tuple[StateEval, float, float]:
        """(ev, fiber-maximized energy, maximizing offset) of a profile."""
        ev = self.evaluate(u, v)
        s_star, psi = self.fiber_max(ev)
        return ev, psi, s_star

    def fiber_max(self, ev: StateEval) -> tuple[float, float]:
        basis = _FiberBasis(self, ev)
        if basis.kinetic <= 0.0:
            raise ZeroMass("fiber maximization needs a state with positive kinetic energy")
        lo, hi = _FIBER_BRACKET
        for attempt in range(2):
            s_star, psi = _bounded_max(basis.energy_at, lo, hi)
            margin = 1e-3 * (hi - lo)
            if lo + margin < s_star < hi - margin:
                return s_star, psi
            lo *= 2.0
            hi *= 2.0
        raise NoInteriorMax(
            f"fiber maximum pinned to the bracket edge (s = {s_star:.3f}); "
            "the profile has no interior dilation maximum"
        )

    def pulled_back_gradient(self, ev: StateEval, s_star: float) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the fiber-maximized merit at the profile (envelope
        rule: differentiate at the frozen maximizer), with the coupling
        resampled at e^{-s_star} x.  For s_star = 0 this is the plain energy
        gradient."""
        beta_s = self.sampled.beta  # a constant's: beta(e^{-s} x) = beta0
        if np.ndim(beta_s) > 0:
            scale = math.exp(-s_star)
            beta_s = coupling_scaled_values(self.params.coupling, self.grid, scale, ev.u)
        return gradient_values(ev, self.params, s_star, beta_s)

    def fiber_tangent(self, ev: StateEval) -> tuple[np.ndarray, np.ndarray]:
        """Generator of the dilation fiber at the profile: (N/2) u + x.grad u.

        The merit is exactly invariant along this direction in the continuum
        but only up to resolution error on the grid, so descent steps are
        kept orthogonal to it (the offset s plays the role of the gauge)."""
        generator = ev.each(lambda w: 0.5 * self.grid.dim * w + x_grad_values(self.grid, w))
        return _sphere_tangent(self.grid, *generator, ev)[:2]

    def residual(self, ev: StateEval, s: float):
        """Sphere-tangential gradient of the merit with the fiber direction
        removed: (ru, rv, cu, cv, gauge) with the fiber tangent as gauge."""
        ru, rv, cu, cv = _sphere_tangent(self.grid, *self.pulled_back_gradient(ev, s), ev)
        gauge = self.fiber_tangent(ev)
        return *_remove_component(self.grid, ru, rv, *gauge), cu, cv, gauge

    def certificate(self, ev: StateEval, s: float) -> tuple[dict[str, float], bool]:
        """(residuals, ok) of a recentered profile at fiber offset s from one
        pulled-back gradient, with and without the fiber direction; ok when
        the transverse residual and the dilation identity meet the tolerances."""
        params, opts = self.params, self.opts
        ru, rv, _, _ = _sphere_tangent(self.grid, *self.pulled_back_gradient(ev, s), ev)
        grad_norm = self.grad_norm(*_remove_component(self.grid, ru, rv, *self.fiber_tangent(ev)))
        poh = pohozaev_from_state(ev, params)
        lhs, rhs = multiplier_sum_from_state(ev, params)
        residuals = {
            "projected_gradient": grad_norm,
            "el_residual": self.grad_norm(ru, rv),
            "mass_drift": self.mass_drift(ev),
            "pohozaev": poh,
            "multiplier_identity_gap": abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300),
            "fiber_offset": s,
        }
        kin = ev.breakdown.grad_sq_u + ev.breakdown.grad_sq_v
        ok = grad_norm <= opts.grad_tol and abs(poh) <= opts.pohozaev_rel_tol * max(kin, 1e-300)
        return residuals, ok

    def step(self, ev, ru, rv, cu, cv, gauge) -> tuple[np.ndarray, np.ndarray, float]:
        """The flow's step with the gauge removed, and its Armijo slope."""
        du, dv, _ = super().step(ev, ru, rv, cu, cv, gauge)
        du, dv = _remove_component(self.grid, du, dv, *gauge)
        return du, dv, self.h_n * (grid_sum(self.grid, ru * du) + grid_sum(self.grid, rv * dv))

    def prepare(self, it: int, ev: StateEval, merit: float, s: float):
        return ev, merit, s

    def settled(self, trace: list[float] | None) -> bool:
        return True

    def stuck(self, it: int, res: float) -> Exception:
        return Stalled(
            f"saddle step underflowed (transverse residual {res:.3e}); "
            "the state is likely under-resolved on this grid"
        )


def fiber_maximize(state: StatePair, params: ModelParams) -> tuple[float, float]:
    """Maximize the fiber energy s -> E(s * state); returns (s_star, value).

    At s_star the dilation identity holds for the dilated state.  Raises
    NoInteriorMax if the maximum sits on the (once-widened) bracket edge.
    """
    engine = _SaddleEngine(params, state.grid)
    _, psi, s_star = engine.measure(state.u.values, state.v.values)
    return s_star, psi


def fiber_energy(state: StatePair, params: ModelParams, s: float) -> float:
    """E(s * state) reconstructed from the profile invariants (no grid
    resampling); the closed-form transform the solver relies on."""
    engine = _SaddleEngine(params, state.grid)
    ev = engine.evaluate(state.u.values, state.v.values)
    return _FiberBasis(engine, ev).energy_at(s)


def check_geometry(params: ModelParams, grid: GridSpec, engine=None) -> GeometryReport:
    """Thresholds and sampled energy estimates of the well/barrier split.

    k2 is the kinetic level where the barrier profile h peaks (with the
    conservative nonlocal bound constant); k1 = k2/100 bounds the low well.
    Energies are sampled over mass-normalized Gaussian pairs pinned to each
    kinetic level.  A continuum Gaussian of mass m and width w has kinetic
    term m N / (2 w^2), so scaling a width pair by one factor lands it on a
    level in closed form, and the pinned pair depends only on the width
    ratio: the 8 x 8 start widths share 15 ratios, and each (ratio, level)
    is evaluated once on the grid.  A well pair already at or below k1 is
    sampled unscaled.  A swap-symmetric model (mu1 = mu2, xi = eta) keeps
    the 8 ratios wu >= wv and the unscaled pairs with wu >= wv: the pair
    pinned for a ratio's inverse is its exact swap, and E(a, b) = E(b, a).
    Raises BetaTooLarge when the coupling sup-norm reaches hmax/(2 xi eta).
    An ``engine`` of these params and grid lends its samples and convolver.
    """
    _require_saddle_regime(params, "the mountain-pass geometry")
    if params.xi <= 0 or params.eta <= 0:
        raise ZeroMass("the mountain-pass geometry needs positive masses on both components")
    k2, hmax, beta_bound = coupling_bound(params)
    k1 = k2 / 100.0
    engine = engine or _SphereDescent(params, grid)
    beta = engine.sampled.beta
    beta_sup = 0.0 if beta is None else float(np.max(np.abs(beta)))
    if beta_sup >= beta_bound:
        raise BetaTooLarge(
            f"coupling sup-norm {beta_sup:.4g} >= admissible bound {beta_bound:.4g}"
        )

    def kinetic(wu: float, wv: float) -> float:
        return 0.5 * grid.dim * (params.xi**2 / wu**2 + params.eta**2 / wv**2)

    def pinned(wu: float, wv: float, level: float, below: bool = False) -> float | None:
        t = math.sqrt(kinetic(wu, wv) / level)
        return _pinned_energy(engine, t * wu, t * wv, level, below)

    widths = [float(w) for w in np.geomspace(0.4, grid.half_extent / 2.0, 8)]
    pairs = [(i - j, wu, wv) for i, wu in enumerate(widths) for j, wv in enumerate(widths)]
    if params.swap_symmetric:
        # E(a, b) = E(b, a), and each ratio -d pins to the exact swap of d's pair
        pairs = [(d, wu, wv) for d, wu, wv in pairs if d >= 0]
    # one representative pair per ratio widths[i] / widths[j], keyed by i - j
    by_ratio = {d: (wu, wv) for d, wu, wv in pairs}
    steep = {d: (wu, wv) for d, wu, wv in pairs if kinetic(wu, wv) > k1}
    barrier = [pinned(wu, wv, k2) for wu, wv in by_ratio.values()]
    well = [pinned(wu, wv, k1, below=True) for wu, wv in steep.values()]
    well += [
        _pinned_energy(engine, wu, wv, k1, below=True)
        for _, wu, wv in pairs
        if kinetic(wu, wv) <= k1
    ]
    # flattest admissible state: the constant pair, kinetic exactly zero
    vol = (2.0 * grid.half_extent) ** grid.dim
    u, v = (np.full(grid.shape, mass / math.sqrt(vol)) for mass in (params.xi, params.eta))
    well.append(_rank_one_energy(engine, u, v))
    barrier = [e for e in barrier if e is not None]
    if not barrier:
        raise GeometryFailed("could not pin sample states to the barrier kinetic level")
    inf_barrier = min(barrier)
    sup_well = max(e for e in well if e is not None)
    return GeometryReport(
        k1=k1,
        k2=k2,
        hmax=hmax,
        beta_bound=beta_bound,
        beta_sup=beta_sup,
        inf_barrier_estimate=inf_barrier,
        sup_well_estimate=sup_well,
        separated=sup_well < inf_barrier,
        analytic_barrier_lower_bound=hmax - beta_sup * params.xi * params.eta,
    )


def _pinned_energy(
    engine: _SphereDescent,
    width_u: float,
    width_v: float,
    kinetic: float,
    below: bool = False,
) -> float | None:
    """Energy of a mass-normalized Gaussian pair whose measured kinetic term
    hits the target to 2% (or, with ``below``, lands anywhere at or under it).

    The first kinetic term is measured at the given widths, which the caller
    pins in closed form; a pair that misses the band is rescaled by its
    measured kinetic term, up to 12 times.  Each measure takes the pair's
    1-D lines only (``rank_one_grad_norm_sq``), so the grid samples just the
    accepted pair, whose energy is ``_rank_one_energy``'s.  None if a width
    leaves (1e-2 h, 20 L)."""
    grid, params = engine.grid, engine.params
    masses = (params.xi**2, params.eta**2)
    widths = (width_u, width_v)
    for _ in range(12):
        if not all(1e-2 * grid.spacing < w < 20 * grid.half_extent for w in widths):
            return None
        k = sum(rank_one_grad_norm_sq(grid, _gaussian_line(grid, w, m))
                for w, m in zip(widths, masses))
        t = math.sqrt(k / kinetic)
        if (below and k <= kinetic) or abs(t - 1.0) < 0.02:
            u, v = (gaussian_field(grid, w, mass=m).values for w, m in zip(widths, masses))
            return _rank_one_energy(engine, u, v)
        widths = tuple(w * t for w in widths)
    return None


def _gaussian_line(grid: GridSpec, width: float, mass: float) -> np.ndarray:
    """The central line a f of ``gaussian_field(grid, width, mass)``, with a
    from the 1-D sum: a f (x) ... (x) f has mass a^2 (h sum f^2)^N, the full
    grid's sum to roundoff."""
    f = np.exp(-grid.axis() ** 2 / (2.0 * width**2))
    return f * math.sqrt(mass / (grid.spacing * float(np.sum(f * f))) ** grid.dim)


def _rank_one_energy(engine: _SphereDescent, u: np.ndarray, v: np.ndarray) -> float:
    """The full grid's energy of a sample pair of centred Gaussians or
    constants: each is its central value a times one 1-D profile per axis,
    1 at the centre, so its kinetic norm and B are sums over its central
    line and nothing is transformed on the grid or convolved."""
    params, grid = engine.params, engine.grid
    centre = (slice(None),) + (grid.points_per_axis // 2,) * (grid.dim - 1)
    lu, lv = u[centre], v[centre]
    gu, gv = rank_one_grad_norm_sq(grid, lu), rank_one_grad_norm_sq(grid, lv)
    b_u, b_v = _gaussian_b(engine.conv, lu, params.p), _gaussian_b(engine.conv, lv, params.q)
    return assemble_breakdown(u, v, params, engine.sampled, gu, gv, b_u, b_v).total


def _gaussian_b(conv: RieszConvolver, line: np.ndarray, p: float) -> float:
    """B(u, p) of u = a f (x) ... (x) f from its central line a f, f = 1 at
    the centre: |u|^p is rank one, N copies of |a^{1/N - 1} line|^p."""
    factor = line * line[conv.grid.points_per_axis // 2] ** (1.0 / conv.grid.dim - 1.0)
    return riesz_energy_rank_one(conv, _power_density(factor, p))


def mountain_pass_solve(
    params: ModelParams, init: StatePair, opts: SaddleOptions | None = None
) -> SolveReport:
    """Min-max over profiles of the fiber-maximized energy.

    Converges when the tangential gradient and the dilation-identity
    residual are both below tolerance; the report carries the level, the
    multipliers and the multiplier-sum identity gap.
    """
    engine = _SaddleEngine(params, init.grid, opts)
    geo = check_geometry(params, init.grid, engine)
    if not geo.separated:
        raise GeometryFailed(
            f"sampled well max {geo.sup_well_estimate:.4g} does not sit below "
            f"sampled barrier min {geo.inf_barrier_estimate:.4g}"
        )
    start = [init.u.values, init.v.values]
    del init  # popped, as in minimize_normalized
    return _saddle_descend(engine, start.pop(0), start.pop(0))


def scalar_constrained_saddle(
    c: float,
    mu: float,
    p: float,
    alpha: float,
    grid: GridSpec,
    opts: SaddleOptions | None = None,
    init_width: float = 1.0,
) -> SolveReport:
    """Single-equation specialization: the least fiber-max level over
    one-component profiles, i.e. the constrained-manifold value n(c, mu)."""
    if c <= 0:
        raise ZeroMass("scalar mass c must be positive")
    engine = _SaddleEngine(_scalar_params(c, mu, p, grid.dim, alpha), grid, opts)
    # popped, as in flow._descend, so that only the descent holds the start
    bump = [gaussian_field(grid, init_width, mass=c**2).values]
    return _saddle_descend(engine, bump[0], bump.pop())


def _saddle_descend(engine: _SaddleEngine, u0: np.ndarray, v0: np.ndarray) -> SolveReport:
    params = engine.params
    opts = engine.opts
    ev, psi, s_star = engine.measure(*engine.retract(*engine.enter_even_subspace(u0, v0)))
    del u0, v0  # the caller's start

    # Round structure: the merit is invariant along each profile's dilation
    # fiber in the continuum but carries a small resolution-induced slope on
    # the grid, so the descent (a) quotients the fiber direction out of every
    # step and residual, and (b) re-centers the profile to its fiber maximum
    # only between rounds.  Each re-centering perturbs the profile at the
    # grid's dilation-defect scale; the following round cleans it up, and the
    # offsets shrink geometrically, so a few rounds converge both the
    # transverse residual and the dilation identity.  Every round ends with
    # the certificate of its recentered state; the last one is the report's.
    trace: list[float] = [psi]
    total_iters = 0
    message = recenter_msg = ""
    budget = opts.max_iters
    tau = 1.0
    for round_no in range(6):
        if budget <= 0:
            break
        record = trace if round_no == 0 else None
        # popped, as in flow._descend, so that only the round holds its start state
        start, ev = [ev], None
        ev, s_star, psi, used, descended, tau, msg = _descent_round(
            engine, start.pop(), s_star, psi, budget, tau, record
        )
        total_iters += used
        budget -= used
        if msg:
            message = msg
        ev, s_star, psi, recenter_msg = _recenter(engine, ev, s_star, psi)
        residuals, certified = engine.certificate(ev, s_star)
        converged = descended and certified
        if converged:
            break
    # the last round's recentering is the one the reported state went through
    message = "; ".join(m for m in (message, recenter_msg) if m)
    full = engine.leave_even_subspace(ev)
    if full is not None:  # the full-grid certificate
        ev, _, s_star = full
        residuals, certified = engine.certificate(ev, s_star)
        if converged and not certified:
            converged, message = False, engine.uncertified
    if budget <= 0 and not descended:
        message = message or "iteration budget exhausted"
    if not message and descended and residuals["projected_gradient"] > opts.grad_tol:
        message = (
            "descent/recentering alternation left a residual above tolerance "
            "(grid resolution limits the dilation identity); refine the grid"
        )
    rep = _report(engine, ev, residuals, total_iters, converged, trace, message)
    if converged and params.eta > 0.0 and rep.multipliers.lambda2 <= 0.0:
        warnings.warn(
            "lambda2 <= 0 at a converged saddle: the coupled system admits no "
            "semi-trivial normalized solutions, so this critical point is suspect",
            stacklevel=2,
        )
    return rep


def _recenter(engine: _SaddleEngine, ev: StateEval, s_star: float, psi: float):
    """Dilate the profile to its own fiber maximum (a pure gauge move) so the
    reported state itself satisfies the dilation identity.  A dilation that
    leaves the box keeps the last profile, whose own energy (at s = 0) is
    then not its fiber-maximum level; the message says so."""
    message = ""
    for _ in range(4):
        if abs(s_star) <= _RECENTER_TOL:
            break
        try:
            dilated = ev.each(engine.through_full_grid(
                lambda w: dilate(ScalarField(engine.grid, w), s_star).values
            ))
            ev, psi, s_star = engine.measure(*engine.retract(*dilated))
        except DilationOutOfBox:
            message = (
                f"recentering left the box at fiber offset s = {s_star:.4g}: energy.total is "
                f"the unrecentered profile's energy at s = 0 ({ev.breakdown.total:.6g}), "
                f"not its fiber-maximum level ({psi:.6g})"
            )
            break
    return ev, s_star, psi, message


def kinetic_bounds_check(report: SolveReport, params: ModelParams) -> tuple[bool, bool]:
    """Check the converged kinetic term against the bracket implied by the
    identity (p delta_p - 1) K = 2 p delta_p E - d_s E + int(2 p delta_p beta
    + x.grad beta) u v, bounding the coupling integral by its sup-norm times
    xi eta.  Requires a converged supercritical report."""
    _require_saddle_regime(params, "the kinetic bounds check")
    if not report.converged:
        raise NotConverged("kinetic bounds are only meaningful at convergence")
    bd = report.energy
    k = bd.grad_sq_u + bd.grad_sq_v
    if k <= 0.0:
        raise NotConverged("zero state cannot be a converged saddle")
    pdp = params.p * params.delta_p
    sup_combo = _coupling_sup(sample_model(params, report.state.grid), pdp)
    half_width = sup_combo * params.xi * params.eta
    poh = abs(report.residuals.get("pohozaev", 0.0))
    level = bd.total
    lower = (2.0 * pdp * level - half_width - poh) / (pdp - 1.0)
    upper = (2.0 * pdp * level + half_width + poh) / (pdp - 1.0)
    slack = 1e-9 * max(1.0, k)
    return (k >= lower - slack, k <= upper + slack)
