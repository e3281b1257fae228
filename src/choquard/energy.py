"""Energy functional of the coupled system, its gradient and identity checks.

The functional on a pair (u, v) is

    E(u, v) = 1/2 (||grad u||^2 + ||grad v||^2)
            + 1/2 int (V1 u^2 + V2 v^2)
            - mu1/(2p) B(u, p) - mu2/(2q) B(v, q)
            - int beta(x) u v,

with B(u, p) = int (K * |u|^p) |u|^p for the Riesz kernel K.  Everything
here is assembled from the same discrete primitives (spectral Laplacian,
padded free-space convolution, midpoint quadrature), so the gradient
returned by ``el_gradient`` is the exact derivative of the discrete energy:
finite differences of ``energy_total`` reproduce it to truncation error.
``gradient_values`` also gives the gradient pulled back along the dilation
fiber, which the saddle solver descends.

A model with p = q, mu1 = mu2, xi = eta and V1 = V2 is swap-symmetric
(``ModelParams.swap_symmetric``), and a u = v state of it stays u = v under
both solvers.  ``evaluate_state`` marks such a state ``mirrored``; it and
the gradient then compute the v side once, from u, and hold one array for
both sides, bitwise what computing it again would give; a map alike on u
and v goes through ``StateEval.each``, which applies it once.  A component
frozen at zero mass is zeroed by the solvers' retraction, and its
convolution and its ``StateEval.each`` maps are skipped.

A reflection-even state may be evaluated on its (M/2 + 1)^N octant; its
convolutions and gradient are then octants.  The layout is the arrays' shape
(``grid.on_octant``): the quadrature weighs each octant point by its
multiplicity on the full grid (``grid.grid_sum``), the kinetic term and the
Laplacian are DCT-I forms, and ``riesz_convolve_values`` reads it too.

The state functions (``energy_total``, ``el_gradient``,
``lagrange_multipliers``, ``pohozaev_residual``, ``multiplier_sum_identity``)
take ``(state, params)`` and build their convolver from
``(state.grid, params.alpha)``.  The solvers call ``evaluate_state`` with
the convolver and full-grid ``SampledModel`` they hold and reuse its result
in the ``_from_breakdown`` and ``_from_state`` helpers.  The result carries
the samples of its fields' layout (``StateEval.sampled``; the octant's are
folded once and cached, ``SampledModel.folded``), which the helpers read.

Identity checks:

* ``lagrange_multipliers`` (and ``multipliers_from_breakdown`` for an
  evaluated state) extracts the frequencies from the constraint pairing of
  the gradient with (u, 0) and (0, v).
* ``pohozaev_residual`` (and ``pohozaev_from_state`` for an evaluated
  state) evaluates K - delta_p (mu1 B_u + mu2 B_v)
  + int (x . grad beta) u v, which equals the s-derivative of the energy
  along the dilation fiber at s = 0 and vanishes at critical points (only
  derived for p = q, no potentials, supercritical).
* ``multiplier_sum_identity`` (and ``multiplier_sum_from_state`` for an
  evaluated state) returns both sides of
  lambda1 xi^2 + lambda2 eta^2 = (1/delta_p - 1) K
      + int (2 beta + x . grad beta / delta_p) u v,
  whose gap is |pohozaev_residual| / delta_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, ModeMismatch, NotSupercritical, ZeroMass
from .grid import (
    GridSpec,
    ScalarField,
    StatePair,
    fold,
    grad_norm_sq_values,
    grid_sum,
    neg_laplacian_values,
    on_octant,
)
from .model import ModelParams, coupling_values, coupling_x_grad_values, potential_values
from .riesz import RieszConvolver, build_convolver, riesz_convolve_values


@dataclass(frozen=True)
class EnergyBreakdown:
    """The five summands of the energy exactly as composed, plus the raw
    ingredients (kinetic norms, B values, coupling integral) that the
    identity checks reuse."""

    kinetic: float
    potential_v1: float
    potential_v2: float
    nonlocal_u: float
    nonlocal_v: float
    coupling: float
    total: float
    grad_sq_u: float
    grad_sq_v: float
    b_u: float
    b_v: float
    pot_u_integral: float
    pot_v_integral: float
    coupling_integral: float


@dataclass(frozen=True)
class Multipliers:
    lambda1: float
    lambda2: float


@dataclass
class SampledModel:
    """Full-grid samples of the model's spatial data, computed once per solve.

    A constant coupling is held as its value beta0, a float that every
    product with a field broadcasts bitwise as its M^N samples would, and
    its x_grad_beta, identically zero, is None.  The zero coupling has beta
    None too, and a zero potential is None."""

    grid: GridSpec
    v1: np.ndarray | None
    v2: np.ndarray | None
    beta: np.ndarray | float | None
    x_grad_beta: np.ndarray | None

    @cached_property
    def folded(self) -> "SampledModel":
        """The samples on the octant, for an even-subspace evaluation, folded
        on first use; the fold of a bitwise-even sample is its restriction,
        and a constant is even and stays as it is."""
        samples = (self.v1, self.v2, self.beta, self.x_grad_beta)
        return SampledModel(self.grid, *(a if np.ndim(a) == 0 else fold(a) for a in samples))


def sample_model(params: ModelParams, grid: GridSpec) -> SampledModel:
    spec = params.coupling
    beta = xgb = None
    if spec.kind != "constant":
        beta, xgb = coupling_values(spec, grid), coupling_x_grad_values(spec, grid)
    elif spec.beta0 != 0.0:
        beta = float(spec.beta0)
    v1 = None if params.v1.is_zero else potential_values(params.v1, grid)
    v2 = None if params.v2.is_zero else potential_values(params.v2, grid)
    return SampledModel(grid=grid, v1=v1, v2=v2, beta=beta, x_grad_beta=xgb)


def _quad(grid: GridSpec, arr: np.ndarray) -> float:
    """Midpoint quadrature of a field on the grid or on its octant."""
    return grid.cell_volume * grid_sum(grid, arr)


def _power_density(values: np.ndarray, p: float) -> np.ndarray:
    """|u|^p, safe for non-integer p at sign changes."""
    if p == 2.0:
        return values * values
    return np.abs(values) ** p


def _power_force(values: np.ndarray, p: float) -> np.ndarray:
    """|u|^{p-2} u as sign(u) |u|^{p-1}, continuous at zeros for p > 1."""
    if p == 2.0:
        return values
    return np.sign(values) * np.abs(values) ** (p - 1.0)


def _nonlocal(
    conv: RieszConvolver, values: np.ndarray, p: float
) -> tuple[np.ndarray | None, float]:
    """(K * |w|^p, B(w, p)) of a field's values, on their layout; (None, 0.0)
    for an all-zero field.  The density is freed on return."""
    if not np.any(values):
        return None, 0.0
    dens = _power_density(values, p)
    conv_w = riesz_convolve_values(conv, dens)
    return conv_w, _quad(conv.grid, conv_w * dens)


def nonlocal_B(u: ScalarField, p: float, conv: RieszConvolver) -> float:
    """B(u, p) = int (K * |u|^p) |u|^p; nonnegative."""
    if u.grid != conv.grid:
        raise GridMismatch("field grid differs from the convolver's grid")
    return _nonlocal(conv, u.values, p)[1]


@dataclass
class StateEval:
    """Cache of everything the energy and gradient share for one state.

    ``mirrored`` marks a state with u == v of a swap-symmetric model; its
    v-side quantities are u's (``conv_v`` is ``conv_u``).  The fields, and
    the model's samples in ``sampled``, are full-grid arrays or octants."""

    u: np.ndarray
    v: np.ndarray
    conv_u: np.ndarray | None
    conv_v: np.ndarray | None
    breakdown: EnergyBreakdown
    sampled: SampledModel
    mirrored: bool = False

    def each(self, f):
        """(f(u), f(v)) for a map with f(0) = 0: f is called once, on u, for
        a mirrored state, and not at all on an all-zero side, which maps to
        zeros."""

        def apply(w: np.ndarray) -> np.ndarray:
            return f(w) if np.any(w) else np.zeros_like(w)

        fu = apply(self.u)
        return (fu, fu) if self.mirrored else (fu, apply(self.v))


def evaluate_state(
    u_values: np.ndarray,
    v_values: np.ndarray,
    params: ModelParams,
    conv: RieszConvolver,
    sampled: SampledModel,
) -> StateEval:
    """The energy of a state and what its gradient reuses, of full-grid
    fields or of the octants of a reflection-even state; ``sampled`` is the
    full grid's, and the evaluation keeps them on the fields' layout."""
    grid = conv.grid
    sampled = sampled.folded if on_octant(grid, u_values) else sampled
    mirrored = params.swap_symmetric and np.array_equal(u_values, v_values)
    gu = grad_norm_sq_values(grid, u_values)
    gv = gu if mirrored else grad_norm_sq_values(grid, v_values)

    conv_u, b_u = _nonlocal(conv, u_values, params.p)
    conv_v, b_v = (conv_u, b_u) if mirrored else _nonlocal(conv, v_values, params.q)
    breakdown = assemble_breakdown(u_values, v_values, params, sampled, gu, gv, b_u, b_v)
    return StateEval(
        u=u_values, v=v_values, conv_u=conv_u, conv_v=conv_v, breakdown=breakdown,
        sampled=sampled, mirrored=mirrored,
    )


def assemble_breakdown(
    u_values: np.ndarray, v_values: np.ndarray, params: ModelParams, sampled: SampledModel,
    gu: float, gv: float, b_u: float, b_v: float,
) -> EnergyBreakdown:
    """The energy of a state from its kinetic norms and B values, with the
    potential and coupling integrals taken on the layout of the fields."""
    grid = sampled.grid
    pot_u = _quad(grid, sampled.v1 * u_values**2) if sampled.v1 is not None else 0.0
    pot_v = _quad(grid, sampled.v2 * v_values**2) if sampled.v2 is not None else 0.0
    coup = _quad(grid, sampled.beta * u_values * v_values) if sampled.beta is not None else 0.0

    kinetic = 0.5 * (gu + gv)
    nl_u = -params.mu1 / (2.0 * params.p) * b_u
    nl_v = -params.mu2 / (2.0 * params.q) * b_v
    return EnergyBreakdown(
        kinetic=kinetic,
        potential_v1=0.5 * pot_u,
        potential_v2=0.5 * pot_v,
        nonlocal_u=nl_u,
        nonlocal_v=nl_v,
        coupling=-coup,
        total=kinetic + 0.5 * pot_u + 0.5 * pot_v + nl_u + nl_v - coup,
        grad_sq_u=gu,
        grad_sq_v=gv,
        b_u=b_u,
        b_v=b_v,
        pot_u_integral=pot_u,
        pot_v_integral=pot_v,
        coupling_integral=coup,
    )


def gradient_values(
    ev: StateEval,
    params: ModelParams,
    s: float = 0.0,
    beta: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unconstrained gradient fields (dE/du, dE/dv) from a cached evaluation.

    With an offset s it is the gradient pulled back from the dilation fiber
    point s * (u, v): the kinetic term scales by e^{2s}, the nonlocal terms
    by e^{2 p delta_p s} and e^{2 q delta_q s}, and ``beta`` must then be
    beta(e^{-s} x), on the state's layout.  s = 0 with the evaluation's beta
    is the plain gradient.  A mirrored state's u side serves both sides."""
    sampled = ev.sampled
    grid = sampled.grid
    beta = sampled.beta if beta is None else beta

    def side(w, other, conv_w, pot, mu: float, e: float, de: float) -> np.ndarray:
        g = neg_laplacian_values(grid, w)
        g *= math.exp(2.0 * s)
        if conv_w is not None:
            g -= math.exp(2.0 * e * de * s) * mu * conv_w * _power_force(w, e)
        if pot is not None:
            g += pot * w
        if beta is not None:
            g -= beta * other
        return g

    gu = side(ev.u, ev.v, ev.conv_u, sampled.v1, params.mu1, params.p, params.delta_p)
    if ev.mirrored:
        return gu, gu
    return gu, side(ev.v, ev.u, ev.conv_v, sampled.v2, params.mu2, params.q, params.delta_q)


def _evaluated(state: StatePair, params: ModelParams) -> StateEval:
    """A state evaluated with the convolver of its grid and ``params.alpha``."""
    conv = build_convolver(state.grid, params.alpha)
    sampled = sample_model(params, state.grid)
    return evaluate_state(state.u.values, state.v.values, params, conv, sampled)


def energy_total(state: StatePair, params: ModelParams) -> EnergyBreakdown:
    """Full energy with per-term breakdown; zero potentials reduce it to the
    translation-invariant functional."""
    return _evaluated(state, params).breakdown


def el_gradient(state: StatePair, params: ModelParams) -> StatePair:
    """Gradient pair of the energy; the flow direction and residual source."""
    gu, gv = gradient_values(_evaluated(state, params), params)
    gv = gu.copy() if gv is gu else gv  # a mirrored state's one array, handed out twice
    return StatePair(ScalarField(state.grid, gu), ScalarField(state.grid, gv))


def lagrange_multipliers(state: StatePair, params: ModelParams) -> Multipliers:
    """Frequencies from pairing the gradient with (u, 0) and (0, v):

        lambda1 = -(||grad u||^2 + int V1 u^2 - mu1 B(u,p) - int beta u v) / ||u||^2
    and symmetrically for lambda2."""
    mass_u = state.u.mass
    mass_v = state.v.mass
    if mass_u <= 0.0 or mass_v <= 0.0:
        raise ZeroMass("multipliers require both components to carry mass")
    bd = _evaluated(state, params).breakdown
    return multipliers_from_breakdown(bd, params, mass_u, mass_v)


def multipliers_from_breakdown(
    bd: EnergyBreakdown, params: ModelParams, mass_u: float, mass_v: float
) -> Multipliers:
    """The frequencies of ``lagrange_multipliers`` from an evaluated state
    and its masses; a component of zero mass gets 0."""

    def lam(grad_sq: float, pot: float, mu: float, b: float, mass: float) -> float:
        if mass <= 0.0:
            return 0.0
        return -(grad_sq + pot - mu * b - bd.coupling_integral) / mass

    return Multipliers(
        lam(bd.grad_sq_u, bd.pot_u_integral, params.mu1, bd.b_u, mass_u),
        lam(bd.grad_sq_v, bd.pot_v_integral, params.mu2, bd.b_v, mass_v),
    )


def _require_saddle_regime(params: ModelParams, what: str) -> None:
    """The regime of the dilation fiber and its identities: p = q and
    supercritical (else NotSupercritical), no potentials (else ModeMismatch)."""
    if not params.saddle_regime:
        raise NotSupercritical(f"{what} requires p = q in the supercritical regime")
    if not (params.v1.is_zero and params.v2.is_zero):
        raise ModeMismatch(f"{what} is only derived without external potentials")


def pohozaev_residual(state: StatePair, params: ModelParams) -> float:
    """K - delta_p (mu1 B_u + mu2 B_v) + int (x . grad beta) u v.

    Equals d/ds of the fiber energy at s = 0; zero at critical points of the
    constrained problem.  Refuses potential-carrying states: no analogue of
    the identity is available there.
    """
    _require_saddle_regime(params, "the dilation identity")
    return pohozaev_from_state(_evaluated(state, params), params)


def pohozaev_from_state(ev: StateEval, params: ModelParams) -> float:
    bd, sampled = ev.breakdown, ev.sampled
    res = (bd.grad_sq_u + bd.grad_sq_v) - params.delta_p * (
        params.mu1 * bd.b_u + params.mu2 * bd.b_v
    )
    if sampled.x_grad_beta is not None:
        res += _quad(sampled.grid, sampled.x_grad_beta * (ev.u * ev.v))
    return res


def multiplier_sum_identity(state: StatePair, params: ModelParams) -> tuple[float, float]:
    """(lhs, rhs) of the multiplier-sum identity.

    lhs = lambda1 xi^2 + lambda2 eta^2 assembled directly from the pairing
    relations (well-defined even for vanishing components); rhs is the
    kinetic/coupling form.  The two agree exactly when the dilation identity
    holds: lhs - rhs = -pohozaev_residual / delta_p.
    """
    _require_saddle_regime(params, "the multiplier-sum identity")
    return multiplier_sum_from_state(_evaluated(state, params), params)


def multiplier_sum_from_state(ev: StateEval, params: ModelParams) -> tuple[float, float]:
    """(lhs, rhs) of the multiplier-sum identity from an evaluated state."""
    bd, sampled = ev.breakdown, ev.sampled
    k = bd.grad_sq_u + bd.grad_sq_v
    lhs = -k + params.mu1 * bd.b_u + params.mu2 * bd.b_v + 2.0 * bd.coupling_integral
    dp = params.delta_p
    rhs = (1.0 / dp - 1.0) * k
    if sampled.beta is not None:
        combo = 2.0 * sampled.beta
        if sampled.x_grad_beta is not None:
            combo = combo + sampled.x_grad_beta / dp
        rhs += _quad(sampled.grid, combo * (ev.u * ev.v))
    return lhs, rhs
