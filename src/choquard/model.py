"""Parameter bundle, exponent algebra, coupling/potential families, validators.

Conventions
-----------
* delta_p = (N(p-1) - alpha) / (2p); the product p*delta_p classifies the
  exponent: < 1 mass-subcritical, = 1 critical, > 1 mass-supercritical
  (equivalently p vs 1 + (alpha+2)/N).
* The admissible exponent window is 1 + alpha/N < p < (N+alpha)/(N-2)
  (upper bound void for N <= 2).
* h(x) = x/2 - C x^{p delta_p} / (2p) is the barrier profile whose maximum
  sets the mountain-pass thresholds; C is the constant bounding
  mu1 B(u,p) + mu2 B(v,p) by kinetic powers on the constraint set.  That
  constant is assembled from the sharp Hardy-Littlewood-Sobolev constant
  and a Gaussian-family estimate of the Gagliardo-Nirenberg constant,
  inflated by a safety factor so the barrier bound stays conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import AlphaOutOfRange, NotSupercritical, RangeError
from .grid import GridSpec, radial_values, x_grad_values

GN_SAFETY = 2.0  # headroom over the Gaussian-family Gagliardo-Nirenberg estimate
ALPHA_FLOOR = 1e-6  # smallest alpha a model accepts, clear of the Gamma(alpha/2) pole


# ---------------------------------------------------------------------------
# exponent algebra


def delta_p(dim: int, alpha: float, p: float) -> float:
    """Interpolation exponent (N(p-1) - alpha) / (2p)."""
    return (dim * (p - 1.0) - alpha) / (2.0 * p)


def gamma_p(dim: int, p: float) -> float:
    """Gagliardo-Nirenberg gradient exponent N(1/2 - 1/p)."""
    return dim * (0.5 - 1.0 / p)


def critical_exponent(dim: int, alpha: float) -> float:
    """The mass-critical exponent 1 + (alpha + 2)/N."""
    return 1.0 + (alpha + 2.0) / dim


def upper_exponent(dim: int, alpha: float) -> float:
    """Upper admissible exponent (N + alpha)/(N - 2); inf for N <= 2."""
    if dim <= 2:
        return math.inf
    return (dim + alpha) / (dim - 2.0)


def classify(dim: int, alpha: float, p: float) -> str:
    """'subcritical' | 'critical' | 'supercritical' via exact rational comparison.

    Binary floats are exact rationals, so comparing N(p-1) - alpha with 2 in
    Fraction arithmetic reproduces the p vs 1 + (alpha+2)/N comparison with
    no rounding at the boundary.
    """
    lhs = Fraction(dim) * (Fraction(p) - 1) - Fraction(alpha)
    if lhs < 2:
        return "subcritical"
    if lhs == 2:
        return "critical"
    return "supercritical"


@dataclass(frozen=True)
class Regime:
    label_p: str
    label_q: str

    @property
    def label(self) -> str:
        if self.label_p == self.label_q:
            return self.label_p
        return "mixed"


# ---------------------------------------------------------------------------
# coupling and potential families


@dataclass(frozen=True, eq=False)
class CouplingSpec:
    """Coupling weight beta(x) in front of the bilinear u*v term.

    kind:
      constant       beta(x) = beta0
      rational_decay beta(x) = beta0 (1 + |x|^2)^{-decay}; with decay equal
                     to delta_p this family satisfies the saddle admissibility
                     condition 2*beta + x.grad(beta)/delta_p >= 0 identically.
      tabulated      values sampled on the grid; x.grad(beta) is computed
                     spectrally.
    """

    kind: str
    beta0: float = 0.0
    decay: float = 1.0
    values: np.ndarray | None = field(default=None, repr=False)
    # the fields each kind reads
    FIELDS = {"constant": ("beta0",), "rational_decay": ("beta0", "decay"),
              "tabulated": ("values",)}

    def __post_init__(self) -> None:
        if self.kind not in self.FIELDS:
            raise RangeError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "tabulated" and self.values is None:
            raise RangeError("tabulated coupling requires values")
        if self.kind != "tabulated" and self.beta0 < 0:
            raise RangeError("beta0 must be nonnegative")


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """External potential family.

    kind:
      zero          V = 0
      gaussian_well V(x) = -depth * exp(-|x|^2 / width^2)   (negative, vanishing)
      harmonic      V(x) = stiffness * |x|^2                (trapping)
      tabulated     values sampled on the grid
    """

    kind: str
    depth: float = 1.0
    width: float = 1.0
    stiffness: float = 1.0
    values: np.ndarray | None = field(default=None, repr=False)
    # the fields each kind reads
    FIELDS = {"zero": (), "gaussian_well": ("depth", "width"), "harmonic": ("stiffness",),
              "tabulated": ("values",)}

    def __post_init__(self) -> None:
        if self.kind not in self.FIELDS:
            raise RangeError(f"unknown potential kind {self.kind!r}")
        if self.kind == "gaussian_well" and (self.depth <= 0 or self.width <= 0):
            raise RangeError("gaussian_well requires depth > 0 and width > 0")
        if self.kind == "harmonic" and self.stiffness <= 0:
            raise RangeError("harmonic requires stiffness > 0")
        if self.kind == "tabulated" and self.values is None:
            raise RangeError("tabulated potential requires values")

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"


ZERO_POTENTIAL = PotentialSpec("zero")


def coupling_radial_values(spec: CouplingSpec, r2: np.ndarray) -> np.ndarray:
    """beta at points of squared radius r2, for the built-in families.

    Every built-in family is radial, so this one formula per family serves
    the grid (``coupling_values``), the dilation fiber
    (``coupling_scaled_values``) and the fiber's shell sum in the saddle
    solver, each of which evaluates it once per distinct grid radius."""
    if spec.kind == "constant":
        return np.full(np.shape(r2), spec.beta0)
    if spec.kind == "rational_decay":
        return spec.beta0 * (1.0 + r2) ** (-spec.decay)
    raise RangeError("tabulated couplings cannot be resampled analytically")


def _grid_values(spec: CouplingSpec | PotentialSpec, grid: GridSpec, radial) -> np.ndarray:
    """A coupling's or potential's samples on the grid: its table, or its
    built-in kind's ``radial`` formula read once per radial shell."""
    if spec.kind != "tabulated":
        return radial_values(grid, lambda r2: radial(spec, r2))
    vals = np.asarray(spec.values, dtype=np.float64)
    if vals.shape != grid.shape:
        what = "coupling" if isinstance(spec, CouplingSpec) else "potential"
        raise RangeError(f"tabulated {what} shape {vals.shape} != grid {grid.shape}")
    return vals


def coupling_values(spec: CouplingSpec, grid: GridSpec) -> np.ndarray:
    return _grid_values(spec, grid, coupling_radial_values)


def coupling_x_grad_values(spec: CouplingSpec, grid: GridSpec) -> np.ndarray:
    """x . grad(beta), analytic for built-ins, spectral for tabulated data."""
    if spec.kind == "constant":
        return np.zeros(grid.shape)
    if spec.kind == "rational_decay":
        b, d = spec.beta0, spec.decay
        return radial_values(grid, lambda r2: -2.0 * d * b * r2 * (1.0 + r2) ** (-d - 1.0))
    return x_grad_values(grid, coupling_values(spec, grid))


def coupling_scaled_values(
    spec: CouplingSpec, grid: GridSpec, scale: float, field: np.ndarray
) -> np.ndarray:
    """beta(scale * x) for the built-in families (used along dilation fibers),
    on the layout of ``field``."""
    return radial_values(grid, lambda r2: coupling_radial_values(spec, scale**2 * r2), field)


def potential_radial_values(spec: PotentialSpec, r2: np.ndarray) -> np.ndarray:
    """V at points of squared radius r2, for the built-in kinds, each of
    which is radial: the grid's samples (``potential_values``) and a ray's
    (the CLI's profiles) come from this one formula."""
    if spec.kind == "zero":
        return np.zeros(np.shape(r2))
    if spec.kind == "gaussian_well":
        return -spec.depth * np.exp(-r2 / spec.width**2)
    if spec.kind == "harmonic":
        return spec.stiffness * r2
    raise RangeError("tabulated potentials cannot be resampled analytically")


def potential_values(spec: PotentialSpec, grid: GridSpec) -> np.ndarray:
    return _grid_values(spec, grid, potential_radial_values)


# ---------------------------------------------------------------------------
# parameter bundle


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All model parameters: exponents, weights, target masses, families."""

    dim: int
    alpha: float
    p: float
    q: float
    mu1: float
    mu2: float
    xi: float
    eta: float
    coupling: CouplingSpec = CouplingSpec("constant", 0.0)
    v1: PotentialSpec = ZERO_POTENTIAL
    v2: PotentialSpec = ZERO_POTENTIAL

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise RangeError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not 0.0 < self.alpha < self.dim:
            raise AlphaOutOfRange(f"alpha must lie in (0, {self.dim}), got {self.alpha}")
        if self.alpha < ALPHA_FLOOR:
            raise AlphaOutOfRange(
                f"alpha = {self.alpha} is below {ALPHA_FLOOR:g}, near the Gamma(alpha/2) pole"
            )
        lo = 1.0 + self.alpha / self.dim
        hi = upper_exponent(self.dim, self.alpha)
        for name, e in (("p", self.p), ("q", self.q)):
            if not lo < e < hi:
                raise RangeError(
                    f"{name}={e} outside the admissible window "
                    f"{lo:g} < {name} < {hi:g} for dim={self.dim}, alpha={self.alpha:g}"
                )
        if self.mu1 <= 0 or self.mu2 <= 0:
            raise RangeError("mu1 and mu2 must be positive")
        if self.xi < 0 or self.eta < 0:
            raise RangeError("xi and eta must be nonnegative")
        if self.xi == 0 and self.eta == 0:
            raise RangeError("at least one of xi, eta must be positive")

    @property
    def delta_p(self) -> float:
        return delta_p(self.dim, self.alpha, self.p)

    @property
    def delta_q(self) -> float:
        return delta_p(self.dim, self.alpha, self.q)

    def regime(self) -> Regime:
        return Regime(
            label_p=classify(self.dim, self.alpha, self.p),
            label_q=classify(self.dim, self.alpha, self.q),
        )

    @property
    def saddle_regime(self) -> bool:
        """Whether p = q and the exponent is mass-supercritical: the regime of
        the dilation fiber, the saddle solver and the identities derived on it."""
        return self.p == self.q and classify(self.dim, self.alpha, self.p) == "supercritical"

    def with_masses(self, xi: float, eta: float) -> "ModelParams":
        return replace(self, xi=xi, eta=eta)

    @property
    def swap_symmetric(self) -> bool:
        """Whether swapping u and v maps the energy and the constraint to
        themselves: p = q, mu1 = mu2, xi = eta and V1, V2 of one built-in
        family, equal in the fields it reads.  A tabulated potential counts
        as not symmetric; its values are not compared."""
        a, b = self.v1, self.v2
        return (
            self.p == self.q
            and self.mu1 == self.mu2
            and self.xi == self.eta
            and a.kind == b.kind != "tabulated"
            and all(getattr(a, key) == getattr(b, key) for key in a.FIELDS[a.kind])
        )


# ---------------------------------------------------------------------------
# sharp constants and barrier thresholds


def hls_sharp_constant(dim: int, alpha: float) -> float:
    """Sharp constant of the bilinear Riesz-kernel bound at the symmetric
    exponent t = r = 2N/(N + alpha):

        pi^{(N-alpha)/2} * Gamma(alpha/2)/Gamma((N+alpha)/2)
            * (Gamma(N/2)/Gamma(N))^{-alpha/N}.
    """
    if not 0.0 < alpha < dim:
        raise AlphaOutOfRange(f"alpha must lie in (0, {dim}), got {alpha}")
    if alpha < ALPHA_FLOOR:
        raise OverflowError(f"alpha below {ALPHA_FLOOR:g}: Gamma(alpha/2) pole")
    return (
        math.pi ** ((dim - alpha) / 2.0)
        * math.gamma(alpha / 2.0)
        / math.gamma((dim + alpha) / 2.0)
        * (math.gamma(dim / 2.0) / math.gamma(dim)) ** (-alpha / dim)
    )


def gn_gaussian_quotient(dim: int, t: float) -> float:
    """||u||_t / (||grad u||_2^g ||u||_2^{1-g}) evaluated on a Gaussian.

    The quotient is invariant under dilation and scalar multiple, so every
    centered isotropic Gaussian gives the same value; it lower-bounds the
    sharp Gagliardo-Nirenberg constant.
    """
    g = gamma_p(dim, t)
    norm_t = (math.pi / t) ** (dim / (2.0 * t))
    norm_2 = (math.pi / 2.0) ** (dim / 4.0)
    grad_2 = math.sqrt(dim) * norm_2
    return norm_t / (grad_2**g * norm_2 ** (1.0 - g))


def nonlocal_bound_constant(dim: int, alpha: float, p: float) -> float:
    """Constant C with B(u, p) <= C ||grad u||^{2 p delta_p} ||u||^{2p(1-delta_p)}.

    Hardy-Littlewood-Sobolev at t = 2Np/(N+alpha) composed with the
    Gaussian-family Gagliardo-Nirenberg estimate, times GN_SAFETY headroom
    (the Gaussian value underestimates the sharp constant).
    """
    t = 2.0 * dim * p / (dim + alpha)
    return GN_SAFETY * hls_sharp_constant(dim, alpha) * gn_gaussian_quotient(dim, t) ** (2.0 * p)


def c_xi_eta(params: ModelParams) -> float:
    """Mass-weighted constant bounding mu1 B(u,p) + mu2 B(v,p) by kinetic powers."""
    dp = params.delta_p
    try:
        c = nonlocal_bound_constant(params.dim, params.alpha, params.p)
        return c * max(
            params.mu1 * params.xi ** (2.0 * params.p * (1.0 - dp)),
            params.mu2 * params.eta ** (2.0 * params.p * (1.0 - dp)),
        )
    except OverflowError as exc:
        raise RangeError(f"the nonlocal bound constant overflows: {exc}") from exc


def h_function(x, c: float, p: float, dp: float):
    return 0.5 * x - (c / (2.0 * p)) * x ** (p * dp)


def h_thresholds(c: float, p: float, dp: float) -> tuple[float, float, float]:
    """(x0, x1, hmax) for h(x) = x/2 - C x^{p dp}/(2p) in the supercritical case.

    x1 solves h'(x) = 0, x0 is the positive root of h, hmax = h(x1) > 0.
    """
    if not 0.0 < c < math.inf:
        raise RangeError(f"barrier constant must be positive and finite, got {c}")
    pdp = p * dp
    if pdp <= 1.0:
        raise NotSupercritical(f"p*delta_p = {pdp:g} <= 1: no barrier maximum")
    x1 = (p / (c * pdp)) ** (1.0 / (pdp - 1.0))
    x0 = (p / c) ** (1.0 / (pdp - 1.0))
    hmax = float(h_function(x1, c, p, dp))
    return x0, x1, hmax


def coupling_bound(params: ModelParams) -> tuple[float, float, float | None]:
    """(k2, hmax, bound): the kinetic level x1 where the barrier profile h
    peaks, its peak hmax, and the admissible coupling sup-norm
    hmax / (2 xi eta), None unless both masses are positive."""
    _, k2, hmax = h_thresholds(c_xi_eta(params), params.p, params.delta_p)
    if params.xi > 0 and params.eta > 0:
        return k2, hmax, hmax / (2.0 * params.xi * params.eta)
    return k2, hmax, None


# ---------------------------------------------------------------------------
# validators


@dataclass(frozen=True)
class CouplingReport:
    """Sampled admissibility check of a coupling against the saddle conditions."""

    positive_ok: bool
    min_beta: float
    sup_beta: float
    sup_x_grad_beta: float
    bounded_ok: bool
    sup_bound: float | None
    sup_ok: bool | None
    condition3_min: float | None
    condition3_ok: bool | None
    condition3_argmin: tuple[float, ...] | None

    @property
    def passed(self) -> bool:
        checks = [self.positive_ok, self.bounded_ok]
        checks += [c for c in (self.sup_ok, self.condition3_ok) if c is not None]
        return all(checks)


def validate_coupling(spec: CouplingSpec, params: ModelParams, grid: GridSpec) -> CouplingReport:
    """Sample beta on the grid and check positivity, boundedness, the sup-norm
    barrier bound and the sign condition 2*beta + x.grad(beta)/delta_p >= 0.

    The last two only apply in the supercritical regime with p = q; they are
    reported as None otherwise.
    """
    beta = coupling_values(spec, grid)
    xg = coupling_x_grad_values(spec, grid)
    min_beta = float(np.min(beta))
    sup_beta = float(np.max(np.abs(beta)))
    sup_xg = float(np.max(np.abs(xg)))
    bounded = bool(np.all(np.isfinite(beta)) and np.all(np.isfinite(xg)))

    sup_bound = sup_ok = cond3_min = cond3_ok = argmin = None
    if params.saddle_regime:
        sup_bound = coupling_bound(params)[2]
        if sup_bound is not None:
            sup_ok = sup_beta < sup_bound
        cond3 = 2.0 * beta + xg / params.delta_p
        cond3_min = float(np.min(cond3))
        cond3_ok = cond3_min >= -1e-12
        flat = int(np.argmin(cond3))
        idx = np.unravel_index(flat, grid.shape)
        ax = grid.axis()
        argmin = tuple(float(ax[i]) for i in idx)
    return CouplingReport(
        positive_ok=min_beta > 0.0,
        min_beta=min_beta,
        sup_beta=sup_beta,
        sup_x_grad_beta=sup_xg,
        bounded_ok=bounded,
        sup_bound=sup_bound,
        sup_ok=sup_ok,
        condition3_min=cond3_min,
        condition3_ok=cond3_ok,
        condition3_argmin=argmin,
    )


@dataclass(frozen=True)
class PotentialReport:
    label: str
    requested: str
    passed: bool
    all_negative: bool
    boundary_sup: float
    interior_max: float
    boundary_min: float


def _boundary_mask(grid: GridSpec) -> np.ndarray:
    mask = np.ones(grid.shape, dtype=bool)
    mask[(slice(1, -1),) * grid.dim] = False
    return mask


def validate_potential(spec: PotentialSpec, class_label: str, grid: GridSpec) -> PotentialReport:
    """Check sampled values against a vanishing-well ('V1') or trapping ('V2')
    class.  A zero potential passes neither and is labeled 'free'.

    The trapping comparison uses the inner half-ball |x| <= L/2, so that box
    corners (which carry the largest radius) cannot defeat a radial trap.
    """
    if class_label not in ("V1", "V2"):
        raise RangeError(f"class_label must be 'V1' or 'V2', got {class_label!r}")
    vals = potential_values(spec, grid)
    bmask = _boundary_mask(grid)
    boundary = vals[bmask]
    inner = vals[radial_values(grid, lambda r2: r2 <= (grid.half_extent / 2.0) ** 2)]
    all_neg = bool(np.all(vals < 0.0))
    boundary_sup = float(np.max(np.abs(boundary)))
    interior_max = float(np.max(inner))
    boundary_min = float(np.min(boundary))
    scale = float(np.max(np.abs(vals))) if np.any(vals) else 0.0

    if not np.any(vals):
        label = "free"
        passed = False
    elif all_neg and boundary_sup <= 1e-6 * scale:
        label = "V1"
        passed = class_label == "V1"
    elif boundary_min > interior_max:
        label = "V2"
        passed = class_label == "V2"
    else:
        label = "unclassified"
        passed = False
    return PotentialReport(
        label=label,
        requested=class_label,
        passed=passed,
        all_negative=all_neg,
        boundary_sup=boundary_sup,
        interior_max=interior_max,
        boundary_min=boundary_min,
    )
