"""Uniform box discretization of R^N and the field operations built on it.

The box is [-L, L)^N with M points per axis (spacing h = 2L/M).  Quadrature
is the midpoint rule, which for smooth fields that decay below roundoff at
the boundary is spectrally accurate.  Derivatives use periodic Fourier
multipliers; the box is meant to be chosen large enough that fields are
negligible at the boundary, so the periodification is harmless.

Field operations provided here:

* ``l2_norm_sq`` / ``inner`` / ``grad_norm_sq`` -- quadrature norms, the
  gradient norm evaluated via Parseval with the |k|^2 multiplier, and by
  ``rank_one_grad_norm_sq`` from 1-D sums for a product of N equal factors.
* ``dilate`` -- the mass-preserving rescaling s * f = e^{Ns/2} f(e^s x),
  realized by resampling the trigonometric interpolant on the scaled tensor
  grid (spectral accuracy for resolved fields), with an exact post-rescale
  so the L2 norm is preserved by construction.
* ``rearrange_radial_decreasing`` -- radially symmetric decreasing
  rearrangement: sort the values, refill concentric radius shells from the
  center outward.  The multiset of values is preserved exactly, hence every
  discrete L^t norm is too.
* ``radial_values`` / ``radial_shells`` / ``shell_sums`` -- the distinct
  radii of the grid, each point's shell and a field's sum over each shell,
  so a radial function sampled on the grid, or summed against a field,
  costs one evaluation per shell.
* ``is_even`` / ``even_part`` / ``fold`` / ``from_octant`` -- the
  reflection i <-> (M - i) mod M in every axis.  The coordinates are
  h (i - M/2), so x[M - i] = -x[i] bitwise, radial samples are even, and an
  even field is fixed by its (M/2 + 1)^N octant of offsets 0..M/2 from the
  origin.  ``fold`` maps a field to the octant of its even part and
  ``from_octant`` expands an octant back to M^N, so
  ``even_part = from_octant . fold``.

Fields live on the full M^N grid or, in a solver's even subspace, on the
octant, and an array's shape is its layout (``on_octant``): (M/2 + 1)^N is
not M^N for any admissible M.  The ``_values`` operators, ``grid_sum``
and ``shell_sums`` take either layout, and ``radial_values`` and
``radial_shells`` the layout of a field they are given.  ``grid_sum``
weighs each octant point by its multiplicity on the full grid (per axis 1
at offsets 0 and M/2, 2 elsewhere); on an even field the periodic spectral
Laplacian is diagonal in the octant's type-1 DCT, with wavenumbers pi j / L
(Martucci 1994), so the kinetic norm, -Delta, (sigma - Delta)^{-1} and
x . grad equal the full-grid operators of ``from_octant(f)`` to roundoff.
Up to M = 256 (``_DENSE_MAX_M``) each octant transform is a cached dense
matrix, applied as one BLAS product per axis (``apply_along``), which at
those sizes beats an FFT of M/2 + 1 or M + 1 points; finer 1-D and 2-D
grids take scipy's type-1 DCT and DST.

This module caches per grid what a solve reads again: the 1-D coordinates
and wavevectors, |k|^2 on the rfftn layout (the full-grid kinetic norm and
Laplacian of the certificate read it), the octant's |k|^2 and
multiplicities, its DCT-I and x . grad matrices ((M/2 + 1)^2 doubles
each), the rearrangement's int32 order, and one radial table, the
distinct values of |x|^2 and each octant point's shell (``_octant_shells``),
from which every radial sample and shell sum is read.  No full-grid |x|^2
or shell index is kept: the full grid's index is the octant's expanded.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import DilationOutOfBox, GridMismatch, NegativeInput, NonFinite, ZeroMass

# most points of the (2M)^N padded convolution grid, reached at M = 256 in
# 3-D, so M^N <= 2^24 and an int32 holds every flat index; no array of that
# size is allocated.  The largest array a solve holds is the (M+1)^N float64
# kernel spectrum, 0.13 GiB at the cap; its caches keep on the full grid
# only |k|^2 on the rfftn layout (64.5 MiB) and, once a state is symmetrized,
# the rearrangement's int32 order (64 MiB).  A full-grid convolution also
# allocates, for its duration, the last-axis rfft of its data,
# M^{N-1}(M+1) complex128 (0.25 GiB at the cap), its M^N float64 result
# (0.13 GiB) once the complex passes have freed their workspace (32 MiB),
# and one stripe of rows at a time of its real transforms
_MAX_POINTS = 2**27
# the finest M whose octant transforms (the kinetic norm, -Delta, the
# resolvent, x . grad and the Riesz convolution) are cached dense matrices,
# one BLAS product per axis: the largest is (M + 1) x (M/2 + 1) doubles,
# 0.25 MiB at 256.  Every 3-D grid lies within it; finer 1-D and 2-D grids,
# where the products cost more than an FFT, take scipy's type-1 transforms
_DENSE_MAX_M = 256


@dataclass(frozen=True)
class GridSpec:
    """Uniform Cartesian discretization of the box [-L, L)^N.

    dim must be 1, 2 or 3; points_per_axis M must be even (the octant, the
    coordinates h (i - M/2) and the Nyquist rules of ``grad_norm_sq_values``
    and ``x_grad_values`` need it), at least 8, and keep the padded
    free-space convolution's (2M)^N grid within ``_MAX_POINTS``.  That grid
    is never allocated: the convolver holds the kernel's (M+1)^N spectrum,
    and a convolution transforms its data axis by axis (``riesz``).
    """

    dim: int
    half_extent: float
    points_per_axis: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        m = self.points_per_axis
        if m < 8 or m % 2 != 0:
            raise ValueError("points_per_axis must be an even integer >= 8")
        if not 1e-100 < self.spacing < 1e100:  # keeps the cell volume a positive finite float
            raise ValueError("half_extent must give a grid spacing in (1e-100, 1e100)")
        if (2 * m) ** self.dim > _MAX_POINTS:
            raise ValueError(
                f"grid too large: the convolution workspace (2M)^N exceeds {_MAX_POINTS} points"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def axis(self) -> np.ndarray:
        """1D coordinates -L, -L+h, ..., L-h: h (i - M/2), so x[M - i] = -x[i]
        bitwise."""
        return _axis(self)

    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the grid, a new array on each call."""
        return _radius_sq(self)

    def radius(self) -> np.ndarray:
        return np.sqrt(_radius_sq(self))

    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        ax = self.axis()
        return tuple(
            ax.reshape((1,) * d + (-1,) + (1,) * (self.dim - d - 1)) for d in range(self.dim)
        )


@lru_cache(maxsize=32)
def _axis(grid: GridSpec) -> np.ndarray:
    m = grid.points_per_axis
    a = grid.spacing * (np.arange(m) - m // 2)
    a.setflags(write=False)
    return a


def _radius_sq(grid: GridSpec) -> np.ndarray:
    r2 = np.zeros(grid.shape)
    for c in grid.coords():
        r2 = r2 + c**2
    return r2


@lru_cache(maxsize=32)
def _wavevectors_rfft(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Per-axis wavevectors, broadcastable onto the rfftn layout (last axis halved)."""
    m, h = grid.points_per_axis, grid.spacing
    axes = [np.fft.fftfreq(m, d=h)] * (grid.dim - 1) + [np.fft.rfftfreq(m, d=h)]
    ks = tuple(
        (2.0 * np.pi * k).reshape((1,) * d + (-1,) + (1,) * (grid.dim - d - 1))
        for d, k in enumerate(axes)
    )
    for k in ks:
        k.setflags(write=False)
    return ks


@lru_cache(maxsize=32)
def _derivative_wavevectors(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """The rfftn wavevectors with the Nyquist mode (index M/2) zeroed, the
    rule for odd-order spectral derivatives at even M, so x . grad keeps
    even fields even."""
    ks = tuple(k.copy() for k in _wavevectors_rfft(grid))
    for k in ks:
        k.flat[grid.points_per_axis // 2] = 0.0
        k.setflags(write=False)
    return ks


@lru_cache(maxsize=32)
def _k_sq_rfft(grid: GridSpec) -> np.ndarray:
    """|k|^2 on the rfftn layout (last axis halved)."""
    k2 = sum(k**2 for k in _wavevectors_rfft(grid))
    k2.setflags(write=False)
    return k2


@lru_cache(maxsize=32)
def _k_sq_octant(grid: GridSpec) -> np.ndarray:
    """|k|^2 on the DCT-I octant of wavenumbers pi j / L, j = 0..M/2."""
    k = np.pi * np.arange(grid.points_per_axis // 2 + 1) / grid.half_extent
    k2 = sum(
        (k**2).reshape((1,) * d + (-1,) + (1,) * (grid.dim - d - 1)) for d in range(grid.dim)
    )
    k2.setflags(write=False)
    return k2


@lru_cache(maxsize=8)
def octant_weights(shape: tuple[int, ...]) -> np.ndarray:
    """Each octant point's multiplicity on the full grid: the product over
    the axes of 1 at offsets 0 and M/2 and 2 elsewhere."""
    axis = np.full(shape[0], 2.0)
    axis[0] = axis[-1] = 1.0
    w = np.ones(())
    for _ in shape:
        w = np.multiply.outer(w, axis)
    w.setflags(write=False)
    return w


def on_octant(grid: GridSpec, values: np.ndarray) -> bool:
    """Whether ``values`` is a field's (M/2 + 1)^N octant, not its M^N
    samples; an array of any other shape is a GridMismatch."""
    if values.shape not in (grid.shape, (grid.points_per_axis // 2 + 1,) * grid.dim):
        raise GridMismatch(f"values shape {values.shape} is neither {grid.shape} nor its octant")
    return values.shape != grid.shape


def grid_sum(grid: GridSpec, values: np.ndarray) -> float:
    """The sum over the full grid of a field given on it or on its octant."""
    if on_octant(grid, values):  # np.sum's pairwise summation keeps the mass drift at roundoff
        values = values * octant_weights(values.shape)
    return float(np.sum(values))


@dataclass
class ScalarField:
    """Real field sampled on a GridSpec.  Values must be finite."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise GridMismatch(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise NonFinite("field contains NaN or Inf")
        self.values = v

    @property
    def mass(self) -> float:
        """Discrete integral of f^2."""
        return l2_norm_sq(self)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class StatePair:
    """A (u, v) pair on a shared grid; a candidate point of the constraint set."""

    u: ScalarField
    v: ScalarField

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise GridMismatch("u and v live on different grids")

    @property
    def grid(self) -> GridSpec:
        return self.u.grid


def from_callable(grid: GridSpec, fn) -> ScalarField:
    """Sample fn(x1, ..., xN) on the grid."""
    return ScalarField(grid, np.asarray(fn(*np.broadcast_arrays(*grid.coords())), dtype=np.float64))


def gaussian_field(grid: GridSpec, sigma: float, mass: float | None = None) -> ScalarField:
    """Centered Gaussian exp(-|x|^2 / (2 sigma^2)), optionally scaled to a
    target mass.  It is evaluated once per radial shell (``radial_values``)."""
    f = ScalarField(grid, radial_values(grid, lambda r2: np.exp(-r2 / (2.0 * sigma**2))))
    if mass is not None:
        m0 = f.mass
        if m0 <= 0:
            raise ZeroMass("gaussian underflowed on this grid")
        f = ScalarField(grid, f.values * math.sqrt(mass / m0))
    return f


def zero_field(grid: GridSpec) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.shape))


def _check_same_grid(a: ScalarField, b: ScalarField) -> None:
    if a.grid != b.grid:
        raise GridMismatch("fields live on different grids")


def l2_norm_sq(f: ScalarField) -> float:
    return float(f.grid.cell_volume * np.sum(f.values * f.values))


def inner(f: ScalarField, g: ScalarField) -> float:
    _check_same_grid(f, g)
    return float(f.grid.cell_volume * np.sum(f.values * g.values))


def grad_norm_sq(f: ScalarField) -> float:
    """Squared L2 norm of the gradient via the |k|^2 Fourier multiplier."""
    return grad_norm_sq_values(f.grid, f.values)


def apply_along(mat: np.ndarray, a: np.ndarray, axis: int) -> np.ndarray:
    """``mat`` applied to every line of ``a`` along ``axis``, as one BLAS
    product with no transposed copy: ``mat @ a`` on the first axis,
    ``a @ mat.T`` on the last, and in 3-D a batched product on the middle
    axis, one per index of the first."""
    n = a.shape[axis]
    shape = a.shape[:axis] + (mat.shape[0],) + a.shape[axis + 1 :]
    if axis == 0:
        return (mat @ a.reshape(n, -1)).reshape(shape)
    if axis == a.ndim - 1:
        return (a.reshape(-1, n) @ mat.T).reshape(shape)
    return np.matmul(mat, a)


def cosines(n: np.ndarray, period: int) -> np.ndarray:
    """cos(2 pi n / period) of an integer array n, its argument reduced in
    integers to [0, pi/2]: modulo the period, then by cos(-t) = cos t and
    cos(pi - t) = -cos t, so the table is exact to within its rounding."""
    n = n % period
    n = np.minimum(n, period - n)
    far = 4 * n > period
    n = np.where(far, period // 2 - n, n)
    return np.where(far, -1.0, 1.0) * np.cos((2.0 * np.pi / period) * n)


def dense_octant(m: int) -> bool:
    """Whether the octant transforms at M points per axis are dense products."""
    return m <= _DENSE_MAX_M


@lru_cache(maxsize=8)
def _octant_dct_matrix(m: int) -> np.ndarray:
    """scipy's type-1 ``dct`` of the octant's M/2 + 1 offsets as a matrix,
    D[j, k] = w_k cos(pi j k / (M/2)) with w = 1, 2, ..., 2, 1; D D = M I."""
    h = m // 2 + 1
    mat = cosines(np.multiply.outer(np.arange(h), np.arange(h)), m) * octant_weights((h,))
    mat.setflags(write=False)
    return mat


def _octant_dctn(values: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """The N-D DCT-I of an octant, a new array; ``overwrite_x`` lets the FFT
    side destroy ``values``."""
    m = 2 * (values.shape[0] - 1)
    if not dense_octant(m):
        return scipy.fft.dctn(values, type=1, overwrite_x=overwrite_x)
    mat = _octant_dct_matrix(m)
    for ax in range(values.ndim):
        values = apply_along(mat, values, ax)
    return values


def grad_norm_sq_values(grid: GridSpec, values: np.ndarray) -> float:
    """||grad f||^2 by Parseval, of full-grid values or of an octant: the sum
    of |k|^2 |F_k|^2 over the modes, each counted with its multiplicity, on
    the octant its point's and on the rfftn layout 1 at the halved axis's
    modes 0 and M/2 and 2 elsewhere (the octant's rule in 1-D).  A
    multiplicity is a power of two, so the power times it is exact and the
    product with |k|^2 rounds once, as (multiplicity |k|^2) |F_k|^2 would."""
    if on_octant(grid, values):
        spec = _octant_dctn(values)
        power, k2, weights = spec * spec, _k_sq_octant(grid), octant_weights(spec.shape)
    else:
        spec = scipy.fft.rfftn(values)
        power, k2 = spec.real**2 + spec.imag**2, _k_sq_rfft(grid)
        weights = octant_weights(spec.shape[-1:])
    power *= weights
    power *= k2
    return float(np.sum(power) * grid.cell_volume / grid.size)


def rank_one_grad_norm_sq(grid: GridSpec, line: np.ndarray) -> float:
    """||grad u||^2 of u = a f (x) ... (x) f, f = 1 at the centre, from its
    central line a f: N a^2 (sum k^2 |F_k|^2)(sum |F_k|^2)^{N-1} h^N / M^N
    with F the 1-D FFT of f.  This is ``grad_norm_sq_values``'s Parseval sum
    factored (the same wavenumbers, Nyquist included), with no N-D transform."""
    m = grid.points_per_axis
    a = line[m // 2]
    spec = scipy.fft.fft(line / a)
    power = spec.real**2 + spec.imag**2
    k = 2.0 * np.pi * np.fft.fftfreq(m, d=grid.spacing)
    scale = grid.spacing / m
    kinetic, mass = scale * np.dot(k * k, power), scale * np.sum(power)
    return float(grid.dim * a * a * kinetic * mass ** (grid.dim - 1))


def neg_laplacian_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """-Delta f, spectrally, on the layout of ``values``.  The exact gradient
    of grad_norm_sq/2."""
    if on_octant(grid, values):
        return _octant_multiply(grid, values, _k_sq_octant(grid))
    return scipy.fft.irfftn(_k_sq_rfft(grid) * scipy.fft.rfftn(values), s=grid.shape)


def laplacian_resolvent_values(grid: GridSpec, values: np.ndarray, sigma: float) -> np.ndarray:
    """(sigma - Delta)^{-1} f, spectrally, on the layout of ``values``."""
    if on_octant(grid, values):
        return _octant_multiply(grid, values, 1.0 / (sigma + _k_sq_octant(grid)))
    return scipy.fft.irfftn(scipy.fft.rfftn(values) / (sigma + _k_sq_rfft(grid)), s=grid.shape)


def _octant_multiply(grid: GridSpec, values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """A Fourier multiplier (given on the octant of wavenumbers pi j / L) applied
    to an even field on its octant: a DCT-I, the product, and a second DCT-I,
    which inverts the first up to M per axis."""
    spec = _octant_dctn(values)
    spec *= multiplier
    out = _octant_dctn(spec, overwrite_x=True)
    out /= grid.size
    return out


def neg_laplacian(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, neg_laplacian_values(f.grid, f.values))


def x_grad_values(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """x . grad f, with each partial derivative a periodic Fourier multiplier
    that drops the Nyquist mode, of full-grid values or of an octant, where
    d_k is a DCT-I along k, times pi j / L, and a DST-I over the modes and
    offsets 1..M/2 - 1; offsets 0 and M/2 get zero, as on the grid.  Up to
    M = ``_DENSE_MAX_M`` that chain, times x_k, is one cached matrix per
    axis (``_x_grad_matrix``), and x . grad f the sum of its N products."""
    if on_octant(grid, values):
        if dense_octant(grid.points_per_axis):
            mat = _x_grad_matrix(grid)
            return sum(apply_along(mat, values, ax) for ax in range(grid.dim))
        half = grid.points_per_axis // 2
        j = np.arange(1, half)
        wavenumber, x_over_m = np.pi * j / grid.half_extent, grid.spacing * j / (2 * half)
        out = np.zeros_like(values)
        for ax in range(grid.dim):
            inner = (slice(None),) * ax + (slice(1, half),)
            along = (-1,) + (1,) * (grid.dim - ax - 1)
            spec = scipy.fft.dct(values, type=1, axis=ax)[inner] * wavenumber.reshape(along)
            d_k = scipy.fft.dst(spec, type=1, axis=ax, overwrite_x=True)
            out[inner] -= x_over_m.reshape(along) * d_k
        return out
    spec = scipy.fft.rfftn(values)
    out = np.zeros(grid.shape)
    for x, k in zip(grid.coords(), _derivative_wavevectors(grid)):
        out += x * scipy.fft.irfftn(1j * k * spec, s=grid.shape)
    return out


@lru_cache(maxsize=8)
def _x_grad_matrix(grid: GridSpec) -> np.ndarray:
    """x_k d_k on one axis of the octant as an (M/2 + 1)^2 matrix: the DCT-I,
    the wavenumbers pi j / L of modes 1..M/2 - 1, scipy's DST-I back to
    offsets 1..M/2 - 1 (2 sin(pi i j / (M/2))) and their coordinates
    -h i; the rows of offsets 0 and M/2 are zero."""
    m, half = grid.points_per_axis, grid.points_per_axis // 2
    j = np.arange(1, half)
    sines = 2.0 * cosines(m - 4 * np.multiply.outer(j, j), 4 * m)  # sin t = cos(pi/2 - t)
    chain = (sines * (np.pi * j / grid.half_extent)) @ _octant_dct_matrix(m)[1:half]
    mat = np.zeros((half + 1, half + 1))
    mat[1:half] = -(grid.spacing * j / m)[:, None] * chain
    mat.setflags(write=False)
    return mat


def from_octant(octant: np.ndarray) -> np.ndarray:
    """The reflection-even field of an (M/2 + 1)^N octant of offsets 0..M/2
    from the origin (offset M/2 is the x = -L face): index i takes offset
    |i - M/2|."""
    m = 2 * (octant.shape[0] - 1)
    for ax in range(octant.ndim - 1, -1, -1):
        octant = np.take(octant, np.abs(np.arange(m) - m // 2), axis=ax)
    return octant


def is_even(values: np.ndarray) -> bool:
    """Whether a field is bitwise its reflection i <-> (M - i) mod M in every axis."""
    return np.array_equal(values, even_part(values))


def even_part(values: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the reflection-even fields; the result is
    bitwise even."""
    return from_octant(fold(values))


def fold(values: np.ndarray) -> np.ndarray:
    """The (M/2 + 1)^N octant of a field's even part: the mean with the
    reflection, axis by axis.  The octant of a bitwise-even field is its
    restriction."""
    half = values.shape[0] // 2
    out = values
    for ax in range(values.ndim):
        lead = (slice(None),) * ax
        folded = np.empty(out.shape[:ax] + (half + 1,) + out.shape[ax + 1 :])
        folded[lead + (0,)] = out[lead + (half,)]
        folded[lead + (half,)] = out[lead + (0,)]
        mean = folded[lead + (slice(1, half),)]
        pairs = out[lead + (slice(half + 1, None),)], out[lead + (slice(half - 1, 0, -1),)]
        np.add(*pairs, out=mean)
        mean *= 0.5
        out = folded
    return out


def _resample_matrix(grid: GridSpec, scale: float) -> np.ndarray:
    """Rows of trigonometric-interpolation weights at the points scale * x_i.

    W[i, j] = D(scale*x_i - x_j) / M with D the even-M periodic sinc
    sin(M t) / tan(t), t = pi d / (2L).  Rows whose evaluation point falls
    outside the box are zeroed: the field is extended by zero (free-space
    semantics) rather than by its periodic images; dilate() checks the
    resulting mass defect.
    """
    m, half_extent = grid.points_per_axis, grid.half_extent
    x = grid.axis()
    d = scale * x[:, None] - x[None, :]
    t = np.pi * d / (2.0 * half_extent)
    near = np.abs(t - np.pi * np.round(t / np.pi)) < 1e-12
    tt = np.where(near, 1.0, t)
    w = np.where(near, 1.0, np.sin(m * tt) / (m * np.tan(tt)))
    outside = np.abs(scale * x) > half_extent
    w[outside, :] = 0.0
    return w


def dilate(f: ScalarField, s: float) -> ScalarField:
    """Mass-preserving dilation e^{Ns/2} f(e^s x).

    The trig interpolant of f is resampled on the scaled tensor grid (one
    dense M x M weight matrix per axis), and the output is rescaled so its
    L2 norm matches f's exactly.  Raises
    DilationOutOfBox if resampling alone moved more than 1% of the mass,
    and warns above 0.1%.
    """
    grid = f.grid
    if s == 0.0:
        return f.copy()
    mat = _resample_matrix(grid, math.exp(s))
    out = f.values
    for ax in range(grid.dim):
        out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, ax, 0), axes=(1, 0)), 0, ax)
    out = out * math.exp(grid.dim * s / 2.0)
    old = l2_norm_sq(f)
    new = float(grid.cell_volume * np.sum(out * out))
    if old > 0.0:
        defect = abs(new / old - 1.0)
        if defect > 0.01:
            raise DilationOutOfBox(
                f"dilation by s={s:g} changed the mass by {defect:.2%}; "
                "field support does not fit the box after scaling"
            )
        if defect > 1e-3:
            warnings.warn(
                f"dilation by s={s:g} leaked {defect:.2e} of the mass (box too small?)",
                stacklevel=2,
            )
        if new > 0.0:
            out *= math.sqrt(old / new)
    return ScalarField(grid, out)


@lru_cache(maxsize=32)
def _shell_order(grid: GridSpec) -> np.ndarray:
    """Flat indices sorted by radius, ties broken by index order, as int32,
    which holds every index below the cap M^N <= _MAX_POINTS / 2^N: a stable
    argsort of the shell index, which orders as |x|^2 does."""
    order = np.argsort(radial_shells(grid)[1], kind="stable").astype(np.int32)
    order.setflags(write=False)
    return order


@lru_cache(maxsize=32)
def _octant_shells(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """The grid's radial table (cached, read-only): the distinct values of
    |x|^2 in increasing order and each octant point's shell.  The full grid
    has the same radii, since x[M - i] = -x[i] bitwise."""
    shell_r2, shell_of = np.unique(fold(_radius_sq(grid)), return_inverse=True)
    shell_of = shell_of.reshape((grid.points_per_axis // 2 + 1,) * grid.dim)
    for a in (shell_r2, shell_of):
        a.setflags(write=False)
    return shell_r2, shell_of


def radial_shells(grid: GridSpec, like: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(shell_r2, shell_of): the distinct values of |x|^2 in increasing
    order, and each point's shell in flat (C) order on the layout of ``like``
    (the full grid, expanded on each call, when None), so that
    ``shell_r2[shell_of]`` rebuilds |x|^2 there exactly.

    A radial function summed against a field, sum_i f(|x_i|^2) w_i, is then
    sum_k f(shell_r2[k]) W_k with W = bincount(shell_of, w) (``shell_sums``):
    f is evaluated once per shell instead of once per point.
    """
    shell_r2, shell_of = _octant_shells(grid)
    if like is None or not on_octant(grid, like):
        shell_of = from_octant(shell_of)
        shell_of.setflags(write=False)
    return shell_r2, shell_of.ravel()


def radial_values(grid: GridSpec, f, like: np.ndarray | None = None) -> np.ndarray:
    """f(|x|^2) on the layout of ``like`` (the full grid when None), with the
    elementwise f evaluated once per shell and expanded from the octant:
    bitwise f of the per-point |x|^2."""
    shell_r2, shell_of = _octant_shells(grid)
    values = f(shell_r2)[shell_of]
    return values if like is not None and on_octant(grid, like) else from_octant(values)


def shell_sums(grid: GridSpec, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(shell_r2, W): the grid's radial shells and a field's sum over each,
    an octant point counted with its multiplicity on the full grid."""
    shell_r2, shell_of = radial_shells(grid, values)
    if on_octant(grid, values):
        values = values * octant_weights(values.shape)
    return shell_r2, np.bincount(shell_of, weights=values.ravel(), minlength=shell_r2.size)


def rearrange_radial_decreasing(f: ScalarField) -> ScalarField:
    """Schwartz (radially decreasing) rearrangement on the grid.

    Values are sorted in decreasing order and written back along shells of
    increasing radius.  Exact value permutation: all discrete L^t norms are
    preserved.
    """
    if float(np.min(f.values)) < 0.0:
        raise NegativeInput("rearrangement requires a nonnegative field (take abs first)")
    order = _shell_order(f.grid)
    out = np.empty(f.grid.size)
    out[order] = np.sort(f.values.ravel())[::-1]
    return ScalarField(f.grid, out.reshape(f.grid.shape))


def radial_profile(f: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Values along the +x1 semi-axis from the center: (r, f(r))."""
    m = f.grid.points_per_axis
    c = m // 2
    idx = (slice(c, None),) + (c,) * (f.grid.dim - 1)
    return f.grid.axis()[c:], f.values[idx].copy()
