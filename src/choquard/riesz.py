"""Free-space convolution with the Riesz kernel |x|^{-(N - alpha)}.

The kernel is the bare power law (no Gamma-factor normalization), so values
differ from normalized Riesz potentials in other conventions by a constant.

The fast path is Hockney-style: convolve data by multiplying spectra on a
grid padded to twice the extent per axis, then crop.  This is an exact (to
roundoff) evaluation of the discrete sum

    (K * rho)_i = h^N sum_j K(x_i - x_j) rho_j.

The padded kernel samples are even in every axis, and the padded index M
holds the offset -M, whose distance is M.  The padded kernel is therefore
the even extension of its (M + 1)^N octant of offsets 0..M, and its
spectrum is the type-1 DCT of that octant (symmetric convolution, Martucci
1994).  Only the octant is sampled and transformed, and only its real
(M + 1)^N spectrum is stored: it holds the last axis's rfft frequencies
0..M, and each leading axis's frequency k > M equals its frequency 2M - k,
so the full-grid multiply reads frequencies M + 1..2M - 1 of a leading axis
from the octant's rows M - 1..1, reversed, through views.

The data transform is pruned (Markel 1971): it runs axis by axis, so the
forward pass transforms no row that is all zeros; the inverse pass crops
each axis to its first M entries before transforming the next, so it
transforms no row whose output would be discarded.  The real transform
takes the last axis, first forward and last inverse, on _SLAB rows of the
first axis at a time: a stripe is zero-padded to 2M, transformed and
stored into the M^{N-1}(M + 1) complex spectrum, and on the way back each
stripe's inverse is cropped to its first M entries and scaled into the
M^N result, so no padded real array of the whole grid exists.  Each row's
transform is computed by itself, so the stripes change no bit of the
result.  Between the real passes, the
complex passes and the kernel multiply run on slabs of _SLAB last-axis
frequencies at a time, in place in one reused workspace, so no padded
complex array of the full grid exists.  Within a slab the complex passes
take the leading axes in order forward and in reverse order inverse, so
the first axis sees the other leading axes at their unpadded size both
ways.

The singular sample K(0) is replaced by the quadrature-matched cell value:
the constant that makes the punctured midpoint sum reproduce the kernel
integral over a smoothly windowed neighborhood of the singularity,

    K(0) := h^{-N} [ int K(y) chi(|y|/R) dy  -  h^N sum_{d != 0} K(dh) chi(|dh|/R) ],

computed once per (dim, alpha) in lattice units (R = 32 h, chi a C^3
cutoff).  Away from the singular cell the midpoint sum of a smooth decaying
integrand is spectrally accurate, so this local correction removes the
leading error entirely; for alpha = 2, N = 3 the convolution of a Gaussian
converges at fourth order (the corrected value reproduces the classical
simple-cubic lattice constant 2.8372975 / h).  A direct double-sum oracle
evaluates the identical quadrature for cross-checks.

A reflection-even density is fixed by its (M/2 + 1)^N octant of offsets
0..M/2, where the solvers hold even fields.  ``riesz_convolve_values``
reads the layout from the array's shape (``grid.on_octant``; any other
shape is a ``GridMismatch``) and returns an octant for an octant.  Offset
M/2 is the x = -L face, which has no partner at +L, so its sample is split
half at -L, half at +L: the sum runs over the closed grid k = 0..M with
weight 1/2 per face axis.  That is the DCT-I of the (M + 1)^N zero-padded
octant times the kernel's octant spectrum, inverted and cropped to the
octant, pruned pass by pass as above.  The operator is symmetric on even
fields, so an energy built on it has the gradient built on it as its exact
derivative; it equals the full-grid sum when the face is zero.  The solvers
descend with it and certify their answer on the full grid.

A density that is the outer product of N copies of one 1-D factor has its
quadratic form sum (K * rho) rho without an N-D transform
(``riesz_energy_rank_one``).

``build_convolver`` keeps its last result: every solve, geometry check,
scan cell and fiber call on one (grid, alpha) shares one read-only octant
spectrum, which stays alive until another (grid, alpha) is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import AlphaOutOfRange, GridMismatch, TooLarge
from .grid import GridSpec, ScalarField, on_octant

_ORACLE_CAPS = {1: 1024, 2: 32, 3: 16}
_WINDOW_CELLS = 32
# last-axis frequencies per block of the pruned transform's complex passes
_SLAB = 8


def _cutoff(t: np.ndarray | float):
    """C^3 window: 1 on [0, 1/2], smooth descent to 0 at 1."""
    x = np.clip((np.asarray(t, dtype=np.float64) - 0.5) / 0.5, 0.0, 1.0)
    return 1.0 - x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def _window_integral(alpha: float) -> float:
    """int_0^1 t^(alpha - 1) chi(t) dt: exact on [0, 1/2], where chi = 1, and
    32-point Gauss-Legendre on [1/2, 1], where the integrand is smooth."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    t = 0.75 + 0.25 * nodes
    return 0.5**alpha / alpha + 0.25 * float(np.sum(weights * t ** (alpha - 1.0) * _cutoff(t)))


@lru_cache(maxsize=32)
def _singular_coefficient(dim: int, alpha: float) -> float:
    """K(0) h^{N - alpha}: windowed kernel integral minus the punctured
    lattice sum, in lattice units (scale-invariant)."""
    m = _WINDOW_CELLS
    surf = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    integral = surf * m**alpha * _window_integral(alpha)
    axis = np.arange(-m, m + 1, dtype=np.float64)
    rest = np.zeros((2 * m + 1,) * (dim - 1))
    for d in range(dim - 1):
        rest = rest + axis.reshape((1,) * d + (-1,) + (1,) * (dim - d - 2)) ** 2
    # the distances inside the window, _SLAB rows of the first axis at a
    # time in the cube's order: squared integer offsets are exact and sqrt
    # is correctly rounded, so this is the masked cube bitwise
    pieces = []
    for k0 in range(0, 2 * m + 1, _SLAB):
        dist = np.sqrt(axis[k0 : k0 + _SLAB].reshape((-1,) + (1,) * (dim - 1)) ** 2 + rest)
        pieces.append(dist[(dist > 0.0) & (dist < m)])
    dist = np.concatenate(pieces)
    del pieces
    lattice = float(np.sum(dist ** (alpha - dim) * _cutoff(dist / m)))
    return integral - lattice


def _singular_value(dim: int, alpha: float, h: float) -> float:
    return _singular_coefficient(dim, alpha) * h ** (alpha - dim)


@dataclass(frozen=True)
class RieszConvolver:
    """Precomputed padded-kernel spectrum for one (grid, alpha) pair.

    octant_spectrum is the DCT-I of the kernel's (M + 1)^N octant of
    offsets 0..M, contiguous float64: the spectrum of the even-subspace
    convolution and, read with each leading axis mirrored (frequency k > M
    is frequency 2M - k), the real spectrum of the (2M)^N padded kernel.
    It is shared by every caller on one (grid, alpha), so the convolver is
    frozen and its spectrum read-only."""

    grid: GridSpec
    alpha: float
    octant_spectrum: np.ndarray = field(repr=False)
    singular_value: float


@lru_cache(maxsize=1)
def build_convolver(grid: GridSpec, alpha: float) -> RieszConvolver:
    if not 0.0 < alpha < grid.dim:
        raise AlphaOutOfRange(f"alpha must lie in (0, {grid.dim}), got {alpha}")
    m, h = grid.points_per_axis, grid.spacing
    off = np.arange(m + 1, dtype=np.float64) * h
    r2 = np.zeros((m + 1,) * grid.dim)
    for d in range(grid.dim):
        r2 = r2 + off.reshape((1,) * d + (-1,) + (1,) * (grid.dim - d - 1)) ** 2
    sing = _singular_value(grid.dim, alpha, h)
    with np.errstate(divide="ignore"):
        kern = r2 ** ((alpha - grid.dim) / 2.0)
    del r2
    kern[(0,) * grid.dim] = sing
    octant = scipy.fft.dctn(kern, type=1)
    del kern
    octant.setflags(write=False)
    return RieszConvolver(grid, alpha, octant, sing)


def riesz_convolve(conv: RieszConvolver, rho: ScalarField) -> ScalarField:
    """Linear (non-circular) convolution of the kernel with rho, on rho's grid."""
    if rho.grid != conv.grid:
        raise GridMismatch("density grid differs from the convolver's grid")
    return ScalarField(conv.grid, riesz_convolve_values(conv, rho.values))


def riesz_convolve_values(conv: RieszConvolver, values: np.ndarray) -> np.ndarray:
    """Kernel convolution of values, M^N samples or an even density's octant
    (then an octant out), by the pruned transforms of the module docstring."""
    if on_octant(conv.grid, values):
        return _convolve_octant(conv, values)
    grid = conv.grid
    m, n = grid.points_per_axis, 2 * grid.points_per_axis
    lead = grid.dim - 1
    if lead == 0:
        spec = scipy.fft.rfft(values, n=n)
        spec *= conv.octant_spectrum
        return scipy.fft.irfft(spec, n=n)[:m] * grid.cell_volume
    # the last axis's real transforms run on _SLAB rows of the first axis at
    # a time, so no padded real copy of the data and no padded real inverse
    # of the whole grid is allocated
    stripes = [slice(i0, i0 + _SLAB) for i0 in range(0, m, _SLAB)]
    spec = np.empty(values.shape[:-1] + (m + 1,), dtype=np.complex128)
    for stripe in stripes:
        spec[stripe] = scipy.fft.rfft(values[stripe], n=n, axis=-1)
    # blocks of last-axis frequencies, that axis first, pass through one
    # workspace; every complex pass runs in place on a view of it
    front = np.moveaxis(spec, -1, 0)
    kern = np.moveaxis(conv.octant_spectrum, -1, 0)
    core = (slice(None),) + (slice(0, m),) * lead
    # per leading axis, the slab's frequencies 0..M and M + 1..2M - 1
    # against the octant's rows 0..M and M - 1..1
    halves = ((slice(0, m + 1), slice(0, m + 1)), (slice(m + 1, n), slice(m - 1, 0, -1)))
    picks = [tuple(zip(*pick)) for pick in itertools.product(halves, repeat=lead)]
    work = np.empty((_SLAB,) + (n,) * lead, dtype=np.complex128)
    for k0 in range(0, m + 1, _SLAB):
        block = slice(k0, min(k0 + _SLAB, m + 1))
        slab = work[: block.stop - k0]
        slab[core] = front[block]
        for ax in range(lead):
            slab[(slice(None),) * (ax + 1) + (slice(m, None),) + core[ax + 2 :]] = 0.0
            rows = (slice(None),) * (ax + 2) + core[ax + 2 :]
            scipy.fft.fft(slab[rows], axis=ax + 1, overwrite_x=True)
        for dst, src in picks:
            slab[(slice(None),) + dst] *= kern[(block,) + src]
        for ax in range(lead - 1, -1, -1):
            rows = (slice(None),) * (ax + 2) + core[ax + 2 :]
            scipy.fft.ifft(slab[rows], axis=ax + 1, overwrite_x=True)
        front[block] = slab[core]
    del work, slab
    out = np.empty(values.shape)
    for stripe in stripes:
        np.multiply(scipy.fft.irfft(spec[stripe], n=n, axis=-1)[..., :m], grid.cell_volume,
                    out=out[stripe])
    return out


def _convolve_octant(conv: RieszConvolver, values: np.ndarray) -> np.ndarray:
    """Kernel convolution of a reflection-even density given on its
    (M/2 + 1)^N octant, with the x = -L face split between -L and +L
    (module docstring); the result is the octant of an even field."""
    grid = conv.grid
    m, dim = grid.points_per_axis, grid.dim
    work = values.copy()
    for ax in range(dim):
        work[(slice(None),) * ax + (-1,)] *= 0.5
    # forward: each pass zero-pads its axis to M + 1, so no all-zero row is
    # transformed; inverse (a DCT-I is its own inverse up to 1/(2M) per
    # axis): each pass crops its axis to M/2 + 1 before the next one
    for ax in range(dim):
        work = scipy.fft.dct(work, type=1, n=m + 1, axis=ax)
    work *= conv.octant_spectrum
    for ax in range(dim - 1, -1, -1):
        work = scipy.fft.dct(work, type=1, axis=ax, overwrite_x=True)
        work = work[(slice(None),) * ax + (slice(0, m // 2 + 1),)]
    return work * (grid.cell_volume / (2 * m) ** dim)


def riesz_energy_rank_one(conv: RieszConvolver, factor: np.ndarray) -> float:
    """h^N sum_i (K * rho)_i rho_i, the quadrature of ``riesz_convolve_values``,
    for the density rho = factor x ... x factor of N copies of one 1-D factor
    of M values.  By Parseval on the padded grid the sum is the kernel's
    spectrum against |rho^|^2, the product of the factor's |rfft(n = 2M)|^2
    over the axes; both are even, so it runs over the modes 0..M of
    ``octant_spectrum`` (weight 1 at 0 and M, 2 elsewhere), axis by axis."""
    grid = conv.grid
    m = grid.points_per_axis
    spec = scipy.fft.rfft(factor, n=2 * m)
    power = spec.real**2 + spec.imag**2
    power[1:m] *= 2.0
    total = conv.octant_spectrum
    for _ in range(grid.dim):
        total = total @ power
    return float(total) * grid.cell_volume**2 / (2 * m) ** grid.dim


def riesz_convolve_oracle(grid: GridSpec, alpha: float, rho: ScalarField) -> ScalarField:
    """Direct O(M^{2N}) double-sum evaluation; ground truth for the fast path."""
    if not 0.0 < alpha < grid.dim:
        raise AlphaOutOfRange(f"alpha must lie in (0, {grid.dim}), got {alpha}")
    if rho.grid != grid:
        raise GridMismatch("density grid differs from the requested grid")
    if grid.points_per_axis > _ORACLE_CAPS[grid.dim]:
        raise TooLarge(
            f"oracle capped at M <= {_ORACLE_CAPS[grid.dim]} for dim {grid.dim}"
        )
    pts = np.stack([c.ravel() for c in np.broadcast_arrays(*grid.coords())], axis=1)
    flat = rho.values.ravel()
    sing = _singular_value(grid.dim, alpha, grid.spacing)
    out = np.empty(grid.size)
    chunk = max(1, 2**22 // max(grid.size, 1))
    for lo in range(0, grid.size, chunk):
        hi = min(lo + chunk, grid.size)
        d2 = np.sum((pts[lo:hi, None, :] - pts[None, :, :]) ** 2, axis=2)
        with np.errstate(divide="ignore"):
            kmat = d2 ** ((alpha - grid.dim) / 2.0)
        rows = np.arange(lo, hi)
        kmat[rows - lo, rows] = sing
        out[lo:hi] = kmat @ flat
    return ScalarField(grid, out.reshape(grid.shape) * grid.cell_volume)
