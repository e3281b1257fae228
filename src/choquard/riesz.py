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
cutoff), the lattice sum from one table of its summand per integer |d|^2,
the integral by a 32-point Gauss-Legendre rule held as literals.  Away
from the singular cell the midpoint sum of a smooth decaying integrand is
spectrally accurate, so this local correction removes the leading error
entirely; for alpha = 2, N = 3 the convolution of a Gaussian
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
octant.  Up to M = 256 (``grid._DENSE_MAX_M``, every 3-D grid) each of
those transforms is a cached dense matrix applied as one BLAS product per
axis: forward (M + 1) x (M/2 + 1), with the multiplicities and the face's
1/2 folded in, and inverse (M/2 + 1) x (M + 1), cropped.  Finer 1-D and
2-D grids take the type-1 DCT (``grid.dct1``) pass by pass, padded forward
and cropped inverse as above.  The operator is symmetric on even
fields, so an energy built on it has the gradient built on it as its exact
derivative; it equals the full-grid sum when the face is zero.  The solvers
descend with it and certify their answer on the full grid.

A density that is the outer product of N copies of one 1-D factor has its
quadratic form sum (K * rho) rho without an N-D transform
(``riesz_energy_rank_one``).

Every FFT is numpy's, in scipy's order (``grid``): the kernel's DCT-I is
``grid.dct1`` in place on the octant, one axis at a time, on _SLAB rows of
another axis per call, and the complex passes write into their slab
through ``out=``.

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
import numpy.fft  # numpy 2 loads it on first use; load it with the package

from .errors import AlphaOutOfRange, GridMismatch, TooLarge
from .grid import (
    GridSpec,
    ScalarField,
    apply_along,
    cosines,
    dct1,
    dense_octant,
    octant_weights,
    on_octant,
)

_ORACLE_CAPS = {1: 1024, 2: 32, 3: 16}
_WINDOW_CELLS = 32
# last-axis frequencies per block of the pruned transform's complex passes
_SLAB = 8
# the 32-point Gauss-Legendre rule on [-1, 1], mirrored from its positive
# half: numpy.polynomial.legendre.leggauss(32) symmetrizes its nodes and
# weights exactly, so this is that rule bitwise, without loading
# numpy.polynomial or its LAPACK eigensolver
_GAUSS_HALF_NODES = np.array([
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_GAUSS_HALF_WEIGHTS = np.array([
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_GAUSS_NODES = np.concatenate((-_GAUSS_HALF_NODES[::-1], _GAUSS_HALF_NODES))
_GAUSS_WEIGHTS = np.concatenate((_GAUSS_HALF_WEIGHTS[::-1], _GAUSS_HALF_WEIGHTS))


def _cutoff(t: np.ndarray | float):
    """C^3 window: 1 on [0, 1/2], smooth descent to 0 at 1."""
    x = np.clip((np.asarray(t, dtype=np.float64) - 0.5) / 0.5, 0.0, 1.0)
    return 1.0 - x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def _window_integral(alpha: float) -> float:
    """int_0^1 t^(alpha - 1) chi(t) dt: exact on [0, 1/2], where chi = 1, and
    32-point Gauss-Legendre on [1/2, 1], where the integrand is smooth."""
    t = 0.75 + 0.25 * _GAUSS_NODES
    return 0.5**alpha / alpha + 0.25 * float(np.sum(_GAUSS_WEIGHTS * t ** (alpha - 1.0) * _cutoff(t)))


@lru_cache(maxsize=32)
def _singular_coefficient(dim: int, alpha: float) -> float:
    """K(0) h^{N - alpha}: windowed kernel integral minus the punctured
    lattice sum, in lattice units (scale-invariant).

    A summand depends on its offset d only through the integer |d|^2 < m^2,
    so it is evaluated once per value, in a table over sqrt(0..m^2 - 1), and
    gathered in the (2m + 1)^N cube's order from an int16 cube of |d|^2.
    sqrt is correctly rounded and 0 < |d| < m iff 0 < |d|^2 < m^2, so the sum
    adds the terms of the masked float cube of distances, bitwise, in its
    order; no float cube is built."""
    m = _WINDOW_CELLS
    surf = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    integral = surf * m**alpha * _window_integral(alpha)
    dist = np.sqrt(np.arange(m * m, dtype=np.float64))
    with np.errstate(divide="ignore"):
        table = dist ** (alpha - dim) * _cutoff(dist / m)
    sq = np.arange(-m, m + 1, dtype=np.int16) ** 2
    d2 = sq
    for _ in range(dim - 1):
        d2 = d2[..., None] + sq
    inside = d2[(d2 > 0) & (d2 < m * m)]
    del d2
    return integral - float(np.sum(table[inside]))


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
    # the DCT-I in place, axis 0 first, on _SLAB rows of another axis per
    # call, so no second array of the octant's size is allocated
    if grid.dim == 1:
        kern = dct1(kern, 0)
    else:
        for ax in range(grid.dim):
            lead = (slice(None),) if ax == 0 else ()
            for i0 in range(0, m + 1, _SLAB):
                stripe = lead + (slice(i0, i0 + _SLAB),)
                kern[stripe] = dct1(kern[stripe], ax)
    kern.setflags(write=False)
    return RieszConvolver(grid, alpha, kern, sing)


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
        spec = np.fft.rfft(values, n=n)
        spec *= conv.octant_spectrum
        return np.fft.irfft(spec, n=n)[:m] * grid.cell_volume
    # the last axis's real transforms run on _SLAB rows of the first axis at
    # a time, so no padded real copy of the data and no padded real inverse
    # of the whole grid is allocated
    stripes = [slice(i0, i0 + _SLAB) for i0 in range(0, m, _SLAB)]
    spec = np.empty(values.shape[:-1] + (m + 1,), dtype=np.complex128)
    for stripe in stripes:
        np.fft.rfft(values[stripe], n=n, out=spec[stripe])
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
            np.fft.fft(slab[rows], axis=ax + 1, out=slab[rows])
        for dst, src in picks:
            slab[(slice(None),) + dst] *= kern[(block,) + src]
        for ax in range(lead - 1, -1, -1):
            rows = (slice(None),) * (ax + 2) + core[ax + 2 :]
            np.fft.ifft(slab[rows], axis=ax + 1, out=slab[rows])
        front[block] = slab[core]
    del work, slab
    out = np.empty(values.shape)
    for stripe in stripes:
        np.multiply(np.fft.irfft(spec[stripe], n=n)[..., :m], grid.cell_volume,
                    out=out[stripe])
    return out


@lru_cache(maxsize=4)
def _padded_pair(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The octant convolution's transforms along one axis, read-only.
    forward ((M + 1) x (M/2 + 1)): the DCT-I of the octant zero-padded to the
    M + 1 offsets 0..M, cos(pi k j / M) times the octant's multiplicities
    1, 2, ..., 2, 1, whose last entry is the x = -L face's 2 halved.
    inverse ((M/2 + 1) x (M + 1)): the DCT-I of M + 1 points cropped to the
    octant, end weights 1, 2, ..., 2, 1."""
    h = m // 2 + 1
    table = cosines(np.multiply.outer(np.arange(h), np.arange(m + 1)), 2 * m)
    ends = np.full(m + 1, 2.0)
    ends[0] = ends[-1] = 1.0
    pair = table.T * octant_weights((h,)), table * ends
    for mat in pair:
        mat.setflags(write=False)
    return pair


def _convolve_octant(conv: RieszConvolver, values: np.ndarray) -> np.ndarray:
    """Kernel convolution of a reflection-even density given on its
    (M/2 + 1)^N octant, with the x = -L face split between -L and +L
    (module docstring); the result is the octant of an even field."""
    grid = conv.grid
    m, dim = grid.points_per_axis, grid.dim
    if dense_octant(m):
        forward, inverse = _padded_pair(m)
        work = values
        for ax in range(dim):
            work = apply_along(forward, work, ax)
        work *= conv.octant_spectrum
        for ax in range(dim):
            work = apply_along(inverse, work, ax)
        work *= grid.cell_volume / (2 * m) ** dim
        return work
    work = values.copy()
    for ax in range(dim):
        work[(slice(None),) * ax + (-1,)] *= 0.5
    # forward: each pass zero-pads its axis to M + 1, so no all-zero row is
    # transformed; inverse (a DCT-I is its own inverse up to 1/(2M) per
    # axis): each pass crops its axis to M/2 + 1 before the next one
    for ax in range(dim):
        work = dct1(work, ax, n=m + 1)
    work *= conv.octant_spectrum
    for ax in range(dim - 1, -1, -1):
        work = dct1(work, ax)
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
    spec = np.fft.rfft(factor, n=2 * m)
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
