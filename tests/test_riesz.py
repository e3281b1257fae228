"""Free-space Riesz convolution: fast path vs dense padded FFT, direct-sum
oracle and analytic values.

The Newtonian potential of the Gaussian e^{-r^2} in 3D is
pi^{3/2} erf(r)/r (value 2 pi at r = 0), derived from the error-function
integral; it anchors the alpha = 2 case.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.special import erf

import choquard as cq
import choquard.riesz
from conftest import smooth_random_field


def coulomb_of_unit_gaussian(r):
    r = np.asarray(r)
    return np.pi**1.5 * np.where(r > 1e-12, erf(r) / np.maximum(r, 1e-12), 2 / math.sqrt(math.pi))


class TestBuild:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, 3.0, 3.5])
    def test_alpha_out_of_range(self, grid3_small, alpha):
        with pytest.raises(cq.AlphaOutOfRange):
            cq.build_convolver(grid3_small, alpha)

    def test_coulomb_kernel_samples(self):
        # alpha = 2, N = 3: convolving a single-cell density isolates the
        # kernel, which must equal 1/|x - x0| away from the source
        g = cq.GridSpec(3, 4.0, 16)
        conv = cq.build_convolver(g, 2.0)
        dens = np.zeros(g.shape)
        c = g.points_per_axis // 2
        dens[c, c, c] = 1.0 / g.cell_volume  # unit total charge
        pot = cq.riesz_convolve(conv, cq.ScalarField(g, dens)).values
        x = g.axis()
        for idx in ((c + 3, c, c), (c, c + 2, c + 1), (c + 1, c + 1, c + 1)):
            r = math.sqrt(sum((x[i] - x[c]) ** 2 for i in idx))
            assert pot[idx] == pytest.approx(1.0 / r, rel=1e-12)

    def test_refinement_convergence(self):
        # doubling M at fixed extent changes the Gaussian potential < 1e-4
        vals = {}
        for m in (48, 96):
            g = cq.GridSpec(3, 8.0, m)
            rho = cq.gaussian_field(g, 1.5)
            conv = cq.build_convolver(g, 2.0)
            out = cq.riesz_convolve(conv, rho).values
            step = m // 48
            vals[m] = out[::step, ::step, ::step]
        diff = np.max(np.abs(vals[96] - vals[48])) / np.max(np.abs(vals[48]))
        assert diff < 1e-4


class TestConvolve:
    def test_zero_density(self, grid3_small):
        conv = cq.build_convolver(grid3_small, 2.0)
        out = cq.riesz_convolve(conv, cq.zero_field(grid3_small))
        assert np.all(out.values == 0.0)

    def test_grid_mismatch(self, grid3_small):
        conv = cq.build_convolver(grid3_small, 2.0)
        other = cq.GridSpec(3, 8.0, 16)
        with pytest.raises(cq.GridMismatch):
            cq.riesz_convolve(conv, cq.zero_field(other))

    def test_gaussian_erf_formula(self):
        g = cq.GridSpec(3, 9.0, 48)
        f = cq.from_callable(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
        out = cq.riesz_convolve(cq.build_convolver(g, 2.0), f).values
        r = g.radius()
        rel = np.abs(out - coulomb_of_unit_gaussian(r)) / coulomb_of_unit_gaussian(r)
        assert rel[r <= g.half_extent / 2].max() < 2e-3

    def test_linearity(self, grid3_small):
        rng = np.random.default_rng(8)
        conv = cq.build_convolver(grid3_small, 1.7)
        r1 = smooth_random_field(grid3_small, rng)
        r2 = smooth_random_field(grid3_small, rng)
        combo = cq.ScalarField(grid3_small, 1.3 * r1.values - 0.4 * r2.values)
        lhs = cq.riesz_convolve(conv, combo).values
        rhs = 1.3 * cq.riesz_convolve(conv, r1).values - 0.4 * cq.riesz_convolve(conv, r2).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_self_adjoint(self, grid3_small):
        rng = np.random.default_rng(9)
        conv = cq.build_convolver(grid3_small, 2.0)
        r1 = smooth_random_field(grid3_small, rng)
        r2 = smooth_random_field(grid3_small, rng)
        lhs = cq.inner(cq.riesz_convolve(conv, r1), r2)
        rhs = cq.inner(r1, cq.riesz_convolve(conv, r2))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_positivity(self, grid3_small):
        rng = np.random.default_rng(10)
        rho = cq.ScalarField(grid3_small, np.abs(smooth_random_field(grid3_small, rng).values))
        out = cq.riesz_convolve(cq.build_convolver(grid3_small, 2.0), rho).values
        assert out.min() >= -1e-12 * out.max()

    def test_quadratic_form_dilation_exponent(self):
        # <K * u_s, u_s> = e^{-alpha s} <K * u, u> for the mass-preserving
        # dilation u_s; anchors the kernel's homogeneity exponent
        g = cq.GridSpec(3, 10.0, 48)
        alpha = 2.0
        conv = cq.build_convolver(g, alpha)
        u = cq.gaussian_field(g, 1.2)
        base = cq.inner(cq.riesz_convolve(conv, u), u)
        for s in (0.2, -0.2):
            us = cq.dilate(u, s)
            form = cq.inner(cq.riesz_convolve(conv, us), us)
            assert abs(form / (math.exp(-alpha * s) * base) - 1) < 5e-3


def dense_padded_convolution(conv, values):
    """Hockney reference: zero-pad to (2M)^N, multiply full spectra, crop."""
    g = conv.grid
    m = g.points_per_axis
    n = 2 * m
    off = np.where(np.arange(n) < m, np.arange(n), np.arange(n) - n) * g.spacing
    r2 = sum(np.meshgrid(*([off**2] * g.dim), indexing="ij", sparse=True))
    with np.errstate(divide="ignore"):
        kern = r2 ** ((conv.alpha - g.dim) / 2.0)
    kern[(0,) * g.dim] = conv.singular_value
    pad = np.zeros((n,) * g.dim)
    pad[(slice(0, m),) * g.dim] = values
    out = np.fft.ifftn(np.fft.fftn(pad) * np.fft.fftn(kern)).real
    return out[(slice(0, m),) * g.dim] * g.cell_volume


class TestPruned:
    def test_kernel_spectrum_is_real_float64(self):
        for dim, m in [(1, 64), (2, 40), (3, 16)]:
            spec = cq.build_convolver(cq.GridSpec(dim, 6.0, m), dim / 2.0).octant_spectrum
            assert spec.dtype == np.float64
            assert spec.flags.c_contiguous
            assert spec.shape == (m + 1,) * dim

    def test_kernel_spectrum_is_read_only(self):
        for dim, m in [(1, 64), (2, 40), (3, 16)]:
            g = cq.GridSpec(dim, 6.0, m)
            conv = cq.build_convolver(g, dim / 2.0)
            assert cq.build_convolver(g, dim / 2.0) is conv
            with pytest.raises(ValueError):
                conv.octant_spectrum[(0,) * dim] = 1.0

    def test_one_spectrum_is_held(self, grid3_small):
        # the full-grid convolution reads the padded spectrum's mirrored
        # leading axes from the octant, so no (2M)^{N-1}(M + 1) copy is kept
        conv = cq.build_convolver(grid3_small, 2.0)
        arrays = [v for v in vars(conv).values() if isinstance(v, np.ndarray)]
        m = grid3_small.points_per_axis
        assert sum(a.nbytes for a in arrays) == (m + 1) ** 3 * 8
        assert [a.shape for a in arrays] == [(m + 1,) * 3]

    @pytest.mark.parametrize(
        "dim,m,L,alpha",
        [(1, 64, 8.0, 0.5), (2, 40, 6.0, 1.2), (3, 16, 4.0, 2.0), (3, 48, 8.0, 1.5)],
    )
    def test_matches_dense_padded_fft(self, dim, m, L, alpha):
        g = cq.GridSpec(dim, L, m)
        conv = cq.build_convolver(g, alpha)
        vals = np.random.default_rng(m).standard_normal(g.shape)
        fast = cq.riesz_convolve(conv, cq.ScalarField(g, vals)).values
        ref = dense_padded_convolution(conv, vals)
        assert np.max(np.abs(fast - ref)) / np.max(np.abs(ref)) < 1e-13

    def test_worker_count_reaches_transforms(self, monkeypatch):
        g = cq.GridSpec(3, 6.0, 24)
        conv = cq.build_convolver(g, 2.0)
        rho = cq.ScalarField(g, np.random.default_rng(3).standard_normal(g.shape))
        one = cq.riesz_convolve(conv, rho).values
        workers = []
        for name in ("rfft", "fft", "ifft", "irfft"):
            fn = getattr(scipy.fft, name)

            def call(*args, _fn=fn, **kwargs):
                workers.append(kwargs.get("workers") or scipy.fft.get_workers())
                return _fn(*args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, call)
        with scipy.fft.set_workers(2):
            two = cq.riesz_convolve(conv, rho).values
        m, slab = g.points_per_axis, choquard.riesz._SLAB
        blocks, stripes = -(-(m + 1) // slab), -(-m // slab)
        assert len(workers) == 2 * stripes + 2 * (g.dim - 1) * blocks and set(workers) == {2}
        assert scipy.fft.get_workers() == 1
        assert np.max(np.abs(two - one)) <= 1e-13 * np.max(np.abs(one))


class TestOracle:
    @pytest.mark.parametrize(
        "dim,m,L,alpha", [(1, 64, 8.0, 0.5), (2, 24, 6.0, 1.2), (3, 12, 4.0, 2.0)]
    )
    def test_fast_equals_oracle(self, dim, m, L, alpha):
        g = cq.GridSpec(dim, L, m)
        rng = np.random.default_rng(dim)
        rho = cq.ScalarField(g, rng.standard_normal(g.shape))
        fast = cq.riesz_convolve(cq.build_convolver(g, alpha), rho).values
        slow = cq.riesz_convolve_oracle(g, alpha, rho).values
        assert np.max(np.abs(fast - slow)) / np.max(np.abs(slow)) < 1e-8

    def test_zero(self, grid1):
        out = cq.riesz_convolve_oracle(grid1, 0.5, cq.zero_field(grid1))
        assert np.all(out.values == 0.0)

    def test_oracle_gaussian_erf(self):
        g = cq.GridSpec(3, 4.0, 16)
        f = cq.from_callable(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
        out = cq.riesz_convolve_oracle(g, 2.0, f).values
        r = g.radius()
        mask = r <= 2.0
        rel = np.abs(out - coulomb_of_unit_gaussian(r)) / coulomb_of_unit_gaussian(r)
        assert rel[mask].max() < 2e-2  # coarse grid, quadrature-level error

    def test_too_large(self):
        g = cq.GridSpec(3, 4.0, 32)
        with pytest.raises(cq.TooLarge):
            cq.riesz_convolve_oracle(g, 2.0, cq.zero_field(g))


class TestLean:
    def test_import_loads_no_optimize_or_integrate(self):
        code = (
            "import sys, choquard, choquard.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_fiber_maximum_loads_no_optimize(self):
        code = (
            "import sys, choquard as cq; "
            "g = cq.GridSpec(3, 8.0, 16); "
            "params = cq.ModelParams(dim=3, alpha=2.0, p=3.0, q=3.0, mu1=60.0, mu2=60.0, "
            "xi=1.0, eta=1.0, coupling=cq.CouplingSpec('constant', 0.015)); "
            "u = cq.gaussian_field(g, 1.2, mass=1.0); "
            "s, _ = cq.fiber_maximize(cq.StatePair(u, u.copy()), params); "
            "print(abs(s) < 4.0, 'scipy.optimize' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True False"

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_peak_below_three_spectra(self):
        g = cq.GridSpec(3, 6.0, 32)
        # the uncached build, so that the traced call builds rather than hits
        build = cq.build_convolver.__wrapped__
        spec = build(g, 2.0).octant_spectrum  # warms the K(0) cache
        assert self.traced_peak(build, g, 2.0) < 3 * spec.nbytes

    def test_convolution_peak_below_one_complex_spectrum(self):
        g = cq.GridSpec(3, 6.0, 32)
        conv = cq.build_convolver(g, 2.0)
        vals = np.random.default_rng(4).standard_normal(g.shape)
        m = g.points_per_axis
        complex_spectrum = (2 * m) ** (g.dim - 1) * (m + 1) * 16
        peak = self.traced_peak(choquard.riesz.riesz_convolve_values, conv, vals)
        assert peak < complex_spectrum

    def test_convolution_peak_at_64_below_seven_mib(self):
        # the last axis's transforms run a stripe of rows at a time: the
        # complex spectrum, the output and one stripe's buffers are held
        g = cq.GridSpec(3, 12.0, 64)
        conv = cq.build_convolver(g, 2.0)
        vals = np.random.default_rng(4).standard_normal(g.shape)
        peak = self.traced_peak(choquard.riesz.riesz_convolve_values, conv, vals)
        assert peak <= 7 * 2**20

    def test_singular_coefficient_peak_below_eight_mib(self):
        # no (2 R / h + 1)^N cube of distances is built
        choquard.riesz._singular_coefficient.cache_clear()
        assert self.traced_peak(choquard.riesz._singular_coefficient, 3, 2.0) <= 8 * 2**20

    @pytest.mark.parametrize("dim,alpha", [(1, 0.5), (2, 1.2), (3, 0.5), (3, 2.0), (3, 2.9)])
    def test_singular_coefficient_equals_the_full_cube(self, dim, alpha):
        # oracle: the masked distances of the whole (2 R / h + 1)^N lattice cube
        m = choquard.riesz._WINDOW_CELLS
        surf = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
        integral = surf * m**alpha * choquard.riesz._window_integral(alpha)
        axis = np.arange(-m, m + 1, dtype=np.float64)
        d2 = np.zeros((2 * m + 1,) * dim)
        for d in range(dim):
            d2 = d2 + axis.reshape((1,) * d + (-1,) + (1,) * (dim - d - 1)) ** 2
        dist = np.sqrt(d2)
        mask = (dist > 0.0) & (dist < m)
        cutoff = choquard.riesz._cutoff(dist[mask] / m)
        lattice = float(np.sum(dist[mask] ** (alpha - dim) * cutoff))
        assert choquard.riesz._singular_coefficient(dim, alpha) == integral - lattice

    @pytest.mark.parametrize(
        "alpha,exact",
        # 40-digit mpmath quadrature of int_0^1 t^(alpha - 1) chi(t) dt
        [(0.3, 3.0537050199216935924), (2.5, 0.19936340182218835941), (2.9, 0.15481111283061076770)],
    )
    def test_window_integral(self, alpha, exact):
        assert choquard.riesz._window_integral(alpha) == pytest.approx(exact, rel=1e-15, abs=0.0)


def face_weighted_double_sum(grid, alpha, values):
    """The even-subspace convolution by its definition: a direct double sum
    over the closed grid x = h (k - M/2), k = 0..M, where the +L face repeats
    the -L face (full index k mod M) and each face axis weighs 1/2."""
    m, h, dim = grid.points_per_axis, grid.spacing, grid.dim
    k = np.arange(m + 1)
    full = k % m
    closed = values[np.ix_(*[full] * dim)]
    w1 = np.where((k == 0) | (k == m), 0.5, 1.0)
    weight = np.ones((m + 1,) * dim)
    for ax in range(dim):
        weight = weight * w1.reshape((1,) * ax + (-1,) + (1,) * (dim - ax - 1))
    pts = np.stack(np.meshgrid(*[h * (k - m // 2)] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    src = (weight * closed).ravel()
    targets = pts.reshape((m + 1,) * dim + (dim,))[(slice(0, m),) * dim].reshape(-1, dim)
    d = np.sqrt(np.sum((targets[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    with np.errstate(divide="ignore"):
        kern = d ** (alpha - dim)
    kern[d == 0.0] = choquard.riesz._singular_value(dim, alpha, h)
    return (kern @ src).reshape(grid.shape) * grid.cell_volume


class TestEvenConvolution:
    """The octant convolution of reflection-even densities, held on their
    octants."""

    CASES = [(1, 32, 6.0, 0.5), (2, 16, 5.0, 0.5), (2, 16, 5.0, 1.0),
             (3, 8, 4.0, 0.5), (3, 10, 4.0, 1.0), (3, 10, 4.0, 2.0)]

    @pytest.mark.parametrize("dim,m,L,alpha", CASES)
    def test_matches_face_weighted_double_sum(self, dim, m, L, alpha):
        g = cq.GridSpec(dim, L, m)
        rng = np.random.default_rng(m + dim)
        octant = cq.grid.fold(rng.uniform(0.5, 1.5, g.shape))
        face = octant[(-1,) + (slice(None),) * (dim - 1)]
        assert face.min() >= 1e-3 * octant.max()
        got = cq.riesz.riesz_convolve_values(cq.build_convolver(g, alpha), octant)
        want = face_weighted_double_sum(g, alpha, cq.grid.from_octant(octant))
        assert got.shape == octant.shape
        assert np.max(np.abs(cq.grid.from_octant(got) - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim,m,L,alpha", CASES + [(3, 64, 12.0, 2.0), (3, 40, 9.0, 2.0)])
    def test_equals_full_grid_without_a_face(self, dim, m, L, alpha):
        g = cq.GridSpec(dim, L, m)
        octant = cq.grid.fold(np.random.default_rng(m).standard_normal(g.shape))
        for ax in range(dim):
            octant[(slice(None),) * ax + (-1,)] = 0.0
        conv = cq.build_convolver(g, alpha)
        got = cq.riesz.riesz_convolve_values(conv, octant)
        want = cq.riesz.riesz_convolve_values(conv, cq.grid.from_octant(octant))
        assert np.max(np.abs(cq.grid.from_octant(got) - want)) < 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("shape", [(18, 18, 18), (16, 16), (9, 9)],
                             ids=["wider-cube", "2d-on-3d", "2d-octant-on-3d"])
    def test_a_foreign_shape_is_refused(self, shape):
        # the one entry reads the layout from the shape: an array that is
        # neither the M^N grid nor its octant is no density of this grid
        conv = cq.build_convolver(cq.GridSpec(3, 8.0, 16), 2.0)
        with pytest.raises(cq.GridMismatch, match="neither"):
            cq.riesz.riesz_convolve_values(conv, np.ones(shape))

    def test_octant_spectrum_is_kept_read_only(self, grid3_small):
        conv = cq.build_convolver(grid3_small, 2.0)
        m = grid3_small.points_per_axis
        assert conv.octant_spectrum.shape == (m + 1,) * 3
        with pytest.raises(ValueError):
            conv.octant_spectrum[0, 0, 0] = 1.0


class TestRankOne:
    """B of a density that is the outer product of N copies of one 1-D
    factor, without an N-D transform, against the full-grid quadrature."""

    CASES = [(1, 64, 8.0, 0.5), (1, 64, 8.0, 0.9), (2, 32, 8.0, 0.5), (2, 32, 8.0, 1.5),
             (3, 16, 6.0, 1.0), (3, 16, 6.0, 2.5), (3, 24, 10.0, 2.0)]

    @pytest.mark.parametrize("dim,m,L,alpha", CASES)
    @pytest.mark.parametrize("width_in_l", [0.1, 0.5, 1.0])
    def test_equals_full_grid_quadrature(self, dim, m, L, alpha, width_in_l):
        # a width of L leaves e^{-1/2} of the peak on the x = -L face
        g = cq.GridSpec(dim, L, m)
        conv = cq.build_convolver(g, alpha)
        factor = np.exp(-0.5 * (g.axis() / (width_in_l * L)) ** 2)
        density = factor
        for _ in range(dim - 1):
            density = np.multiply.outer(density, factor)
        want = cq.energy._nonlocal(conv, density, 1.0)[1]
        assert cq.riesz.riesz_energy_rank_one(conv, factor) == pytest.approx(want, rel=1e-13)

    def test_uneven_factor(self):
        # nothing asks the factor to be even or centred
        g = cq.GridSpec(2, 5.0, 20)
        conv = cq.build_convolver(g, 1.0)
        factor = np.random.default_rng(3).uniform(0.1, 1.0, g.points_per_axis)
        want = cq.energy._nonlocal(conv, np.multiply.outer(factor, factor), 1.0)[1]
        assert cq.riesz.riesz_energy_rank_one(conv, factor) == pytest.approx(want, rel=1e-13)
