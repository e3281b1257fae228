"""Grid, norms, dilation and rearrangement.

Oracle values for the Gaussian e^{-r^2}, derived independently:
    int e^{-2|x|^2} dx           = (pi/2)^{N/2}
    int |grad e^{-|x|^2}|^2 dx   = 4 int r^2 e^{-2r^2} dx = N (pi/2)^{N/2}
cross-checked below by 1D radial quadrature.
"""

import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import choquard as cq
from conftest import smooth_random_field, smooth_random_nonneg


def gaussian_e_r2(grid):
    return cq.from_callable(grid, lambda *xs: np.exp(-sum(x * x for x in xs)))


class TestGridSpec:
    def test_spacing_and_shape(self):
        g = cq.GridSpec(2, 4.0, 16)
        assert g.spacing == 0.5
        assert g.shape == (16, 16)
        assert g.cell_volume == 0.25
        assert g.axis()[0] == -4.0 and g.axis()[-1] == 4.0 - 0.5

    @pytest.mark.parametrize(
        "dim,L,m", [(4, 4.0, 16), (3, -1.0, 16), (3, 4.0, 15), (3, 4.0, 4)]
    )
    def test_invalid_specs_rejected(self, dim, L, m):
        with pytest.raises(ValueError):
            cq.GridSpec(dim, L, m)

    def test_convolution_workspace_caps_the_grid(self):
        # the padded convolution allocates (2M)^N float64 arrays: at most 2^27
        # points, 1 GiB each, so M = 256 is the largest 3-D grid
        assert cq.GridSpec(3, 4.0, 256).size == 256**3
        with pytest.raises(ValueError, match="convolution workspace"):
            cq.GridSpec(3, 4.0, 258)

    def test_nan_values_rejected(self, grid3_small):
        vals = np.zeros(grid3_small.shape)
        vals[0, 0, 0] = np.nan
        with pytest.raises(cq.NonFinite):
            cq.ScalarField(grid3_small, vals)

    def test_state_pair_grid_mismatch(self):
        g1 = cq.GridSpec(1, 4.0, 16)
        g2 = cq.GridSpec(1, 4.0, 32)
        with pytest.raises(cq.GridMismatch):
            cq.StatePair(cq.zero_field(g1), cq.zero_field(g2))


class TestNorms:
    def test_zero_field(self, grid3_small):
        z = cq.zero_field(grid3_small)
        assert cq.l2_norm_sq(z) == 0.0
        assert cq.grad_norm_sq(z) == 0.0

    def test_gaussian_mass_oracle(self):
        # radial quadrature oracle for int e^{-2r^2} over R^3
        oracle = 4 * math.pi * quad(lambda r: r * r * math.exp(-2 * r * r), 0, 12)[0]
        assert oracle == pytest.approx((math.pi / 2) ** 1.5, rel=1e-12)
        f = gaussian_e_r2(cq.GridSpec(3, 8.0, 48))
        assert cq.l2_norm_sq(f) == pytest.approx((math.pi / 2) ** 1.5, abs=1e-6)

    def test_gaussian_gradient_oracle(self):
        oracle = 16 * math.pi * quad(lambda r: r**4 * math.exp(-2 * r * r), 0, 12)[0]
        assert oracle == pytest.approx(3 * (math.pi / 2) ** 1.5, rel=1e-12)
        f = gaussian_e_r2(cq.GridSpec(3, 8.0, 48))
        assert cq.grad_norm_sq(f) == pytest.approx(3 * (math.pi / 2) ** 1.5, abs=1e-6)

    def test_gradient_grows_with_modulation(self, grid1):
        base = cq.from_callable(grid1, lambda x: np.exp(-(x * x)))
        mod1 = cq.ScalarField(grid1, base.values * np.cos(1.0 * grid1.axis()))
        mod2 = cq.ScalarField(grid1, base.values * np.cos(3.0 * grid1.axis()))
        assert cq.grad_norm_sq(base) < cq.grad_norm_sq(mod1) < cq.grad_norm_sq(mod2)

    @given(c=st.floats(-8, 8, allow_nan=False).filter(lambda c: abs(c) > 1e-3))
    @settings(max_examples=25, deadline=None)
    def test_l2_homogeneity(self, c):
        g = cq.GridSpec(1, 4.0, 64)
        f = cq.from_callable(g, lambda x: np.exp(-(x * x)) * np.sin(x))
        scaled = cq.ScalarField(g, c * f.values)
        assert cq.l2_norm_sq(scaled) == pytest.approx(c * c * cq.l2_norm_sq(f), rel=1e-12)

    def test_neg_laplacian_matches_gradient_norm(self, grid3_small):
        f = gaussian_e_r2(grid3_small)
        quad_form = cq.inner(cq.neg_laplacian(f), f)
        assert quad_form == pytest.approx(cq.grad_norm_sq(f), rel=1e-12)

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 64), (3, 48)])
    def test_x_grad_gaussian(self, dim, m):
        # x . grad e^{-r^2} = -2 r^2 e^{-r^2}
        g = cq.GridSpec(dim, 8.0, m)
        f = gaussian_e_r2(g)
        want = -2.0 * g.radius_sq() * f.values
        got = cq.grid.x_grad_values(g, f.values)
        assert np.max(np.abs(got - want)) < 1e-8

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 32), (3, 16), (3, 40)])
    def test_rank_one_kinetic_norm(self, dim, m):
        # the full grid's Parseval sum, factored, for centred Gaussians of
        # widths h to 20 L and a constant, read from their central line.  A
        # Gaussian wider than the box is nearly flat, and the rounding of its
        # full-grid samples alone moves its kinetic norm K by up to about
        # k_max sqrt(K m) eps (Cauchy-Schwarz), so that is the absolute scale
        g = cq.GridSpec(dim, 8.0, m)
        k_max = math.pi / g.spacing
        fields = [cq.gaussian_field(g, w, mass=1.3).values
                  for w in np.geomspace(g.spacing, 20.0 * g.half_extent, 9)]
        fields.append(np.full(g.shape, 0.3))
        for u in fields:
            line = u[(slice(None),) + (m // 2,) * (dim - 1)]
            want = cq.grid.grad_norm_sq_values(g, u)
            mass = g.cell_volume * np.sum(u * u)
            assert cq.grid.rank_one_grad_norm_sq(g, line) == pytest.approx(
                want, rel=1e-14, abs=1e-14 * k_max * math.sqrt(want * mass)
            )


class TestReflectionSymmetry:
    """The reflection i <-> (M - i) mod M fixes x = 0 and the x = -L face."""

    def test_coordinates_exactly_antisymmetric(self):
        g = cq.GridSpec(3, 9.0, 40)  # h = 0.45, not dyadic
        x = g.axis()
        assert x[20] == 0.0 and x[0] == -9.0
        assert np.array_equal(x[1:], -x[:0:-1])
        assert cq.grid.is_even(g.radius_sq())
        r2 = g.radius_sq()
        for ax in range(3):
            assert np.array_equal(np.take(r2, (-np.arange(40)) % 40, axis=ax), r2)

    @pytest.mark.parametrize("L,m", [(12.0, 64), (10.0, 40), (8.0, 16), (9.0, 96)])
    def test_dyadic_spacing_keeps_the_coordinates(self, L, m):
        g = cq.GridSpec(3, L, m)
        assert np.array_equal(g.axis(), -L + g.spacing * np.arange(m))

    def test_even_part_is_the_orthogonal_projection(self):
        g = cq.GridSpec(3, 6.0, 12)
        f = np.random.default_rng(1).standard_normal(g.shape)
        e = cq.grid.even_part(f)
        assert cq.grid.is_even(e) and not cq.grid.is_even(f)
        assert np.array_equal(cq.grid.even_part(e), e)
        assert abs(np.sum(e * (f - e))) < 1e-12 * np.sum(f * f)

    def test_x_grad_keeps_even_fields_even(self):
        # fails without the Nyquist rule: the odd part was 9.3e-4 of the output
        g = cq.GridSpec(3, 9.0, 40)
        f = np.exp(-g.radius_sq() / 18.0)  # width 3
        xg = cq.grid.x_grad_values(g, f)
        scale = np.max(np.abs(xg))
        assert np.max(np.abs(xg - cq.grid.even_part(xg))) < 1e-14 * scale
        # and x . grad commutes with swapping a leading axis and the last
        w = f * (1.0 + 0.1 * g.coords()[0] ** 2)
        xw = cq.grid.x_grad_values(g, w)
        swapped = cq.grid.x_grad_values(g, w.transpose(2, 1, 0))
        assert np.max(np.abs(swapped - xw.transpose(2, 1, 0))) < 1e-14 * np.max(np.abs(xw))


class TestDilate:
    def test_identity_at_zero(self, grid3_small):
        rng = np.random.default_rng(0)
        f = smooth_random_field(grid3_small, rng)
        assert np.array_equal(cq.dilate(f, 0.0).values, f.values)

    def test_mass_preserved_pre_rescale(self):
        g = cq.GridSpec(3, 12.0, 64)
        f = gaussian_e_r2(g)
        # the trig resampling alone, before dilate rescales the mass exactly
        mat = cq.grid._resample_matrix(g, math.exp(0.3))
        out = f.values
        for ax in range(g.dim):
            out = np.moveaxis(np.tensordot(mat, np.moveaxis(out, ax, 0), axes=(1, 0)), 0, ax)
        d = cq.ScalarField(g, out * math.exp(g.dim * 0.3 / 2.0))
        assert cq.l2_norm_sq(d) == pytest.approx(cq.l2_norm_sq(f), rel=1e-4)

    def test_mass_exact_post_rescale(self):
        g = cq.GridSpec(3, 12.0, 64)
        f = gaussian_e_r2(g)
        d = cq.dilate(f, 0.3)
        assert cq.l2_norm_sq(d) == pytest.approx(cq.l2_norm_sq(f), rel=1e-13)

    def test_kinetic_scaling_law(self):
        g = cq.GridSpec(3, 12.0, 64)
        f = gaussian_e_r2(g)
        for s in (0.2, -0.2):
            d = cq.dilate(f, s)
            ratio = cq.grad_norm_sq(d) / (math.exp(2 * s) * cq.grad_norm_sq(f))
            assert abs(ratio - 1) < 1e-3

    def test_roundtrip(self):
        g = cq.GridSpec(3, 10.0, 48)
        f = cq.gaussian_field(g, 1.0)  # decayed well inside the box at e^{0.5} stretch
        for s in (0.5, -0.5):
            back = cq.dilate(cq.dilate(f, s), -s)
            rel = math.sqrt(
                cq.l2_norm_sq(cq.ScalarField(g, back.values - f.values)) / cq.l2_norm_sq(f)
            )
            assert rel < 1e-3

    def test_out_of_box_raises(self):
        g = cq.GridSpec(1, 8.0, 128)
        wide = cq.gaussian_field(g, 3.0)
        with pytest.raises(cq.DilationOutOfBox):
            cq.dilate(wide, -1.5)  # stretches far past the box

    def test_leak_warns_then_raises(self):
        # a width-3 Gaussian on [-8, 8): stretched by e^{0.2} it loses
        # 1.9e-3 of its mass past the faces (a warning, and the result is
        # renormalized), by e^{0.4} 1.1% (an error)
        g = cq.GridSpec(1, 8.0, 64)
        wide = cq.gaussian_field(g, 3.0)
        with pytest.warns(UserWarning, match="leaked"):
            out = cq.dilate(wide, -0.2)
        assert cq.l2_norm_sq(out) == pytest.approx(cq.l2_norm_sq(wide), rel=1e-13)
        with pytest.raises(cq.DilationOutOfBox):
            cq.dilate(wide, -0.4)


def reflection_mean(values):
    """The even part by its definition: the mean with the reflection
    i <-> (M - i) mod M, axis by axis."""
    m = values.shape[0]
    for ax in range(values.ndim):
        values = 0.5 * (values + np.take(values, (-np.arange(m)) % m, axis=ax))
    return values


class TestOctantOperators:
    """On a reflection-even field held on its (M/2 + 1)^N octant, each octant
    operator equals the full-grid operator of ``from_octant(f)``, also when
    the x = -L face carries weight."""

    CASES = [(1, 64, 6.0), (2, 24, 5.0), (3, 16, 4.0), (3, 20, 9.0)]

    @staticmethod
    def octant(g, seed=0):
        f = cq.grid.fold(np.random.default_rng(seed).standard_normal(g.shape))
        assert np.min(np.abs(f[-1])) > 0.0  # weight on the x = -L face
        return f

    @staticmethod
    def close(got, want, rtol=1e-13):
        return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_fold_is_the_octant_of_the_even_part(self, dim, m, L):
        g = cq.GridSpec(dim, L, m)
        f = np.random.default_rng(dim).standard_normal(g.shape)
        octant = cq.grid.fold(f)
        assert octant.shape == (m // 2 + 1,) * dim
        assert np.array_equal(cq.grid.from_octant(octant), cq.grid.even_part(f))
        assert np.array_equal(cq.grid.from_octant(octant), reflection_mean(f))
        assert np.array_equal(cq.grid.fold(cq.grid.from_octant(octant)), octant)

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_weighted_quadrature(self, dim, m, L):
        g = cq.GridSpec(dim, L, m)
        f, w = self.octant(g), self.octant(g, seed=1)
        full = np.sum(cq.grid.from_octant(f) * cq.grid.from_octant(w))
        assert cq.grid.grid_sum(g, f * w) == pytest.approx(full, rel=1e-13)
        assert np.sum(cq.grid.octant_weights(f.shape)) == g.size

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_kinetic_norm(self, dim, m, L):
        g = cq.GridSpec(dim, L, m)
        f = self.octant(g)
        want = cq.grid.grad_norm_sq_values(g, cq.grid.from_octant(f))
        assert cq.grid.grad_norm_sq_values(g, f) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_neg_laplacian(self, dim, m, L):
        g = cq.GridSpec(dim, L, m)
        f = self.octant(g)
        got = cq.grid.neg_laplacian_values(g, f)
        want = cq.grid.neg_laplacian_values(g, cq.grid.from_octant(f))
        assert got.shape == f.shape and self.close(cq.grid.from_octant(got), want)

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_preconditioner(self, dim, m, L):
        g = cq.GridSpec(dim, L, m)
        f = self.octant(g)
        got = cq.flow._precondition(g, f, 1.7)
        want = cq.flow._precondition(g, cq.grid.from_octant(f), 1.7)
        assert got.shape == f.shape and self.close(cq.grid.from_octant(got), want)

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_x_grad(self, dim, m, L):
        # x . grad f is even, so the fold of the full-grid result is its octant
        g = cq.GridSpec(dim, L, m)
        f = self.octant(g)
        got = cq.grid.x_grad_values(g, f)
        want = cq.grid.fold(cq.grid.x_grad_values(g, cq.grid.from_octant(f)))
        assert got.shape == f.shape and self.close(got, want)
        # each d_k is zero at offsets 0 and M/2 along k, as on the full grid
        assert got[(0,) * dim] == 0.0 and got[(-1,) * dim] == 0.0

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_convolution_without_a_face(self, dim, m, L):
        # the octant convolution splits the face between -L and +L, so it
        # equals the full-grid sum where the face is zero
        g = cq.GridSpec(dim, L, m)
        f = self.octant(g)
        for ax in range(dim):
            f[(slice(None),) * ax + (-1,)] = 0.0
        conv = cq.build_convolver(g, 0.5 * dim)
        got = cq.riesz.riesz_convolve_values(conv, f)
        want = cq.riesz.riesz_convolve_values(conv, cq.grid.from_octant(f))
        assert got.shape == f.shape and self.close(cq.grid.from_octant(got), want)

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_radial_shells(self, dim, m, L):
        # an octant point counts with its multiplicity, so the shell sums of
        # ones are the full grid's shell populations
        g = cq.GridSpec(dim, L, m)
        shell_r2, shell_of = cq.grid.radial_shells(g)
        f = self.octant(g)
        r2, population = cq.grid.shell_sums(g, np.ones_like(f))
        assert np.array_equal(r2, shell_r2)
        assert np.array_equal(population, np.bincount(shell_of))
        got, want = cq.grid.shell_sums(g, f)[1], cq.grid.shell_sums(g, cq.grid.from_octant(f))[1]
        assert self.close(got, want)

    @pytest.mark.parametrize("dim,m,L", CASES)
    def test_quadratures_read_the_layout(self, dim, m, L):
        # no argument names the layout: an octant is known by its shape
        g = cq.GridSpec(dim, L, m)
        rng = np.random.default_rng(dim)
        f = rng.standard_normal(g.shape)
        w = f + 0.5 * rng.standard_normal(g.shape)
        (of, ow), (ef, ew) = map(cq.grid.fold, (f, w)), map(cq.grid.even_part, (f, w))
        assert cq.grid.grid_sum(g, of * of) == pytest.approx(np.sum(ef * ef), rel=1e-13)
        assert cq.energy._quad(g, of * ow) == pytest.approx(cq.energy._quad(g, ef * ew), rel=1e-13)
        got = cq.flow._normalized(of, 0.7, g)
        assert self.close(cq.grid.from_octant(got), cq.flow._normalized(ef, 0.7, g))
        (got, got_ratio), (want, want_ratio) = (
            cq.flow._tangential(g, ow, of), cq.flow._tangential(g, ew, ef)
        )
        assert got_ratio == pytest.approx(want_ratio, rel=1e-13)
        assert self.close(cq.grid.from_octant(got), want, rtol=1e-12)


class TestRadialShells:
    @pytest.mark.parametrize("dim, half_extent, m", [
        (1, 4.0, 64), (2, 4.0, 32), (3, 8.0, 32), (3, 10.0, 40),
        (3, 10.0, 48),  # h = 5/12 is not dyadic: 4,509 distinct float radii
    ])
    def test_rebuilds_radius_sq_bitwise(self, dim, half_extent, m):
        g = cq.GridSpec(dim, half_extent, m)
        shell_r2, shell_of = cq.grid.radial_shells(g)
        assert np.array_equal(shell_r2[shell_of].reshape(g.shape), g.radius_sq())
        assert np.all(np.diff(shell_r2) > 0.0)
        assert not shell_r2.flags.writeable and not shell_of.flags.writeable

    def test_shell_sum_of_radial_weight(self, grid3_small):
        rng = np.random.default_rng(5)
        w = smooth_random_field(grid3_small, rng).values
        shell_r2, shell_of = cq.grid.radial_shells(grid3_small)
        per_shell = np.bincount(shell_of, weights=w.ravel(), minlength=shell_r2.size)
        want = np.sum(np.exp(-grid3_small.radius_sq()) * w)
        assert np.dot(np.exp(-shell_r2), per_shell) == pytest.approx(want, rel=1e-13)


class TestRearrangement:
    def test_radial_gaussian_fixed_point(self, grid3_small):
        f = gaussian_e_r2(grid3_small)
        r = cq.rearrange_radial_decreasing(f)
        assert np.allclose(r.values, f.values, rtol=0, atol=1e-15)

    def test_off_center_ball_recentred(self):
        g = cq.GridSpec(2, 4.0, 32)
        x, y = np.broadcast_arrays(*g.coords())
        off = ((x - 1.5) ** 2 + (y - 0.5) ** 2 <= 1.0).astype(float)
        out = cq.rearrange_radial_decreasing(cq.ScalarField(g, off))
        assert out.values.sum() == off.sum()  # same discrete measure
        r2 = g.radius_sq().ravel()
        inside = np.sort(r2[out.values.ravel() > 0.5])
        outside = np.sort(r2[out.values.ravel() < 0.5])
        assert inside[-1] <= outside[0] + 1e-12  # a centered ball

    def test_norm_preservation(self, grid3_small):
        rng = np.random.default_rng(3)
        f = smooth_random_nonneg(grid3_small, rng)
        r = cq.rearrange_radial_decreasing(f)
        assert cq.l2_norm_sq(r) == pytest.approx(cq.l2_norm_sq(f), rel=1e-14)
        for t in (1.0, 3.0, 4.5):
            nt = grid3_small.cell_volume * np.sum(f.values**t)
            nr = grid3_small.cell_volume * np.sum(r.values**t)
            assert nr == pytest.approx(nt, rel=1e-10)

    def test_polya_szego(self, grid3_small):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = smooth_random_nonneg(grid3_small, rng)
            r = cq.rearrange_radial_decreasing(f)
            assert cq.grad_norm_sq(r) <= cq.grad_norm_sq(f) * (1 + 1e-12)

    def test_monotone_profile(self, grid3_small):
        rng = np.random.default_rng(4)
        f = smooth_random_nonneg(grid3_small, rng)
        out = cq.rearrange_radial_decreasing(f)
        _, prof = cq.radial_profile(out)
        assert np.all(np.diff(prof) <= 1e-15)

    def test_negative_input_rejected(self, grid3_small):
        vals = -np.ones(grid3_small.shape)
        with pytest.raises(cq.NegativeInput):
            cq.rearrange_radial_decreasing(cq.ScalarField(grid3_small, vals))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_value_permutation_1d(self, seed):
        g = cq.GridSpec(1, 4.0, 64)
        rng = np.random.default_rng(seed)
        f = cq.ScalarField(g, np.abs(rng.standard_normal(g.shape)))
        r = cq.rearrange_radial_decreasing(f)
        assert np.allclose(np.sort(r.values), np.sort(f.values), rtol=0, atol=0)


class TestNoFullGridCache:
    """The Gaussian start, the rearrangement's order and the kinetic norm
    cache no full-grid float array, and each is bitwise what the cached
    full-grid form gave: the Gaussian from the radial table, the order as
    int32, and the Parseval sum from one |k|^2 per layout."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m", [16, 40])
    def test_octant_gaussian_is_the_full_grid_formula(self, dim, m):
        g = cq.GridSpec(dim, 7.0, m)
        r2 = g.radius_sq()
        shell_r2, shell_of = cq.grid._octant_shells(g)
        assert np.array_equal(shell_r2[shell_of], cq.grid.fold(r2))
        for sigma in (0.7, 1.9):
            want = np.exp(-r2 / (2.0 * sigma**2))
            assert np.array_equal(cq.gaussian_field(g, sigma).values, want)
            m0 = g.cell_volume * np.sum(want * want)
            scaled = cq.gaussian_field(g, sigma, mass=1.7).values
            assert np.array_equal(scaled, want * math.sqrt(1.7 / m0))

    @pytest.mark.parametrize("dim,m", [(1, 64), (2, 24), (3, 16)])
    def test_int32_order_rearranges_as_the_int64_order(self, dim, m):
        g = cq.GridSpec(dim, 5.0, m)
        order = cq.grid._shell_order(g)
        r2 = g.radius_sq().ravel()
        order64 = np.lexsort((np.arange(r2.size), r2))
        assert order.dtype == np.int32 and np.array_equal(order, order64)
        f = smooth_random_nonneg(g, np.random.default_rng(dim))
        want = np.empty(g.size)
        want[order64] = np.sort(f.values.ravel())[::-1]
        assert np.array_equal(cq.rearrange_radial_decreasing(f).values, want.reshape(g.shape))

    @pytest.mark.parametrize("dim,m,L", [(1, 64, 6.0), (2, 24, 5.0), (3, 16, 4.0), (3, 20, 9.0)])
    def test_kinetic_norm_is_the_weighted_parseval_sum(self, dim, m, L):
        g = cq.GridSpec(dim, L, m)
        f = smooth_random_field(g, np.random.default_rng(m)).values
        multiplicity = np.full(m // 2 + 1, 2.0)
        multiplicity[0] = multiplicity[-1] = 1.0
        spec = scipy.fft.rfftn(f)
        weights = multiplicity * cq.grid._k_sq_rfft(g)
        want = np.sum(weights * (spec.real**2 + spec.imag**2)) * g.cell_volume / g.size
        assert cq.grid.grad_norm_sq_values(g, f) == float(want)
        octant = cq.grid.fold(f)
        spec = scipy.fft.dctn(octant, type=1)
        weights = cq.grid.octant_weights(octant.shape) * cq.grid._k_sq_octant(g)
        want = np.sum(weights * (spec * spec)) * g.cell_volume / g.size
        assert cq.grid.grad_norm_sq_values(g, octant) == float(want)


class TestLayoutIsTheShape:
    """An array's shape is its layout: no function takes a layout flag, and
    the octant format stays behind ``grid`` (and the flow engine's switch)."""

    @staticmethod
    def callables(module):
        for obj in vars(module).values():
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                yield obj
                if inspect.isclass(obj):
                    yield from (m for m in vars(obj).values() if callable(m))

    def test_no_function_takes_an_even_flag(self):
        flagged = []
        for info in pkgutil.iter_modules(cq.__path__):
            module = importlib.import_module(f"choquard.{info.name}")
            for obj in self.callables(module):
                try:
                    params = inspect.signature(obj).parameters
                except (TypeError, ValueError):
                    continue
                if "even" in params:
                    flagged.append(f"{module.__name__}.{obj.__qualname__}")
        assert flagged == []

    @staticmethod
    def imports(name):
        """(module, name) of each ``from ... import`` in a choquard module."""
        source = (Path(cq.__file__).parent / f"{name}.py").read_text()
        return {
            (node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }

    def test_octant_format_stays_in_grid(self):
        for name in ("saddle", "model"):
            names = {n for _, n in self.imports(name)}
            assert names & {"fold", "from_octant", "octant_weights"} == set(), name
        private = [n for m, n in self.imports("flow") if m == "grid" and n.startswith("_")]
        assert private == []

    def test_an_evaluation_carries_its_samples(self):
        # an evaluation carries its samples, and the engine holds no layout
        for f in (cq.energy.gradient_values, cq.energy.pohozaev_from_state,
                  cq.energy.multiplier_sum_from_state):
            assert "sampled" not in inspect.signature(f).parameters, f.__name__
        params = cq.ModelParams(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0,
                                eta=1.0, coupling=cq.CouplingSpec("constant", 0.1))
        engine = cq.flow._SphereDescent(params, cq.GridSpec(3, 8.0, 8))
        assert not hasattr(engine, "even") and not hasattr(engine, "full_sampled")
        # only a constructor sets an engine's samples
        source = (Path(cq.__file__).parent / "flow.py").read_text()
        source += (Path(cq.__file__).parent / "saddle.py").read_text()
        setters = [
            node.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name != "__init__"
            for target in ast.walk(node)
            if isinstance(target, ast.Attribute) and target.attr == "sampled"
            and isinstance(target.ctx, ast.Store)
        ]
        assert setters == []

    @pytest.mark.parametrize("shape", [(20, 20, 20), (11, 11, 11), (16, 16, 15), (9, 9)])
    def test_a_foreign_shape_is_no_layout(self, shape):
        # e.g. a field sampled with another M: neither 16^3 nor the octant's 9^3
        with pytest.raises(cq.GridMismatch, match="neither"):
            cq.grid.grid_sum(cq.GridSpec(3, 10.0, 16), np.ones(shape))
