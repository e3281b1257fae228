"""Exponent algebra, sharp constants, barrier thresholds and validators."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln

import choquard as cq
from choquard.grid import fold
from choquard.model import (
    coupling_scaled_values,
    coupling_values,
    coupling_x_grad_values,
    h_function,
    potential_values,
)


class TestExponents:
    def test_delta_p_value(self):
        assert cq.delta_p(3, 2.0, 2.0) == pytest.approx(0.25, rel=0, abs=0)

    def test_delta_p_endpoints(self):
        for dim, alpha in ((3, 2.0), (2, 0.7), (1, 0.5)):
            p_lo = 1 + alpha / dim
            assert cq.delta_p(dim, alpha, p_lo) == pytest.approx(0.0, abs=1e-15)
            p_c = cq.critical_exponent(dim, alpha)
            assert p_c * cq.delta_p(dim, alpha, p_c) == pytest.approx(1.0, rel=1e-14)

    def test_delta_p_increasing_in_p(self):
        ps = np.linspace(1.7, 4.9, 200)
        ds = [cq.delta_p(3, 2.0, p) for p in ps]
        assert all(b > a for a, b in zip(ds, ds[1:]))

    @given(
        num=st.integers(1, 400),
        den=st.integers(1, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_classify_matches_exact_rational(self, num, den):
        dim, alpha = 3, 2.0
        p = 1.0 + num / den  # > 1
        exact = Fraction(p) - (1 + (Fraction(alpha) + 2) / dim)
        want = "subcritical" if exact < 0 else ("critical" if exact == 0 else "supercritical")
        assert cq.classify(dim, alpha, p) == want

    def test_classify_critical_boundary_exact(self):
        # 1 + (alpha + 2)/N representable exactly: alpha = 1, N = 3 -> p = 2
        assert cq.classify(3, 1.0, 2.0) == "critical"
        assert cq.classify(3, 1.0, np.nextafter(2.0, 3.0)) == "supercritical"
        assert cq.classify(3, 1.0, np.nextafter(2.0, 1.0)) == "subcritical"

    def test_regime_labels(self):
        params = cq.ModelParams(dim=3, alpha=2.0, p=2.0, q=3.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0)
        reg = params.regime()
        assert reg.label_p == "subcritical" and reg.label_q == "supercritical"
        assert reg.label == "mixed"


class TestSharpConstant:
    def test_value_n3_alpha2(self):
        # Gamma(5/2) = 3 sqrt(pi)/4, Gamma(3/2) = sqrt(pi)/2, Gamma(3) = 2
        hand = (4.0 / 3.0) * (math.sqrt(math.pi) / 4.0) ** (-2.0 / 3.0)
        assert cq.hls_sharp_constant(3, 2.0) == pytest.approx(hand, rel=1e-14)
        assert hand == pytest.approx(2.294, abs=5e-4)

    def test_against_independent_gamma_evaluator(self):
        for dim, alpha in ((1, 0.4), (2, 1.3), (3, 0.9), (3, 2.7)):
            log_val = (
                (dim - alpha) / 2.0 * math.log(math.pi)
                + gammaln(alpha / 2.0)
                - gammaln((dim + alpha) / 2.0)
                - (alpha / dim) * (gammaln(dim / 2.0) - gammaln(dim))
            )
            assert cq.hls_sharp_constant(dim, alpha) == pytest.approx(
                math.exp(log_val), rel=1e-12
            )

    def test_positive_finite_across_range(self):
        for dim in (1, 2, 3):
            for alpha in np.linspace(0.05, dim - 0.05, 9):
                val = cq.hls_sharp_constant(dim, float(alpha))
                assert 0 < val < math.inf

    def test_pole_guard(self):
        with pytest.raises(OverflowError):
            cq.hls_sharp_constant(3, 1e-7)

    def test_alpha_out_of_range(self):
        with pytest.raises(cq.AlphaOutOfRange):
            cq.hls_sharp_constant(3, 3.0)


class TestBarrier:
    def test_closed_form_quadratic_case(self):
        # C=1, p=4, delta=0.5: h(x) = x/2 - x^2/8
        x0, x1, hmax = cq.h_thresholds(1.0, 4.0, 0.5)
        assert x1 == pytest.approx(2.0, rel=1e-14)
        assert hmax == pytest.approx(0.5, rel=1e-14)
        assert x0 == pytest.approx(4.0, rel=1e-14)

    def test_roots_against_bisection(self):
        c, p, dp = 0.7, 3.0, 2.0 / 3.0
        x0, x1, hmax = cq.h_thresholds(c, p, dp)
        root = brentq(lambda x: h_function(x, c, p, dp), x1, 10 * x0)
        assert x0 == pytest.approx(root, rel=1e-12)
        assert h_function(x0, c, p, dp) == pytest.approx(0.0, abs=1e-10)
        eps = 1e-6 * x1
        deriv = (h_function(x1 + eps, c, p, dp) - h_function(x1 - eps, c, p, dp)) / (2 * eps)
        assert abs(deriv) < 1e-10

    def test_hmax_positive(self):
        for c in (0.1, 1.0, 10.0):
            for pdp in (1.2, 2.0, 3.5):
                p = 3.0
                _, _, hmax = cq.h_thresholds(c, p, pdp / p)
                assert hmax > 0

    def test_not_supercritical(self):
        with pytest.raises(cq.NotSupercritical):
            cq.h_thresholds(1.0, 2.0, 0.25)


class TestModelParams:
    def test_upper_exponent_limit(self):
        with pytest.raises(cq.RangeError):
            cq.ModelParams(dim=3, alpha=2.0, p=5.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0)

    def test_lower_exponent_limit(self):
        with pytest.raises(cq.RangeError):
            cq.ModelParams(dim=3, alpha=2.0, p=2.0, q=1.6, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0)

    def test_positive_weights(self):
        with pytest.raises(cq.RangeError):
            cq.ModelParams(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=0.0, mu2=1.0, xi=1.0, eta=1.0)

    def test_masses(self):
        with pytest.raises(cq.RangeError):
            cq.ModelParams(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=0.0, eta=0.0)
        # one vanishing mass is fine (scalar reduction)
        cq.ModelParams(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=0.0)

    def test_no_upper_bound_in_low_dims(self):
        cq.ModelParams(dim=1, alpha=0.5, p=9.0, q=9.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0)

    def test_swap_symmetry_compares_the_fields_a_kind_reads(self):
        # a harmonic trap reads only its stiffness, so its depth is no asymmetry
        base = dict(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0)
        v1 = cq.PotentialSpec("harmonic", depth=1.0, stiffness=0.5)
        v2 = cq.PotentialSpec("harmonic", depth=3.0, stiffness=0.5)
        assert cq.ModelParams(**base, v1=v1, v2=v2).swap_symmetric
        other = cq.ModelParams(**base, v1=v1, v2=cq.PotentialSpec("harmonic", stiffness=0.6))
        assert not other.swap_symmetric

    def test_unknown_kinds_refused(self):
        with pytest.raises(cq.RangeError, match="unknown coupling kind"):
            cq.CouplingSpec("yukawa")
        with pytest.raises(cq.RangeError, match="unknown potential kind"):
            cq.PotentialSpec("box")


class TestGaussianQuotient:
    def test_matches_grid_evaluation_and_dilation_invariant(self):
        dim, t = 3, 3.6
        g = cq.GridSpec(3, 10.0, 48)
        want = cq.gn_gaussian_quotient(dim, t)
        for sigma in (0.8, 1.6):
            u = cq.gaussian_field(g, sigma)
            norm_t = (g.cell_volume * np.sum(np.abs(u.values) ** t)) ** (1 / t)
            gam = cq.gamma_p(dim, t)
            got = norm_t / (
                cq.grad_norm_sq(u) ** (gam / 2) * cq.l2_norm_sq(u) ** ((1 - gam) / 2)
            )
            assert got == pytest.approx(want, rel=1e-6)


def _supercritical_params(coupling):
    return cq.ModelParams(
        dim=3, alpha=2.0, p=3.0, q=3.0, mu1=60.0, mu2=60.0, xi=1.0, eta=1.0, coupling=coupling
    )


class TestCouplingValidator:
    def test_constant_passes_sign_condition(self, grid3_small):
        params = _supercritical_params(cq.CouplingSpec("constant", 0.01))
        rep = cq.validate_coupling(params.coupling, params, grid3_small)
        assert rep.positive_ok and rep.condition3_ok and rep.sup_ok and rep.passed

    def test_rational_decay_passes(self, grid3_small):
        dp = cq.delta_p(3, 2.0, 3.0)
        spec = cq.CouplingSpec("rational_decay", 0.01, dp)
        params = _supercritical_params(spec)
        rep = cq.validate_coupling(spec, params, grid3_small)
        assert rep.condition3_ok
        # analytic identity: 2 beta + x.grad(beta)/dp = 2 beta / (1 + r^2)
        beta = coupling_values(spec, grid3_small)
        combo = 2 * beta + coupling_x_grad_values(spec, grid3_small) / dp
        want = 2 * beta / (1 + grid3_small.radius_sq())
        assert np.max(np.abs(combo - want)) < 1e-14

    def test_gaussian_coupling_fails_sign_condition(self, grid3_small):
        # beta = b0 exp(-r^2) violates the condition where r^2 > delta_p
        beta0 = 0.01
        tab = beta0 * np.exp(-grid3_small.radius_sq())
        spec = cq.CouplingSpec("tabulated", values=tab)
        params = _supercritical_params(spec)
        rep = cq.validate_coupling(spec, params, grid3_small)
        assert not rep.condition3_ok
        loc = np.array(rep.condition3_argmin)
        assert np.sum(loc**2) > params.delta_p

    def test_sup_norm_bound(self, grid3_small):
        params = _supercritical_params(cq.CouplingSpec("constant", 0.01))
        rep = cq.validate_coupling(params.coupling, params, grid3_small)
        big = cq.CouplingSpec("constant", 2.0 * rep.sup_bound)
        rep2 = cq.validate_coupling(big, _supercritical_params(big), grid3_small)
        assert rep2.sup_ok is False and not rep2.passed

    def test_subcritical_reports_positivity_only(self, grid3_small):
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0,
            coupling=cq.CouplingSpec("constant", 0.1),
        )
        rep = cq.validate_coupling(params.coupling, params, grid3_small)
        assert rep.sup_ok is None and rep.condition3_ok is None
        assert rep.positive_ok

    def test_zero_coupling_fails_positivity(self, grid3_small):
        spec = cq.CouplingSpec("constant", 0.0)
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0, coupling=spec
        )
        rep = cq.validate_coupling(spec, params, grid3_small)
        assert not rep.positive_ok


class TestCouplingFormulas:
    """Each built-in family's one radial formula gives, on the grid, the
    same bits as the per-point formula written out."""

    @pytest.mark.parametrize("scale", [1.0, math.exp(-0.3), math.exp(2.0)])
    @pytest.mark.parametrize("m", [32, 40])
    def test_bitwise_on_grid(self, m, scale):
        g = cq.GridSpec(3, 10.0, m)
        r2 = g.radius_sq()
        decay = cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0)
        flat = cq.CouplingSpec("constant", 0.1)
        want = {
            "decay": decay.beta0 * (1.0 + r2) ** (-decay.decay),
            "decay_scaled": decay.beta0 * (1.0 + scale**2 * r2) ** (-decay.decay),
        }
        assert np.array_equal(coupling_values(decay, g), want["decay"])
        assert np.array_equal(coupling_scaled_values(decay, g, scale, r2), want["decay_scaled"])
        for got in (coupling_values(flat, g), coupling_scaled_values(flat, g, scale, r2)):
            assert got.shape == g.shape and np.all(got == 0.1)

    @pytest.mark.parametrize("scale", [1.0, math.exp(-0.3), math.exp(2.0)])
    def test_scaled_values_on_the_octant(self, scale):
        # sampled on the folded r^2, never on the full grid: the same bits as
        # the fold of the full-grid samples, since r^2 is bitwise even
        g = cq.GridSpec(3, 10.0, 40)
        decay = cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0)
        got = coupling_scaled_values(decay, g, scale, fold(g.radius_sq()))
        assert got.shape == (21, 21, 21)
        assert np.array_equal(got, fold(coupling_scaled_values(decay, g, scale, g.radius_sq())))

    def test_table_has_no_scaled_values(self, grid3_small):
        spec = cq.CouplingSpec("tabulated", values=np.ones(grid3_small.shape))
        with pytest.raises(cq.RangeError, match="resampled"):
            coupling_scaled_values(spec, grid3_small, 0.5, grid3_small.radius_sq())


class TestRadialTable:
    """Every built-in coupling and potential, x . grad(beta) and beta at two
    scales, each read once per radial shell of the octant
    (``grid.radial_values``), is bitwise its per-point formula on the full
    grid and on the octant."""

    @pytest.mark.parametrize("dim, half_extent, m", [
        (1, 4.0, 64), (2, 6.0, 32), (3, 10.0, 40),
        (3, 10.0, 48),  # h = 5/12 is not dyadic
    ])
    def test_shell_samples_are_the_per_point_formula(self, dim, half_extent, m):
        g = cq.GridSpec(dim, half_extent, m)
        b, d, s1, s2 = 0.015, 2.0 / 3.0, math.exp(-0.3), math.exp(2.0)
        decay, flat = cq.CouplingSpec("rational_decay", b, d), cq.CouplingSpec("constant", 0.1)
        well = cq.PotentialSpec("gaussian_well", depth=0.7, width=1.3)
        trap = cq.PotentialSpec("harmonic", stiffness=0.4)
        formulas = {  # the per-point formula, and the model's samples on the full grid
            "decay": (lambda r2: b * (1.0 + r2) ** (-d), coupling_values(decay, g)),
            "constant": (lambda r2: np.full(r2.shape, 0.1), coupling_values(flat, g)),
            "x_grad_decay": (lambda r2: -2.0 * d * b * r2 * (1.0 + r2) ** (-d - 1.0),
                             coupling_x_grad_values(decay, g)),
            "x_grad_constant": (np.zeros_like, coupling_x_grad_values(flat, g)),
            "zero": (np.zeros_like, potential_values(cq.PotentialSpec("zero"), g)),
            "gaussian_well": (lambda r2: -0.7 * np.exp(-r2 / 1.3**2), potential_values(well, g)),
            "harmonic": (lambda r2: 0.4 * r2, potential_values(trap, g)),
        }
        r2 = g.radius_sq()
        for layout in (r2, fold(r2)):
            for name, (formula, full) in formulas.items():
                got = cq.grid.radial_values(g, formula, layout)
                assert got.shape == layout.shape and np.array_equal(got, formula(layout)), name
                assert full.shape == g.shape and np.array_equal(full, formula(r2)), name
            for scale in (s1, s2):
                want = b * (1.0 + scale**2 * layout) ** (-d)
                assert np.array_equal(coupling_scaled_values(decay, g, scale, layout), want)


class TestPotentialValidator:
    def test_zero_is_free(self, grid3_small):
        rep = cq.validate_potential(cq.PotentialSpec("zero"), "V1", grid3_small)
        assert rep.label == "free" and not rep.passed

    def test_gaussian_well_is_v1(self, grid3_small):
        spec = cq.PotentialSpec("gaussian_well", depth=1.0, width=1.0)
        rep = cq.validate_potential(spec, "V1", grid3_small)
        assert rep.passed and rep.all_negative
        assert rep.boundary_sup < 1e-6 * spec.depth  # L >= 8 w decay margin

    def test_harmonic_is_v2(self, grid3_small):
        rep = cq.validate_potential(cq.PotentialSpec("harmonic", stiffness=1.0), "V2", grid3_small)
        assert rep.passed and rep.label == "V2"

    def test_class_mismatch(self, grid3_small):
        rep = cq.validate_potential(cq.PotentialSpec("harmonic", stiffness=1.0), "V1", grid3_small)
        assert not rep.passed

    def test_sign_changing_table_is_unclassified(self):
        # cos|x| is neither a vanishing well (it is positive at the centre)
        # nor a trap (its boundary does not rise above the centre's 1)
        g = cq.GridSpec(3, 8.0, 16)
        spec = cq.PotentialSpec("tabulated", values=np.cos(g.radius()))
        for label in ("V1", "V2"):
            rep = cq.validate_potential(spec, label, g)
            assert rep.label == "unclassified" and not rep.passed
