"""Energy functional, gradient, multipliers and the dilation identities.

Key oracle: for u = e^{-r^2/2} (so |u|^2 = e^{-r^2}), p = 2, N = 3,
alpha = 2 the nonlocal term is the Gaussian Coulomb self-energy
int int e^{-x^2} e^{-y^2} / |x-y| = sqrt(2) pi^{5/2}, derived from the
erf potential and cross-checked against the direct-sum convolution below.
"""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import choquard as cq
import choquard.cli
from choquard.riesz import riesz_convolve_oracle
from conftest import smooth_random_field, smooth_random_nonneg

P_SUB = dict(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0)


@pytest.fixture(scope="module")
def conv32():
    g = cq.GridSpec(3, 8.0, 32)
    return g, cq.build_convolver(g, 2.0)


class TestNonlocalB:
    def test_zero(self, conv32):
        g, conv = conv32
        assert cq.nonlocal_B(cq.zero_field(g), 2.0, conv) == 0.0

    @given(c=st.floats(0.05, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_homogeneity(self, c):
        g = cq.GridSpec(1, 8.0, 128)
        conv = cq.build_convolver(g, 0.5)
        u = cq.gaussian_field(g, 1.0)
        cu = cq.ScalarField(g, c * u.values)
        p = 2.5
        assert cq.nonlocal_B(cu, p, conv) == pytest.approx(
            c ** (2 * p) * cq.nonlocal_B(u, p, conv), rel=1e-10
        )

    def test_gaussian_value(self):
        g = cq.GridSpec(3, 10.0, 64)
        conv = cq.build_convolver(g, 2.0)
        u = cq.from_callable(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z) / 2))
        assert cq.nonlocal_B(u, 2.0, conv) == pytest.approx(
            math.sqrt(2.0) * math.pi**2.5, rel=1e-3
        )

    def test_fast_matches_direct_sum(self):
        g = cq.GridSpec(3, 4.0, 16)
        conv = cq.build_convolver(g, 2.0)
        u = cq.gaussian_field(g, 1.0)
        dens = np.abs(u.values) ** 2.0
        direct = g.cell_volume * np.sum(
            riesz_convolve_oracle(g, 2.0, cq.ScalarField(g, dens)).values * dens
        )
        assert cq.nonlocal_B(u, 2.0, conv) == pytest.approx(direct, rel=1e-12)


class TestEnergyTotal:
    def test_zero_state(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**P_SUB)
        bd = cq.energy_total(cq.StatePair(cq.zero_field(g), cq.zero_field(g)), params)
        assert bd.total == 0.0

    def test_decoupling_at_zero_beta(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**P_SUB)
        u = cq.gaussian_field(g, 1.2, mass=1.0)
        v = cq.gaussian_field(g, 0.9, mass=1.0)
        bd = cq.energy_total(cq.StatePair(u, v), params)
        assert bd.coupling == 0.0
        bu = cq.energy_total(cq.StatePair(u, cq.zero_field(g)), params)
        bv = cq.energy_total(cq.StatePair(cq.zero_field(g), v), params)
        assert bd.total == pytest.approx(bu.total + bv.total, rel=1e-13)

    def test_constant_coupling_term(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**{**P_SUB, "coupling": cq.CouplingSpec("constant", 0.37)})
        u = cq.gaussian_field(g, 1.2, mass=1.0)
        v = cq.gaussian_field(g, 0.9, mass=1.0)
        bd = cq.energy_total(cq.StatePair(u, v), params)
        assert bd.coupling == pytest.approx(-0.37 * cq.inner(u, v), rel=1e-12)

    def test_breakdown_composes(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(
            **{**P_SUB, "coupling": cq.CouplingSpec("constant", 0.1)},
            v1=cq.PotentialSpec("gaussian_well", depth=0.5, width=2.0),
            v2=cq.PotentialSpec("harmonic", stiffness=0.2),
        )
        rng = np.random.default_rng(2)
        s = cq.StatePair(smooth_random_field(g, rng), smooth_random_field(g, rng))
        bd = cq.energy_total(s, params)
        total = (
            bd.kinetic + bd.potential_v1 + bd.potential_v2
            + bd.nonlocal_u + bd.nonlocal_v + bd.coupling
        )
        assert bd.total == total


class TestGradient:
    def test_zero_state(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**P_SUB)
        grad = cq.el_gradient(cq.StatePair(cq.zero_field(g), cq.zero_field(g)), params)
        assert np.all(grad.u.values == 0.0) and np.all(grad.v.values == 0.0)

    def test_directional_derivative(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=2.1, q=2.3, mu1=2.0, mu2=3.0, xi=1.0, eta=1.2,
            coupling=cq.CouplingSpec("rational_decay", 0.3, 0.8),
            v1=cq.PotentialSpec("gaussian_well", depth=0.7, width=2.0),
            v2=cq.PotentialSpec("harmonic", stiffness=0.3),
        )
        rng = np.random.default_rng(5)
        u = cq.gaussian_field(g, 1.5, mass=1.0)
        v = cq.gaussian_field(g, 1.2, mass=1.44)
        state = cq.StatePair(u, v)
        grad = cq.el_gradient(state, params)
        t = 1e-4
        for _ in range(8):
            pu = smooth_random_field(g, rng).values
            pv = smooth_random_field(g, rng).values
            nrm = math.sqrt(g.cell_volume * (np.sum(pu * pu) + np.sum(pv * pv)))
            pu /= nrm
            pv /= nrm
            sp = cq.StatePair(cq.ScalarField(g, u.values + t * pu), cq.ScalarField(g, v.values + t * pv))
            sm = cq.StatePair(cq.ScalarField(g, u.values - t * pu), cq.ScalarField(g, v.values - t * pv))
            fd = (cq.energy_total(sp, params).total - cq.energy_total(sm, params).total) / (2 * t)
            ip = g.cell_volume * (np.sum(grad.u.values * pu) + np.sum(grad.v.values * pv))
            assert fd == pytest.approx(ip, rel=1e-6)

    def test_quadratic_case_matches_spectral_assembly(self, conv32):
        # mu = 0 would leave the admissible range, so subtract the nonlocal
        # force instead: with beta = 0 and harmonic wells the rest is linear
        g, conv = conv32
        params = cq.ModelParams(
            **{**P_SUB, "mu1": 1.0, "mu2": 1.0},
            v1=cq.PotentialSpec("harmonic", stiffness=0.4),
            v2=cq.PotentialSpec("harmonic", stiffness=0.7),
        )
        rng = np.random.default_rng(7)
        u = smooth_random_field(g, rng)
        v = smooth_random_field(g, rng)
        grad = cq.el_gradient(cq.StatePair(u, v), params)
        from choquard.grid import neg_laplacian_values
        from choquard.riesz import riesz_convolve_values

        vpot1 = 0.4 * g.radius_sq()
        vpot2 = 0.7 * g.radius_sq()
        force_u = conv_force(g, conv, u.values, params.p, params.mu1)
        force_v = conv_force(g, conv, v.values, params.q, params.mu2)
        want_u = neg_laplacian_values(g, u.values) + vpot1 * u.values - force_u
        want_v = neg_laplacian_values(g, v.values) + vpot2 * v.values - force_v
        assert np.max(np.abs(grad.u.values - want_u)) < 1e-10
        assert np.max(np.abs(grad.v.values - want_v)) < 1e-10


def conv_force(g, conv, values, p, mu):
    from choquard.riesz import riesz_convolve_values

    dens = np.abs(values) ** p
    return mu * riesz_convolve_values(conv, dens) * np.sign(values) * np.abs(values) ** (p - 1)


class TestMultipliers:
    def test_assembly_matches_quadrature(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(
            **{**P_SUB, "coupling": cq.CouplingSpec("constant", 0.2)},
            v1=cq.PotentialSpec("gaussian_well", depth=0.3, width=2.0),
        )
        u = cq.gaussian_field(g, 1.4, mass=1.0)
        v = cq.gaussian_field(g, 1.0, mass=1.0)
        lam = cq.lagrange_multipliers(cq.StatePair(u, v), params)
        v1 = -0.3 * np.exp(-g.radius_sq() / 4.0)
        b_u = cq.nonlocal_B(u, 2.0, conv)
        beta_uv = 0.2 * cq.inner(u, v)
        want1 = -(
            cq.grad_norm_sq(u) + cq.inner(cq.ScalarField(g, v1 * u.values), u)
            - params.mu1 * b_u - beta_uv
        ) / cq.l2_norm_sq(u)
        assert lam.lambda1 == pytest.approx(want1, rel=1e-10)
        b_v = cq.nonlocal_B(v, 2.0, conv)
        want2 = -(cq.grad_norm_sq(v) - params.mu2 * b_v - beta_uv) / cq.l2_norm_sq(v)
        assert lam.lambda2 == pytest.approx(want2, rel=1e-10)

    def test_zero_mass_rejected(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**P_SUB)
        with pytest.raises(cq.ZeroMass):
            cq.lagrange_multipliers(
                cq.StatePair(cq.gaussian_field(g, 1.0), cq.zero_field(g)), params
            )


class TestDerivedConvolver:
    def test_state_functions_follow_alpha(self):
        # the state functions build the convolver of (state.grid, params.alpha)
        g = cq.GridSpec(3, 8.0, 16)
        u = cq.gaussian_field(g, 1.0, mass=1.0)
        state = cq.StatePair(u, cq.ScalarField(g, u.values.copy()))
        energies, multipliers = [], []
        for alpha in (1.0, 2.0):
            params = cq.ModelParams(**{**P_SUB, "alpha": alpha})
            sampled = cq.energy.sample_model(params, g)
            bd = cq.energy.evaluate_state(
                state.u.values, state.v.values, params, cq.build_convolver(g, alpha), sampled
            ).breakdown
            assert cq.energy_total(state, params) == bd
            lam = cq.lagrange_multipliers(state, params)
            assert lam == cq.energy.multipliers_from_breakdown(bd, params, u.mass, u.mass)
            energies.append(bd.total)
            multipliers.append(lam)
        assert energies[0] != energies[1]
        assert multipliers[0] != multipliers[1]


SUP = dict(dim=3, alpha=2.0, p=3.0, q=3.0, mu1=60.0, mu2=60.0, xi=1.0, eta=1.0)


class TestPohozaev:
    def test_zero_state(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("constant", 0.01))
        s = cq.StatePair(cq.zero_field(g), cq.zero_field(g))
        assert cq.pohozaev_residual(s, params) == 0.0

    def test_mode_mismatch_with_potentials(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**SUP, v1=cq.PotentialSpec("harmonic", stiffness=1.0))
        s = cq.StatePair(cq.gaussian_field(g, 1.0), cq.gaussian_field(g, 1.0))
        with pytest.raises(cq.ModeMismatch):
            cq.pohozaev_residual(s, params)

    def test_mode_mismatch_subcritical(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**P_SUB)
        s = cq.StatePair(cq.gaussian_field(g, 1.0), cq.gaussian_field(g, 1.0))
        with pytest.raises(cq.ModeMismatch):
            cq.pohozaev_residual(s, params)

    def test_one_guard_checks_the_regime_first(self, conv32):
        # the identities and the saddle solver share one guard: the regime
        # is NotSupercritical, a ModeMismatch, before the potentials are read
        g, conv = conv32
        assert issubclass(cq.NotSupercritical, cq.ModeMismatch)
        params = cq.ModelParams(**P_SUB, v1=cq.PotentialSpec("harmonic", stiffness=1.0))
        s = cq.StatePair(cq.gaussian_field(g, 1.0), cq.gaussian_field(g, 1.0))
        for check in (cq.pohozaev_residual, cq.multiplier_sum_identity):
            with pytest.raises(cq.NotSupercritical, match="p = q in the supercritical"):
                check(s, params)
        with pytest.raises(cq.NotSupercritical):
            cq.saddle._SaddleEngine(params, g)

    def test_equals_fiber_energy_slope(self):
        # the residual is d/ds E(s * state) at s = 0: compare with central
        # differences of the energy along the actual grid dilation (widths
        # chosen so the cubed density stays spectrally resolved)
        g = cq.GridSpec(3, 10.0, 64)
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("rational_decay", 0.01, 2.0 / 3.0))
        u = cq.gaussian_field(g, 1.4, mass=1.0)
        v = cq.gaussian_field(g, 1.2, mass=1.0)
        state = cq.StatePair(u, v)
        res = cq.pohozaev_residual(state, params)
        ds = 1e-3
        ep = cq.energy_total(
            cq.StatePair(cq.dilate(u, ds), cq.dilate(v, ds)), params
        ).total
        em = cq.energy_total(
            cq.StatePair(cq.dilate(u, -ds), cq.dilate(v, -ds)), params
        ).total
        assert res == pytest.approx((ep - em) / (2 * ds), rel=1e-3)

    def test_vanishes_at_fiber_maximum(self):
        g = cq.GridSpec(3, 10.0, 64)
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("constant", 0.01))
        state = cq.StatePair(cq.gaussian_field(g, 1.4, mass=1.0), cq.gaussian_field(g, 1.4, mass=1.0))
        s_star, _ = cq.fiber_maximize(state, params)
        dil = cq.StatePair(cq.dilate(state.u, s_star), cq.dilate(state.v, s_star))
        res = cq.pohozaev_residual(dil, params)
        kin = cq.grad_norm_sq(dil.u) + cq.grad_norm_sq(dil.v)
        assert abs(res) < 1e-4 * kin


class TestMultiplierSumIdentity:
    def test_zero_state(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("constant", 0.01))
        s = cq.StatePair(cq.zero_field(g), cq.zero_field(g))
        assert cq.multiplier_sum_identity(s, params) == (0.0, 0.0)

    def test_gap_is_pohozaev_over_delta(self, conv32):
        g, conv = conv32
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("constant", 0.02))
        rng = np.random.default_rng(13)
        s = cq.StatePair(smooth_random_nonneg(g, rng), smooth_random_nonneg(g, rng))
        lhs, rhs = cq.multiplier_sum_identity(s, params)
        poh = cq.pohozaev_residual(s, params)
        assert lhs - rhs == pytest.approx(-poh / params.delta_p, rel=1e-10)

    def test_rhs_positive_under_sign_condition(self, conv32):
        g, conv = conv32
        dp = 2.0 / 3.0
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("rational_decay", 0.01, dp))
        rng = np.random.default_rng(14)
        s = cq.StatePair(smooth_random_nonneg(g, rng), smooth_random_nonneg(g, rng))
        _, rhs = cq.multiplier_sum_identity(s, params)
        assert rhs > 0.0


class TestDilationEnergyLaw:
    def test_limits(self):
        g = cq.GridSpec(3, 10.0, 48)
        beta0 = 0.02
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("constant", beta0))
        u = cq.gaussian_field(g, 1.0, mass=1.0)
        state = cq.StatePair(u, u.copy())
        e_plus = cq.fiber_energy(state, params, 3.0)
        e_zero = cq.fiber_energy(state, params, 0.0)
        assert e_plus < e_zero  # unbounded below along compression
        assert e_plus < -1e3
        e_minus = cq.fiber_energy(state, params, -5.0)
        assert e_minus == pytest.approx(-beta0 * cq.inner(u, u), rel=1e-2)

    def test_energy_total_matches_fiber_energy_via_dilate(self):
        g = cq.GridSpec(3, 10.0, 64)
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("constant", 0.02))
        u = cq.gaussian_field(g, 1.4, mass=1.0)
        state = cq.StatePair(u, u.copy())
        for s in (0.3, -0.3):
            direct = cq.energy_total(
                cq.StatePair(cq.dilate(u, s), cq.dilate(u, s)), params
            ).total
            assert cq.fiber_energy(state, params, s) == pytest.approx(direct, rel=1e-3)


class TestInequalities:
    def test_b_superadditive_under_hypot(self, conv32):
        g, conv = conv32
        rng = np.random.default_rng(21)
        p = 2.0
        for _ in range(5):
            u = smooth_random_nonneg(g, rng)
            w = smooth_random_nonneg(g, rng)
            hyp = cq.ScalarField(g, np.hypot(u.values, w.values))
            lhs = cq.nonlocal_B(hyp, p, conv)
            rhs = cq.nonlocal_B(u, p, conv) + cq.nonlocal_B(w, p, conv)
            assert lhs >= rhs * (1 - 1e-12)

    def test_coercivity_lower_bound(self, conv32):
        # E >= K/2 - c1 Ku^{p dp} - c2 Kv^{q dq} - beta xi eta on the
        # constraint, with c's from the conservative nonlocal bound constant
        g, conv = conv32
        beta0 = 0.1
        params = cq.ModelParams(**{**P_SUB, "mu1": 2.0, "mu2": 3.0},
                                coupling=cq.CouplingSpec("constant", beta0))
        dp = params.delta_p
        cbound = cq.nonlocal_bound_constant(3, 2.0, 2.0)
        c1 = params.mu1 * cbound * params.xi ** (2 * params.p * (1 - dp)) / (2 * params.p)
        c2 = params.mu2 * cbound * params.eta ** (2 * params.q * (1 - dp)) / (2 * params.q)
        rng = np.random.default_rng(23)
        for _ in range(25):
            s = cq.project_masses(
                cq.StatePair(smooth_random_field(g, rng), smooth_random_field(g, rng)),
                params.xi, params.eta,
            )
            bd = cq.energy_total(s, params)
            ku, kv = bd.grad_sq_u, bd.grad_sq_v
            lower = (
                0.5 * (ku + kv)
                - c1 * ku ** (params.p * dp)
                - c2 * kv ** (params.q * dp)
                - beta0 * params.xi * params.eta
            )
            assert bd.total >= lower - 1e-12


class TestMirroredState:
    """A u = v state of a swap-symmetric model computes each v-side quantity
    once; what it shares is bitwise what recomputing gives."""

    @staticmethod
    def params(**kw):
        fields = {
            **P_SUB,
            "coupling": cq.CouplingSpec("constant", 0.1),
            "v1": cq.PotentialSpec("gaussian_well", depth=0.5, width=2.0),
            "v2": cq.PotentialSpec("gaussian_well", depth=0.5, width=2.0),
        }
        return cq.ModelParams(**{**fields, **kw})

    @staticmethod
    def evaluate(params, conv, u, v):
        g = conv.grid
        return cq.energy.evaluate_state(u, v, params, conv, cq.energy.sample_model(params, g))

    def count_convolutions(self, monkeypatch, params, conv, u, v):
        calls = []
        original = cq.energy.riesz_convolve_values

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cq.energy, "riesz_convolve_values", counting)
        ev = self.evaluate(params, conv, u, v)
        monkeypatch.setattr(cq.energy, "riesz_convolve_values", original)
        return ev, len(calls)

    def test_one_convolution_and_unshared_values(self, conv32, monkeypatch):
        g, conv = conv32
        params = self.params()
        rng = np.random.default_rng(5)
        u = smooth_random_field(g, rng).values
        v = smooth_random_field(g, rng).values
        ev, n = self.count_convolutions(monkeypatch, params, conv, u, u.copy())
        assert ev.mirrored and n == 1
        ev_pair, n_pair = self.count_convolutions(monkeypatch, params, conv, u, v)
        assert not ev_pair.mirrored and n_pair == 2
        gu, gv = cq.energy.gradient_values(ev, params)
        # the same state with the sharing switched off
        monkeypatch.setattr(cq.ModelParams, "swap_symmetric", property(lambda self: False))
        plain = self.evaluate(params, conv, u, u.copy())
        assert not plain.mirrored
        assert ev.breakdown == plain.breakdown
        assert np.array_equal(ev.conv_v, plain.conv_v)
        pu, pv = cq.energy.gradient_values(plain, params)
        assert np.array_equal(gu, pu) and np.array_equal(gv, pv)
        assert gv is gu  # one array for both sides of a mirrored state
        # the public pair hands out two arrays, also for a mirrored state
        monkeypatch.undo()
        state = cq.StatePair(cq.ScalarField(g, u), cq.ScalarField(g, u.copy()))
        pair = cq.el_gradient(state, params)
        assert pair.v.values is not pair.u.values
        assert np.array_equal(pair.u.values, gu) and np.array_equal(pair.v.values, gv)

    def test_one_tangent_projection_is_shared(self, conv32, monkeypatch):
        g, conv = conv32
        params = self.params()
        u = smooth_random_field(g, np.random.default_rng(5)).values
        ev = self.evaluate(params, conv, u, u.copy())
        ru, rv, cu, cv = cq.flow._sphere_tangent(g, *cq.energy.gradient_values(ev, params), ev)
        assert ev.mirrored and rv is ru and cv == cu
        # the same state with the sharing switched off
        monkeypatch.setattr(cq.ModelParams, "swap_symmetric", property(lambda self: False))
        plain = self.evaluate(params, conv, u, u.copy())
        pu, pv, pcu, pcv = cq.flow._sphere_tangent(
            g, *cq.energy.gradient_values(plain, params), plain
        )
        assert not plain.mirrored and pv is not pu
        assert np.array_equal(ru, pu) and np.array_equal(rv, pv) and (cu, cv) == (pcu, pcv)

    def test_evaluation_peak_frees_each_density(self, conv32):
        # each density is freed before the next side's convolution
        g, conv = conv32
        params = self.params()
        sampled = cq.energy.sample_model(params, g)
        rng = np.random.default_rng(5)
        u = smooth_random_field(g, rng).values
        v = smooth_random_field(g, rng).values
        cq.energy.evaluate_state(u, v, params, conv, sampled)  # warms the grid caches
        tracemalloc.start()
        try:
            ev = cq.energy.evaluate_state(u, v, params, conv, sampled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ev.mirrored
        assert peak < 9.8 * u.nbytes

    @pytest.mark.parametrize(
        "change",
        [
            {"mu2": 2.0},
            {"eta": 2.0},
            {"q": 2.5},
            {"v2": cq.PotentialSpec("gaussian_well", depth=0.5, width=3.0)},
            {"v2": cq.PotentialSpec("harmonic", stiffness=0.2)},
        ],
        ids=["mu", "mass", "exponent", "potential_field", "potential_family"],
    )
    def test_asymmetric_model_is_not_mirrored(self, conv32, change):
        g, conv = conv32
        u = cq.gaussian_field(g, 1.2, mass=1.0).values
        ev = self.evaluate(self.params(), conv, u, u.copy())
        assert ev.mirrored
        params = self.params(**change)
        assert not params.swap_symmetric
        ev_pair = self.evaluate(params, conv, u, u.copy())
        assert not ev_pair.mirrored
        # StateEval.each maps a mirrored state once and any other state per side
        for state, n_calls in ((ev, 1), (ev_pair, 2)):
            calls = []
            fu, fv = state.each(lambda w: calls.append(w) or -w)
            assert len(calls) == n_calls and calls[0] is state.u
            assert np.array_equal(fu, -state.u) and np.array_equal(fv, -state.v)

    def test_tabulated_potential_is_not_mirrored(self, conv32):
        g, conv = conv32
        table = -0.5 * np.exp(-g.radius_sq() / 4.0)
        params = self.params(
            v1=cq.PotentialSpec("tabulated", values=table),
            v2=cq.PotentialSpec("tabulated", values=table),
        )
        u = cq.gaussian_field(g, 1.2, mass=1.0).values
        assert not params.swap_symmetric
        assert not self.evaluate(params, conv, u, u.copy()).mirrored


class TestConstantCoupling:
    """A constant coupling is sampled as its value, as a zero potential is
    sampled as None: no array of the grid's shape holds it."""

    def test_held_as_its_value(self, conv32):
        g, _ = conv32
        params = cq.ModelParams(**P_SUB, coupling=cq.CouplingSpec("constant", 0.1))
        sampled = cq.energy.sample_model(params, g)
        assert sampled.beta == 0.1 and sampled.x_grad_beta is None
        for samples in (sampled, sampled.folded):
            fields = (samples.v1, samples.v2, samples.beta, samples.x_grad_beta)
            assert all(np.ndim(a) == 0 for a in fields)

    def test_values_and_identities_match_its_samples(self, conv32):
        # the same state with beta sampled on every grid point
        g, conv = conv32
        params = cq.ModelParams(**{**SUP, "coupling": cq.CouplingSpec("constant", 0.015)})
        rng = np.random.default_rng(7)
        u, v = smooth_random_field(g, rng).values, smooth_random_field(g, rng).values
        held = cq.energy.sample_model(params, g)
        grid_wide = cq.energy.SampledModel(
            g, None, None, cq.model.coupling_values(params.coupling, g),
            cq.model.coupling_x_grad_values(params.coupling, g),
        )
        evs = [cq.energy.evaluate_state(u, v, params, conv, s) for s in (held, grid_wide)]
        assert evs[0].breakdown == evs[1].breakdown
        grads = [cq.energy.gradient_values(ev, params) for ev in evs]
        assert all(np.array_equal(a, b) for a, b in zip(*grads))
        for f in (cq.energy.pohozaev_from_state, cq.energy.multiplier_sum_from_state):
            assert f(evs[0], params) == f(evs[1], params)
        pdp = params.p * params.delta_p
        assert cq.saddle._coupling_sup(held, pdp) == cq.saddle._coupling_sup(grid_wide, pdp)


class TestEvenSubspaceEnergy:
    """The energy with the octant convolution is a functional of its own on
    the reflection-even fields, held on their octants, and its gradient is
    that functional's exact derivative, also where the x = -L face carries
    weight."""

    def test_gradient_is_the_derivative_along_even_directions(self):
        g = cq.GridSpec(3, 4.0, 16)
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=2.5, q=2.2, mu1=2.0, mu2=3.0, xi=1.0, eta=1.2,
            coupling=cq.CouplingSpec("rational_decay", 0.3, 0.8),
        )
        conv = cq.build_convolver(g, params.alpha)
        full = cq.energy.sample_model(params, g)
        u_full = cq.gaussian_field(g, 2.0, mass=1.0).values  # face at e^{-2} of the peak
        v_full = cq.gaussian_field(g, 1.6, mass=1.44).values
        u, v = cq.grid.fold(u_full), cq.grid.fold(v_full)
        octant = (g.points_per_axis // 2 + 1,) * g.dim

        def energy(du, dv):
            ev = cq.energy.evaluate_state(u + du, v + dv, params, conv, full)
            return ev.breakdown.total

        full_energy = cq.energy.evaluate_state(u_full, v_full, params, conv, full).breakdown.total
        assert abs(energy(0.0, 0.0) - full_energy) > 1e-8
        ev = cq.energy.evaluate_state(u, v, params, conv, full)
        gu, gv = cq.energy.gradient_values(ev, params)
        assert ev.u.shape == ev.conv_u.shape == ev.conv_v.shape == gu.shape == gv.shape == octant
        rng = np.random.default_rng(8)
        t = 1e-4
        for k in range(6):
            phi = cq.grid.fold(rng.standard_normal(g.shape))
            phi /= math.sqrt(g.cell_volume * cq.grid.grid_sum(g, phi * phi))
            up, vp, gval = (phi, 0.0, gu) if k % 2 == 0 else (0.0, phi, gv)
            one = energy(t * up, t * vp) - energy(-t * up, -t * vp)
            two = energy(2 * t * up, 2 * t * vp) - energy(-2 * t * up, -2 * t * vp)
            fd = (8.0 * one - two) / (12.0 * t)
            ip = g.cell_volume * cq.grid.grid_sum(g, gval * phi)
            norm = math.sqrt(g.cell_volume * cq.grid.grid_sum(g, gval * gval))
            scale = max(abs(fd), norm)
            assert abs(fd - ip) < 1e-7 * scale, f"direction {k}"


class TestExactInvariances:
    """The discrete problem keeps the continuum's exact structure: every
    relation below holds on the grid to roundoff, not to discretization
    error, on the ``configs/minimize.json`` model (N = 3, alpha = 2,
    p = q = 2, mu = 5, constant beta = 0.1, V = 0, L = 12) at 32^3."""

    RTOL = 1e-12

    @staticmethod
    def model(**changes):
        cfg = cq.cli.parse_config(Path(__file__).resolve().parents[1] / "configs" / "minimize.json")
        return dataclasses.replace(cfg.params, **changes), cq.GridSpec(3, cfg.grid.half_extent, 32)

    @staticmethod
    def pair(grid, seed=5):
        rng = np.random.default_rng(seed)
        u, v = (smooth_random_nonneg(grid, rng).values for _ in range(2))
        return u, v

    @staticmethod
    def energy(grid, u, v, params):
        state = cq.StatePair(cq.ScalarField(grid, u), cq.ScalarField(grid, v))
        return cq.energy_total(state, params).total

    @pytest.mark.parametrize("lam", [2.0, 0.75, 1.6])
    def test_box_scaling(self, lam):
        # E on the box L/lam at lam^{N/2} u, with (mu, beta), is lam^2 times E
        # on the box L at u, with (mu lam^{2 p delta_p - 2}, beta / lam^2):
        # the spectral Laplacian and the kernel (K(0) in lattice units) are
        # homogeneous in h
        params, grid = self.model()
        u, v = self.pair(grid)
        small = cq.GridSpec(3, grid.half_extent / lam, grid.points_per_axis)
        scale = lam ** (3 / 2)
        want = self.energy(small, scale * u, scale * v, params)
        mu = params.mu1 * lam ** (2 * params.p * params.delta_p - 2)
        big = dataclasses.replace(params, mu1=mu, mu2=mu, coupling=cq.CouplingSpec(
            "constant", params.coupling.beta0 / lam**2))
        got = lam**2 * self.energy(grid, u, v, big)
        assert got == pytest.approx(want, rel=self.RTOL, abs=0.0)

    @pytest.mark.parametrize("changes", [{}, {"q": 2.4, "mu2": 3.0}])
    def test_component_swap(self, changes):
        params, grid = self.model(**changes)
        u, v = self.pair(grid)
        swapped = dataclasses.replace(params, p=params.q, q=params.p, mu1=params.mu2,
                                      mu2=params.mu1, v1=params.v2, v2=params.v1)
        want = self.energy(grid, u, v, params)
        assert self.energy(grid, v, u, swapped) == pytest.approx(want, rel=self.RTOL, abs=0.0)

    @pytest.mark.parametrize("axes", [(1, 0, 2), (2, 0, 1), (0, 2, 1)])
    def test_axis_permutation(self, axes):
        params, grid = self.model()
        u, v = self.pair(grid)
        want = self.energy(grid, u, v, params)
        got = self.energy(grid, np.transpose(u, axes).copy(), np.transpose(v, axes).copy(), params)
        assert got == pytest.approx(want, rel=self.RTOL, abs=0.0)

    @pytest.mark.parametrize("axis", [0, 1, 2, None])
    def test_reflection(self, axis):
        # i -> M - 1 - i keeps every periodic and every free-space distance
        params, grid = self.model()
        u, v = self.pair(grid)
        want = self.energy(grid, u, v, params)
        got = self.energy(grid, np.flip(u, axis).copy(), np.flip(v, axis).copy(), params)
        assert got == pytest.approx(want, rel=self.RTOL, abs=0.0)

    @pytest.mark.parametrize("c", [0.7, 1.9])
    def test_mass_scaling_without_coupling(self, c):
        # beta = 0: E(c u, c v) with mu c^{2 - 2p} is c^2 E(u, v) with mu
        params, grid = self.model(coupling=cq.CouplingSpec("constant", 0.0))
        u, v = self.pair(grid)
        mu = params.mu1 * c ** (2 - 2 * params.p)
        want = c**2 * self.energy(grid, u, v, params)
        got = self.energy(grid, c * u, c * v, dataclasses.replace(params, mu1=mu, mu2=mu))
        assert got == pytest.approx(want, rel=self.RTOL, abs=0.0)
