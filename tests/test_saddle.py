"""Supercritical fiber min-max: geometry, fiber maximization, saddle solves.

Solve-level tests run the p = q = 3, mu = 60 family on small 3D grids where
the solution widths (0.8 - 1.9 across the tested masses) stay resolved.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.fft
from scipy.optimize import minimize_scalar

import choquard as cq


SUP = dict(dim=3, alpha=2.0, p=3.0, q=3.0, mu1=60.0, mu2=60.0, xi=1.0, eta=1.0)
SOPTS = cq.SaddleOptions(max_iters=300, grad_tol=2e-5, pohozaev_rel_tol=1e-6)


def sup_params(beta0=0.015, **kw):
    return cq.ModelParams(**{**SUP, **kw}, coupling=cq.CouplingSpec("constant", beta0))


@pytest.fixture(scope="module")
def grid32():
    return cq.GridSpec(3, 10.0, 32)


@pytest.fixture(scope="module")
def grid48():
    # solve-level tests need the cubed density spectrally resolved; M=32 is
    # below the fiber solver's resolution floor at mu = 60
    return cq.GridSpec(3, 10.0, 48)


@pytest.fixture(scope="module")
def saddle_report(grid48):
    bump = cq.gaussian_field(grid48, 1.2, mass=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cq.mountain_pass_solve(sup_params(), cq.StatePair(bump, bump.copy()), SOPTS)


class TestGeometry:
    def test_thresholds_and_separation(self, grid32):
        geo = cq.check_geometry(sup_params(), grid32)
        assert geo.k2 > geo.k1 > 0
        assert geo.inf_barrier_estimate > 0
        assert geo.sup_well_estimate < geo.inf_barrier_estimate
        assert geo.separated
        assert geo.inf_barrier_estimate >= geo.analytic_barrier_lower_bound - 1e-12

    def test_beta_too_large(self, grid32):
        geo = cq.check_geometry(sup_params(), grid32)
        with pytest.raises(cq.BetaTooLarge):
            cq.check_geometry(sup_params(beta0=2.0 * geo.beta_bound), grid32)

    def test_requires_supercritical(self, grid32):
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0
        )
        with pytest.raises(cq.NotSupercritical):
            cq.check_geometry(params, grid32)

    def test_requires_equal_exponents(self, grid32):
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=3.0, q=3.2, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0
        )
        with pytest.raises(cq.NotSupercritical):
            cq.check_geometry(params, grid32)

    def test_rejects_potentials(self, grid32):
        params = cq.ModelParams(**SUP, v1=cq.PotentialSpec("harmonic", stiffness=1.0))
        with pytest.raises(cq.ModeMismatch):
            cq.check_geometry(params, grid32)


class TestGeometryPinning:
    """Closed-form pinning: one energy evaluation per width ratio and level."""

    def test_evaluation_count(self, grid32, monkeypatch):
        # each sample's energy is assembled from its kinetic norms and
        # rank-one B values, not evaluated on the grid
        calls = []
        assemble = cq.saddle.assemble_breakdown
        monkeypatch.setattr(
            cq.saddle, "assemble_breakdown", lambda *a, **k: calls.append(1) or assemble(*a, **k)
        )
        cq.check_geometry(sup_params(), grid32)
        assert 0 < len(calls) <= 40

    def test_estimates_match_measured_k_pinning(self, grid32):
        # estimates of the former measured-kinetic rescaling, which pinned
        # each of the 64 width pairs on its own
        geo = cq.check_geometry(sup_params(), grid32)
        assert geo.inf_barrier_estimate == pytest.approx(0.19441881339, rel=2e-2)
        assert geo.sup_well_estimate == pytest.approx(-0.01462382711, abs=1e-4)
        assert geo.separated

    @pytest.mark.parametrize("eta", [1.0, 0.8])
    def test_pinned_energy_convolves_nothing(self, grid32, monkeypatch, eta):
        # each B is that of a rank-one density; the energy is still the full grid's
        params = cq.ModelParams(
            **{**SUP, "eta": eta}, coupling=cq.CouplingSpec("rational_decay", 0.01, 2.0 / 3.0)
        )
        engine = cq.flow._SphereDescent(params, grid32)
        pairs = [(1.2, 1.2), (2.5, 5.0), (5.0, 2.5), (5.0, 5.0), (10.0, 3.0), (3.0, 10.0),
                 (0.5, 10.0)]

        def refuse(*args):
            raise AssertionError("a geometry sample was convolved on the grid")

        with monkeypatch.context() as patch:
            for owner in (cq.riesz, cq.energy):
                patch.setattr(owner, "riesz_convolve_values", refuse)
            # an unbounded level takes the first widths, as a resolved pair does
            got = [cq.saddle._pinned_energy(engine, wu, wv, math.inf, below=True)
                   for wu, wv in pairs]
            cq.check_geometry(params, grid32)  # the constant pair's B is rank one too
        for (wu, wv), energy in zip(pairs, got):
            u = cq.gaussian_field(grid32, wu, mass=params.xi**2).values
            v = cq.gaussian_field(grid32, wv, mass=params.eta**2).values
            want = engine.evaluate(u, v).breakdown.total
            assert energy == pytest.approx(want, rel=1e-14), (wu, wv)

    def test_geometry_makes_no_nd_transform(self, grid32, monkeypatch):
        # every kinetic norm and B of the check is a sum over a 1-D line
        params = cq.ModelParams(
            **SUP, coupling=cq.CouplingSpec("rational_decay", 0.01, 2.0 / 3.0)
        )
        engine = cq.flow._SphereDescent(params, grid32)

        def spy(name, transform):
            def one_dimensional(x, *args, **kwargs):
                if name.endswith("n") or np.ndim(x) > 1:
                    raise AssertionError(f"scipy.fft.{name} of shape {np.shape(x)}")
                return transform(x, *args, **kwargs)
            return one_dimensional

        for name in ("fft", "ifft", "rfft", "irfft", "dct",
                     "fftn", "ifftn", "rfftn", "irfftn", "dctn", "idctn"):
            monkeypatch.setattr(scipy.fft, name, spy(name, getattr(scipy.fft, name)))
        assert cq.check_geometry(params, grid32, engine).separated

    def test_saddle_solve_builds_one_convolver(self, grid32, monkeypatch):
        monkeypatch.setattr(cq.saddle, "_saddle_descend", lambda engine, *a: engine.conv)
        bump = cq.gaussian_field(grid32, 1.2, mass=1.0)
        cq.build_convolver.cache_clear()
        conv = cq.mountain_pass_solve(
            sup_params(), cq.StatePair(bump, bump.copy()), cq.SaddleOptions()
        )
        assert cq.build_convolver.cache_info().misses == 1
        assert conv.grid == grid32

    def test_saddle_solve_samples_the_model_once(self, monkeypatch):
        # the geometry check reads the solve engine's samples
        g = cq.GridSpec(3, 8.0, 16)
        calls = []
        sample = cq.flow.sample_model
        monkeypatch.setattr(cq.flow, "sample_model", lambda *a: calls.append(a) or sample(*a))
        bump = cq.gaussian_field(g, 1.2, mass=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cq.mountain_pass_solve(
                sup_params(), cq.StatePair(bump, bump.copy()), cq.SaddleOptions(max_iters=10)
            )
        assert len(calls) == 1


class TestFiberMaximize:
    def test_interior_max_dominates_origin(self, grid32):
        params = sup_params()
        state = cq.StatePair(
            cq.gaussian_field(grid32, 1.3, mass=1.0), cq.gaussian_field(grid32, 1.1, mass=1.0)
        )
        s_star, value = cq.fiber_maximize(state, params)
        assert value >= cq.fiber_energy(state, params, 0.0)
        assert cq.saddle._FIBER_BRACKET[0] < s_star < cq.saddle._FIBER_BRACKET[1]

    def test_asymptotics(self, grid32):
        beta0 = 0.015
        params = sup_params(beta0)
        u = cq.gaussian_field(grid32, 1.2, mass=1.0)
        state = cq.StatePair(u, u.copy())
        assert cq.fiber_energy(state, params, 3.0) < cq.fiber_energy(state, params, 0.0)
        limit = -beta0 * cq.inner(u, u)
        assert cq.fiber_energy(state, params, -5.0) == pytest.approx(limit, rel=1e-2)

    def test_zero_state_rejected(self, grid32):
        params = sup_params()
        state = cq.StatePair(cq.zero_field(grid32), cq.zero_field(grid32))
        with pytest.raises(cq.ZeroMass):
            cq.fiber_maximize(state, params)

    def test_no_interior_max_for_flat_profile(self, grid32):
        # a near-constant profile has vanishing kinetic term: the fiber
        # maximum escapes every bracket toward -inf
        params = sup_params(beta0=0.0)
        vol = (2 * grid32.half_extent) ** 3
        vals = np.full(grid32.shape, 1.0 / math.sqrt(vol))
        vals[0, 0, 0] *= 1.0 + 1e-9  # not exactly constant
        state = cq.StatePair(
            cq.ScalarField(grid32, vals), cq.ScalarField(grid32, vals.copy())
        )
        with pytest.raises(cq.NoInteriorMax):
            cq.fiber_maximize(state, params)

    def test_fiber_calls_build_one_convolver(self, grid32):
        params = sup_params()
        u = cq.gaussian_field(grid32, 1.2, mass=1.0)
        state = cq.StatePair(u, u.copy())
        cq.build_convolver.cache_clear()
        for s in (-0.5, 0.0, 0.5):
            cq.fiber_energy(state, params, s)
        cq.fiber_maximize(state, params)
        assert cq.build_convolver.cache_info().misses == 1


class TestFiberMaximizer:
    """The bounded Brent step returns minimize_scalar's floats and fails loudly."""

    CONSTANT = cq.CouplingSpec("constant", 0.015)
    DECAY = cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0)

    @staticmethod
    def engine_and_state(grid, coupling, monkeypatch, stretch=1.0):
        """An engine whose fiber bases scale the kinetic term by ``stretch``,
        which moves the maximum by log(stretch) / (2 p delta_p - 2) = log(stretch) / 2."""

        class Basis(cq.saddle._FiberBasis):
            def __init__(self, engine, ev):
                super().__init__(engine, ev)
                self.kinetic *= stretch

        monkeypatch.setattr(cq.saddle, "_FiberBasis", Basis)
        engine = cq.saddle._SaddleEngine(cq.ModelParams(**SUP, coupling=coupling), grid)
        u = cq.gaussian_field(grid, 1.3, mass=1.0).values
        v = cq.gaussian_field(grid, 1.1, mass=1.0).values
        return engine, engine.evaluate(u, v)

    @staticmethod
    def scipy_fiber_max(basis):
        lo, hi = cq.saddle._FIBER_BRACKET
        for _ in range(2):
            res = minimize_scalar(lambda s: -basis.energy_at(s), bounds=(lo, hi),
                                  method="bounded", options={"xatol": cq.saddle._FIBER_TOL})
            margin = 1e-3 * (hi - lo)
            if lo + margin < res.x < hi - margin:
                return float(res.x), float(-res.fun)
            lo, hi = 2.0 * lo, 2.0 * hi
        raise AssertionError("no interior maximum")

    @pytest.mark.parametrize("coupling,stretch", [
        (CONSTANT, 1.0), (DECAY, 1.0), (DECAY, math.exp(10.0))
    ], ids=["constant", "rational_decay", "widened"])
    def test_matches_scipy_bitwise(self, grid32, monkeypatch, coupling, stretch):
        engine, ev = self.engine_and_state(grid32, coupling, monkeypatch, stretch)
        got = engine.fiber_max(ev)
        assert got == self.scipy_fiber_max(cq.saddle._FiberBasis(engine, ev))
        if stretch != 1.0:  # the first bracket pinned it, the widened one holds it
            assert cq.saddle._FIBER_BRACKET[1] < got[0] < 2.0 * cq.saddle._FIBER_BRACKET[1]

    def test_edge_pinned_basis_has_no_interior_max(self, grid32, monkeypatch):
        engine, ev = self.engine_and_state(grid32, self.DECAY, monkeypatch, math.exp(-40.0))
        with pytest.raises(cq.NoInteriorMax, match="bracket edge"):
            engine.fiber_max(ev)

    def test_spent_budget_has_no_interior_max(self, grid32, monkeypatch):
        engine, ev = self.engine_and_state(grid32, self.CONSTANT, monkeypatch)
        monkeypatch.setattr(cq.saddle, "_FIBER_BUDGET", 5)
        with pytest.raises(cq.NoInteriorMax, match="spent its 5 evaluations"):
            engine.fiber_max(ev)

    def test_non_finite_fiber_energy_is_refused(self, grid32, monkeypatch):
        engine, ev = self.engine_and_state(grid32, self.CONSTANT, monkeypatch)
        monkeypatch.setattr(cq.saddle._FiberBasis, "energy_at", lambda self, s: math.nan)
        with pytest.raises(cq.NonFinite, match="fiber energy nan"):
            engine.fiber_max(ev)


class TestPulledBackGradient:
    """The descent gradient at a frozen fiber offset s is the exact profile
    derivative of the fiber energy E(s * state)."""

    @pytest.mark.parametrize("s", [0.0, 0.3, -0.2])
    @pytest.mark.parametrize(
        "coupling",
        [cq.CouplingSpec("constant", 0.015), cq.CouplingSpec("rational_decay", 0.01, 2.0 / 3.0)],
        ids=["constant", "rational_decay"],
    )
    def test_matches_fiber_energy_differences(self, coupling, s):
        from conftest import smooth_random_field

        g = cq.GridSpec(3, 8.0, 16)
        params = cq.ModelParams(**SUP, coupling=coupling)
        engine = cq.saddle._SaddleEngine(params, g, cq.SaddleOptions())
        u = cq.gaussian_field(g, 1.6, mass=1.0)
        v = cq.gaussian_field(g, 1.3, mass=1.0)
        gu, gv = engine.pulled_back_gradient(engine.evaluate(u.values, v.values), s)
        rng = np.random.default_rng(11)
        t = 1e-5
        for _ in range(3):
            pu = smooth_random_field(g, rng).values
            pv = smooth_random_field(g, rng).values
            fiber = [
                cq.fiber_energy(
                    cq.StatePair(cq.ScalarField(g, u.values + sign * t * pu),
                                 cq.ScalarField(g, v.values + sign * t * pv)),
                    params, s,
                )
                for sign in (1.0, -1.0)
            ]
            fd = (fiber[0] - fiber[1]) / (2 * t)
            ip = g.cell_volume * (np.sum(gu * pu) + np.sum(gv * pv))
            assert fd == pytest.approx(ip, rel=1e-6)


class TestOctantFiber:
    """An even descent takes the fiber tangent and the resampled coupling on
    the octant, and its certificate takes one pulled-back gradient."""

    @staticmethod
    def engines(grid):
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0))
        u = cq.gaussian_field(grid, 1.3, mass=1.0).values
        v = cq.gaussian_field(grid, 1.1, mass=1.0).values
        full = cq.saddle._SaddleEngine(params, grid)
        octant = cq.saddle._SaddleEngine(params, grid)
        ev_octant = octant.evaluate(*octant.enter_even_subspace(u, v))
        assert ev_octant.u.shape == (17, 17, 17)
        return full, full.evaluate(u, v), octant, ev_octant

    @pytest.mark.parametrize("octant_first", [True, False])
    def test_one_engine_evaluates_either_layout(self, grid32, octant_first):
        # each evaluation carries the samples of its own layout, in either order
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0))
        u = cq.gaussian_field(grid32, 1.3, mass=1.0).values
        v = cq.gaussian_field(grid32, 1.1, mass=1.0).values
        engine = cq.saddle._SaddleEngine(params, grid32)
        starts = {"octant": engine.enter_even_subspace(u, v), "full": (u, v)}
        order = ("octant", "full") if octant_first else ("full", "octant")
        evs = {layout: engine.evaluate(*starts[layout]) for layout in order}
        assert evs["octant"].u.shape == (17, 17, 17) and evs["full"].u.shape == grid32.shape
        for ev in evs.values():
            assert ev.sampled.beta.shape == ev.sampled.x_grad_beta.shape == ev.u.shape
        total = evs["full"].breakdown.total
        assert evs["octant"].breakdown.total == pytest.approx(total, rel=1e-12)

    def test_tangent_and_gradient_match_the_full_grid(self, grid32, monkeypatch):
        full, ev, octant, ev_octant = self.engines(grid32)
        sizes = []
        radial = cq.model.coupling_radial_values
        monkeypatch.setattr(cq.flow, "from_octant", None)  # no map expands the octant
        monkeypatch.setattr(cq.model, "coupling_radial_values",
                            lambda spec, r2: sizes.append(np.size(r2)) or radial(spec, r2))
        tangent = octant.fiber_tangent(ev_octant)
        gradient = octant.pulled_back_gradient(ev_octant, 0.3)
        # beta(e^{-s} x) evaluated once per shell of the octant, 464 of its 17^3 points
        assert sizes == [cq.grid._octant_shells(grid32)[0].size] == [464]
        monkeypatch.undo()
        for got, want in zip(tangent + gradient,
                             full.fiber_tangent(ev) + full.pulled_back_gradient(ev, 0.3)):
            assert got.shape == (17, 17, 17)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - cq.grid.fold(want))) <= 1e-13 * scale

    def test_certificate_takes_one_full_grid_gradient(self, monkeypatch):
        g = cq.GridSpec(3, 8.0, 16)
        layouts = []
        gradient, descent_round = cq.saddle.gradient_values, cq.saddle._descent_round

        def counting_gradient(ev, *args):
            layouts.append("octant" if ev.u.shape != g.shape else "full")
            return gradient(ev, *args)

        def fresh_round(*args):
            out = descent_round(*args)
            layouts.clear()  # count what runs after the last round only
            return out

        monkeypatch.setattr(cq.saddle, "gradient_values", counting_gradient)
        monkeypatch.setattr(cq.saddle, "_descent_round", fresh_round)
        bump = cq.gaussian_field(g, 1.2, mass=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = cq.mountain_pass_solve(
                sup_params(), cq.StatePair(bump, bump.copy()), cq.SaddleOptions(max_iters=10)
            )
        # the last round's octant certificate, then the full grid's, once
        assert layouts == ["octant", "full"]
        monkeypatch.undo()
        engine = cq.saddle._SaddleEngine(sup_params(), g)
        ev = engine.evaluate(rep.state.u.values, rep.state.v.values)
        fu, fv, _, _ = cq.flow._sphere_tangent(
            g, *engine.pulled_back_gradient(ev, rep.residuals["fiber_offset"]), ev
        )
        assert rep.residuals["el_residual"] == engine.grad_norm(fu, fv)

    def test_full_grid_certificate_can_reject_a_converged_solve(self, monkeypatch):
        # the saddle benchmark's model and start; the octant descent
        # certifies, and a dilation identity the full grid misses undoes it
        g = cq.GridSpec(3, 10.0, 40)
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0))
        pohozaev = cq.saddle.pohozaev_from_state
        monkeypatch.setattr(cq.saddle, "pohozaev_from_state",
                            lambda ev, p: 1.0 if ev.u.shape == g.shape else pohozaev(ev, p))
        bump = cq.gaussian_field(g, 1.2, mass=1.0)
        rep = cq.mountain_pass_solve(params, cq.StatePair(bump, bump.copy()),
                                     cq.SaddleOptions(max_iters=400))
        assert not rep.converged
        assert rep.message == "the full-grid certificate misses the tolerances"
        assert rep.iterations == 28 and rep.residuals["pohozaev"] == 1.0


class TestFiberShells:
    """The fiber's coupling integral as a sum over the grid's radial shells."""

    @staticmethod
    def basis(grid, coupling):
        params = cq.ModelParams(**SUP, coupling=coupling)
        engine = cq.saddle._SaddleEngine(params, grid, cq.SaddleOptions())
        u = cq.gaussian_field(grid, 1.3, mass=1.0).values
        v = cq.gaussian_field(grid, 1.1, mass=1.0).values
        ev = engine.evaluate(u, v)
        return engine, ev, cq.saddle._FiberBasis(engine, ev)

    @pytest.mark.parametrize("s", [-1.0, -0.2, 0.0, 0.3, 2.0])
    def test_matches_grid_sum(self, grid32, s):
        spec = cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0)
        _, ev, basis = self.basis(grid32, spec)
        beta_s = cq.model.coupling_scaled_values(spec, grid32, math.exp(-s), ev.u)
        want = grid32.cell_volume * np.sum(beta_s * ev.u * ev.v)
        assert basis.coupling_at(s) == pytest.approx(want, rel=1e-13)

    def test_fiber_max_resamples_no_grid(self, grid32, monkeypatch):
        engine, ev, _ = self.basis(grid32, cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0))
        calls = []
        original = cq.saddle.coupling_scaled_values

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cq.saddle, "coupling_scaled_values", counting)
        engine.fiber_max(ev)
        assert calls == []

    def test_constant_coupling_builds_no_shells(self, grid32, monkeypatch):
        def refuse(*args):
            raise AssertionError("a constant coupling needs no shells")

        monkeypatch.setattr(cq.saddle, "shell_sums", refuse)
        engine, ev, basis = self.basis(grid32, cq.CouplingSpec("constant", 0.015))
        assert basis.coupling_at(1.5) == ev.breakdown.coupling_integral
        engine.fiber_max(ev)


class TestExhaustedLineSearch:
    """Every trial profile scores non-finite, so the saddle's line search
    halves its step until it underflows: a large transverse residual stalls
    the descent, one within 10 grad_tol ends the round with a message."""

    class Engine(cq.saddle._SaddleEngine):
        def measure(self, u, v):
            raise cq.NonFinite("trial profile is not finite")

    def descend(self, tol_factor):
        g = cq.GridSpec(3, 8.0, 16)
        engine = self.Engine(sup_params(), g, cq.SaddleOptions())
        u = cq.gaussian_field(g, 1.6, mass=1.0).values
        v = cq.gaussian_field(g, 1.3, mass=1.0).values
        ev = engine.evaluate(u, v)
        s_star, psi = engine.fiber_max(ev)
        ru, rv, *_ = engine.residual(ev, s_star)
        engine.opts = cq.SaddleOptions(grad_tol=tol_factor * engine.grad_norm(ru, rv))
        return ev, cq.saddle._descent_round(engine, ev, s_star, psi, 5, 1.0, None)

    def test_large_residual_stalls(self):
        with pytest.raises(cq.Stalled):
            self.descend(0.01)

    def test_near_tolerance_stops(self):
        ev, (ev_out, _, _, iters, descended, tau, message) = self.descend(0.2)
        assert message == "line search exhausted near the residual tolerance"
        assert ev_out is ev and iters == 1 and not descended
        assert tau == 1.0

    def test_solve_reports_the_round_message(self, monkeypatch):
        # every search runs dry within 10 grad_tol, so each of the six
        # rounds ends with the message after one iteration; the solve
        # reports it, not a budget or tolerance message
        g = cq.GridSpec(3, 8.0, 16)
        u = cq.gaussian_field(g, 1.6, mass=1.0)
        v = cq.gaussian_field(g, 1.3, mass=1.0)
        engine = cq.saddle._SaddleEngine(sup_params(), g)
        ev, _, s_star = engine.measure(*engine.retract(*engine.enter_even_subspace(u.values,
                                                                                  v.values)))
        start_residual = engine.grad_norm(*engine.residual(ev, s_star)[:2])
        monkeypatch.setattr(cq.flow, "_line_search", lambda engine, ev, *args: (None, 1e-19))
        rep = cq.mountain_pass_solve(sup_params(), cq.StatePair(u, v),
                                     cq.SaddleOptions(grad_tol=start_residual / 3.0))
        assert not rep.converged and rep.iterations == 6
        assert rep.message == "line search exhausted near the residual tolerance"


class TestTabulatedCoupling:
    """The fiber solvers refuse a table; the s = 0 geometry check takes it."""

    @staticmethod
    def tabulated(grid):
        return cq.ModelParams(
            **SUP, coupling=cq.CouplingSpec("tabulated", values=np.full(grid.shape, 0.015))
        )

    @pytest.mark.parametrize("solve", [
        lambda state, params: cq.mountain_pass_solve(params, state),
        lambda state, params: cq.fiber_maximize(state, params),
        lambda state, params: cq.saddle._SaddleEngine(params, state.grid),
        lambda state, params: cq.mountain_pass_solve(params.with_masses(0.0, 1.0), state),
    ], ids=["mountain_pass_solve", "fiber_maximize", "engine", "zero_mass_solve"])
    def test_fiber_solvers_refuse(self, grid32, solve):
        bump = cq.gaussian_field(grid32, 1.2, mass=1.0)
        with pytest.raises(cq.ModeMismatch, match="built-in coupling"):
            solve(cq.StatePair(bump, bump.copy()), self.tabulated(grid32))

    def test_geometry_accepts_table(self, grid32):
        # the table samples the constant coupling, so every estimate agrees
        geo = cq.check_geometry(self.tabulated(grid32), grid32)
        assert geo == cq.check_geometry(sup_params(0.015), grid32)


class TestKineticIdentity:
    def test_assembled_identity(self, grid32):
        # 2 p dp E - dE/ds|_0 = (p dp - 1) K - int (2 p dp beta + x.grad beta) uv
        params = cq.ModelParams(
            **SUP, coupling=cq.CouplingSpec("rational_decay", 0.01, 2.0 / 3.0)
        )
        rng = np.random.default_rng(17)
        from conftest import smooth_random_nonneg
        from choquard.model import coupling_values, coupling_x_grad_values

        for _ in range(5):
            u = smooth_random_nonneg(grid32, rng)
            v = smooth_random_nonneg(grid32, rng)
            s = cq.StatePair(u, v)
            bd = cq.energy_total(s, params)
            poh = cq.pohozaev_residual(s, params)
            pdp = params.p * params.delta_p
            lhs = 2 * pdp * bd.total - poh
            beta = coupling_values(params.coupling, grid32)
            xgb = coupling_x_grad_values(params.coupling, grid32)
            combo = 2 * pdp * beta + xgb
            k = bd.grad_sq_u + bd.grad_sq_v
            rhs = (pdp - 1) * k - grid32.cell_volume * np.sum(combo * u.values * v.values)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestMountainPass:
    def test_level_positive_and_certified(self, saddle_report, grid48):
        rep = saddle_report
        geo = cq.check_geometry(sup_params(), grid48)
        assert rep.converged
        assert rep.energy.total > 0.0
        assert rep.energy.total >= geo.inf_barrier_estimate
        kin = rep.energy.grad_sq_u + rep.energy.grad_sq_v
        assert kin >= geo.k1

    def test_certificate_hook_reproduces_the_report(self, saddle_report, grid48):
        engine = cq.saddle._SaddleEngine(sup_params(), grid48, SOPTS)
        state = saddle_report.state
        ev = engine.evaluate(state.u.values, state.v.values)
        residuals, ok = engine.certificate(ev, saddle_report.residuals["fiber_offset"])
        assert residuals == saddle_report.residuals
        assert ok

    def test_multipliers_positive(self, saddle_report):
        assert saddle_report.multipliers.lambda1 > 0
        assert saddle_report.multipliers.lambda2 > 0

    def test_pohozaev_and_identity_gap(self, saddle_report):
        kin = saddle_report.energy.grad_sq_u + saddle_report.energy.grad_sq_v
        assert abs(saddle_report.residuals["pohozaev"]) < 1e-5 * kin
        assert saddle_report.residuals["multiplier_identity_gap"] < 1e-4

    def test_positive_radial_profile(self, saddle_report):
        u = saddle_report.state.u
        assert u.values.min() > -1e-8
        _, prof = cq.radial_profile(u)
        assert np.all(np.diff(prof) <= 1e-8)

    def test_monotone_merit_trace(self, saddle_report):
        tr = saddle_report.energy_trace
        assert all(b <= a + 1e-10 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))

    def test_kinetic_bounds(self, saddle_report):
        lower_ok, upper_ok = cq.kinetic_bounds_check(saddle_report, sup_params())
        assert lower_ok and upper_ok

    def test_report_is_the_full_grid_certificate(self, saddle_report):
        # the descent ran on the octant convolution; the report is the full grid's
        params, state = sup_params(), saddle_report.state
        assert cq.grid.is_even(state.u.values)
        assert saddle_report.energy == cq.energy_total(state, params)
        assert saddle_report.residuals["pohozaev"] == cq.pohozaev_residual(state, params)
        lhs, rhs = cq.multiplier_sum_identity(state, params)
        gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        assert saddle_report.residuals["multiplier_identity_gap"] == gap

    def test_mass_drift(self, saddle_report):
        assert saddle_report.residuals["mass_drift"] < 1e-10

    def test_not_supercritical_guard(self, grid32):
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0
        )
        bump = cq.gaussian_field(grid32, 1.0)
        with pytest.raises(cq.NotSupercritical):
            cq.mountain_pass_solve(params, cq.StatePair(bump, bump.copy()))

    @pytest.mark.parametrize("params, error", [
        (cq.ModelParams(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0),
         cq.NotSupercritical),
        (sup_params(v1=cq.PotentialSpec("harmonic", stiffness=1.0)), cq.ModeMismatch),
    ], ids=["subcritical", "potential"])
    def test_engine_checks_admissibility(self, grid32, params, error):
        with pytest.raises(error):
            cq.saddle._SaddleEngine(params, grid32)

    def test_zero_mass_rejected(self, grid32):
        bump = cq.gaussian_field(grid32, 1.0)
        with pytest.raises(cq.ZeroMass):
            cq.mountain_pass_solve(sup_params(eta=0.0), cq.StatePair(bump, bump.copy()))


class TestNonPositiveLambda2:
    """A converged coupled saddle whose lambda2 is not positive is reported
    with a warning.  For a nonnegative v, summing the Euler-Lagrange equation
    over the grid (the spectral Laplacian's sum is zero) gives lambda2 sum v =
    mu2 sum (K * v^q) v^{q-1} + sum beta u > 0 up to the residual, so no
    certified solve of a positive start has met it; the multiplier is forced
    here."""

    def test_converged_saddle_warns(self, monkeypatch):
        g = cq.GridSpec(3, 10.0, 40)  # the saddle benchmark's model and start
        params = cq.ModelParams(**SUP, coupling=cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0))
        multipliers = cq.flow.multipliers_from_breakdown
        monkeypatch.setattr(cq.flow, "multipliers_from_breakdown",
                            lambda *args: dataclasses.replace(multipliers(*args), lambda2=0.0))
        bump = cq.gaussian_field(g, 1.2, mass=1.0)
        with pytest.warns(UserWarning, match="lambda2 <= 0 at a converged saddle"):
            rep = cq.mountain_pass_solve(params, cq.StatePair(bump, bump.copy()),
                                         cq.SaddleOptions(max_iters=400))
        assert rep.converged and rep.multipliers.lambda2 == 0.0


class TestGeometryFailures:
    """Paths of the geometry check that the solves above never take, on the
    mountain-pass benchmark's model: M = 40, rational-decay coupling."""

    @pytest.fixture(scope="class")
    def engine(self):
        params = cq.ModelParams(
            **SUP, coupling=cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0)
        )
        return cq.saddle._SaddleEngine(params, cq.GridSpec(3, 10.0, 40))

    @staticmethod
    def count_lines(monkeypatch):
        calls = []
        line = cq.saddle._gaussian_line
        monkeypatch.setattr(cq.saddle, "_gaussian_line",
                            lambda *args: calls.append(args) or line(*args))
        return calls

    @pytest.mark.parametrize("width", [1e-6, 1e6])
    def test_no_pin_for_a_width_outside_the_band(self, engine, width, monkeypatch):
        # the band is (1e-2 h, 20 L) = (5e-3, 200)
        calls = self.count_lines(monkeypatch)
        assert cq.saddle._pinned_energy(engine, width, 1.0, 1.0) is None
        assert calls == []

    def test_no_pin_after_twelve_rescalings(self, engine, monkeypatch):
        # far below h a Gaussian is one grid point, whose kinetic term stops
        # growing as it narrows: aimed 5% above that term, every rescaling
        # (by t = 0.976) misses the 2% band and the width stays in its band
        grid, width = engine.grid, 0.05 * engine.grid.spacing
        masses = (engine.params.xi**2, engine.params.eta**2)
        point = sum(cq.grid.rank_one_grad_norm_sq(grid, cq.saddle._gaussian_line(grid, width, m))
                    for m in masses)
        calls = self.count_lines(monkeypatch)
        assert cq.saddle._pinned_energy(engine, width, width, 1.05 * point) is None
        assert len(calls) == 2 * 12

    def test_unseparated_geometry_refuses_the_solve(self, engine, monkeypatch):
        real = cq.saddle.check_geometry
        monkeypatch.setattr(cq.saddle, "check_geometry",
                            lambda *args: dataclasses.replace(real(*args), separated=False))
        bump = cq.gaussian_field(engine.grid, 1.2, mass=1.0)
        with pytest.raises(cq.GeometryFailed, match="sampled well max .* does not sit below"):
            cq.mountain_pass_solve(engine.params, cq.StatePair(bump, bump.copy()), SOPTS)


class TestScalarSaddle:
    def test_levels_strictly_decreasing_in_mass(self, grid48):
        # masses with widths 1.57 - 2.2, comfortably resolved at this grid
        vals = []
        for c in (1.1, 1.2, 1.3):
            rep = cq.scalar_constrained_saddle(
                c, 60.0, 3.0, 2.0, grid48, SOPTS, init_width=1.3 * c * c
            )
            assert rep.converged
            assert rep.multipliers.lambda1 > 0
            vals.append(rep.energy.total)
        assert vals[0] > vals[1] > vals[2]

    def test_nonpositive_mass_rejected(self, grid32):
        with pytest.raises(cq.ZeroMass):
            cq.scalar_constrained_saddle(0.0, 60.0, 3.0, 2.0, grid32)

    def test_frozen_component_stays_zero(self, grid32):
        # the retraction zeroes the frozen v; tangent and dilation keep it zero
        params = cq.flow._scalar_params(1.1, 60.0, 3.0, 3, 2.0)
        engine = cq.saddle._SaddleEngine(params, grid32)
        bump = cq.gaussian_field(grid32, 1.3, mass=1.0).values
        ev, psi, s_star = engine.measure(*engine.retract(bump, bump))
        assert not np.any(ev.v) and abs(s_star) > cq.saddle._RECENTER_TOL
        tu, tv = engine.fiber_tangent(ev)
        assert np.any(tu) and not np.any(tv)
        ev_c, s_c, _, message = cq.saddle._recenter(engine, ev, s_star, psi)
        assert message == "" and abs(s_c) < abs(s_star)
        assert np.any(ev_c.u) and not np.any(ev_c.v)


    def test_frozen_side_costs_no_maps(self, grid32, monkeypatch):
        # StateEval.each maps only u of a scalar profile; v stays bitwise zero
        counts = {"x_grad": 0, "dilate": 0}
        for name, key in (("x_grad_values", "x_grad"), ("dilate", "dilate")):
            original = getattr(cq.saddle, name)

            def counting(*args, _f=original, _k=key, **kw):
                counts[_k] += 1
                return _f(*args, **kw)

            monkeypatch.setattr(cq.saddle, name, counting)

        def solve():
            counts.update(x_grad=0, dilate=0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = cq.scalar_constrained_saddle(
                    1.1, 60.0, 3.0, 2.0, grid32, SOPTS, init_width=1.573
                )
            return rep, dict(counts)

        rep, skipped = solve()

        def each_side(self, f):
            fu = f(self.u)
            return (fu, fu) if self.mirrored else (fu, f(self.v))

        monkeypatch.setattr(cq.energy.StateEval, "each", each_side)
        plain, mapped = solve()
        assert skipped["x_grad"] > 0 and skipped["dilate"] > 0
        assert mapped == {key: 2 * n for key, n in skipped.items()}
        assert np.array_equal(rep.state.u.values, plain.state.u.values)
        assert not np.any(rep.state.v.values) and not np.any(plain.state.v.values)
        assert rep.energy == plain.energy and rep.iterations == plain.iterations


class TestRecenteringLeavesTheBox:
    """A recentering dilation that leaves the box keeps the unrecentered
    profile; the message names the energy the report then carries and the
    fiber offset it was not moved by."""

    def test_message_names_the_reported_energy(self, monkeypatch):
        def leave_the_box(f, s):
            raise cq.DilationOutOfBox(f"dilation by s={s:g} left the box")

        monkeypatch.setattr(cq.saddle, "dilate", leave_the_box)
        g = cq.GridSpec(3, 8.0, 16)
        rep = cq.scalar_constrained_saddle(
            1.1, 60.0, 3.0, 2.0, g, cq.SaddleOptions(max_iters=6), init_width=1.3
        )
        s_star, level = cq.fiber_maximize(rep.state, cq.flow._scalar_params(1.1, 60.0, 3.0, 3, 2.0))
        assert not rep.converged
        assert s_star == pytest.approx(rep.residuals["fiber_offset"], abs=1e-9)
        assert abs(s_star) > cq.saddle._RECENTER_TOL
        assert rep.energy.total < level  # the profile's energy at s = 0, below its fiber maximum
        assert rep.message == (
            f"recentering left the box at fiber offset s = {s_star:.4g}: energy.total is the "
            f"unrecentered profile's energy at s = 0 ({rep.energy.total:.6g}), "
            f"not its fiber-maximum level ({level:.6g})"
        )


class TestKineticBoundsGuards:
    def test_requires_converged(self, saddle_report, grid32):
        import dataclasses

        broken = dataclasses.replace(saddle_report, converged=False)
        with pytest.raises(cq.NotConverged):
            cq.kinetic_bounds_check(broken, sup_params())


class TestMirroredSaddle:
    """A swap-symmetric model keeps a u = v start mirrored: each step
    preconditions one component, and the geometry check samples each
    unordered width pair once."""

    def test_symmetric_start_stays_mirrored(self, monkeypatch):
        g = cq.GridSpec(3, 8.0, 16)
        counts = {"precondition": 0, "steps": 0}
        precondition, line_search = cq.flow._precondition, cq.flow._line_search

        def counting_precondition(*args):
            counts["precondition"] += 1
            return precondition(*args)

        def counting_line_search(*args):
            counts["steps"] += 1
            return line_search(*args)

        monkeypatch.setattr(cq.flow, "_precondition", counting_precondition)
        monkeypatch.setattr(cq.flow, "_line_search", counting_line_search)
        bump = cq.gaussian_field(g, 1.2, mass=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = cq.mountain_pass_solve(
                sup_params(), cq.StatePair(bump, bump.copy()), cq.SaddleOptions(max_iters=10)
            )
        assert np.array_equal(rep.state.u.values, rep.state.v.values)
        assert counts["steps"] > 0
        assert counts["precondition"] == counts["steps"]

    def test_geometry_samples_unordered_pairs(self, grid32, monkeypatch):
        params = sup_params()
        evals = []
        evaluate = cq.flow.evaluate_state

        def counting(*args):
            evals.append(args)
            return evaluate(*args)

        monkeypatch.setattr(cq.flow, "evaluate_state", counting)
        geo = cq.check_geometry(params, grid32)
        monkeypatch.setattr(cq.flow, "evaluate_state", evaluate)
        assert len(evals) <= 16

        # the ordered sampling: one pair per ratio i - j in -7..7, both orders
        engine = cq.flow._SphereDescent(params, grid32)
        pinned = cq.saddle._pinned_energy
        widths = [float(w) for w in np.geomspace(0.4, grid32.half_extent / 2.0, 8)]

        def kinetic(wu, wv):
            return 0.5 * grid32.dim * (params.xi**2 / wu**2 + params.eta**2 / wv**2)

        def at_level(wu, wv, level, below=False):
            t = math.sqrt(kinetic(wu, wv) / level)
            return pinned(engine, t * wu, t * wv, level, below)

        pairs = [(i - j, wu, wv) for i, wu in enumerate(widths) for j, wv in enumerate(widths)]
        by_ratio = {d: (wu, wv) for d, wu, wv in pairs}
        steep = {d: (wu, wv) for d, wu, wv in pairs if kinetic(wu, wv) > geo.k1}
        assert len(by_ratio) == 15
        barrier = [at_level(wu, wv, geo.k2) for wu, wv in by_ratio.values()]
        well = [at_level(wu, wv, geo.k1, below=True) for wu, wv in steep.values()]
        well += [
            pinned(engine, wu, wv, geo.k1, below=True)
            for _, wu, wv in pairs
            if kinetic(wu, wv) <= geo.k1
        ]
        vol = (2.0 * grid32.half_extent) ** grid32.dim
        const = engine.evaluate(
            np.full(grid32.shape, params.xi / math.sqrt(vol)),
            np.full(grid32.shape, params.eta / math.sqrt(vol)),
        )
        well.append(float(const.breakdown.total))
        assert geo.inf_barrier_estimate == pytest.approx(
            min(e for e in barrier if e is not None), rel=1e-14
        )
        assert geo.sup_well_estimate == pytest.approx(
            max(e for e in well if e is not None), rel=1e-14
        )
