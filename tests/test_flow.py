"""Subcritical ground-state flow: retraction, descent, scalar problem, scans.

Unit-level solves run on coarse grids; the decoupled-limit oracle
e(xi, eta) = m(xi, mu1) + m(eta, mu2) at beta = 0 checks the pair solver
against two independent scalar solves on the same grid.
"""

import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import choquard as cq
from conftest import smooth_random_field


OPTS = cq.FlowOptions(max_iters=600, grad_tol=1e-5, energy_tol=1e-11)


def coupled_params(beta=0.1, mu=5.0, p=2.0, xi=1.0, eta=1.0, **kw):
    return cq.ModelParams(
        dim=3, alpha=2.0, p=p, q=p, mu1=mu, mu2=mu, xi=xi, eta=eta,
        coupling=cq.CouplingSpec("constant", beta), **kw
    )


@pytest.fixture(scope="module")
def grid24():
    return cq.GridSpec(3, 8.0, 24)


@pytest.fixture(scope="module")
def ground(grid24):
    params = coupled_params()
    init = cq.StatePair(
        cq.gaussian_field(grid24, 2.0, mass=1.0), cq.gaussian_field(grid24, 1.5, mass=1.0)
    )
    opts = cq.FlowOptions(max_iters=600, grad_tol=1e-5, energy_tol=1e-11, symmetrize_every=10)
    return cq.minimize_normalized(params, init, opts)


class TestProjectMasses:
    def test_already_on_constraint(self, grid24):
        u = cq.gaussian_field(grid24, 1.0, mass=1.0)
        v = cq.gaussian_field(grid24, 1.5, mass=4.0)
        out = cq.project_masses(cq.StatePair(u, v), 1.0, 2.0)
        assert np.allclose(out.u.values, u.values, rtol=1e-14)
        assert np.allclose(out.v.values, v.values, rtol=1e-14)

    def test_half_mass_scaling(self, grid24):
        u = cq.gaussian_field(grid24, 1.0, mass=4.0)  # norm 2
        out = cq.project_masses(cq.StatePair(u, u.copy()), 1.0, 1.0)
        assert np.allclose(out.u.values, 0.5 * u.values, rtol=1e-14)

    def test_exact_masses(self, grid24):
        rng = np.random.default_rng(0)
        s = cq.StatePair(smooth_random_field(grid24, rng), smooth_random_field(grid24, rng))
        out = cq.project_masses(s, 1.3, 0.7)
        assert out.u.mass == pytest.approx(1.3**2, abs=1e-12)
        assert out.v.mass == pytest.approx(0.7**2, abs=1e-12)

    def test_zero_mass_rejected(self, grid24):
        s = cq.StatePair(cq.zero_field(grid24), cq.gaussian_field(grid24, 1.0))
        with pytest.raises(cq.ZeroMass):
            cq.project_masses(s, 1.0, 1.0)

    def test_zero_target_gives_zero_field(self, grid24):
        s = cq.StatePair(cq.gaussian_field(grid24, 1.0), cq.gaussian_field(grid24, 1.0))
        out = cq.project_masses(s, 1.0, 0.0)
        assert np.all(out.v.values == 0.0)


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            cq.FlowOptions(max_iters=0)
        with pytest.raises(ValueError):
            cq.FlowOptions(grad_tol=-1.0)
        with pytest.raises(ValueError):
            cq.FlowOptions(symmetrize_every=-1)


class TestGroundState:
    def test_converges_below_zero(self, ground):
        assert ground.converged
        assert ground.energy.total < 0.0

    def test_monotone_trace(self, ground):
        tr = ground.energy_trace
        assert all(b <= a + 1e-12 * max(1.0, abs(a)) for a, b in zip(tr, tr[1:]))

    def test_constraint_preserved(self, ground):
        assert ground.residuals["mass_drift"] < 1e-10

    def test_el_residual(self, ground):
        assert ground.residuals["el_residual"] <= 10 * OPTS.grad_tol

    def test_nonnegative_and_radial(self, ground):
        assert ground.state.u.values.min() >= -1e-8
        assert ground.state.v.values.min() >= -1e-8
        for f in (ground.state.u, ground.state.v):
            _, prof = cq.radial_profile(f)
            assert np.all(np.diff(prof) <= 1e-8)

    def test_semitriviality_excluded(self, ground):
        assert np.max(np.abs(ground.state.u.values)) > 1e-3
        assert np.max(np.abs(ground.state.v.values)) > 1e-3

    def test_multipliers_positive(self, ground):
        assert ground.multipliers.lambda1 > 0
        assert ground.multipliers.lambda2 > 0

    def test_certificate_hook_reproduces_the_report(self, ground, grid24):
        # the grad_tol of OPTS is the fixture's, the only option it reads
        engine = cq.flow._SphereDescent(coupled_params(), grid24, OPTS)
        ev = engine.evaluate(ground.state.u.values, ground.state.v.values)
        residuals, ok = engine.certificate(ev, 0.0)
        assert residuals == ground.residuals
        assert ok

    def test_multipliers_match_returned_state(self, ground, grid24):
        lam = cq.lagrange_multipliers(ground.state, coupled_params())
        assert ground.multipliers.lambda1 == pytest.approx(lam.lambda1, rel=1e-12)
        assert ground.multipliers.lambda2 == pytest.approx(lam.lambda2, rel=1e-12)

    def test_discrete_el_equation(self, ground, grid24):
        # the converged state solves the discrete system: assemble
        # -Lap u + (lam1 + V1) u - mu (K*|u|^p)|u|^{p-2}u - beta v directly
        from choquard.grid import neg_laplacian_values
        from choquard.riesz import riesz_convolve_values

        params = coupled_params()
        conv = cq.build_convolver(grid24, 2.0)
        u, v = ground.state.u, ground.state.v
        lam = ground.multipliers
        dens = np.abs(u.values) ** 2
        res = (
            neg_laplacian_values(grid24, u.values)
            + lam.lambda1 * u.values
            - params.mu1 * riesz_convolve_values(conv, dens) * u.values
            - 0.1 * v.values
        )
        nrm = math.sqrt(grid24.cell_volume * np.sum(res**2))
        assert nrm <= 10 * OPTS.grad_tol


class TestDecoupledOracle:
    def test_pair_equals_two_scalar_solves(self, grid24):
        params = coupled_params(beta=0.0)
        init = cq.StatePair(
            cq.gaussian_field(grid24, 1.8, mass=1.0), cq.gaussian_field(grid24, 1.4, mass=1.0)
        )
        pair = cq.minimize_normalized(params, init, OPTS)
        m1 = cq.scalar_ground_state(1.0, 5.0, 2.0, 2.0, grid24, OPTS, init_width=1.8)
        m2 = cq.scalar_ground_state(1.0, 5.0, 2.0, 2.0, grid24, OPTS, init_width=1.4)
        assert pair.converged and m1.converged and m2.converged
        assert pair.energy.total == pytest.approx(
            m1.energy.total + m2.energy.total, abs=1e-4
        )


class TestScalarProblem:
    def test_negative_ground_level(self, grid24):
        # masses chosen so the soliton width 1.5/c^2 stays inside the box
        for c in (0.9, 1.0, 1.3):
            rep = cq.scalar_ground_state(c, 5.0, 2.0, 2.0, grid24, OPTS, init_width=1.5 / c**2)
            assert rep.converged
            assert rep.energy.total < 0.0

    def test_strict_subadditivity_spot(self, grid24):
        m_full = cq.scalar_ground_state(1.0, 5.0, 2.0, 2.0, grid24, OPTS, init_width=1.5)
        m_half = cq.scalar_ground_state(0.5, 5.0, 2.0, 2.0, grid24, OPTS, init_width=4.0)
        assert m_full.energy.total < 2 * m_half.energy.total

    def test_monotone_in_mu(self, grid24):
        lo = cq.scalar_ground_state(1.0, 5.0, 2.0, 2.0, grid24, OPTS, init_width=1.5)
        hi = cq.scalar_ground_state(1.0, 10.0, 2.0, 2.0, grid24, OPTS, init_width=0.8)
        assert hi.energy.total < lo.energy.total

    def test_rejects_nonpositive_mass(self, grid24):
        with pytest.raises(cq.ZeroMass):
            cq.scalar_ground_state(0.0, 5.0, 2.0, 2.0, grid24)

    def test_frozen_component_stays_zero_through_symmetrization(self, grid24):
        # the retraction zeroes the frozen v, whatever the rearrangement made of it
        engine = cq.flow._SphereDescent(cq.flow._scalar_params(1.0, 5.0, 2.0, 3, 2.0), grid24)
        w = np.abs(smooth_random_field(grid24, np.random.default_rng(4)).values)
        ev = engine.evaluate(*engine.retract(w, w))
        assert not np.any(ev.v)
        ev_s = cq.flow._symmetrized(engine, ev)
        assert ev_s is not None and ev_s.breakdown.total < ev.breakdown.total
        assert not np.any(ev_s.v)


class TestRegimeGuards:
    def test_not_subcritical(self, grid24):
        params = cq.ModelParams(dim=3, alpha=2.0, p=3.0, q=3.0, mu1=1.0, mu2=1.0, xi=1.0, eta=1.0)
        init = cq.StatePair(cq.gaussian_field(grid24, 1.0), cq.gaussian_field(grid24, 1.0))
        with pytest.raises(cq.NotSubcritical):
            cq.minimize_normalized(params, init)

    def test_zero_init_rejected(self, grid24):
        params = coupled_params()
        init = cq.StatePair(cq.zero_field(grid24), cq.gaussian_field(grid24, 1.0))
        with pytest.raises(cq.ZeroMass):
            cq.minimize_normalized(params, init)


class TestNonFiniteEvaluation:
    def test_overflowing_state_raises(self):
        grid = cq.GridSpec(3, 6.0, 16)
        engine = cq.flow._SphereDescent(coupled_params(), grid)
        u = 1e160 * cq.gaussian_field(grid, 1.5, mass=1.0).values
        with np.errstate(all="ignore"), pytest.raises(cq.NonFinite, match="non-finite value"):
            engine.evaluate(u, u.copy())


class TestExhaustedLineSearch:
    """Every trial state scores non-finite, so the line search halves its
    step until it underflows: a large residual is a solver failure, one
    within 10 grad_tol ends the descent with a message."""

    class Engine(cq.flow._SphereDescent):
        def measure(self, u, v):
            raise cq.NonFinite("trial state is not finite")

    def start(self, grid):
        engine = self.Engine(coupled_params(), grid)
        u = cq.gaussian_field(grid, 1.5, mass=1.0).values
        ru, rv, *_ = engine.residual(engine.evaluate(*engine.retract(u, u)), 0.0)
        return engine, u, engine.grad_norm(ru, rv)

    def test_large_residual_raises(self, grid24):
        engine, u, grad_norm = self.start(grid24)
        engine.opts = cq.FlowOptions(grad_tol=grad_norm / 100.0)
        with pytest.raises(cq.NoDescentStep):
            cq.flow._descend(engine, u, u)

    def test_near_tolerance_stops(self, grid24):
        engine, u, grad_norm = self.start(grid24)
        engine.opts = cq.FlowOptions(grad_tol=grad_norm / 5.0)
        ev, residuals, iters, converged, trace, message = cq.flow._descend(engine, u, u)
        assert message == "line search exhausted at small residual"
        assert not converged
        assert iters == 1 and trace == [ev.breakdown.total]
        assert residuals["projected_gradient"] == grad_norm


class TestSymmetrizationNeverRaises:
    def test_energy_not_raised(self, grid24):
        params = coupled_params(v1=cq.PotentialSpec("gaussian_well", depth=0.4, width=2.0))
        rng = np.random.default_rng(31)
        for _ in range(6):
            s = cq.project_masses(
                cq.StatePair(
                    cq.ScalarField(grid24, np.abs(smooth_random_field(grid24, rng).values)),
                    cq.ScalarField(grid24, np.abs(smooth_random_field(grid24, rng).values)),
                ),
                1.0, 1.0,
            )
            before = cq.energy_total(s, params).total
            sym = cq.StatePair(
                cq.rearrange_radial_decreasing(s.u), cq.rearrange_radial_decreasing(s.v)
            )
            after = cq.energy_total(sym, params).total
            assert after <= before + 1e-8


class TestMassScan:
    def test_zero_mass_edge_matches_scalar(self, grid24):
        params = coupled_params(mu=5.0)
        table = cq.mass_scan(params, grid24, [0.0, 1.0], [0.8, 1.0], OPTS, n_starts=2, seed=3)
        scalar = cq.scalar_ground_state(0.8, 5.0, 2.0, 2.0, grid24, OPTS, init_width=2.3)
        assert table.energy_at(0.0, 0.8) == pytest.approx(scalar.energy.total, abs=1e-4)

    def test_zero_mass_cell_is_zero_without_a_solve(self):
        grid = cq.GridSpec(3, 8.0, 16)
        table = cq.mass_scan(coupled_params(), grid, [0.0, 0.5], [0.0, 0.5],
                             cq.FlowOptions(max_iters=5), n_starts=1, seed=3)
        assert table.energies[0, 0] == 0.0
        assert bool(table.converged[0, 0])
        assert table.iterations[0, 0] == 0
        assert table.iterations[1, 1] > 0

    def test_subadditive_and_monotone(self, grid24):
        params = coupled_params(p=1.8, mu=8.0, beta=0.2)
        table = cq.mass_scan(params, grid24, [1.0, 2.0], [1.0, 2.0], OPTS, n_starts=2, seed=5)
        assert bool(table.converged.all())
        assert table.energy_at(2.0, 2.0) <= 2 * table.energy_at(1.0, 1.0) + 1e-3
        assert table.energy_at(2.0, 1.0) <= table.energy_at(1.0, 1.0)

    def test_bad_lists_rejected(self, grid24):
        params = coupled_params()
        with pytest.raises(ValueError):
            cq.mass_scan(params, grid24, [1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            cq.mass_scan(params, grid24, [2.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="n_starts"):
            cq.mass_scan(params, grid24, [1.0, 2.0], [1.0, 2.0], n_starts=0)
        with pytest.raises(ValueError, match="xi_list must be nonnegative"):
            cq.mass_scan(params, grid24, [-1.0, 1.0], [1.0, 2.0])

    def test_scan_builds_one_convolver(self):
        grid = cq.GridSpec(3, 8.0, 16)
        cq.build_convolver.cache_clear()
        cq.mass_scan(coupled_params(), grid, [0.5, 1.0], [0.5, 1.0],
                     cq.FlowOptions(max_iters=5), n_starts=2, seed=3)
        assert cq.build_convolver.cache_info().misses == 1


class TestDiagonalStart:
    """A swap-symmetric model with beta >= 0 descends from the lower of
    (u0, u0) and (v0, v0); any other model keeps the (u0, v0) start."""

    class Engine(cq.flow._SphereDescent):
        def evaluate(self, u, v):
            self.evaluated.append((u, v))
            return super().evaluate(u, v)

    def start_of(self, params, grid, u0, v0, monkeypatch):
        """(states evaluated before the loop, the start state handed to it)."""
        engine = self.Engine(params, grid)
        engine.evaluated = []
        seen = {}

        def loop(engine_, ev, s, merit, budget, tau, trace):
            seen["before"], seen["start"] = list(engine_.evaluated), ev
            return ev, s, merit, 0, True, tau, ""

        monkeypatch.setattr(cq.flow, "_descent_round", loop)
        cq.flow._descend(engine, u0, v0)
        return seen["before"], seen["start"]

    @pytest.mark.parametrize("coupling", [
        cq.CouplingSpec("constant", 0.0),
        cq.CouplingSpec("constant", 0.3),
        cq.CouplingSpec("rational_decay", 0.5, decay=1.0),
    ])
    def test_diagonal_pick_never_worse(self, coupling):
        grid = cq.GridSpec(3, 6.0, 16)
        rng = np.random.default_rng(13)
        for v in (cq.PotentialSpec("zero"), cq.PotentialSpec("harmonic", stiffness=0.2)):
            params = replace(coupled_params(v1=v, v2=v), coupling=coupling)
            for _ in range(4):
                s = cq.project_masses(cq.StatePair(smooth_random_field(grid, rng),
                                                   smooth_random_field(grid, rng)), 1.0, 1.0)
                e_uu = cq.energy_total(cq.StatePair(s.u, s.u), params).total
                e_vv = cq.energy_total(cq.StatePair(s.v, s.v), params).total
                assert cq.energy_total(s, params).total >= min(e_uu, e_vv)

    def test_asymmetric_start_ends_mirrored(self, ground, grid24, monkeypatch):
        assert np.array_equal(ground.state.u.values, ground.state.v.values)
        params = coupled_params()
        opts = cq.FlowOptions(max_iters=600, grad_tol=1e-5, energy_tol=1e-11, symmetrize_every=10)
        same = cq.minimize_normalized(params, cq.StatePair(
            cq.gaussian_field(grid24, 1.5, mass=1.0), cq.gaussian_field(grid24, 1.5, mass=1.0)
        ), opts)
        assert ground.energy.total == pytest.approx(same.energy.total, rel=1e-10, abs=0.0)

        from choquard import energy

        calls = [0]
        convolve = energy.riesz_convolve_values

        def counted(*args):
            calls[0] += 1
            return convolve(*args)

        monkeypatch.setattr(energy, "riesz_convolve_values", counted)
        init = cq.StatePair(
            cq.gaussian_field(grid24, 2.0, mass=1.0), cq.gaussian_field(grid24, 1.5, mass=1.0)
        )
        cq.minimize_normalized(params, init, opts)
        diagonal = calls[0]
        # the same solve on two components: no state is mirrored
        monkeypatch.setattr(cq.ModelParams, "swap_symmetric", property(lambda self: False))
        calls[0] = 0
        two = cq.minimize_normalized(params, init, opts)
        assert not np.array_equal(two.state.u.values, two.state.v.values)
        assert diagonal <= 0.6 * calls[0]

    def test_picks_the_lower_diagonal_state(self, grid24, monkeypatch):
        params = coupled_params()
        u0 = cq.gaussian_field(grid24, 2.0, mass=1.0).values
        v0 = cq.gaussian_field(grid24, 1.5, mass=1.0).values
        before, start = self.start_of(params, grid24, u0, v0, monkeypatch)
        assert len(before) == 2 and all(u is v for u, v in before)
        assert start.mirrored
        energies = [cq.energy_total(cq.StatePair(cq.ScalarField(grid24, u),
                                                 cq.ScalarField(grid24, v)), params).total
                    for u, v in before]
        assert start.breakdown.total == min(energies)

    def test_equal_start_evaluates_once(self, grid24, monkeypatch):
        u0 = cq.gaussian_field(grid24, 1.5, mass=1.0).values
        before, start = self.start_of(coupled_params(), grid24, u0, u0.copy(), monkeypatch)
        assert len(before) == 1 and start.mirrored

    @pytest.mark.parametrize("change", ["mu", "masses", "negative beta"])
    def test_other_models_keep_two_components(self, grid24, change, monkeypatch):
        if change == "mu":
            params = replace(coupled_params(), mu2=4.0)
        elif change == "masses":
            params = coupled_params(eta=0.8)
        else:
            table = np.full(grid24.shape, 0.1)
            table[0, 0, 0] = -0.1
            params = replace(coupled_params(), coupling=cq.CouplingSpec("tabulated", values=table))
        init = cq.StatePair(
            cq.gaussian_field(grid24, 2.0, mass=1.0), cq.gaussian_field(grid24, 1.5, mass=1.0)
        )
        rep = cq.minimize_normalized(params, init, cq.FlowOptions(max_iters=5))
        assert not np.array_equal(rep.state.u.values, rep.state.v.values)
        before, start = self.start_of(params, grid24, init.u.values, init.v.values, monkeypatch)
        assert len(before) == 1 and not start.mirrored
        assert not np.array_equal(start.u, start.v)


class TestComponentShift:
    def test_each_component_has_its_own_shift(self, grid24, monkeypatch):
        harmonic = cq.PotentialSpec("harmonic", stiffness=0.3)
        params = coupled_params(eta=1.6, v1=harmonic, v2=harmonic)
        engine = cq.flow._SphereDescent(params, grid24)
        ev = engine.evaluate(*engine.retract(cq.gaussian_field(grid24, 0.8).values,
                                             cq.gaussian_field(grid24, 2.5).values))
        ru, rv, cu, cv, gauge = engine.residual(ev, 0.0)
        sigma_u, sigma_v = max(1.0, abs(cu)), max(1.0, abs(cv))
        assert sigma_u != sigma_v

        shifts = []
        precondition = cq.flow._precondition

        def spy(grid, r, sigma):
            shifts.append(sigma)
            return precondition(grid, r, sigma)

        monkeypatch.setattr(cq.flow, "_precondition", spy)
        du, dv, slope = engine.step(ev, ru, rv, cu, cv, gauge)
        assert shifts == [sigma_u, sigma_v] and slope == 0.0
        damp = np.maximum(engine.sampled.v1, 0.0)
        want_u = precondition(grid24, ru, sigma_u) / (1.0 + damp / sigma_u)
        want_v = precondition(grid24, rv, sigma_v) / (1.0 + damp / sigma_v)
        want_u, want_v, _, _ = cq.flow._sphere_tangent(grid24, want_u, want_v, ev)
        assert np.array_equal(du, want_u) and np.array_equal(dv, want_v)


class TestEvenSubspace:
    """A reflection-even problem descends on the octant convolution and
    reports the full-grid certificate; any other takes the full-grid path."""

    GRID = cq.GridSpec(3, 6.0, 24)  # h = 1/2, so the coordinates are the parent's
    SHORT = cq.FlowOptions(max_iters=40, grad_tol=1e-5, energy_tol=1e-11)

    @staticmethod
    def spy(monkeypatch) -> dict:
        counts = {"full": 0, "even": 0}

        def counting(conv, values, _f=cq.energy.riesz_convolve_values):
            counts["even" if cq.grid.on_octant(conv.grid, values) else "full"] += 1
            return _f(conv, values)

        monkeypatch.setattr(cq.energy, "riesz_convolve_values", counting)
        return counts

    def test_even_problem_reports_the_full_grid_certificate(self, monkeypatch):
        g = self.GRID
        params = coupled_params()
        bump = cq.gaussian_field(g, 1.5, mass=1.0)
        counts = self.spy(monkeypatch)
        rep = cq.minimize_normalized(params, cq.StatePair(bump, bump.copy()), OPTS)
        monkeypatch.undo()
        assert rep.converged
        assert counts["full"] == 1 and counts["even"] > 10  # the mirrored certificate
        assert cq.grid.is_even(rep.state.u.values)
        # every reported number is the full-grid operator's
        assert rep.energy == cq.energy_total(rep.state, params)
        assert rep.energy_trace[-1] == rep.energy.total
        engine = cq.flow._SphereDescent(params, g)
        ru, rv, *_ = engine.residual(engine.evaluate(rep.state.u.values, rep.state.v.values), 0.0)
        assert rep.residuals["el_residual"] == engine.grad_norm(ru, rv)
        assert rep.residuals["mass_drift"] <= 1e-12

    def test_descent_stays_on_the_octant(self, monkeypatch):
        # only the certificate runs full-grid operators: one mirrored
        # evaluation (one convolution, one kinetic norm) and one gradient
        # (one Laplacian); the rearrangement expands and folds the octant
        g = self.GRID
        full = {"convolve": 0, "spectral": 0, "precondition": 0}
        shapes = []
        for owner, name, key in ((cq.energy, "riesz_convolve_values", "convolve"),
                                 (cq.energy, "grad_norm_sq_values", "spectral"),
                                 (cq.energy, "neg_laplacian_values", "spectral"),
                                 (cq.flow, "_precondition", "precondition")):
            original = getattr(owner, name)

            def counting(first, values, *args, _f=original, _k=key):
                full[_k] += values.shape == g.shape  # first is the grid or the convolver
                return _f(first, values, *args)

            monkeypatch.setattr(owner, name, counting)
        evaluate = cq.flow.evaluate_state

        def recording(u, v, *args):
            shapes.append((u.shape, v.shape))
            return evaluate(u, v, *args)

        monkeypatch.setattr(cq.flow, "evaluate_state", recording)
        opts = replace(OPTS, symmetrize_every=10)
        bump = cq.gaussian_field(g, 1.5, mass=1.0)
        rep = cq.minimize_normalized(coupled_params(), cq.StatePair(bump, bump.copy()), opts)
        monkeypatch.undo()
        assert rep.converged and rep.iterations > 10
        assert full == {"convolve": 1, "spectral": 2, "precondition": 0}
        octant = (g.points_per_axis // 2 + 1,) * g.dim
        assert shapes[-1] == (g.shape, g.shape)
        assert len(shapes) > rep.iterations and set(shapes[:-1]) == {(octant, octant)}

    @pytest.mark.parametrize("dim,L,m,width", [(1, 16.0, 128, 2.0), (2, 10.0, 48, 1.5)])
    def test_low_dimensions_land_on_the_full_grid_answer(self, dim, L, m, width, monkeypatch):
        # the same solve held on the full grid; the x = -L face carries up to
        # 1e-6 of the peak, which the octant convolution splits between -L
        # and +L, so the states agree to that scale and the energies closer
        g = cq.GridSpec(dim, L, m)
        well = cq.PotentialSpec("gaussian_well", depth=0.5, width=3.0)
        params = cq.ModelParams(
            dim=dim, alpha=0.5 * dim, p=2.0, q=2.0, mu1=3.0, mu2=3.0, xi=1.0, eta=0.8,
            coupling=cq.CouplingSpec("rational_decay", 0.2, 1.0), v1=well, v2=well,
        )
        opts = cq.FlowOptions(max_iters=600, grad_tol=1e-6, energy_tol=1e-12, symmetrize_every=5)
        init = cq.StatePair(cq.gaussian_field(g, width, mass=1.0),
                            cq.gaussian_field(g, 1.2 * width, mass=1.0))
        u0, _ = cq.flow._SphereDescent(params, g).enter_even_subspace(init.u.values, init.v.values)
        assert u0.shape == (m // 2 + 1,) * dim  # the solve runs on the octant
        rep = cq.minimize_normalized(params, init, opts)

        def stay_full(engine, u, v):
            return u, v

        monkeypatch.setattr(cq.flow._SphereDescent, "enter_even_subspace", stay_full)
        ref = cq.minimize_normalized(params, init, opts)
        assert rep.converged and ref.converged
        assert rep.iterations == ref.iterations
        assert rep.energy.total == pytest.approx(ref.energy.total, rel=1e-12, abs=0.0)
        u = rep.state.u.values
        assert np.max(np.abs(u - ref.state.u.values)) < 1e-8 * np.max(u)

    @pytest.mark.parametrize("saddle", [False, True])
    def test_mirrored_certificate_expands_once(self, saddle, monkeypatch):
        # the flow's and the saddle's certificate of a u = v octant state
        # expand one octant, and the one array is both sides; an unmirrored
        # state expands both
        g = cq.GridSpec(3, 8.0, 16)
        if saddle:
            params = cq.ModelParams(dim=3, alpha=2.0, p=3.0, q=3.0, mu1=60.0, mu2=60.0,
                                    xi=1.0, eta=1.0, coupling=cq.CouplingSpec("constant", 0.015))
            engine = cq.saddle._SaddleEngine(params, g)
        else:
            engine = cq.flow._SphereDescent(coupled_params(), g)
        bump = cq.gaussian_field(g, 1.3, mass=1.0).values
        ev = engine.evaluate(*engine.enter_even_subspace(bump, bump))
        assert ev.mirrored and ev.u.shape != g.shape
        calls = []
        expand = cq.flow.from_octant
        monkeypatch.setattr(cq.flow, "from_octant", lambda w: calls.append(w) or expand(w))
        full, merit, s = engine.leave_even_subspace(ev)
        assert len(calls) == 1 and full.mirrored and full.u is full.v
        assert np.array_equal(full.u, bump)
        want = engine.measure(expand(ev.u), expand(ev.v))
        assert (full.breakdown, merit, s) == (want[0].breakdown, *want[1:])
        calls.clear()
        engine.leave_even_subspace(replace(ev, mirrored=False))
        assert len(calls) == 2

    def test_certificate_gates_convergence(self, monkeypatch):
        # an even-subspace energy whose residual the full grid does not confirm
        g = self.GRID
        bump = cq.gaussian_field(g, 1.5, mass=1.0)
        evaluate = cq.flow._SphereDescent.evaluate

        def evaluate_with_offset(engine, u, v):
            ev = evaluate(engine, u, v)
            if ev.u.shape == engine.grid.shape:  # the certificate: a residual the descent lacks
                ev = replace(ev, u=ev.u + 1e-3 * engine.grid.coords()[0])
            return ev

        monkeypatch.setattr(cq.flow._SphereDescent, "evaluate", evaluate_with_offset)
        rep = cq.minimize_normalized(coupled_params(), cq.StatePair(bump, bump.copy()), OPTS)
        assert not rep.converged
        assert rep.message == "the full-grid residual is above grad_tol"

    def test_shifted_start_takes_the_full_path(self, monkeypatch):
        g = self.GRID
        bump = cq.gaussian_field(g, 1.5, mass=1.0).values
        shifted = cq.ScalarField(g, np.roll(bump, 1, axis=0))
        counts = self.spy(monkeypatch)
        init = cq.StatePair(shifted, shifted.copy())
        rep = cq.minimize_normalized(coupled_params(), init, self.SHORT)
        assert counts["even"] == 0 and counts["full"] > 40
        # the answer of the full-grid path before the even subspace existed
        assert rep.iterations == 40
        assert rep.energy.total == pytest.approx(-0.7785845160315312, rel=1e-13)
        assert rep.residuals["el_residual"] == pytest.approx(7.669308266794925e-05, rel=1e-9)

    def test_uneven_table_takes_the_full_path(self, monkeypatch):
        g = self.GRID
        trap = cq.PotentialSpec("tabulated", values=0.3 * np.roll(g.radius_sq(), 1, axis=1))
        params = coupled_params(v1=trap, v2=trap)
        bump = cq.gaussian_field(g, 1.5, mass=1.0)
        engine = cq.flow._SphereDescent(params, g)
        u0, v0 = engine.enter_even_subspace(bump.values, bump.values)
        assert u0.shape == v0.shape == g.shape
        counts = self.spy(monkeypatch)
        rep = cq.minimize_normalized(params, cq.StatePair(bump, bump.copy()), self.SHORT)
        assert counts["even"] == 0 and counts["full"] > 40
        assert rep.energy.total == pytest.approx(-0.16008075404983207, rel=1e-13)
        assert rep.residuals["el_residual"] == pytest.approx(8.19807603695973e-06, rel=1e-9)


class TestGaussianStartIsReleased:
    """The convenience solvers build a Gaussian start and hand it over, so
    no start array is alive once the descent runs on its retracted copy."""

    @staticmethod
    def probe(monkeypatch) -> list[int]:
        starts, alive = [], []
        for module in (cq.flow, cq.saddle):
            make, descend = module.gaussian_field, module._descent_round

            def recording(*args, _f=make, **kw):
                field = _f(*args, **kw)
                starts.append(weakref.ref(field.values))
                return field

            def counting(*args, _f=descend):
                alive.append(sum(ref() is not None for ref in starts))
                return _f(*args)

            monkeypatch.setattr(module, "gaussian_field", recording)
            monkeypatch.setattr(module, "_descent_round", counting)
        return alive

    def test_scalar_ground_state(self, monkeypatch):
        alive = self.probe(monkeypatch)
        grid = cq.GridSpec(3, 8.0, 16)
        cq.scalar_ground_state(1.0, 1.0, 2.0, 2.0, grid, cq.FlowOptions(max_iters=2))
        assert alive == [0]

    def test_mass_scan(self, monkeypatch):
        alive = self.probe(monkeypatch)
        cq.mass_scan(coupled_params(), cq.GridSpec(3, 8.0, 16), [0.5, 1.0], [0.5, 1.0],
                     cq.FlowOptions(max_iters=2), n_starts=1)
        assert alive == [0, 0, 0, 0]

    def test_scalar_constrained_saddle(self, monkeypatch):
        alive = self.probe(monkeypatch)
        cq.scalar_constrained_saddle(1.1, 60.0, 3.0, 2.0, cq.GridSpec(3, 8.0, 16),
                                     cq.SaddleOptions(max_iters=2), init_width=1.3)
        assert alive and not any(alive)


class TestCachesAfterAnEvenSolve:
    """After a cold even solve of a benchmark model, the ground_state's at
    64^3 or the saddle's at 40^3 (rational-decay coupling), the module
    caches hold two float arrays of the full grid's size, both read by the
    certificate: the convolver's (M+1)^N kernel spectrum and |k|^2 on the
    rfftn layout.  The ground state's rearrangement keeps its int32 order,
    the one index array.  The Gaussian start, the kinetic norm, the order
    and the saddle's radial coupling keep no full-grid |x|^2, shell index or
    weight array."""

    SOLVES = {
        "ground_state": (64, """
g = cq.GridSpec(3, 12.0, 64)
params = cq.ModelParams(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=5.0, mu2=5.0, xi=1.0, eta=1.0,
                        coupling=cq.CouplingSpec("constant", 0.1))
init = cq.StatePair(cq.gaussian_field(g, 1.5, mass=1.0), cq.gaussian_field(g, 1.6, mass=1.0))
rep = cq.minimize_normalized(params, init, cq.FlowOptions(max_iters=800, symmetrize_every=10))
"""),
        "saddle": (40, """
g = cq.GridSpec(3, 10.0, 40)
params = cq.ModelParams(dim=3, alpha=2.0, p=3.0, q=3.0, mu1=60.0, mu2=60.0, xi=1.0, eta=1.0,
                        coupling=cq.CouplingSpec("rational_decay", 0.015, 2.0 / 3.0))
init = cq.StatePair(cq.gaussian_field(g, 1.2), cq.gaussian_field(g, 1.2))
rep = cq.mountain_pass_solve(params, init, cq.SaddleOptions(max_iters=400, grad_tol=1e-5,
                                                            pohozaev_rel_tol=1e-6))
"""),
    }

    WALK = """
assert rep.converged and rep.state.u.values.shape == g.shape
del rep, init
gc.collect()


def arrays(obj, seen):
    if id(obj) in seen or isinstance(obj, type) or callable(obj) and not hasattr(obj, "cache_info"):
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    for ref in gc.get_referents(obj):
        yield from arrays(ref, seen)


cached = {id(f): (m.__name__ + "." + name, f) for m in list(sys.modules.values())
          if m is not None and m.__name__.startswith("choquard")
          for name, f in vars(m).items() if hasattr(f, "cache_info")}
found = sorted({(name, a.shape, str(a.dtype)) for name, f in cached.values()
                for a in arrays(f, set()) if a.size >= g.size // 2})
print(json.dumps(found))
"""

    @pytest.mark.parametrize("workload", ["ground_state", "saddle"])
    def test_only_certificate_arrays_stay_cached(self, workload):
        m, solve = self.SOLVES[workload]
        script = "import gc, json, sys\nimport numpy as np\nimport choquard as cq\n" + solve
        script += self.WALK
        src = str(Path(cq.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        found = {(name.rsplit(".", 1)[1], tuple(shape), dtype)
                 for name, shape, dtype in json.loads(proc.stdout.splitlines()[-1])}
        want = {("build_convolver", (m + 1,) * 3, "float64"),
                ("_k_sq_rfft", (m, m, m // 2 + 1), "float64")}
        if workload == "ground_state":
            want.add(("_shell_order", (m**3,), "int32"))
        assert found == want
