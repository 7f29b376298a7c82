"""Wave propagator, admissibility predicate, and mixed-norm ratio suite."""

import numpy as np
import pytest

from vortexlab import random_data
from vortexlab.fields import (
    Grid,
    ScalarField,
    VectorField,
    divergence,
    hs_norm,
    lp_norm,
    spectral_refine,
)
from vortexlab.maxwell_wave import (
    CurrentDensity,
    HarmonicCurrentDensity,
    StrichartzExponents,
    fractional_laplacian,
    solve_wave,
    source_gradient_l1,
    strichartz_admissible,
    strichartz_ratio_experiment,
    strichartz_sides,
    wave_energy,
    wave_weights,
)
from vortexlab.heat import SERIES_Z
from vortexlab.random_data import random_vector_field, wave_fixture_family

TWO_PI = 2.0 * np.pi


@pytest.fixture
def g16():
    return Grid(3, 16, TWO_PI)


def single_mode_b(grid):
    x = grid.meshgrid()[0]
    return VectorField([
        ScalarField.zeros(grid),
        ScalarField(grid, np.cos(x)),
        ScalarField.zeros(grid),
    ])


class TestAdmissibility:
    def test_reference_tuple_admissible(self):
        ok, reasons = strichartz_admissible(
            StrichartzExponents(4.0, 4.0, 4.0, 0.5, 0.75)
        )
        assert ok and reasons == []

    def test_compatibility_violation_named(self):
        ok, reasons = strichartz_admissible(
            StrichartzExponents(2.0, 4.0, 4.0, 0.75, 1.0)
        )
        assert not ok
        assert any("wave compatibility" in r for r in reasons)

    def test_q_tilde_range_violation_named(self):
        ok, reasons = strichartz_admissible(
            StrichartzExponents(4.0, 4.0, 2.0, 0.5, 0.25)
        )
        assert not ok
        assert any("2 < q_tilde" in r for r in reasons)

    @pytest.mark.parametrize("q, r, q_tilde, named", [
        (0.0, 4.0, 4.0, "q must satisfy 2 <= q"),
        (4.0, 0.0, 4.0, "r must satisfy 2 <= r"),
        (4.0, 4.0, 1.0, "q_tilde must satisfy 2 < q_tilde"),
        (4.0, 4.0, 0.0, "q_tilde must satisfy 2 < q_tilde"),
    ])
    def test_zero_divisor_range_violation_named(self, q, r, q_tilde, named):
        ok, reasons = strichartz_admissible(StrichartzExponents(q, r, q_tilde, 0.5, 0.75))
        assert not ok
        assert len(reasons) == 1 and named in reasons[0]

    def test_infinite_exponents_allowed(self):
        # q = q_tilde = inf: 1/q = 0, dual exponent 1
        e = StrichartzExponents(np.inf, 6.0, np.inf, 1.0, 1.5)
        ok, reasons = strichartz_admissible(e)
        assert ok, reasons

    def test_scale_invariance_violation_named(self):
        ok, reasons = strichartz_admissible(
            StrichartzExponents(4.0, 4.0, 4.0, 0.5, 0.5)
        )
        assert not ok
        assert any("scale invariance" in r for r in reasons)


class TestHomogeneousPropagator:
    def test_single_mode_cosine_in_time(self, g16):
        B0 = single_mode_b(g16)
        zero = VectorField.zeros(g16)
        traj_b, _ = solve_wave(B0, zero, None, np.pi, 33)
        for t, b in traj_b:
            expect = np.cos(t) * B0.components[1].samples
            assert np.max(np.abs(b.components[1].samples - expect)) < 1e-12

    def test_energy_conserved(self, g16):
        rng = np.random.default_rng(9)
        B0 = random_vector_field(g16, rng)
        B1 = random_vector_field(g16, rng)
        traj_b, traj_bt = solve_wave(B0, B1, None, np.pi / 2, 17)
        es = [
            wave_energy(b, bt)
            for (_, b), (_, bt) in zip(traj_b, traj_bt)
        ]
        assert (max(es) - min(es)) / max(es) < 1e-8

    def test_time_reversal(self, g16):
        rng = np.random.default_rng(10)
        B0 = random_vector_field(g16, rng)
        B1 = random_vector_field(g16, rng)
        fwd_b, fwd_bt = solve_wave(B0, B1, None, 0.7, 9)
        tb, tbt = fwd_b.snapshots[-1], fwd_bt.snapshots[-1]
        back_b, _ = solve_wave(tb, tbt * (-1.0), None, 0.7, 9)
        final = back_b.snapshots[-1]
        for a, c in zip(final.components, B0.components):
            assert np.max(np.abs(a.samples - c.samples)) < 1e-12


class TestForcedSolve:
    def test_constant_current_closed_form(self, g16):
        # j = (0, 0, cos x1) gives B = (0, (1 - cos t) sin x1, 0)
        x = g16.meshgrid()[0]
        j = CurrentDensity(
            g16,
            lambda t: VectorField([
                ScalarField.zeros(g16),
                ScalarField.zeros(g16),
                ScalarField(g16, np.cos(x)),
            ]),
        )
        zero = VectorField.zeros(g16)
        traj_b, _ = solve_wave(zero, zero, j, np.pi / 2, 128)
        err = 0.0
        for t, b in traj_b:
            expect = (1.0 - np.cos(t)) * np.sin(x)
            err = max(err, np.max(np.abs(b.components[1].samples - expect)))
            err = max(err, np.max(np.abs(b.components[0].samples)))
            err = max(err, np.max(np.abs(b.components[2].samples)))
        assert err < 1e-6

    def test_divergence_preserved(self, g16):
        rng = np.random.default_rng(12)
        from vortexlab.biot_savart import leray_project

        B0 = leray_project(random_vector_field(g16, rng))
        B1 = leray_project(random_vector_field(g16, rng))
        j = HarmonicCurrentDensity(
            random_vector_field(g16, rng), random_vector_field(g16, rng), 1.3
        )
        traj_b, _ = solve_wave(B0, B1, j, np.pi / 2, 17)
        for _, b in traj_b:
            assert lp_norm(divergence(b), 2) <= 1e-10 * max(lp_norm(b, 2), 1e-300)

    def test_harmonic_source_self_convergence(self, g16):
        (B0, B1, j, _), = wave_fixture_family(g16, seed=7, count=1)
        coarse = solve_wave(B0, B1, j, np.pi / 2, 33)[0].snapshots[-1]
        fine = solve_wave(B0, B1, j, np.pi / 2, 65)[0].snapshots[-1]
        num = max(
            np.max(np.abs(a.samples - b.samples))
            for a, b in zip(coarse.components, fine.components)
        )
        den = max(np.max(np.abs(c.samples)) for c in fine.components)
        assert num < 5e-3 * den

    def test_input_validation(self, g16):
        zero = VectorField.zeros(g16)
        with pytest.raises(ValueError):
            solve_wave(zero, zero, None, 0.0, 8)
        with pytest.raises(ValueError):
            solve_wave(zero, zero, None, 1.0, 1)


def cos2x_e3(grid):
    """The field (0, 0, cos 2x1), whose curl is (0, 2 sin 2x1, 0)."""
    x = grid.meshgrid()[0]
    return VectorField([ScalarField.zeros(grid), ScalarField.zeros(grid),
                        ScalarField(grid, np.cos(2.0 * x))])


class TestPanelRecurrence:
    def test_series_and_closed_form_agree_at_threshold(self):
        x = np.array([np.nextafter(np.sqrt(SERIES_Z), 0.0), np.nextafter(np.sqrt(SERIES_Z), 1.0)])
        assert x[0] ** 2 < SERIES_Z <= x[1] ** 2  # series, closed form
        for weights in wave_weights(x, 1.0):
            assert abs(weights[0] - weights[1]) <= 1e-13 * abs(weights[1])

    def test_zero_mode_weights(self):
        dt = 0.3
        weights = wave_weights(np.zeros(1), dt)
        expect = (1.0, dt, dt**2 / 2, dt**2 / 3, dt / 2)  # kernel t - s
        for w, e in zip(weights, expect):
            assert w[0] == pytest.approx(e, rel=1e-15)

    def test_second_order_in_dt(self, g16):
        # j = (0, 0, cos 2x cos 3t): curl j = (0, 2 sin 2x cos 3t, 0), so from
        # rest B_y = 2 (cos 3t - cos 2t) / (4 - 9) sin 2x exactly
        x = g16.meshgrid()[0]
        zero = VectorField.zeros(g16)
        j = HarmonicCurrentDensity(cos2x_e3(g16), zero, 3.0)
        T = np.pi / 2
        exact = 2.0 * (np.cos(3 * T) - np.cos(2 * T)) / (4.0 - 9.0) * np.sin(2.0 * x)
        errs = []
        for nt in (17, 33, 65):
            b = solve_wave(zero, zero, j, T, nt)[0].snapshots[-1]
            errs.append(np.max(np.abs(b.components[1].samples - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9) and np.all(orders < 2.1)

    def test_linear_in_time_source_exact(self, g16):
        # j = (0, 0, t cos 2x): curl j = (0, 2t sin 2x, 0) is its own linear
        # interpolant, so from rest B_y = (t/2 - sin(2t)/4) sin 2x to roundoff
        x = g16.meshgrid()[0]
        j_field = cos2x_e3(g16)
        j = CurrentDensity(g16, lambda t: j_field * t)
        zero = VectorField.zeros(g16)
        traj_b, traj_bt = solve_wave(zero, zero, j, np.pi / 2, 9)
        for (t, b), (_, bt) in zip(traj_b, traj_bt):
            by = (t / 2 - np.sin(2 * t) / 4) * np.sin(2.0 * x)
            bty = (1 - np.cos(2 * t)) / 2 * np.sin(2.0 * x)
            assert np.max(np.abs(b.components[1].samples - by)) < 1e-14
            assert np.max(np.abs(bt.components[1].samples - bty)) < 1e-14

    def test_means_move_ballistically(self, g16):
        # the zero mode obeys B_tt = 0 (curl j has no mean): mean B = m0 + t m1
        rng = np.random.default_rng(5)
        m0, m1 = (1.0, -2.0, 0.5), (0.3, 0.7, -1.1)
        B0, B1 = (
            VectorField([c + ScalarField(g16, np.full(g16.shape, m))
                         for c, m in zip(random_vector_field(g16, rng).components, means)])
            for means in (m0, m1)
        )
        j = HarmonicCurrentDensity(random_vector_field(g16, rng), random_vector_field(g16, rng), 1.3)
        traj_b, traj_bt = solve_wave(B0, B1, j, np.pi / 2, 17)
        for (t, b), (_, bt) in zip(traj_b, traj_bt):
            for a in range(3):
                assert abs(b.components[a].mean() - (m0[a] + t * m1[a])) < 1e-13
                assert abs(bt.components[a].mean() - m1[a]) < 1e-13


class TestFractionalLaplacian:
    def test_single_mode_multiplier(self, g16):
        x = g16.meshgrid()[0]
        f = ScalarField(g16, np.cos(2.0 * x))
        out = fractional_laplacian(f, 0.5)
        assert np.max(np.abs(out.samples - np.sqrt(2.0) * f.samples)) < 1e-12

    def test_negative_power_needs_mean_zero(self, g16):
        f = ScalarField(g16, np.ones(g16.shape))
        with pytest.raises(ValueError):
            fractional_laplacian(f, -0.5)


class TestSourceGradientL1:
    def test_harmonic_fast_path_matches_generic(self, g16):
        rng = np.random.default_rng(3)
        j_cos = random_vector_field(g16, rng)
        j_sin = random_vector_field(g16, rng)
        fast = HarmonicCurrentDensity(j_cos, j_sin, 0.9)
        generic = CurrentDensity(g16, fast.evaluate)
        for n_eval in (None, 24, 32):  # own grid, then two evaluation grids
            for t in (0.0, 0.4, 1.1):
                a = source_gradient_l1(fast, t, 0.75, n_eval)
                b = source_gradient_l1(generic, t, 0.75, n_eval)
                assert a == pytest.approx(b, rel=1e-12)

    def test_planes_cached_per_evaluation_grid(self, g16):
        rng = np.random.default_rng(6)
        j_cos, j_sin = random_vector_field(g16, rng), random_vector_field(g16, rng)
        j = HarmonicCurrentDensity(j_cos, j_sin, 0.9)
        own = j.smoothed_gradient_planes(0.75)
        fine = j.smoothed_gradient_planes(0.75, 32)
        assert own[0].shape == g16.shape and fine[0].shape == (32, 32, 32)
        assert j.smoothed_gradient_planes(0.75, 16) is own
        assert j.smoothed_gradient_planes(0.75, 32) is fine

    def test_three_plane_norm_at_cancellation(self, g16):
        # j_sin = j_cos at sigma t = 3 pi/4: cos + sin, and so the true
        # magnitude, is roundoff, while each of the three planes is O(1)
        rng = np.random.default_rng(4)
        j = random_vector_field(g16, rng)
        fast = HarmonicCurrentDensity(j, j, 1.0)
        generic = CurrentDensity(g16, fast.evaluate)
        t = 0.75 * np.pi
        got = source_gradient_l1(fast, t, 0.75)
        assert np.isfinite(got) and got >= 0.0
        scale = source_gradient_l1(fast, 0.0, 0.75)
        assert abs(got - source_gradient_l1(generic, t, 0.75)) <= 1e-12 * scale

    def test_norm_near_cancellation_keeps_relative_accuracy(self, g16):
        # j_sin = j_cos + 1e-8 d at sigma t = 3 pi/4: a Ta + b Tb is about
        # 1e-8 of either part, and not cancelled bitwise
        rng = np.random.default_rng(0)
        j_cos, d = random_vector_field(g16, rng), random_vector_field(g16, rng)
        fast = HarmonicCurrentDensity(j_cos, j_cos + d * 1e-8, 1.0)
        generic = CurrentDensity(g16, fast.evaluate)
        t = 0.75 * np.pi
        assert source_gradient_l1(fast, t, 0.75) == pytest.approx(
            source_gradient_l1(generic, t, 0.75), rel=1e-6)


class TestRatioSuite:
    EXPONENTS = StrichartzExponents(4.0, 4.0, 4.0, 0.5, 0.75)

    def test_single_mode_regression_oracle(self, g16):
        # homogeneous fixture B0 = cos(x1) e2, |k| = 1: closed forms
        #   |B(t)|_{L4} = |cos t| (3 pi/4 (2pi)^2)^{1/4}
        #   hs(B, s) = |cos t| 2 pi sqrt(pi) for any s (single unit mode)
        #   hs(Bt, s-1) = |sin t| 2 pi sqrt(pi)
        B0 = single_mode_b(g16)
        zero = VectorField.zeros(g16)
        T, nt = np.pi / 2.0, 129
        lhs, rhs = strichartz_sides(self.EXPONENTS, B0, zero, None, T, nt)
        c4 = (0.75 * np.pi * TWO_PI**2) ** 0.25
        time_l4 = (3.0 * np.pi / 16.0) ** 0.25  # int_0^{pi/2} cos^4
        sup = 2.0 * np.pi * np.sqrt(np.pi)
        assert rhs == pytest.approx(sup, rel=1e-10)
        assert lhs == pytest.approx(c4 * time_l4 + 2.0 * sup, rel=5e-3)

    def test_zero_fixture_discarded(self, g16):
        zero = VectorField.zeros(g16)
        j0 = HarmonicCurrentDensity(zero, zero, 1.0)
        rep = strichartz_ratio_experiment(
            self.EXPONENTS, [(zero, zero, j0, None)], np.pi / 2, 9
        )
        assert rep["discarded"] == 1 and rep["rows"] == []

    def test_single_time_sample_rejected(self, g16):
        # the time step T/(nt-1) is taken only after wave_steps has checked nt
        zero = VectorField.zeros(g16)
        with pytest.raises(ValueError, match="nt must be >= 2"):
            strichartz_sides(self.EXPONENTS, single_mode_b(g16), zero, None, 1.0, 1)

    def test_inadmissible_exponents_rejected(self, g16):
        zero = VectorField.zeros(g16)
        bad = StrichartzExponents(4.0, 4.0, 2.0, 0.5, 0.25)
        with pytest.raises(ValueError, match="inadmissible"):
            strichartz_ratio_experiment(bad, [], 1.0, 9)

    def test_family_refinement_smoke(self):
        g = Grid(3, 16, TWO_PI)
        reports = []
        for n_eval in (16, 32):
            fixtures = wave_fixture_family(g, seed=4, count=2, n_eval=n_eval)
            rep = strichartz_ratio_experiment(
                self.EXPONENTS, fixtures, np.pi / 2, 17
            )
            reports.append(rep)
        a, b = (r["family_max"] for r in reports)
        assert abs(b - a) < 0.1 * a
        assert reports[0]["time_horizon_restriction"].startswith("T <= L/4")


class TestBandLatticeStepping:
    """strichartz_sides steps a triple on its own grid and refines only what
    the physical-space norms sample; the reference steps the refined triple,
    with its current wrapped as a generic CurrentDensity."""

    EXPONENTS = StrichartzExponents(4.0, 4.0, 4.0, 0.5, 0.75)

    @pytest.mark.parametrize("n", [10, 16])
    def test_padded_triple_matches_full_grid(self, n):
        rng = np.random.default_rng(n)
        g = Grid(3, n, TWO_PI)
        B0, B1, j_cos, j_sin = (random_vector_field(g, rng) for _ in range(4))
        j = HarmonicCurrentDensity(j_cos, j_sin, 1.3)
        T = TWO_PI / 4.0
        got = strichartz_sides(self.EXPONENTS, B0, B1, j, T, 17, 32)
        fine = Grid(3, 32, TWO_PI)
        padded_j = CurrentDensity(fine, lambda t: spectral_refine(j.evaluate(t), 32))
        full = strichartz_sides(self.EXPONENTS, spectral_refine(B0, 32),
                                spectral_refine(B1, 32), padded_j, T, 17)
        assert got == pytest.approx(full, rel=1e-12)


class TestFixtureFamily:
    def test_deterministic(self, g16):
        a = wave_fixture_family(g16, seed=2, count=2)
        b = wave_fixture_family(g16, seed=2, count=2)
        for (a0, a1, ja, _), (b0, b1, jb, _) in zip(a, b):
            assert np.array_equal(
                a0.components[0].samples, b0.components[0].samples
            )
            assert ja.sigma == jb.sigma

    def test_2d_grid_rejected(self):
        with pytest.raises(ValueError):
            wave_fixture_family(Grid(2, 16, TWO_PI), seed=0, count=1)

    def test_members_built_when_reached(self, g16, monkeypatch):
        drawn = []
        draw = random_data.random_vector_field
        monkeypatch.setattr(random_data, "random_vector_field",
                            lambda *args: drawn.append(1) or draw(*args))
        family = wave_fixture_family(g16, seed=2, count=3, n_eval=32)
        assert drawn == []
        next(iter(family))
        assert len(drawn) == 4

    def test_member_stays_on_its_grid_and_carries_n_eval(self, g16):
        B0, B1, j, n_eval = wave_fixture_family(g16, seed=2, count=1, n_eval=32)[0]
        assert B0.grid == B1.grid == j.grid == j.j_cos.grid == j.j_sin.grid == g16
        assert n_eval == 32

    @pytest.mark.parametrize("n_eval", [17, 8])  # odd, and coarser than n = 16
    def test_bad_n_eval_rejected_at_the_call(self, g16, n_eval):
        with pytest.raises(ValueError, match="n_eval must be even and >= n = 16"):
            wave_fixture_family(g16, seed=0, count=1, n_eval=n_eval)
