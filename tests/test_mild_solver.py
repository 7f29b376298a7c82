"""Duhamel fixed-point operator, Picard iteration, and the reference stepper."""

import numpy as np
import pytest

from vortexlab.fields import Grid, ScalarField, Trajectory, lp_norm, w11_norm
from vortexlab.heat import heat_evolve
from vortexlab.mild_solver import (
    ContractionFailureError,
    MildSolveConfig,
    apply_T,
    calibrate_horizon,
    continuous_dependence_experiment,
    first_contraction_ratio,
    picard_solve,
    reference_stepper,
    snapshot_norms,
)
from vortexlab.oseen import oseen_dipole
from vortexlab.random_data import smooth_bump, two_mode_vorticity

TWO_PI = 2.0 * np.pi


@pytest.fixture
def g64():
    return Grid(2, 64, TWO_PI)


def dipole(grid, t_init=0.005, sep=None, alpha0=1.0):
    if sep is None:
        sep = grid.box_length / 4.0
    return oseen_dipole(alpha0, sep, grid, t_init)


class TestApplyT:
    def test_zero_everything(self, g64):
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        zero = ScalarField.zeros(g64)
        traj = Trajectory(cfg.times, [zero] * cfg.nt)
        out = apply_T(traj, zero, cfg)
        assert all(np.max(np.abs(s.samples)) == 0.0 for s in out.snapshots)

    def test_zero_flux_reduces_to_heat_evolution(self, g64):
        # a zero input trajectory has zero advective flux, so T returns the
        # bare heat evolution of the initial datum
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        w0 = dipole(g64)
        traj = Trajectory(cfg.times, [ScalarField.zeros(g64)] * cfg.nt)
        out = apply_T(traj, w0, cfg)
        for t, snap in out:
            expect = heat_evolve(w0, t)
            assert np.max(np.abs(snap.samples - expect.samples)) < 1e-12

    def test_successive_difference_scaling(self):
        # the second successive difference of the iteration picks up a
        # sqrt(t0) contraction factor on top of the O(t0) first correction,
        # so it shrinks superlinearly (~ t0^{3/2}) for a smooth datum
        g = Grid(2, 128, 4.0 * np.pi)
        w0 = oseen_dipole(1.0, 4.0, g, 0.15)
        d2s = []
        t0s = [0.01, 0.02, 0.04]
        for t0 in t0s:
            cfg = MildSolveConfig(grid=g, t0=t0, nt=16)
            guess = Trajectory(cfg.times, [heat_evolve(w0, t) for t in cfg.times])
            first = apply_T(guess, w0, cfg)
            second = apply_T(first, w0, cfg)
            d2s.append(
                max(
                    w11_norm(a - b)
                    for a, b in zip(second.snapshots, first.snapshots)
                )
            )
        slope = np.polyfit(np.log(t0s), np.log(d2s), 1)[0]
        assert slope >= 1.4

    def test_wrong_time_lattice_rejected(self, g64):
        zero = ScalarField.zeros(g64)
        # [0, 5e-9] against [0, 1e-9] is within an absolute 1e-8 at every time
        for t0, t_bad in ((0.1, 0.2), (1e-9, 5e-9)):
            cfg = MildSolveConfig(grid=g64, t0=t0, nt=8)
            bad = Trajectory(np.linspace(0.0, t_bad, 8), [zero] * 8)
            with pytest.raises(ValueError, match="config time lattice"):
                apply_T(bad, zero, cfg)


class TestPicardSolve:
    def test_zero_datum_converges_immediately(self, g64):
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        traj, trace = picard_solve(ScalarField.zeros(g64), cfg)
        assert trace.converged and trace.iterations == 1
        assert all(np.max(np.abs(s.samples)) == 0.0 for s in traj.snapshots)

    def test_matches_reference_stepper(self, g64):
        w0 = two_mode_vorticity(g64, 0.05)
        cfg = MildSolveConfig(grid=g64, t0=0.2, nt=16)
        traj, trace = picard_solve(w0, cfg)
        assert trace.converged
        ref = reference_stepper(w0, cfg.t0, cfg.nt)
        rel = max(
            w11_norm(a - b) for a, b in zip(traj.snapshots, ref.snapshots)
        ) / max(w11_norm(s) for s in ref.snapshots)
        assert rel < 5e-3

    def test_equal_mode_pair_is_pure_heat_decay(self, g64):
        # cos x1 + cos x2 is a steady Euler state: the nonlinearity vanishes
        # and the solution is exactly the per-mode heat decay
        eps = 1e-3
        w0 = ScalarField.from_function(
            g64, lambda x, y: eps * (np.cos(x) + np.cos(y))
        )
        cfg = MildSolveConfig(grid=g64, t0=0.5, nt=8)
        traj, trace = picard_solve(w0, cfg)
        assert trace.converged
        for t, snap in traj:
            expect = np.exp(-t) * w0.samples
            assert np.max(np.abs(snap.samples - expect)) < 1e-4 * eps

    def test_dipole_circulation_conserved(self, g64):
        w0 = dipole(g64)
        cfg = MildSolveConfig(grid=g64, t0=0.02, nt=8)
        traj, trace = picard_solve(w0, cfg)
        assert trace.converged
        assert all(abs(s.mean()) < 1e-12 for s in traj.snapshots)
        assert all(snapshot_norms(s)["Linf_v"] < np.inf for s in traj.snapshots)

    def test_noncontracting_horizon_raises(self, g64):
        w0 = dipole(g64, t_init=0.002, sep=np.pi / 4.0, alpha0=60.0)
        cfg = MildSolveConfig(grid=g64, t0=0.5, nt=8, max_iter=12)
        with pytest.raises((ContractionFailureError, ArithmeticError)):
            picard_solve(w0, cfg)


class TestContractionDiagnostics:
    def test_first_ratio_small_for_small_data(self, g64):
        w0 = two_mode_vorticity(g64, 0.05)
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        assert first_contraction_ratio(w0, cfg) < 0.5

    def test_ratio_decreases_with_horizon(self, g64):
        w0 = dipole(g64)
        ratios = [
            first_contraction_ratio(
                w0, MildSolveConfig(grid=g64, t0=t0, nt=8)
            )
            for t0 in (0.04, 0.02, 0.01)
        ]
        assert all(r < 1.0 for r in ratios)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_calibrate_horizon_contracts(self, g64):
        w0 = two_mode_vorticity(g64, 0.2)
        t0, ratio = calibrate_horizon(w0, g64, t_max=0.5)
        assert 0.0 < t0 <= 0.5
        assert ratio <= 0.5


class TestReferenceStepper:
    def test_linear_regime_matches_heat_decay(self, g64):
        eps = 1e-4
        w0 = two_mode_vorticity(g64, eps)
        traj = reference_stepper(w0, 0.5, 9)
        for t, snap in traj:
            expect = heat_evolve(w0, t)
            # nonlinear correction is O(eps^2), i.e. O(eps) relative
            assert np.max(np.abs(snap.samples - expect.samples)) < 1e-4 * eps

    def test_mean_conserved_exactly(self, g64):
        w0 = dipole(g64)
        traj = reference_stepper(w0, 0.05, 9)
        assert all(abs(s.mean()) < 1e-13 for s in traj.snapshots)

    def test_enstrophy_nonincreasing(self, g64):
        w0 = dipole(g64)
        traj = reference_stepper(w0, 0.05, 9)
        ens = [lp_norm(s, 2) ** 2 for s in traj.snapshots]
        assert all(b <= a * (1.0 + 1e-10) for a, b in zip(ens, ens[1:]))


class TestContinuousDependence:
    def test_zero_perturbation(self, g64):
        w0 = two_mode_vorticity(g64, 0.05)
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        rep = continuous_dependence_experiment(w0, [ScalarField.zeros(g64)], cfg)
        assert rep["rows"][0]["output_w11"] == 0.0
        assert rep["slope"] is None

    def test_linear_response_slope(self, g64):
        w0 = two_mode_vorticity(g64, 0.05)
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8, tol=1e-11)
        bump = smooth_bump(g64)
        perts = [bump * eps for eps in (1e-2, 1e-3, 1e-4)]
        rep = continuous_dependence_experiment(w0, perts, cfg)
        assert rep["slope"] == pytest.approx(1.0, abs=0.1)

    def test_proportional_perturbation_ratio_bounded(self, g64):
        w0 = two_mode_vorticity(g64, 0.05)
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8, tol=1e-11)
        perts = [w0 * eps for eps in (1e-2, 1e-3)]
        rep = continuous_dependence_experiment(w0, perts, cfg)
        ratios = [r["ratio"] for r in rep["rows"]]
        assert max(ratios) < 10.0 * min(ratios)


class TestSnapshotNorms:
    def test_report_column_order(self, g64):
        assert list(snapshot_norms(dipole(g64))) == ["L1", "W11", "Linf_v", "L2_gradv"]

    def test_overflowing_norm_rejected(self):
        # finite samples whose squared gradient sums past the float range
        w = two_mode_vorticity(Grid(2, 16, TWO_PI), 1e153)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError,
                               match="norm 'L2_gradv' must be finite and >= 0, got inf"):
                snapshot_norms(w)


class TestConfigValidation:
    def test_bad_config(self, g64):
        with pytest.raises(ValueError):
            MildSolveConfig(grid=g64, t0=0.0)
        with pytest.raises(ValueError):
            MildSolveConfig(grid=g64, t0=0.1, nt=4)
        with pytest.raises(ValueError):
            MildSolveConfig(grid=g64, t0=0.1, tol=0.0)
