"""Duhamel fixed-point operator, Picard iteration, and the reference stepper."""

import numpy as np
import pytest

from vortexlab import fields, mild_solver
from vortexlab.biot_savart import CirculationObstructionError, velocity_from_vorticity_2d
from vortexlab.fields import (Grid, ScalarField, Trajectory, _magnitude, gradient, lp_norm,
                              w11_norm)
from vortexlab.heat import etd_weights, heat_evolve
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
    solution_norms,
)
from vortexlab.oseen import oseen_dipole
from vortexlab.random_data import smooth_bump, two_mode_vorticity
from test_fields import traced_peak

TWO_PI = 2.0 * np.pi


def jacobian_magnitude(v):
    """Pointwise Frobenius magnitude of the gradient tensor of v, from the
    field-layer derivatives."""
    return ScalarField(v.grid, _magnitude(
        d.samples for c in v.components for d in gradient(c).components))


@pytest.fixture
def g64():
    return Grid(2, 64, TWO_PI)


def zeros(grid, count):
    return ScalarField(grid, np.zeros((count,) + grid.shape))


def heat_guess(w0, cfg):
    """The first Picard iterate's input: exp(t Lap) w0 at each time of the lattice."""
    return Trajectory(cfg.times, heat_evolve(w0, cfg.times))


def dipole(grid, t_init=0.005, sep=None, alpha0=1.0):
    if sep is None:
        sep = grid.box_length / 4.0
    return oseen_dipole(alpha0, sep, grid, t_init)


class TestApplyT:
    def test_zero_everything(self, g64):
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        zero = ScalarField.zeros(g64)
        out = apply_T(Trajectory(cfg.times, zeros(g64, cfg.nt)), zero, cfg)
        assert all(np.max(np.abs(s.samples)) == 0.0 for s in out.snapshots)

    def test_zero_flux_reduces_to_heat_evolution(self, g64):
        # a zero input trajectory has zero advective flux, so T returns the
        # bare heat evolution of the initial datum
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        w0 = dipole(g64)
        out = apply_T(Trajectory(cfg.times, zeros(g64, cfg.nt)), w0, cfg)
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
            first = apply_T(heat_guess(w0, cfg), w0, cfg)
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
            bad = Trajectory(np.linspace(0.0, t_bad, 8), zeros(g64, 8))
            with pytest.raises(ValueError, match="config time lattice"):
                apply_T(bad, zero, cfg)


def block_bytes_for(grid, snapshots):
    """BLOCK_BYTES that puts `snapshots` snapshots in each block of apply_T,
    whose batched inverse takes w and v: three spectra per snapshot."""
    return snapshots * 3 * np.empty(grid.spectral_shape, dtype=np.complex128).nbytes


def per_snapshot_apply_T(omega_traj, omega0, cfg):
    """apply_T one snapshot at a time, its flux through velocity_from_vorticity_2d."""
    g = cfg.grid

    def flux(w):
        v = velocity_from_vorticity_2d(w)
        div = sum(1j * g.deriv_wavenumber(a) * np.fft.rfftn(c.samples * w.samples)
                  for a, c in enumerate(v.components))
        return np.where(g.dealias_mask(), -div, 0.0)

    e, w_old, w_new = etd_weights(g.ksq(), cfg.times[1] - cfg.times[0])
    out = [omega0.spectrum()]
    d_prev = flux(omega_traj.snapshots[0])
    for snap in omega_traj.snapshots[1:]:
        d_next = flux(snap)
        out.append(e * out[-1] + w_old * d_prev + w_new * d_next)
        d_prev = d_next
    return np.array(out)


class TestBlockedPath:
    def test_block_size_leaves_solve_bitwise_unchanged(self, g64, monkeypatch):
        w0 = dipole(g64)
        cfg = MildSolveConfig(grid=g64, t0=0.02, nt=16)
        solves = []
        # one snapshot per block, then all nt in one block (the norms take nine spectra each)
        for block_bytes in (1, 3 * block_bytes_for(g64, cfg.nt)):
            monkeypatch.setattr(fields, "BLOCK_BYTES", block_bytes)
            traj, trace = picard_solve(w0, cfg)
            norms = {k: v.tolist() for k, v in snapshot_norms(traj.field).items()}
            solves.append((traj.field.spectrum(), trace, norms))
        (a, trace_a, norms_a), (b, trace_b, norms_b) = solves
        assert trace_a.converged and trace_a.iterations > 2
        assert np.array_equal(a, b)
        assert trace_a == trace_b
        assert norms_a == norms_b

    def test_heat_guess_is_the_heat_semigroup(self, g64):
        w0 = dipole(g64)
        cfg = MildSolveConfig(grid=g64, t0=0.05, nt=8)
        expect = [heat_evolve(w0, t).spectrum() for t in cfg.times]
        assert np.array_equal(heat_guess(w0, cfg).field.spectrum(), expect)

    def test_stacked_apply_T_matches_per_snapshot_loop(self, g64):
        w0 = two_mode_vorticity(g64, 0.05)
        cfg = MildSolveConfig(grid=g64, t0=0.2, nt=16)
        first = apply_T(heat_guess(w0, cfg), w0, cfg)
        got = apply_T(first, w0, cfg).field.spectrum()
        expect = per_snapshot_apply_T(first, w0, cfg)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_transform_calls_track_blocks_not_snapshots(self, g64, monkeypatch):
        w0 = dipole(g64)
        w0.spectrum()
        counts = []
        for nt, snapshots in ((32, 4), (64, 8)):
            cfg = MildSolveConfig(grid=g64, t0=0.01, nt=nt)
            guess = heat_guess(w0, cfg)
            monkeypatch.setattr(fields, "BLOCK_BYTES", block_bytes_for(g64, snapshots))
            calls = []
            for name in ("rfftn", "irfftn"):
                def counted(*args, _fn=getattr(np.fft, name), **kwargs):
                    calls.append(1)
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(np.fft, name, counted)
            apply_T(guess, w0, cfg)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1] == 3 * 8  # w, v and the flux of each block

    @pytest.mark.parametrize("bad", [0, 5, 7])
    def test_nonzero_mean_snapshot_in_a_block_rejected(self, g64, bad):
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        w0 = two_mode_vorticity(g64, 0.05)
        spectra = heat_guess(w0, cfg).field.spectrum().copy()
        spectra[bad, 0, 0] += 0.5 * g64.n**2  # a mean of 0.5
        traj = Trajectory(cfg.times, ScalarField.from_spectrum(g64, spectra))
        for run in (lambda: apply_T(traj, w0, cfg), lambda: snapshot_norms(traj.field)):
            with pytest.raises(CirculationObstructionError, match=f"vorticity {bad} of 8 has"):
                run()

    @pytest.mark.parametrize("bad", [0, 5, 7])
    def test_nonfinite_snapshot_in_a_block_rejected(self, g64, bad):
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        w0 = two_mode_vorticity(g64, 0.05)
        spectra = heat_guess(w0, cfg).field.spectrum().copy()
        spectra[bad, 1, 1] = np.nan
        with pytest.raises(ValueError, match="field spectrum must be finite"):
            ScalarField.from_spectrum(g64, spectra)
        # finite, but its flux overflows
        spectra[bad] = heat_guess(w0, cfg).field.spectrum()[bad] * 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArithmeticError, match="non-finite values in Duhamel term"):
                apply_T(Trajectory(cfg.times, ScalarField.from_spectrum(g64, spectra)), w0, cfg)

    def test_panel_weights_built_once_per_grid_and_step(self, g64, monkeypatch):
        built = []
        monkeypatch.setattr(mild_solver, "etd_weights",
                            lambda *args: built.append(args) or etd_weights(*args))
        mild_solver._panel_weights.cache_clear()
        cfg = MildSolveConfig(grid=g64, t0=0.1, nt=8)
        w0 = two_mode_vorticity(g64, 0.05)
        _traj, trace = picard_solve(w0, cfg)
        assert trace.iterations > 1 and len(built) == 1
        e, w_old, w_new = mild_solver._panel_weights(g64, cfg.times[1] - cfg.times[0])
        assert not (e.flags.writeable or w_old.flags.writeable or w_new.flags.writeable)


def apply_T_solve(w0, cfg):
    """picard_solve written as a loop of apply_T, with spectrally differenced
    W11 norms: (final trajectory, sup_w11 list, diff_w11 list)."""
    current, sup, diff = heat_guess(w0, cfg), [], []
    for _ in range(cfg.max_iter):
        nxt = apply_T(current, w0, cfg)
        sup.append(max(w11_norm(nxt.field).tolist()))
        diff.append(max(w11_norm(nxt.field - current.field).tolist()))
        current = nxt
        if diff[-1] < cfg.tol:
            break
    return current, sup, diff


class TestInPlaceSweeps:
    @pytest.mark.parametrize("family", ["two-mode", "dipole"])
    def test_solve_matches_an_apply_T_loop(self, g64, family):
        w0, t0 = {"two-mode": (two_mode_vorticity(g64, 0.05), 0.2),
                  "dipole": (dipole(g64), 0.02)}[family]
        cfg = MildSolveConfig(grid=g64, t0=t0, nt=16)
        traj, trace = picard_solve(w0, cfg)
        expect, sup, diff = apply_T_solve(w0, cfg)
        assert trace.converged and trace.iterations == len(sup) > 2
        assert traj.field._samples is None  # the solve's sample buffers are not kept
        assert traj.field.spectrum().tobytes() == expect.field.spectrum().tobytes()
        assert trace.sup_w11 == sup
        # differenced from samples, not spectra: equal up to roundoff of the iterate's size
        assert all(abs(a - b) <= 1e-12 * s for a, b, s in zip(trace.diff_w11, diff, sup))
        got, want = snapshot_norms(traj.field), snapshot_norms(expect.field)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    def test_first_contraction_ratio_is_the_solves_first_ratio(self, g64):
        w0 = dipole(g64)
        cfg = MildSolveConfig(grid=g64, t0=0.02, nt=16)
        _traj, trace = picard_solve(w0, cfg)
        assert first_contraction_ratio(w0, cfg) == trace.ratios[0]
        assert trace.ratios[0] == trace.diff_w11[1] / trace.diff_w11[0]

    def test_transformed_planes(self, g64, monkeypatch):
        # the guess samples (w, d1 w, d2 w); a sweep samples v and the new
        # (w, d1 w, d2 w), and transforms the two flux components forward
        w0 = dipole(g64)
        w0.spectrum()
        cfg = MildSolveConfig(grid=g64, t0=0.02, nt=16)
        planes = {}
        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                planes[_name] = planes.get(_name, 0) + int(np.prod(np.shape(a)[:-2]))
                return _fn(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        _traj, trace = picard_solve(w0, cfg)
        monkeypatch.undo()
        assert trace.iterations > 2
        assert planes == {"irfftn": (3 + 5 * trace.iterations) * cfg.nt,
                          "rfftn": 2 * trace.iterations * cfg.nt}


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

    def test_long_horizon_keeps_the_datums_roundoff_mean(self):
        # the iterates carry w0's roundoff mean bitwise while the rest decays
        # like e^-100: Biot-Savart does not read it, so it is not judged
        grid = Grid(2, 16, TWO_PI)
        w0 = two_mode_vorticity(grid, 0.05)
        cfg = MildSolveConfig(grid=grid, t0=100.0, nt=8)
        traj, trace = picard_solve(w0, cfg)
        assert trace.converged and w0.spectrum()[0, 0] != 0
        assert np.all(traj.field.spectrum()[:, 0, 0] == w0.spectrum()[0, 0])
        assert all(np.all(np.isfinite(v)) for v in solution_norms(traj, trace).values())

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

    @pytest.mark.parametrize("amplitude", [1e160, 1e200, 1e300])
    def test_overflowing_magnitude_names_its_norm(self, amplitude):
        # the pointwise gradient magnitude itself overflows
        w = two_mode_vorticity(Grid(2, 16, TWO_PI), amplitude)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="norm 'W11' must be finite and >= 0, got inf"):
                snapshot_norms(w)

    @pytest.mark.parametrize("family", ["two-mode", "dipole"])
    def test_solution_norms_equal_snapshot_norms_bitwise(self, monkeypatch, family):
        # the criterion-3 pair: the trace's L1 and W11 come from the last sweep
        grid = Grid(2, 64, 2.5 if family == "dipole" else TWO_PI)
        w0, t0 = {"two-mode": (two_mode_vorticity(grid, 0.05), 0.2),
                  "dipole": (oseen_dipole(1.0, 0.6, grid, 0.002), 0.016)}[family]
        traj, trace = picard_solve(w0, MildSolveConfig(grid=grid, t0=t0, nt=32, tol=1e-10))
        assert trace.converged and trace.w11 and max(trace.w11) == trace.sup_w11[-1]
        want = snapshot_norms(traj.field)
        sampled = []
        irfftn = np.fft.irfftn
        monkeypatch.setattr(np.fft, "irfftn", lambda a, *args, **kwargs:
                            sampled.append(a.shape[:-2]) or irfftn(a, *args, **kwargs))
        got = solution_norms(traj, trace)
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        # v and its gradient only: 6 planes per snapshot
        assert sum(np.prod(shape) for shape in sampled) == 6 * len(traj)

    @pytest.mark.parametrize("family", ["two-mode", "dipole"])
    def test_solution_norms_hold_one_block(self, family):
        # the criterion-3 pair at n 64: Biot-Savart and v, grad v are taken one
        # block at a time, so the report holds no stack the size of the trajectory
        grid = Grid(2, 64, 2.5 if family == "dipole" else TWO_PI)
        w0, t0 = {"two-mode": (two_mode_vorticity(grid, 0.05), 0.2),
                  "dipole": (oseen_dipole(1.0, 0.6, grid, 0.002), 0.016)}[family]
        traj, trace = picard_solve(w0, MildSolveConfig(grid=grid, t0=t0, nt=32, tol=1e-10))
        solution_norms(traj, trace)  # the grid's cached multipliers are not the report's
        assert traj.field.spectrum().nbytes > 2**20
        assert traced_peak(lambda: solution_norms(traj, trace)) <= 2.0 * 2**20

    def test_stack_rows_match_the_field_layer_norms(self, g64):
        traj, _trace = picard_solve(dipole(g64), MildSolveConfig(grid=g64, t0=0.02, nt=8))
        expect = []
        for w in traj.snapshots:
            v = velocity_from_vorticity_2d(w)
            expect.append({"L1": lp_norm(w, 1), "W11": w11_norm(w), "Linf_v": lp_norm(v, np.inf),
                           "L2_gradv": lp_norm(jacobian_magnitude(v), 2)})
        got = snapshot_norms(traj.field)
        assert [dict(zip(got, row)) for row in zip(*(v.tolist() for v in got.values()))] == expect


class TestConfigValidation:
    def test_bad_config(self, g64):
        with pytest.raises(ValueError):
            MildSolveConfig(grid=g64, t0=0.0)
        with pytest.raises(ValueError):
            MildSolveConfig(grid=g64, t0=0.1, nt=4)
        with pytest.raises(ValueError):
            MildSolveConfig(grid=g64, t0=0.1, tol=0.0)
        with pytest.raises(ValueError, match="the mild solver is 2D"):
            MildSolveConfig(grid=Grid(3, 8, TWO_PI), t0=0.1)
