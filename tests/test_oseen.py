"""Closed-form vortex profiles, the dipole datum, and t^{-1/2} scaling."""

import warnings

import numpy as np
import pytest

from vortexlab.biot_savart import velocity_from_vorticity_2d
from vortexlab.fields import Grid, gradient, lp_norm, w11_norm
from vortexlab.oseen import (
    GRAD_L1_PREFACTOR,
    VMAX_PREFACTOR,
    OseenParams,
    oseen_dipole,
    oseen_velocity,
    oseen_vorticity,
    sharpness_scaling_experiment,
)
from vortexlab.random_data import smooth_bump

TWO_PI = 2.0 * np.pi


@pytest.fixture
def g256():
    return Grid(2, 256, TWO_PI)


def offset_center(grid):
    c = grid.box_length / 2.0 + 0.25 * grid.h
    return (c, c)


class TestSingleVortex:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            OseenParams(1.0, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            OseenParams(1.0, (0.0, 0.0, 0.0), 0.1)

    def test_width_precondition(self, g256):
        with pytest.raises(ValueError, match="too wide"):
            oseen_vorticity(OseenParams(1.0, offset_center(g256), 1.0), g256)

    def test_total_circulation(self, g256):
        p = OseenParams(1.3, offset_center(g256), 0.01)
        w = oseen_vorticity(p, g256)
        assert lp_norm(w, 1) == pytest.approx(1.3, rel=1e-3)

    def test_gradient_l1_prefactor(self, g256):
        t = 0.01
        p = OseenParams(1.0, offset_center(g256), t)
        w = oseen_vorticity(p, g256)
        expect = GRAD_L1_PREFACTOR / np.sqrt(t)
        assert lp_norm(gradient(w), 1) == pytest.approx(expect, rel=5e-3)
        assert GRAD_L1_PREFACTOR == pytest.approx(0.8862, abs=5e-5)

    def test_velocity_sup_prefactor(self, g256):
        t = 0.01
        p = OseenParams(1.0, offset_center(g256), t)
        v = oseen_velocity(p, g256)
        expect = VMAX_PREFACTOR / np.sqrt(t)
        assert lp_norm(v, np.inf) == pytest.approx(expect, rel=5e-3)
        assert VMAX_PREFACTOR == pytest.approx(0.050784, abs=5e-6)

    def test_velocity_is_azimuthal(self, g256):
        p = OseenParams(1.0, offset_center(g256), 0.01)
        v = oseen_velocity(p, g256)
        L = g256.box_length
        X, Y = g256.meshgrid()
        # minimum-image displacements, matching the profile's convention
        dx = (X - p.center[0] + L / 2.0) % L - L / 2.0
        dy = (Y - p.center[1] + L / 2.0) % L - L / 2.0
        radial = dx * v.components[0].samples + dy * v.components[1].samples
        assert np.max(np.abs(radial)) < 1e-12

    def test_velocity_at_lattice_center(self):
        # the center on a lattice point: r = 0 there, where the closed form is 0/0
        g = Grid(2, 64, TWO_PI)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            v = oseen_velocity(OseenParams(1.0, (0.0, 0.0), 0.01), g)
        vx, vy = (c.samples for c in v.components)
        assert vx[0, 0] == 0.0 and vy[0, 0] == 0.0
        assert np.all(np.isfinite(vx)) and np.all(np.isfinite(vy))
        assert np.max(np.hypot(vx, vy)) > 0.0


class TestDipole:
    def test_mean_zero(self, g256):
        w = oseen_dipole(1.0, np.pi, g256, 0.01)
        assert abs(w.mean()) < 1e-12

    def test_core_overlap_rejected(self, g256):
        with pytest.raises(ValueError, match="overlap"):
            oseen_dipole(1.0, 0.1, g256, 0.01)

    def test_wide_separation_rejected(self, g256):
        with pytest.raises(ValueError, match="exceeds"):
            oseen_dipole(1.0, 4.0, g256, 0.01)

    def test_w11_is_twice_single_vortex(self, g256):
        # separation pi >= 8 sqrt(4t): overlap exponentially small
        t = 0.01
        w = oseen_dipole(1.0, np.pi, g256, t, center=offset_center(g256))
        single = oseen_vorticity(OseenParams(1.0, offset_center(g256), t), g256)
        assert w11_norm(w) == pytest.approx(2.0 * w11_norm(single), rel=5e-3)

    def test_velocity_near_core_matches_superposition(self, g256):
        # plane-vortex superposition oracle, window r <= separation/4; the
        # separation is kept small against the box so periodic images of the
        # pair stay inside the 1% budget
        t = 0.001
        sep = np.pi / 8.0
        c = offset_center(g256)
        w = oseen_dipole(1.0, sep, g256, t, center=c)
        v = velocity_from_vorticity_2d(w)
        plus_center = (c[0] - sep / 2.0, c[1])
        oracle = oseen_velocity(OseenParams(1.0, plus_center, t), g256) + \
            oseen_velocity(OseenParams(-1.0, (c[0] + sep / 2.0, c[1]), t), g256)
        X, Y = g256.meshgrid()
        r = np.hypot(X - plus_center[0], Y - plus_center[1])
        window = (r <= sep / 4.0) & (r >= 2.0 * g256.h)
        speed = np.hypot(v.components[0].samples, v.components[1].samples)
        oracle_speed = np.hypot(
            oracle.components[0].samples, oracle.components[1].samples
        )
        rel = np.abs(speed - oracle_speed)[window] / oracle_speed[window]
        assert np.max(rel) < 0.01


class TestScalingExperiment:
    def test_slopes_and_prefactors(self):
        L = 2.0
        g = Grid(2, 256, L)
        ts = np.geomspace(L**2 / 40000.0, L**2 / 1100.0, 5)
        rep = sharpness_scaling_experiment(g, ts)
        assert rep["slope_Linf_v"] == pytest.approx(-0.5, abs=0.05)
        assert rep["slope_W11"] == pytest.approx(-0.5, abs=0.05)
        assert rep["prefactor_grad_L1"] == pytest.approx(GRAD_L1_PREFACTOR, rel=0.01)
        assert rep["prefactor_Linf_v"] == pytest.approx(VMAX_PREFACTOR, rel=0.01)

    def test_needs_two_times(self):
        g = Grid(2, 64, 2.0)
        with pytest.raises(ValueError):
            sharpness_scaling_experiment(g, [0.001])

    def test_vanishing_norm_named_before_the_log_fit(self):
        # a core width sqrt(4t) far below h: every vorticity sample underflows to 0
        with pytest.raises(ValueError, match=r"^W11 is 0.0 at t = 1e-12: no log-log slope"):
            sharpness_scaling_experiment(Grid(2, 64, 8.0), [1e-12, 0.01])

    @pytest.mark.parametrize("alpha0", [1e300, -1e300])
    def test_overflowing_norm_named_before_the_log_fit(self, alpha0):
        # a finite profile whose W11 norm overflows: named, with no numpy warning
        with pytest.raises(ValueError, match=r"^W11 is inf at t = 0.001: no log-log slope"):
            sharpness_scaling_experiment(Grid(2, 16, TWO_PI), [1e-3, 1e-2], alpha0)

    def test_overflowing_gradient_spectrum_named_before_the_log_fit(self):
        # finite samples and spectrum whose gradient spectrum overflows: W11 is
        # NaN, named with no numpy warning
        with pytest.raises(ValueError, match=r"^W11 is nan at t = 0.02: no log-log slope"):
            sharpness_scaling_experiment(Grid(2, 32, TWO_PI), [0.02, 0.035], 1e306)

    def test_alpha_scales_linearly(self):
        g = Grid(2, 128, 2.0)
        ts = np.geomspace(1e-4, 1e-3, 3)
        r1 = sharpness_scaling_experiment(g, ts, alpha0=1.0)
        r2 = sharpness_scaling_experiment(g, ts, alpha0=2.0)
        assert r2["prefactor_grad_L1"] == pytest.approx(
            2.0 * r1["prefactor_grad_L1"], rel=1e-12
        )


@pytest.mark.parametrize("n, box_length", [(32, TWO_PI), (64, 2.5)])
def test_smooth_bump_is_centered_gaussian_derivative(n, box_length):
    # the bump's own displacement rule, written out: d = (x - L/2 + L/2) % L - L/2
    g = Grid(2, n, box_length)
    L = g.box_length
    sigma = L / 32.0
    x = g.axis_coords()
    d = (x - L / 2.0 + L / 2.0) % L - L / 2.0
    X, Y = np.meshgrid(d, d, indexing="ij")
    expect = (X / sigma**2) * np.exp(-(X**2 + Y**2) / (2.0 * sigma**2))
    assert np.array_equal(smooth_bump(g).samples, expect)
