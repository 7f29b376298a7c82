"""Heat semigroup multiplier and the exact-in-time Duhamel weights."""

import numpy as np
import pytest

from vortexlab.fields import Grid, ScalarField
from vortexlab.heat import SERIES_Z, etd_weights, heat_evolve

TWO_PI = 2.0 * np.pi


@pytest.fixture
def g64():
    return Grid(2, 64, TWO_PI)


class TestHeatEvolve:
    def test_eigenfunction_decay(self, g64):
        f = ScalarField.from_function(g64, lambda x, y: np.cos(x))
        out = heat_evolve(f, 1.0)
        assert np.max(np.abs(out.samples - np.exp(-1.0) * f.samples)) < 1e-12

    def test_t_zero_is_identity(self, g64):
        rng = np.random.default_rng(1)
        f = ScalarField(g64, rng.standard_normal(g64.shape))
        out = heat_evolve(f, 0.0)
        assert np.max(np.abs(out.samples - f.samples)) < 1e-13

    def test_negative_t_rejected(self, g64):
        with pytest.raises(ValueError):
            heat_evolve(ScalarField.zeros(g64), -0.1)

    def test_gaussian_spreads_to_gaussian(self):
        # exp(-r^2 / 4 tau) evolves to (tau/(tau+t)) exp(-r^2 / 4 (tau+t))
        g = Grid(2, 256, TWO_PI)
        tau, t = 0.005, 0.01
        c = np.pi

        def gauss(width):
            return ScalarField.from_function(
                g,
                lambda x, y: np.exp(-((x - c) ** 2 + (y - c) ** 2) / (4 * width)),
            )

        out = heat_evolve(gauss(tau), t)
        expect = gauss(tau + t) * (tau / (tau + t))
        assert np.max(np.abs(out.samples - expect.samples)) < 1e-6


def duhamel_march(s0, source, ksq, times):
    """Exact-panel recurrence over a uniform lattice, source sampled at its nodes."""
    e, w_old, w_new = etd_weights(ksq, times[1] - times[0])
    s = s0
    d_prev = source(times[0])
    for t in times[1:]:
        d_next = source(t)
        s = e * s + w_old * d_prev + w_new * d_next
        d_prev = d_next
    return s


class TestDuhamelDerivativeTerm:
    def test_zero_flux_gives_zero(self, g64):
        # no source: the Duhamel term vanishes and only exp(t Lap) w0 is left
        w0 = ScalarField.from_function(g64, lambda x, y: np.sin(x) * np.cos(3 * y) + np.cos(5 * y))
        times = np.linspace(0.0, 0.3, 9)
        zero = np.zeros(g64.spectral_shape, dtype=np.complex128)
        assert np.all(duhamel_march(zero, lambda t: zero, g64.ksq(), times) == 0.0)
        s = duhamel_march(w0.spectrum(), lambda t: zero, g64.ksq(), times)
        out = ScalarField.from_spectrum(g64, s)
        expect = heat_evolve(w0, times[-1])
        assert np.max(np.abs(out.samples - expect.samples)) < 1e-12

    def test_constant_single_mode_closed_form(self, g64):
        # flux g = (amp cos x1, 0), constant in s; the mode k = (1,0) of the
        # source -div g gives -ik int_0^t e^{-(t-s)} ds * g_hat
        # = -i (1 - e^{-t}) g_hat, i.e. samples amp (1 - e^{-t}) sin(x1);
        # a constant source is linear on every panel, so this is exact
        t, amp = 0.1, 0.7
        gh = np.zeros(g64.spectral_shape, dtype=np.complex128)
        gh[1, 0] = amp * g64.n**2 / 2.0
        gh[-1, 0] = amp * g64.n**2 / 2.0
        d = -1j * g64.deriv_wavenumber(0) * gh
        zero = np.zeros(g64.spectral_shape, dtype=np.complex128)
        s = duhamel_march(zero, lambda _t: d, g64.ksq(), np.linspace(0.0, t, 5))
        x = g64.meshgrid()[0]
        expect = amp * (1.0 - np.exp(-t)) * np.sin(x)
        assert np.max(np.abs(ScalarField.from_spectrum(g64, s).samples - expect)) < 1e-13

    def test_second_order_in_dt(self):
        # source cos(3s) on modes |k|^2 = lam (lam = 0 hits the series branch,
        # lam = 100 the stiff end); the exact Duhamel integral is
        # (lam cos 3t + 3 sin 3t - lam e^{-lam t}) / (lam^2 + 9)
        lam = np.array([0.0, 1.0, 4.0, 25.0, 100.0])
        t = 0.5
        exact = (lam * np.cos(3 * t) + 3 * np.sin(3 * t) - lam * np.exp(-lam * t)) / (lam**2 + 9)
        errs = []
        for nt in (17, 33, 65):
            s = duhamel_march(np.zeros_like(lam), lambda s: np.cos(3 * s) * np.ones_like(lam),
                              lam, np.linspace(0.0, t, nt))
            errs.append(np.abs(s - exact))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9) and np.all(orders < 2.1)


class TestEtdWeights:
    def test_series_and_closed_form_agree_at_threshold(self):
        z = np.array([np.nextafter(SERIES_Z, 0.0), SERIES_Z])  # series, closed form
        for weights in etd_weights(z, 1.0):
            assert abs(weights[0] - weights[1]) <= 1e-13 * abs(weights[1])

    def test_huge_panel_takes_the_limit(self):
        # z^2 past the float range, and the series on those entries too: no
        # warning; psi's limit is 0, and the other entries are as without them
        z = np.array([0.0, 0.05, 1.0, 1e200, 1e307])
        e, w_old, w_new = etd_weights(z, 1.0)
        assert np.array_equal(e[3:], [0.0, 0.0]) and np.array_equal(w_old[3:], [0.0, 0.0])
        assert np.array_equal(w_new[3:], 1.0 / z[3:])
        for a, b in zip(etd_weights(z[:3], 1.0), (e, w_old, w_new)):
            assert np.array_equal(a, b[:3])

    def test_nonpositive_dt_rejected(self, g64):
        with pytest.raises(ValueError):
            etd_weights(g64.ksq(), 0.0)
