"""Grid, field containers, spectral calculus and norms."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vortexlab import fields
from vortexlab.bb_lab import RandomFieldSpec, bb_ratio_3d, random_family
from vortexlab.fields import (
    Grid,
    ScalarField,
    Trajectory,
    VectorField,
    curl2d,
    derivative,
    divergence,
    gradient,
    hs_norm,
    hs_sq,
    jacobian_magnitude,
    lp_norm,
    mean_is_negligible,
    spectral_refine,
    time_lq_norm,
    w11_norm,
)
from vortexlab.maxwell_wave import StrichartzExponents, strichartz_sides
from vortexlab.random_data import wave_fixture_family

TWO_PI = 2.0 * np.pi


@pytest.fixture
def g64():
    return Grid(2, 64, TWO_PI)


@pytest.fixture
def g3_16():
    return Grid(3, 16, TWO_PI)


def random_smooth(grid, seed, beta=3.0):
    rng = np.random.default_rng(seed)
    coeffs = np.fft.rfftn(rng.standard_normal(grid.shape))
    coeffs *= (1.0 + grid.ksq()) ** (-beta / 2.0)
    return ScalarField.from_spectrum(grid, coeffs)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts of numpy.fft.rfftn / irfftn calls made after the fixture starts."""
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestGrid:
    def test_spacing_and_measure(self, g64):
        assert g64.h == pytest.approx(TWO_PI / 64)
        assert g64.cell_measure == pytest.approx((TWO_PI / 64) ** 2)
        assert g64.shape == (64, 64)

    @pytest.mark.parametrize("n", [7, 6, 0, -8])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError):
            Grid(2, n, 1.0)

    def test_bad_dim_and_box_rejected(self):
        with pytest.raises(ValueError):
            Grid(4, 16, 1.0)
        with pytest.raises(ValueError):
            Grid(2, 16, 0.0)

    def test_wavenumbers_match_fftfreq(self, g64):
        k = g64.wavenumber(0)
        expect = TWO_PI * np.fft.fftfreq(64, d=g64.h)
        assert np.allclose(k[:, 0], expect)

    def test_deriv_wavenumber_zeroes_nyquist(self, g64):
        kd = g64.deriv_wavenumber(0)
        assert kd[32, 0] == 0.0
        assert g64.wavenumber(0)[32, 0] != 0.0

    def test_dealias_mask_cuts_top_third(self, g64):
        mask = g64.dealias_mask()
        cut = (2.0 / 3.0) * np.pi * 64 / TWO_PI
        keep = np.ones(g64.spectral_shape, dtype=bool)
        for a in range(2):
            keep &= np.abs(g64.wavenumber(a)) < cut
        assert np.array_equal(mask, keep)
        assert mask[0, 0]
        assert not mask[32, 0] and not mask[0, 32]


class TestTransformRoundtrip:
    def test_zero_field(self, g64):
        f = ScalarField.zeros(g64)
        assert np.all(f.spectrum() == 0.0)

    def test_single_mode_has_two_coefficients(self, g64):
        f = ScalarField.from_function(g64, lambda x, y: np.cos(x))
        coeffs = f.spectrum()
        nonzero = np.abs(coeffs) > 1e-8 * np.max(np.abs(coeffs))
        assert nonzero.sum() == 2
        assert nonzero[1, 0] and nonzero[-1, 0]

    def test_seeded_roundtrip(self, g64):
        f = random_smooth(g64, 11)
        back = ScalarField.from_spectrum(g64, f.spectrum())
        scale = np.max(np.abs(f.samples))
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12 * scale

    def test_roundtrip_3d(self, g3_16):
        f = random_smooth(g3_16, 5)
        back = ScalarField.from_spectrum(g3_16, f.spectrum())
        assert np.max(np.abs(back.samples - f.samples)) < 1e-12


class TestHalfSpectrumField:
    def test_full_layout_spectrum_rejected(self):
        g = Grid(2, 16, TWO_PI)
        full = np.fft.fftn(np.random.default_rng(0).standard_normal(g.shape))
        with pytest.raises(ValueError, match=r"\(16, 16\).*\(16, 9\)"):
            ScalarField.from_spectrum(g, full)

    def test_nonfinite_coefficients_rejected(self, g64):
        coeffs = np.zeros(g64.spectral_shape, dtype=np.complex128)
        coeffs[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ScalarField.from_spectrum(g64, coeffs)

    def test_samples_computed_once_on_first_read(self, g64, fft_calls):
        f = ScalarField.from_spectrum(g64, np.ones(g64.spectral_shape, dtype=np.complex128))
        assert fft_calls["irfftn"] == 0
        assert f.samples is f.samples
        assert fft_calls["irfftn"] == 1

    def test_linear_arithmetic_keeps_domains(self, g64, fft_calls):
        f, h = random_smooth(g64, 11), random_smooth(g64, 12)
        before = dict(fft_calls)
        combo = -(f * 2.0 + h - f)
        combo.spectrum()
        assert fft_calls == before
        expect = -(f.samples + h.samples)
        assert np.max(np.abs(combo.samples - expect)) < 1e-12 * np.max(np.abs(expect))


class TestMeanZeroCheck:
    def test_decided_from_spectrum(self, g64, fft_calls):
        coeffs = random_smooth(g64, 8).spectrum().copy()
        coeffs[0, 0] = 0.0
        f = ScalarField.from_spectrum(g64, coeffs)
        assert mean_is_negligible(f)
        assert hs_norm(f, -1) > 0
        assert fft_calls["irfftn"] == 0

    def test_fallback_reads_samples(self, g64, fft_calls):
        # one spike: |mean| = 1e-11 exceeds 1e-10 * rms (~1.6e-12) but not
        # 1e-10 * max|f| (~1e-10), so only the sample test can accept it
        x = np.zeros(g64.shape)
        x[3, 5] = 1.0
        x += 1e-11 - x.mean()
        f = ScalarField.from_spectrum(g64, ScalarField(g64, x).spectrum())
        assert mean_is_negligible(f)
        assert fft_calls["irfftn"] == 1
        assert hs_norm(f, -1) > 0
        assert not mean_is_negligible(ScalarField(g64, x + 1e-9))

    def test_exact_zero_mean_needs_no_parseval_sum(self, g64, monkeypatch):
        sums = []
        monkeypatch.setattr(fields, "hs_sq", lambda *args: sums.append(args) or hs_sq(*args))
        coeffs = random_smooth(g64, 8).spectrum().copy()
        coeffs[0, 0] = 0.0
        assert mean_is_negligible(ScalarField.from_spectrum(g64, coeffs.copy()))
        assert sums == []
        coeffs[0, 0] = 1e-3
        assert not mean_is_negligible(ScalarField.from_spectrum(g64, coeffs))
        assert len(sums) == 1


class TestCalculus:
    def test_eigenmode_derivative(self, g64):
        f = ScalarField.from_function(g64, lambda x, y: np.sin(x))
        df = derivative(f, 0)
        exact = ScalarField.from_function(g64, lambda x, y: np.cos(x))
        assert np.max(np.abs(df.samples - exact.samples)) < 1e-10

    def test_gradient_of_constant_is_zero(self, g64):
        f = ScalarField(g64, np.full(g64.shape, 3.5))
        gr = gradient(f)
        assert all(np.max(np.abs(c.samples)) < 1e-12 for c in gr.components)

    def test_curl_of_gradient_vanishes(self, g64):
        f = random_smooth(g64, 3)
        c = curl2d(gradient(f))
        assert np.max(np.abs(c.samples)) < 1e-10 * np.max(np.abs(f.samples))

    def test_divergence_of_rotated_gradient_vanishes(self, g64):
        f = random_smooth(g64, 4)
        gr = gradient(f)
        rot = VectorField([-gr.components[1], gr.components[0]])
        assert np.max(np.abs(divergence(rot).samples)) < 1e-10

    def test_jacobian_magnitude_of_single_mode(self, g64):
        v = VectorField([
            ScalarField.zeros(g64),
            ScalarField.from_function(g64, lambda x, y: np.sin(x)),
        ])
        jm = jacobian_magnitude(v)
        exact = np.abs(np.cos(g64.meshgrid()[0]))
        assert np.max(np.abs(jm.samples - exact)) < 1e-10


class TestLpNorms:
    def test_constant_field(self, g64):
        f = ScalarField(g64, np.full(g64.shape, -2.0))
        assert lp_norm(f, 1) == pytest.approx(2.0 * TWO_PI**2)

    def test_abs_sin_integral(self, g64):
        # int |sin x1| over [0,2pi)^2 = 4 * 2pi
        f = ScalarField.from_function(g64, lambda x, y: np.sin(x))
        assert lp_norm(f, 1) == pytest.approx(8.0 * np.pi, rel=1e-3)

    def test_sup_norm(self, g64):
        f = ScalarField.from_function(g64, lambda x, y: np.sin(x))
        assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-6)

    def test_vector_norm_uses_euclidean_magnitude(self, g64):
        v = VectorField([
            ScalarField(g64, np.full(g64.shape, 3.0)),
            ScalarField(g64, np.full(g64.shape, 4.0)),
        ])
        assert lp_norm(v, np.inf) == pytest.approx(5.0)

    def test_p_below_one_rejected(self, g64):
        with pytest.raises(ValueError):
            lp_norm(ScalarField.zeros(g64), 0.5)

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("p", [1.0, 2.0, 1.5, 3.0])
    def test_matches_direct_sum(self, g64, p, layout):
        a = np.random.default_rng(17).standard_normal((128, 128))[::2, ::2]
        if layout == "contiguous":
            a = np.ascontiguousarray(a)
        a.flags.writeable = False  # a read-only view is taken over uncopied
        f = ScalarField(g64, a)
        assert f.samples.flags.c_contiguous == (layout == "contiguous")
        expect = (np.sum(np.abs(a) ** p) * g64.cell_measure) ** (1.0 / p)
        assert lp_norm(f, p) == pytest.approx(expect, rel=1e-12)


class TestW11:
    def test_zero(self, g64):
        assert w11_norm(ScalarField.zeros(g64)) == 0.0

    def test_cos_mode(self, g64):
        f = ScalarField.from_function(g64, lambda x, y: np.cos(x))
        assert w11_norm(f) == pytest.approx(16.0 * np.pi, rel=1e-3)

    def test_gaussian_closed_form(self):
        # w = exp(-r^2/4 tau): L1 = 4 pi tau, grad L1 = 2 pi^{3/2} sqrt(tau)
        g = Grid(2, 256, TWO_PI)
        tau = 0.01
        c = np.pi
        f = ScalarField.from_function(
            g, lambda x, y: np.exp(-((x - c) ** 2 + (y - c) ** 2) / (4 * tau))
        )
        expect = 4.0 * np.pi * tau + 2.0 * np.pi**1.5 * np.sqrt(tau)
        assert w11_norm(f) == pytest.approx(expect, rel=5e-3)

    def test_3d_rejected(self, g3_16):
        with pytest.raises(ValueError):
            w11_norm(ScalarField.zeros(g3_16))


class TestHsNorm:
    def test_parseval_anchor(self, g64):
        f = random_smooth(g64, 8)
        f = f - ScalarField(g64, np.full(g64.shape, f.mean()))
        assert hs_norm(f, 0) == pytest.approx(lp_norm(f, 2), rel=1e-10)

    def test_h1_matches_gradient_l2(self, g64):
        f = ScalarField.from_function(g64, lambda x, y: np.cos(x))
        assert hs_norm(f, 1) == pytest.approx(lp_norm(gradient(f), 2), rel=1e-10)
        assert hs_norm(f, 1) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-10)

    def test_negative_order_needs_mean_zero(self, g64):
        f = ScalarField(g64, np.ones(g64.shape))
        with pytest.raises(ValueError):
            hs_norm(f, -1)


class TestMixedNorm:
    """L^q in time of spatial L^r norms: time_lq_norm over lp_norm values,
    the composition strichartz_sides streams."""

    @staticmethod
    def mixed(snaps, dt, q, r):
        return time_lq_norm([lp_norm(f, r) for f in snaps], dt, q)

    def _const_snaps(self, g64, nt=9, T=2.0):
        f = ScalarField.from_function(g64, lambda x, y: np.sin(x))
        return [f] * nt, T / (nt - 1), f

    def test_q1_constant_in_time(self, g64):
        snaps, dt, f = self._const_snaps(g64)
        assert self.mixed(snaps, dt, 1, 2) == pytest.approx(2.0 * lp_norm(f, 2), rel=1e-10)

    def test_qinf_is_time_max(self, g64):
        snaps, dt, f = self._const_snaps(g64)
        assert self.mixed(snaps, dt, np.inf, 2) == pytest.approx(lp_norm(f, 2), rel=1e-10)

    def test_forced_wave_profile_oracle(self):
        # B = (1-cos t) sin(x1) e2 on [0, 2pi]; (q,r) = (2,2) value is
        # sqrt(int (1-cos)^2 dt) * ||sin||_L2(box) = sqrt(3 pi) * 2 pi^{3/2}
        g = Grid(3, 16, TWO_PI)
        x = g.meshgrid()[0]
        nt = 201
        times = np.linspace(0.0, TWO_PI, nt)
        snaps = [
            VectorField([
                ScalarField.zeros(g),
                ScalarField(g, (1.0 - np.cos(t)) * np.sin(x)),
                ScalarField.zeros(g),
            ])
            for t in times
        ]
        val = self.mixed(snaps, times[1] - times[0], 2, 2)
        assert val == pytest.approx(34.18931254658434, rel=5e-3)


class TestSpectralRefine:
    def test_band_limited_exact(self, g64):
        f = random_smooth(g64, 21)
        coeffs = f.spectrum().copy()
        coeffs[32, :] = 0.0
        coeffs[:, 32] = 0.0  # exactness needs no Nyquist content
        f = ScalarField.from_spectrum(g64, coeffs)
        fine = spectral_refine(f, 128)
        coarse_on_fine = fine.samples[::2, ::2]
        # the coarse lattice is a sub-lattice of the fine one
        assert np.max(np.abs(coarse_on_fine - f.samples)) < 1e-10 * np.max(
            np.abs(f.samples)
        )

    def test_coarsening_rejected(self, g64):
        with pytest.raises(ValueError):
            spectral_refine(ScalarField.zeros(g64), 32)

    @pytest.mark.parametrize("suite", ["bb_ratio_3d", "strichartz_sides"])
    def test_no_evaluation_grid_spectrum_is_built(self, monkeypatch, suite):
        # both suites sample n_eval = 32 from n = 16 members; a zero-padded
        # n_eval half spectrum (or one transformed from refined samples)
        # must never exist
        g = Grid(3, 16, TWO_PI)
        if suite == "bb_ratio_3d":
            spec = RandomFieldSpec(seed=5, beta=2.0, dim=3, n=16, box_length=TWO_PI, count=1)
            omega = random_family(spec)[0]
            run = lambda: bb_ratio_3d(omega, 32)
        else:
            B0, B1, j, _ = wave_fixture_family(g, seed=2, count=1)[0]
            e = StrichartzExponents(4.0, 4.0, 4.0, 0.5, 0.75)
            run = lambda: strichartz_sides(e, B0, B1, j, TWO_PI / 4.0, 5, 32)
        zeros, rfftn, allocated, transformed = np.zeros, np.fft.rfftn, [], []

        def recorded_zeros(shape, dtype=float, *args, **kwargs):
            allocated.append((tuple(map(int, np.atleast_1d(shape))), np.dtype(dtype)))
            return zeros(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", recorded_zeros)
        monkeypatch.setattr(np.fft, "rfftn", lambda a, *args, **kwargs:
                            transformed.append(a.shape) or rfftn(a, *args, **kwargs))
        run()
        fine = Grid(3, 32, TWO_PI)
        assert any(dtype == np.complex128 and shape[0] == 32 for shape, dtype in allocated)
        assert (fine.spectral_shape, np.dtype(np.complex128)) not in allocated
        assert fine.shape not in transformed


class TestContainers:
    def test_samples_read_only(self, g64):
        f = ScalarField.zeros(g64)
        with pytest.raises(ValueError):
            f.samples[0, 0] = 1.0

    def test_arithmetic(self, g64):
        f = ScalarField.from_function(g64, lambda x, y: np.sin(x))
        h = f * 2.0 - f + (-f)
        assert np.max(np.abs(h.samples)) < 1e-14

    def test_grid_mismatch_rejected(self, g64):
        other = Grid(2, 32, TWO_PI)
        with pytest.raises(ValueError):
            ScalarField.zeros(g64) + ScalarField.zeros(other)

    def test_vector_component_count(self, g64):
        with pytest.raises(ValueError):
            VectorField([ScalarField.zeros(g64)] * 3)

    def test_trajectory_requires_increasing_times(self, g64):
        f = ScalarField.zeros(g64)
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], [f, f])
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.2, 0.3], [f, f, f])  # non-uniform spacing
        with pytest.raises(ValueError):  # uniform to an absolute 1e-8, not relatively
            Trajectory([0.0, 1e-9, 5e-9, 6e-9], [f] * 4)

    def test_trajectory_over_a_spectrum_stack(self, g64):
        stack = np.stack([random_smooth(g64, 30 + i).spectrum() for i in range(3)])
        traj = Trajectory.from_spectra([0.0, 0.1, 0.2], g64, stack)
        assert traj.spectra() is stack and not stack.flags.writeable
        assert all(np.shares_memory(s.spectrum(), stack) for s in traj.snapshots)
        listed = Trajectory(traj.times, traj.snapshots).spectra()
        assert np.array_equal(listed, stack)


def test_fields_import_loads_no_other_package_module():
    # a fresh interpreter, so modules this session already loaded do not count
    src = os.path.dirname(os.path.dirname(fields.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import json, sys, vortexlab.fields; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'vortexlab')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert json.loads(out) == ["vortexlab", "vortexlab.fields"]
