"""Grid, field containers, spectral calculus and norms."""

import json
import os
import re
import subprocess
import sys
import tracemalloc

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
    divergence,
    gradient,
    hs_norm,
    hs_sq,
    PlaneSampler,
    _magnitude,
    batch_samples,
    gradient_planes,
    lp_norm,
    magnitude_norm,
    mean_is_negligible,
    _l2_sizes,
    time_lq_norm,
    w11_norm,
)
from vortexlab.biot_savart import velocity_from_vorticity_2d
from vortexlab.heat import heat_evolve
from vortexlab.maxwell_wave import StrichartzExponents, strichartz_sides
from vortexlab.mild_solver import snapshot_norms
from vortexlab.oseen import oseen_dipole
from vortexlab.random_data import random_vector_field, wave_fixture_family
from test_spectral_properties import padded_refine, spectral_refine

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

    @pytest.mark.parametrize("dim, box_length", [(3, 1e-300), (2, 1e-160), (3, 1e-154)])
    def test_overflowing_wavenumbers_name_box_length(self, dim, box_length):
        # dim * (pi n / L)^2 past the largest double; Python's ** would raise OverflowError
        message = (f"box_length {box_length:g} too small for n = 8: the largest |k|^2, "
                   "dim * (pi n / box_length)^2, overflows")
        with pytest.raises(ValueError, match=re.escape(message)):
            Grid(dim, 8, box_length)

    @pytest.mark.parametrize("dim, box_length", [(3, 1e150), (3, 1e300), (2, 1e160)])
    def test_overflowing_volume_names_box_length(self, dim, box_length):
        # L^dim past the largest double; Python's ** would raise OverflowError
        message = f"box_length {box_length:g} too large: L^{dim} overflows"
        with pytest.raises(ValueError, match=re.escape(message)):
            Grid(dim, 8, box_length)

    def test_largest_volume_below_overflow_is_finite(self):
        # (5e102)^3 is about 1.25e308; the cell measure and the time step stay finite
        g = Grid(3, 8, 5e102)
        assert 0 < g.cell_measure < np.inf and 0 < g.box_length**3 < np.inf

    def test_largest_wavenumbers_below_overflow_are_finite(self):
        # 3 * (pi 8 / 1e-150)^2 is about 1.9e303: kept, and its multipliers raise no warning
        assert np.all(np.isfinite(Grid(3, 8, 1e-150).ksq()))

    def test_wavenumbers_match_fftfreq(self, g64):
        expect = TWO_PI * np.fft.fftfreq(64, d=g64.h)
        assert np.allclose(g64.ksq()[:, 0], expect**2)
        expect[32] = 0.0  # signed, as the derivatives read them (Nyquist zeroed)
        assert np.allclose(g64.deriv_wavenumber(0)[:, 0], expect)

    def test_deriv_wavenumber_zeroes_nyquist(self, g64):
        kd = g64.deriv_wavenumber(0)
        assert kd[32, 0] == 0.0
        assert g64.ksq()[32, 0] != 0.0  # |k|^2 keeps the Nyquist wavenumber

    def test_dealias_mask_cuts_top_third(self, g64):
        mask = g64.dealias_mask()
        cut = (2.0 / 3.0) * np.pi * 64 / TWO_PI
        k0 = TWO_PI * np.fft.fftfreq(64, d=g64.h)
        k1 = TWO_PI * np.fft.rfftfreq(64, d=g64.h)
        keep = (np.abs(k0)[:, None] < cut) & (np.abs(k1)[None, :] < cut)
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
        combo = (f * 2.0 + h - f) * -1.0
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


    @pytest.mark.parametrize("dim, lead", [(2, ()), (2, (3,)), (3, (2,))])
    def test_l2_sizes_plain_or_at_one_scale_per_field(self, dim, lead):
        g = Grid(dim, 8, TWO_PI)
        x = np.random.default_rng(dim).standard_normal((dim,) + lead + g.shape)
        u, w = (ScalarField(g, a).spectrum() for a in (x, x[:1] * 0.25))
        plain = [np.sqrt(sum(hs_sq(g, a))) for a in (u, w)]
        for got, want in zip(_l2_sizes(g, u, w), plain):
            assert np.array_equal(got, want)
        # squares past the float range: each field at one power of two, so ratios hold bitwise
        big_u, big_w = _l2_sizes(g, 2.0**600 * u, 2.0**600 * w)
        assert np.all(np.isfinite(big_u)) and np.array_equal(big_w / big_u, plain[1] / plain[0])
        if lead:  # a field far below another in the stack keeps its own scale
            tiny = np.ones(lead + (1,) * dim)
            tiny[0] = 2.0**-900
            small_u, small_w = _l2_sizes(g, 2.0**600 * tiny * u, 2.0**600 * tiny * w)
            assert np.array_equal(small_w / small_u, plain[1] / plain[0])


class TestCalculus:
    def test_eigenmode_derivative(self, g64):
        f = ScalarField.from_function(g64, lambda x, y: np.sin(x))
        df = gradient(f).components[0]
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
        rot = VectorField([gr.components[1] * -1.0, gr.components[0]])
        assert np.max(np.abs(divergence(rot).samples)) < 1e-10

    def test_gradient_magnitude_of_single_mode(self, g64):
        v = VectorField([
            ScalarField.zeros(g64),
            ScalarField.from_function(g64, lambda x, y: np.sin(x)),
        ])
        sample = PlaneSampler(g64)
        planes = list(gradient_planes(v))
        jm = _magnitude(sample(d) for d in planes)
        exact = np.abs(np.cos(g64.meshgrid()[0]))
        assert np.max(np.abs(jm - exact)) < 1e-10
        assert magnitude_norm(sample, planes, np.inf, "grad v") == pytest.approx(1.0, abs=1e-10)
        assert magnitude_norm(sample, planes, 1, "grad v") == pytest.approx(lp_norm(
            ScalarField(g64, exact), 1), rel=1e-10)


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
        h = f * 2.0 - f + f * -1.0
        assert np.max(np.abs(h.samples)) < 1e-14

    def test_grid_mismatch_rejected(self, g64):
        other = Grid(2, 32, TWO_PI)
        with pytest.raises(ValueError):
            ScalarField.zeros(g64) + ScalarField.zeros(other)

    def test_vector_component_count(self, g64):
        with pytest.raises(ValueError):
            VectorField([ScalarField.zeros(g64)] * 3)

    def test_trajectory_requires_increasing_times(self, g64):
        def stack(count):
            return ScalarField(g64, np.zeros((count,) + g64.shape))

        with pytest.raises(ValueError):
            Trajectory([0.0, 0.0], stack(2))
        with pytest.raises(ValueError):
            Trajectory([0.0, 0.2, 0.3], stack(3))  # non-uniform spacing
        with pytest.raises(ValueError):  # uniform to an absolute 1e-8, not relatively
            Trajectory([0.0, 1e-9, 5e-9, 6e-9], stack(4))
        with pytest.raises(ValueError, match="equal length"):
            Trajectory([0.0, 0.1], stack(3))

    def test_trajectory_over_a_spectrum_stack(self, g64):
        stack = np.stack([random_smooth(g64, 30 + i).spectrum() for i in range(3)])
        traj = Trajectory([0.0, 0.1, 0.2], ScalarField.from_spectrum(g64, stack))
        assert traj.field.spectrum() is stack and not stack.flags.writeable
        assert all(np.shares_memory(s.spectrum(), stack) for s in traj.snapshots)
        assert [s.lead for s in traj.snapshots] == [()] * 3
        assert all(np.array_equal(s.spectrum(), c) for s, c in zip(traj.snapshots, stack))


def stack_of(built):
    """Three mean-zero 2D fields in one stack: built from half spectra, or
    from the samples of Oseen dipoles (whose spectra move the last bit)."""
    g = Grid(2, 64, TWO_PI)
    if built == "spectra":
        spectra = np.stack([random_smooth(g, 40 + i).spectrum() for i in range(3)])
        spectra[:, 0, 0] = 0.0
        return ScalarField.from_spectrum(g, spectra)
    return ScalarField(g, np.stack([oseen_dipole(1.0, g.box_length / 4.0, g, t).samples
                                    for t in (0.005, 0.01, 0.02)]))


def rows(stack):
    return [stack[i] for i in range(stack.lead[0])]


def w11_reference(f):
    """W11 of one field by its definition, from its own samples when it holds them."""
    return lp_norm(f, 1) + lp_norm(gradient(f), 1)


def as_rows(columns):
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


# rule -> stack -> (the rule on the stack, row by row; the rule on each row)
STACK_RULES = {
    **{f"lp_norm-{p}": lambda s, p=p: (lp_norm(s, p).tolist(), [lp_norm(r, p) for r in rows(s)])
       for p in (1, 2, 3, np.inf)},
    **{f"lp_norm-vector-{p}": lambda s, p=p: (
        lp_norm(VectorField([s, 2.0 * s]), p).tolist(),
        [lp_norm(VectorField([r, 2.0 * r]), p) for r in rows(s)]) for p in (1, 2, 3, np.inf)},
    "w11_norm": lambda s: (w11_norm(s).tolist() + [w11_norm(r) for r in rows(s)],
                           2 * [w11_reference(r) for r in rows(s)]),
    "mean_is_negligible": lambda s: (mean_is_negligible(s).tolist(),
                                     [mean_is_negligible(r) for r in rows(s)]),
    "snapshot_norms": lambda s: (as_rows(snapshot_norms(s)), [snapshot_norms(r) for r in rows(s)]),
    "velocity_from_vorticity_2d": lambda s: (
        list(velocity_from_vorticity_2d(s).stack.spectrum().swapaxes(0, 1)),
        [velocity_from_vorticity_2d(r).stack.spectrum() for r in rows(s)]),
    "heat_evolve": lambda s: (list(heat_evolve(s[0], [0.0, 0.01, 0.1]).spectrum()),
                              [heat_evolve(s[0], t).spectrum() for t in (0.0, 0.01, 0.1)]),
    "mean": lambda s: (s.mean().tolist(), [r.mean() for r in rows(s)]),
    **{f"hs_norm-{x}": lambda s, x=x: (hs_norm(s, x).tolist(), [hs_norm(r, x) for r in rows(s)])
       for x in (0.0, 0.5, -0.5)},
    **{f"hs_norm-vector-{x}": lambda s, x=x: (
        hs_norm(VectorField([s, 2.0 * s]), x).tolist(),
        [hs_norm(VectorField([r, 2.0 * r]), x) for r in rows(s)]) for x in (0.0, -0.5)},
}


def bitwise_equal(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(bitwise_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("built", ["spectra", "samples"])
@pytest.mark.parametrize("rule", STACK_RULES)
def test_stack_equals_rows_bitwise(rule, built):
    # each rule exists once: on a stack it gives, row by row, bitwise what
    # it gives on each row, and on one field a Python scalar
    on_stack, on_rows = STACK_RULES[rule](stack_of(built))
    assert len(on_stack) == len(on_rows) > 0
    assert all(bitwise_equal(a, b) for a, b in zip(on_stack, on_rows))


class TestStackedField:
    def test_rows_are_views_checked_once(self, g64, monkeypatch):
        stack = ScalarField(g64, np.ones((4,) + g64.shape))
        scans = []
        monkeypatch.setattr(np, "isfinite", lambda a, _f=np.isfinite: scans.append(1) or _f(a))
        row = stack[2]
        assert row.lead == () and stack.lead == (4,) and stack[1:3].lead == (2,)
        assert np.shares_memory(row.samples, stack.samples) and not row.samples.flags.writeable
        assert scans == []

    def test_stack_rules_give_each_rows_value(self, g64):
        # rows with distinct nonzero means: one mean over the stack would mix them
        stack = ScalarField(g64, np.stack([random_smooth(g64, 50 + i).samples + m
                                           for i, m in enumerate((-0.1, 0.02, -0.09))]))
        for rule in (lambda f: f.mean(), lambda f: hs_norm(f, 0.5), lambda f: hs_norm(f, 0.0)):
            got = rule(stack)
            assert got.shape == (3,)
            assert got.tolist() == [rule(stack[i]) for i in range(3)]
            assert all(type(rule(stack[i])) is float for i in range(3))
        assert len(set(stack.mean().tolist())) == 3

    def test_vector_stack_needs_dim_components_first(self, g64):
        for lead in ((), (3,), (1,), (4, 2)):
            with pytest.raises(ValueError, match="expected 2 components on the stack"):
                VectorField(ScalarField(g64, np.zeros(lead + g64.shape)))
        v = VectorField(ScalarField(g64, np.zeros((2, 4) + g64.shape)))
        assert v.lead == (4,) and v[1].lead == () and v.components[0].lead == (4,)

    def test_components_are_stacked_once_and_read_as_views(self, g64, monkeypatch):
        comps = [random_smooth(g64, 60), ScalarField(g64, np.ones(g64.shape))]
        scans = []
        monkeypatch.setattr(np, "isfinite", lambda a, _f=np.isfinite: scans.append(1) or _f(a))
        v = VectorField(comps)
        assert scans == []  # each component was checked when it was built
        for c, got in zip(comps, v.components):
            assert np.shares_memory(got.samples, v.stack.samples)
            assert np.array_equal(got.samples, c.samples)
            assert np.array_equal(got.spectrum(), c.spectrum())

    def test_mismatched_components_rejected(self, g64):
        with pytest.raises(ValueError, match="stack axes"):
            VectorField([ScalarField.zeros(g64), ScalarField(g64, np.zeros((2,) + g64.shape))])

    def test_unstacked_field_has_no_rows(self, g64):
        f = ScalarField.zeros(g64)
        with pytest.raises(TypeError):
            f[0]
        with pytest.raises(TypeError):  # nor is a stack unpacked by iteration
            list(ScalarField(g64, np.zeros((2,) + g64.shape)))

    def test_sampler_builds_staged_buffers_on_first_use(self, g64):
        own, finer = PlaneSampler(g64), PlaneSampler(g64, 96)
        own(ScalarField.zeros(g64).spectrum())
        assert own._buffers is None and finer._buffers is None
        finer(ScalarField.zeros(g64).spectrum())
        assert finer._buffers is not None


def whole_plane(grid, spectrum, n_eval):
    """The samples of a half spectrum on the n_eval grid, whole: by irfftn on
    the grid's own, else of the zero-padded spectrum (``padded_refine``)."""
    if n_eval == grid.n:
        return batch_samples(grid, spectrum)
    return padded_refine(ScalarField.from_spectrum(grid, spectrum), n_eval).samples


def whole_plane_norm(grid, spectra, n_eval, p):
    """magnitude_norm's rule on whole planes: squares added in _magnitude's
    order, the p rule on the whole accumulator, then one sum or max."""
    acc = np.square(whole_plane(grid, spectra[0], n_eval))
    for s in spectra[1:]:
        x = whole_plane(grid, s, n_eval)
        acc += x * x
    if p == 3:
        acc *= np.sqrt(acc)
    elif p % 2 == 0 and p > 2:
        acc **= p // 2
    elif not np.isinf(p):
        acc = np.sqrt(acc) ** p
    if np.isinf(p):
        return float(np.sqrt(np.max(acc)))
    return float((float(np.sum(acc)) * Grid(grid.dim, n_eval, grid.box_length).cell_measure)
                 ** (1.0 / p))


def traced_peak(run) -> int:
    """Bytes tracemalloc sees allocated at the peak of run(), over what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSlabBlocks:
    """A PlaneSampler hands out a plane as blocks of axis-0 slabs; the norms
    over them are bitwise those over whole planes and hold one full-size array."""

    @pytest.mark.parametrize("dim, n_eval", [(2, 16), (2, 24), (2, 32),
                                             (3, 16), (3, 32), (3, 48)])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, np.inf])
    @pytest.mark.parametrize("uneven", [False, True])
    def test_magnitude_norm_equals_whole_planes_bitwise(self, monkeypatch, dim, n_eval, p,
                                                        uneven):
        grid = Grid(dim, 16, TWO_PI)
        rng = np.random.default_rng(dim * n_eval)
        # unrestricted, so the dropped Nyquist planes matter too
        spectra = [ScalarField(grid, rng.standard_normal(grid.shape)).spectrum()
                   for _ in range(dim)]
        if uneven:  # blocks of 5 slabs, which divide none of the n_eval
            monkeypatch.setattr(fields, "SLAB_BYTES", 5 * 8 * n_eval ** (dim - 1) + 1)
        sample = PlaneSampler(grid, n_eval)
        if uneven:
            sizes = [r.stop - r.start for r in sample.rows]
            assert sizes[0] == 5 and 0 < sizes[-1] < 5
        want = whole_plane_norm(grid, spectra, n_eval, p)
        assert magnitude_norm(sample, spectra, p, "m") == want
        assert magnitude_norm(sample, spectra, p, "m") == want  # the buffers are reused

    def test_three_plane_norm_holds_one_accumulator(self):
        grid = Grid(3, 32, TWO_PI)
        spectra = random_vector_field(grid, np.random.default_rng(2)).stack.spectrum()
        accumulator = 8 * 64**3
        for p in (3.0, 1.5):
            peak = traced_peak(lambda: magnitude_norm(PlaneSampler(grid, 64), spectra, p, "v"))
            assert peak <= accumulator + 2.5 * 2**20

    def test_bb_ratio_3d_member_memory(self):
        spec = RandomFieldSpec(seed=7, beta=2.0, dim=3, n=32, box_length=TWO_PI, count=2)
        family = random_family(spec)
        bb_ratio_3d(family[0], 64)  # the grid's cached multipliers are not the member's
        omega = family[1]
        assert traced_peak(lambda: bb_ratio_3d(omega, 64)) <= 7.5 * 2**20

    def test_bb_ratio_3d_member_holds_each_plane_once(self):
        # the first stage in place, one derivative plane at a time and no curl
        # through the velocity norms: the 2 MiB accumulator, v's spectra, the
        # sampler's buffers and one plane are what is live at the peak
        spec = RandomFieldSpec(seed=7, beta=2.0, dim=3, n=32, box_length=TWO_PI, count=2)
        family = random_family(spec)
        bb_ratio_3d(family[0], 64)  # the grid's cached multipliers are not the member's
        omega = family[1]
        assert traced_peak(lambda: bb_ratio_3d(omega, 64)) <= 5.0 * 2**20


def test_fields_import_loads_no_other_package_module():
    # a fresh interpreter, so modules this session already loaded do not count
    src = os.path.dirname(os.path.dirname(fields.__file__))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import json, sys, vortexlab.fields; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'vortexlab')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert json.loads(out) == ["vortexlab", "vortexlab.fields"]
