"""Estimate-ratio fixtures and seeded random-family stability checks."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from vortexlab import bb_lab, biot_savart, fields
from vortexlab.bb_lab import (
    RandomFieldSpec,
    bb_ratio_2d,
    bb_ratio_3d,
    gn_ratio,
    random_family,
    refinement_study,
)
from vortexlab.family import Family
from vortexlab.biot_savart import (
    leray_project,
    velocity_from_vorticity_2d,
    velocity_from_vorticity_3d,
)
from vortexlab.fields import (
    Grid,
    PlaneSampler,
    ScalarField,
    VectorField,
    curl3d,
    divergence,
    gradient,
    lp_norm,
)
from vortexlab.oseen import GRAD_L1_PREFACTOR, VMAX_PREFACTOR
from vortexlab.random_data import random_vector_field
from test_spectral_properties import padded_refine, spectral_refine

TWO_PI = 2.0 * np.pi

# closed-form fixture values for cos(x1) input, by 1D quadrature:
#   2D: (|v|_inf + |grad v|_2) / |grad w|_1 = (1 + pi sqrt 2) / (8 pi)
#   3D: ((8/3 * (2pi)^2)^{1/3} + (3.4960767... * (2pi)^2)^{2/3}) / (16 pi^2)
#   interpolation step: |w|_2 / |grad w|_1 = sqrt(2)/8
BB2D_COS_FIXTURE = 0.2165654310696107
BB3D_COS_FIXTURE = 0.19902611962677633
GN_COS_FIXTURE = 0.1767766952966369


def cos_mode_2d(n=128):
    g = Grid(2, n, TWO_PI)
    return ScalarField.from_function(g, lambda x, y: np.cos(x))


def cos_mode_3d(n=32):
    g = Grid(3, n, TWO_PI)
    x = g.meshgrid()[0]
    return VectorField([
        ScalarField.zeros(g),
        ScalarField.zeros(g),
        ScalarField(g, np.cos(x)),
    ])


class TestFixtures:
    def test_bb_2d_cos_fixture(self):
        assert bb_ratio_2d(cos_mode_2d()) == pytest.approx(
            BB2D_COS_FIXTURE, rel=5e-3
        )

    def test_bb_3d_cos_fixture(self):
        assert bb_ratio_3d(cos_mode_3d()) == pytest.approx(
            BB3D_COS_FIXTURE, rel=5e-3
        )

    def test_gn_cos_fixture(self):
        assert gn_ratio(cos_mode_2d()) == pytest.approx(GN_COS_FIXTURE, rel=5e-3)

    def test_single_vortex_near_field_ratio(self):
        # closed-form |v|_inf / |grad w|_1 for the self-similar vortex, a
        # lower bound on the 2D family max
        assert VMAX_PREFACTOR / GRAD_L1_PREFACTOR == pytest.approx(
            0.0573, abs=2e-4
        )


class TestScaleInvariance:
    @pytest.mark.parametrize("fn,field", [
        (bb_ratio_2d, "2d"),
        (gn_ratio, "2d"),
        (bb_ratio_3d, "3d"),
    ])
    def test_homogeneity(self, fn, field):
        w = cos_mode_2d(64) if field == "2d" else cos_mode_3d(16)
        base = fn(w)
        scaled = fn(w * 17.0)
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_constant_field_rejected(self):
        g = Grid(2, 32, TWO_PI)
        with pytest.raises(ValueError, match="denominator"):
            gn_ratio(ScalarField(g, np.full(g.shape, 2.0)))


class TestRandomFamily:
    def spec2d(self, **kw):
        base = dict(seed=7, beta=2.0, dim=2, n=64, box_length=TWO_PI, count=6)
        base.update(kw)
        return RandomFieldSpec(**base)

    def test_same_seed_bitwise_identical(self):
        a = random_family(self.spec2d())
        b = random_family(self.spec2d())
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.samples, fb.samples)

    def test_growing_count_preserves_prefix(self):
        short = random_family(self.spec2d(count=3))
        long = random_family(self.spec2d(count=6))
        for fa, fb in zip(short, long):
            assert np.array_equal(fa.samples, fb.samples)

    def test_3d_samples_are_solenoidal(self):
        spec = RandomFieldSpec(
            seed=3, beta=2.0, dim=3, n=16, box_length=TWO_PI, count=4
        )
        for w in random_family(spec):
            assert lp_norm(divergence(w), 2) <= 1e-10 * lp_norm(w, 2)

    def test_members_built_when_reached(self, monkeypatch):
        drawn = []
        draw = bb_lab._random_scalar
        monkeypatch.setattr(bb_lab, "_random_scalar", lambda *args: drawn.append(1) or draw(*args))
        family = random_family(self.spec2d(count=4))
        assert drawn == []
        next(iter(family))
        assert len(drawn) == 1

    @pytest.mark.parametrize("n_eval", [65, 32])  # odd, and coarser than n = 64
    def test_bad_n_eval_rejected_at_the_call(self, n_eval):
        with pytest.raises(ValueError, match="n_eval must be even and >= n = 64"):
            refinement_study(self.spec2d(), gn_ratio, [n_eval],
                             map_fn=lambda *_: pytest.fail("a member was mapped"))

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_members_stay_on_the_spec_grid(self, dim, n):
        spec = RandomFieldSpec(seed=1, beta=2.0, dim=dim, n=n, box_length=TWO_PI, count=2)
        assert all(w.grid == spec.grid for w in random_family(spec))
        seen = []
        refinement_study(spec, lambda w, n_eval: seen.append((w.grid, n_eval)) or 1.0,
                         [2 * n])
        assert seen == [(spec.grid, 2 * n)] * 2

    def test_refined_family_same_mode_content(self):
        # the evaluation grid resamples a member, it does not change it
        for fc in random_family(self.spec2d(count=2)):
            ff = spectral_refine(fc, 128)
            assert np.max(np.abs(ff.samples[::2, ::2] - fc.samples)) < 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            self.spec2d(count=0)
        with pytest.raises(ValueError):
            self.spec2d(beta=0.0)


class TestFamilyReports:
    def test_report_statistics(self):
        spec = RandomFieldSpec(
            seed=11, beta=2.0, dim=2, n=64, box_length=TWO_PI, count=8
        )
        rep = refinement_study(spec, gn_ratio, [None])[0]
        assert len(rep["rows"]) == 8 and rep["discarded"] == 0
        ratios = [r["ratio"] for r in rep["rows"]]
        assert rep["family_max"] == pytest.approx(max(ratios))
        assert rep["family_mean"] == pytest.approx(np.mean(ratios))

    def test_degenerate_samples_counted(self):
        spec = RandomFieldSpec(
            seed=11, beta=2.0, dim=2, n=64, box_length=TWO_PI, count=4
        )
        calls = []

        def flaky(f, n_eval):
            calls.append(None)
            if len(calls) == 1:
                raise ValueError("denominator vanishes")
            return gn_ratio(f, n_eval)

        rep = refinement_study(spec, flaky, [None])[0]
        assert rep["discarded"] == 1 and len(rep["rows"]) == 3

    def test_refinement_study_trace(self):
        spec = RandomFieldSpec(
            seed=2, beta=2.0, dim=2, n=32, box_length=TWO_PI, count=4
        )
        levels = refinement_study(spec, gn_ratio, [32, 64])
        assert [lv["n_eval"] for lv in levels] == [32, 64]
        maxima = [lv["family_max"] for lv in levels]
        assert abs(maxima[1] - maxima[0]) < 0.1 * maxima[0]

    @pytest.mark.parametrize("dim, n, levels", [(2, 16, [16, 32, 48]), (3, 8, [8, 16])])
    def test_refinement_study_builds_each_member_once(self, monkeypatch, dim, n, levels):
        spec = RandomFieldSpec(seed=3, beta=2.0, dim=dim, n=n, box_length=TWO_PI, count=3)
        read = []
        get = Family.__getitem__
        monkeypatch.setattr(Family, "__getitem__", lambda fam, i: read.append(i) or get(fam, i))
        fn = bb_ratio_2d if dim == 2 else bb_ratio_3d
        levels_out = refinement_study(spec, fn, levels)
        assert sorted(read) == [0, 1, 2]
        members = [get(random_family(spec), i) for i in range(3)]
        for m, lv in zip(levels, levels_out):
            assert lv["rows"] == [{"sample": i, "ratio": fn(w, m)} for i, w in enumerate(members)]

    def test_smoothness_spread_recorded(self, capsys):
        # observational fixture: spread of the interpolation ratio by decay
        # exponent (recorded, not asserted as an ordering)
        for beta in (1.0, 4.0):
            spec = RandomFieldSpec(
                seed=5, beta=beta, dim=2, n=64, box_length=TWO_PI, count=8
            )
            rep = refinement_study(spec, gn_ratio, [None])[0]
            ratios = [r["ratio"] for r in rep["rows"]]
            assert all(np.isfinite(ratios)) and min(ratios) > 0
            print(f"beta={beta}: mean={np.mean(ratios):.4f} "
                  f"std={np.std(ratios):.4f}")


# --- evaluation-grid sampling -------------------------------------------------

def stacked_magnitude(comps):
    stack = np.stack(comps)
    return np.sqrt(np.sum(stack * stack, axis=0))


def full_grid_check(den, omega, what):
    comps = omega.components if isinstance(omega, VectorField) else (omega,)
    scale = max(float(np.max(np.abs(c.samples))) for c in comps)
    if den <= 1e-12 * max(scale, 1.0):
        raise ValueError(f"{what} rejected: denominator vanishes (constant field)")


def full_grid_jacobian(v):
    g = v.grid
    return ScalarField(g, stacked_magnitude(
        [d.samples for c in v.components for d in gradient(c).components]))


def full_grid_bb_2d(omega):
    den = lp_norm(gradient(omega), 1)
    full_grid_check(den, omega, "bb_ratio_2d")
    v = velocity_from_vorticity_2d(omega)
    v_mag = ScalarField(omega.grid, stacked_magnitude([c.samples for c in v.components]))
    return (lp_norm(v_mag, np.inf) + lp_norm(full_grid_jacobian(v), 2)) / den


def full_grid_bb_3d(omega):
    den = lp_norm(curl3d(omega), 1)
    full_grid_check(den, omega, "bb_ratio_3d")
    v = velocity_from_vorticity_3d(omega)
    v_mag = ScalarField(omega.grid, stacked_magnitude([c.samples for c in v.components]))
    return (lp_norm(v_mag, 3) + lp_norm(full_grid_jacobian(v), 1.5)) / den


def full_grid_gn(omega):
    den = lp_norm(gradient(omega), 1)
    full_grid_check(den, omega, "gn_ratio")
    return lp_norm(omega, 2) / den


def sampler_calls(monkeypatch):
    """The evaluation n of each plane a fields.PlaneSampler samples from now on."""
    calls = []
    slabs = fields.PlaneSampler.slabs
    monkeypatch.setattr(fields.PlaneSampler, "slabs",
                        lambda self, spectrum: calls.append(self.eval_grid.n)
                        or slabs(self, spectrum))
    return calls


def irfftn_shapes(monkeypatch):
    """Output shapes of the numpy.fft.irfftn calls made from now on."""
    shapes = []
    irfftn = np.fft.irfftn

    def counted(*args, **kwargs):
        out = irfftn(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(np.fft, "irfftn", counted)
    return shapes


class TestBandLatticeRatios:
    """The ratios take their spectral work on their input's own grid and
    sample only what a norm reads; at a power-of-two n_eval they equal the
    full-grid formulas on the zero-padded input bitwise."""

    @pytest.mark.parametrize("fn, ref, dim, n, n_eval", [
        (bb_ratio_2d, full_grid_bb_2d, 2, 32, 64),
        (gn_ratio, full_grid_gn, 2, 32, 64),
        (bb_ratio_3d, full_grid_bb_3d, 3, 16, 32),
    ])
    def test_padded_member_matches_full_grid(self, fn, ref, dim, n, n_eval):
        spec = RandomFieldSpec(seed=5, beta=2.0, dim=dim, n=n, box_length=TWO_PI, count=3)
        for omega in random_family(spec):
            assert fn(omega, n_eval) == ref(padded_refine(omega, n_eval))

    def test_pool_rows_in_sample_order(self):
        spec = RandomFieldSpec(seed=11, beta=2.0, dim=2, n=32, box_length=TWO_PI, count=6)
        want = [bb_ratio_2d(f, 64) for f in random_family(spec)]
        with ThreadPoolExecutor(max_workers=3) as ex:
            rep = refinement_study(spec, bb_ratio_2d, [64], map_fn=ex.map)[0]
        assert [(r["sample"], r["ratio"]) for r in rep["rows"]] == list(enumerate(want))

    def test_3d_member_projected_before_refinement_matches_full_grid(self):
        spec = RandomFieldSpec(seed=5, beta=2.0, dim=3, n=16, box_length=TWO_PI, count=3)
        for i, got in enumerate(random_family(spec)):
            rng = np.random.default_rng((spec.seed, i))
            raw = random_vector_field(spec.grid, rng, spec.beta)
            want = leray_project(padded_refine(raw, 32))
            assert got.grid == spec.grid
            assert np.array_equal(padded_refine(got, 32).stack.spectrum(), want.stack.spectrum())
            for a, b in zip(spectral_refine(got, 32).components, want.components):
                assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("fn, dim, n", [
        (bb_ratio_2d, 2, 32),
        (gn_ratio, 2, 32),
        (bb_ratio_3d, 3, 16),
    ])
    def test_own_grid_n_eval_refines_nothing(self, monkeypatch, fn, dim, n):
        spec = RandomFieldSpec(seed=5, beta=2.0, dim=dim, n=n, box_length=TWO_PI, count=2)
        shapes = irfftn_shapes(monkeypatch)
        for omega in random_family(spec):
            assert fn(omega, n) == fn(omega)
        assert set(shapes) == {(n,) * dim}

    @pytest.mark.parametrize("fn, dim, n, n_eval, per_sample", [
        (bb_ratio_3d, 3, 16, 32, 15),  # curl 3, |v| 3, grad v 9
        (bb_ratio_2d, 2, 32, 64, 8),  # grad 2, |v| 2, grad v 4
    ])
    def test_evaluation_grid_inverse_transforms(self, monkeypatch, fn, dim, n, n_eval,
                                                per_sample):
        spec = RandomFieldSpec(seed=5, beta=2.0, dim=dim, n=n, box_length=TWO_PI, count=2)
        inverted = []
        # the 3D ratio hands Biot-Savart the curl it already took
        name = "velocity_from_vorticity_2d" if dim == 2 else "velocity_from_curl_3d"
        invert = getattr(bb_lab, name)
        monkeypatch.setattr(bb_lab, name,
                            lambda w, *curl: inverted.append(w.grid.n) or invert(w, *curl))
        shapes = irfftn_shapes(monkeypatch)
        sampled = sampler_calls(monkeypatch)
        rep = refinement_study(spec, fn, [n_eval])[0]
        assert len(rep["rows"]) == 2
        assert sampled == [n_eval] * (2 * per_sample)
        assert (n_eval,) * dim not in shapes  # no evaluation-grid spectrum to invert
        assert inverted == [n, n]  # Biot-Savart on the member's own grid


def single_mode(dim, amplitude, n=16):
    g = Grid(dim, n, TWO_PI)
    coeffs = np.zeros(g.spectral_shape, dtype=complex)
    coeffs[(0,) * (dim - 1) + (1,)] = amplitude * g.n**dim / 2.0  # amplitude * cos(x_last)
    f = ScalarField.from_spectrum(g, coeffs)
    return f if dim == 2 else VectorField([f, ScalarField.zeros(g), f * 0.5])


def test_bb_ratio_3d_takes_one_curl(monkeypatch):
    spec = RandomFieldSpec(seed=5, beta=2.0, dim=3, n=16, box_length=TWO_PI, count=1)
    omega = random_family(spec)[0]
    expect = bb_ratio_3d(omega)
    curls = []
    for module in (bb_lab, biot_savart):
        monkeypatch.setattr(module, "curl3d", lambda w: curls.append(w) or curl3d(w))
    assert bb_ratio_3d(omega) == expect
    assert len(curls) == 1


def spectra(comps):
    return np.stack([c.spectrum() for c in comps])


class TestNonconstantCheck:
    """The Hausdorff-Young shortcut makes the decision of the exact rule
    den <= 1e-12 * max(max|w|, 1)."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("amplitude", [5.0, 0.25])
    @pytest.mark.parametrize("factor", [0.0, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1e9])
    def test_same_decision_as_max_rule(self, dim, amplitude, factor):
        omega = single_mode(dim, amplitude)
        comps = omega.components if dim == 3 else (omega,)
        scale = max(float(np.max(np.abs(c.samples))) for c in comps)
        den = factor * 1e-12 * max(scale, 1.0)
        exact_rejects = den <= 1e-12 * max(scale, 1.0)
        try:
            bb_lab._check_nonconstant(den, spectra(comps), PlaneSampler(comps[0].grid), "w")
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == exact_rejects

    def test_constant_field_rejected(self):
        g = Grid(3, 16, TWO_PI)
        c = ScalarField(g, np.full(g.shape, 3.0))
        with pytest.raises(ValueError, match="denominator vanishes"):
            bb_ratio_3d(VectorField([c, c, c]))

    def test_undecided_bound_reads_evaluation_grid_samples(self, monkeypatch):
        comps = single_mode(3, 5.0).components
        sampled = sampler_calls(monkeypatch)
        with pytest.raises(ValueError, match="denominator vanishes"):
            bb_lab._check_nonconstant(0.0, spectra(comps), PlaneSampler(comps[0].grid, 32), "w")
        assert sampled == [32, 32, 32]  # one sample per component

    def test_cleared_denominator_reads_no_samples(self, monkeypatch):
        comps = single_mode(3, 5.0).components
        shapes = irfftn_shapes(monkeypatch)
        bb_lab._check_nonconstant(1.0, spectra(comps), PlaneSampler(comps[0].grid), "w")
        assert shapes == []
