"""Velocity recovery from vorticity and the solenoidal projection."""

import numpy as np
import pytest

from vortexlab.biot_savart import (
    CirculationObstructionError,
    SolenoidalVectorField,
    leray_project,
    velocity_from_curl_3d,
    velocity_from_vorticity_2d,
    velocity_from_vorticity_3d,
)
from vortexlab.fields import (
    Grid,
    ScalarField,
    VectorField,
    curl2d,
    curl3d,
    divergence,
    gradient,
    lp_norm,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture
def g2():
    return Grid(2, 64, TWO_PI)


@pytest.fixture
def g3():
    return Grid(3, 16, TWO_PI)


def random_mean_zero(grid, seed, beta=3.0):
    """Admissible random field: mean-zero, Nyquist-free, smooth decay."""
    rng = np.random.default_rng(seed)
    coeffs = np.fft.rfftn(rng.standard_normal(grid.shape))
    coeffs *= (1.0 + grid.ksq()) ** (-beta / 2.0)
    coeffs.ravel()[0] = 0.0
    nyq = grid.n // 2
    for a in range(grid.dim):
        idx = [slice(None)] * grid.dim
        idx[a] = nyq
        coeffs[tuple(idx)] = 0.0
    return ScalarField.from_spectrum(grid, coeffs)


class Test2D:
    def test_zero_maps_to_zero(self, g2):
        v = velocity_from_vorticity_2d(ScalarField.zeros(g2))
        assert all(np.max(np.abs(c.samples)) == 0.0 for c in v.components)

    def test_single_mode_closed_form(self, g2):
        # w = cos x1 -> v = (0, sin x1)
        w = ScalarField.from_function(g2, lambda x, y: np.cos(x))
        v = velocity_from_vorticity_2d(w)
        x = g2.meshgrid()[0]
        assert np.max(np.abs(v.components[0].samples)) < 1e-10
        assert np.max(np.abs(v.components[1].samples - np.sin(x))) < 1e-10

    def test_curl_inverts(self, g2):
        w = random_mean_zero(g2, 2)
        v = velocity_from_vorticity_2d(w)
        back = curl2d(v)
        assert lp_norm(back - w, 2) < 1e-10 * lp_norm(w, 2)

    def test_divergence_free(self, g2):
        w = random_mean_zero(g2, 3)
        v = velocity_from_vorticity_2d(w)
        assert lp_norm(divergence(v), 2) < 1e-10 * lp_norm(v, 2)

    def test_nonzero_circulation_rejected(self, g2):
        w = ScalarField(g2, np.ones(g2.shape))
        with pytest.raises(CirculationObstructionError):
            velocity_from_vorticity_2d(w)

    def test_stack_rejects_any_nonzero_mean_member(self, g2):
        spectra = np.stack([random_mean_zero(g2, 20 + i).spectrum() for i in range(3)])
        spectra[2, 0, 0] = 1e-3 * g2.n**2
        with pytest.raises(CirculationObstructionError, match="nonzero mean 1.000e-03"):
            velocity_from_vorticity_2d(ScalarField.from_spectrum(g2, spectra))


    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_cached_pair_matches_the_rebuilt_multipliers(self, lead):
        g = Grid(2, 32, 3.0)
        rng = np.random.default_rng(5)
        w = ScalarField(g, rng.standard_normal(lead + g.shape))
        w = ScalarField.from_spectrum(g, w.spectrum() - w.spectrum()[..., :1, :1])  # mean-zero
        k = [g.deriv_wavenumber(a) for a in range(2)]
        pair = np.stack(np.broadcast_arrays(1j * k[1], -1j * k[0]))
        expect = pair.reshape((2,) + (1,) * len(lead) + g.spectral_shape) * (
            g.kpow(-2.0) * w.spectrum())
        assert velocity_from_vorticity_2d(w).stack.spectrum().tobytes() == expect.tobytes()
        assert g.biot_savart_pair() is Grid(2, 32, 3.0).biot_savart_pair()
        assert not g.biot_savart_pair().flags.writeable


class Test3D:
    def _solenoidal(self, g3, seed):
        comps = [random_mean_zero(g3, seed + i) for i in range(3)]
        return leray_project(VectorField(comps))

    def test_zero_maps_to_zero(self, g3):
        v = velocity_from_vorticity_3d(VectorField.zeros(g3))
        assert all(np.max(np.abs(c.samples)) == 0.0 for c in v.components)

    def test_single_mode_closed_form(self, g3):
        # w = (0, 0, cos x1) -> v = (0, sin x1, 0)
        x = g3.meshgrid()[0]
        w = VectorField([
            ScalarField.zeros(g3),
            ScalarField.zeros(g3),
            ScalarField(g3, np.cos(x)),
        ])
        v = velocity_from_vorticity_3d(w)
        assert np.max(np.abs(v.components[0].samples)) < 1e-10
        assert np.max(np.abs(v.components[1].samples - np.sin(x))) < 1e-10
        assert np.max(np.abs(v.components[2].samples)) < 1e-10

    def test_curl_inverts_on_solenoidal_data(self, g3):
        w = self._solenoidal(g3, 40)
        v = velocity_from_vorticity_3d(w)
        back = curl3d(v)
        err = sum(lp_norm(b - a, 2) for a, b in zip(w.components, back.components))
        assert err < 1e-8 * lp_norm(w, 2)

    def test_linearity(self, g3):
        w1 = self._solenoidal(g3, 44)
        w2 = self._solenoidal(g3, 47)
        combo = velocity_from_vorticity_3d(
            VectorField([a * 2.0 + b * (-3.0)
                         for a, b in zip(w1.components, w2.components)])
        )
        parts = [
            velocity_from_vorticity_3d(w1),
            velocity_from_vorticity_3d(w2),
        ]
        for c, a, b in zip(combo.components, parts[0].components,
                           parts[1].components):
            expect = a * 2.0 + b * (-3.0)
            assert lp_norm(c - expect, 2) < 1e-10 * max(lp_norm(expect, 2), 1e-300)

    def test_curl_entry_matches(self, g3):
        w = self._solenoidal(g3, 60)
        via_curl = velocity_from_curl_3d(w, curl3d(w))
        assert np.array_equal(via_curl.stack.spectrum(), velocity_from_vorticity_3d(w).stack.spectrum())

    def test_nonzero_mean_component_rejected(self, g3):
        comps = [random_mean_zero(g3, 50 + i) for i in range(3)]
        comps[1] = comps[1] + ScalarField(g3, np.full(g3.shape, 0.5))
        with pytest.raises(CirculationObstructionError):
            velocity_from_vorticity_3d(VectorField(comps))

    def test_nonzero_mean_component_named(self, g3):
        # the component stack is checked at once, and the message names the row at fault
        comps = [random_mean_zero(g3, 50 + i) for i in range(3)]
        comps[2] = comps[2] + ScalarField(g3, np.full(g3.shape, 0.25))
        with pytest.raises(CirculationObstructionError,
                           match="vorticity component 2 of 3 has nonzero mean 2.500e-01"):
            velocity_from_vorticity_3d(VectorField(comps))


class TestLerayProjection:
    def test_gradient_field_annihilated(self, g2):
        f = random_mean_zero(g2, 7)
        p = leray_project(gradient(f))
        assert lp_norm(p, 2) < 1e-10 * max(lp_norm(gradient(f), 2), 1e-300)

    def test_idempotent(self, g3):
        u = VectorField([random_mean_zero(g3, 60 + i) for i in range(3)])
        p1 = leray_project(u)
        p2 = leray_project(p1)
        diff = sum(
            lp_norm(a - b, 2) for a, b in zip(p1.components, p2.components)
        )
        assert diff < 1e-12 * max(lp_norm(p1, 2), 1e-300)

    def test_output_divergence_free(self, g2):
        u = VectorField([random_mean_zero(g2, 70 + i) for i in range(2)])
        p = leray_project(u)
        assert lp_norm(divergence(p), 2) < 1e-10 * lp_norm(u, 2)

    def test_result_type_validates(self, g2):
        u = VectorField([random_mean_zero(g2, 80 + i) for i in range(2)])
        p = leray_project(u)
        assert isinstance(p, SolenoidalVectorField)
        with pytest.raises(ValueError):
            SolenoidalVectorField(u.components)


    @pytest.mark.parametrize("dim, n, box_length, lead",
                             [(2, 16, TWO_PI, ()), (2, 32, 3.0, (2,)), (3, 8, 2.5, ()),
                              (3, 8, TWO_PI, (3,))])
    def test_matches_the_stacked_wavevector_formula(self, dim, n, box_length, lead):
        # Nyquist content included; each component row is projected by the
        # per-axis wavenumbers and the cached inverse, bitwise as by one
        # stacked wavevector and its squared sum built per call
        g = Grid(dim, n, box_length)
        u = VectorField(ScalarField(
            g, np.random.default_rng(n).standard_normal((dim,) + lead + g.shape)))
        uh = u.stack.spectrum()
        k = np.stack(np.broadcast_arrays(*(g.deriv_wavenumber(a) for a in range(dim))))
        k = k.reshape((dim,) + (1,) * len(lead) + g.spectral_shape)
        ksq = sum(k**2)
        inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
        expect = uh - k * sum(k * uh) * inv
        assert leray_project(u).stack.spectrum().tobytes() == expect.tobytes()
        assert not g.inverse_deriv_ksq().flags.writeable


@pytest.mark.parametrize("n", [8, 16])
def test_3d_velocity_is_inverse_laplacian_of_curl(n):
    # the explicit multiplier (-Lap)^{-1} i k x w_hat, written out in full
    g = Grid(3, n, TWO_PI)
    w = leray_project(VectorField([random_mean_zero(g, 60 + n + i) for i in range(3)]))
    inv = g.kpow(-2.0)
    k = [g.deriv_wavenumber(a) for a in range(3)]
    wh = [c.spectrum() for c in w.components]
    expect = [1j * (k[i] * wh[j] - k[j] * wh[i]) * inv for i, j in ((1, 2), (2, 0), (0, 1))]
    v = velocity_from_vorticity_3d(w)
    assert isinstance(v, SolenoidalVectorField)
    for c, e in zip(v.components, expect):
        assert np.array_equal(c.spectrum(), e)
        assert np.array_equal(c.samples, np.fft.irfftn(e, s=g.shape, axes=range(3)))


class TestUnmeasurableSizes:
    """Fields whose squared L2 norms overflow (size 1e200) or underflow (size
    1e-200): the mean-zero, solenoidal and projection checks still measure
    them, by the samples or at a power-of-two scale."""

    def test_constant_vorticity_has_nonzero_mean(self, g2):
        with pytest.raises(CirculationObstructionError,
                           match="vorticity has nonzero mean 1.000e\\+200"):
            velocity_from_vorticity_2d(ScalarField(g2, np.full(g2.shape, 1e200)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradient_field_is_not_solenoidal(self, dim, scale):
        g = Grid(dim, 16, TWO_PI)
        f = ScalarField.from_function(g, lambda x, y, *z: scale * np.sin(x + 2.0 * y))
        with pytest.raises(ValueError, match="field is not solenoidal"):
            SolenoidalVectorField(gradient(f).stack)

    def test_each_field_of_a_stack_at_its_own_scale(self, g2):
        # row 0 solenoidal at 1e200, row 1 a gradient at 1e-100: at row 0's
        # scale row 1's squares would underflow to 0 and pass as a zero field
        x, y = g2.meshgrid()
        sol = np.stack([np.sin(y), np.zeros(g2.shape)])
        grad = np.stack([np.cos(x + 2.0 * y), 2.0 * np.cos(x + 2.0 * y)])
        SolenoidalVectorField(ScalarField(g2, np.stack([1e200 * sol, 1e-100 * sol], axis=1)))
        with pytest.raises(ValueError, match="field is not solenoidal"):
            SolenoidalVectorField(ScalarField(g2, np.stack([1e200 * sol, 1e-100 * grad], axis=1)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_solenoidal_field_is_kept_by_the_projection(self, g2, scale):
        # u = (scale sin y, 0) has k . u_hat = 0 exactly, so it projects to itself
        u = VectorField([ScalarField.from_function(g2, lambda x, y: scale * np.sin(y)),
                         ScalarField.zeros(g2)])
        p = leray_project(u)
        assert np.max(np.abs(p.stack.spectrum())) > 0.5 * scale
        assert np.array_equal(p.stack.spectrum(), u.stack.spectrum())
