"""Property tests: the rfftn half-spectrum operators against full-spectrum
references written here with ``numpy.fft.fftn``, on random real fields."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from vortexlab.biot_savart import (
    leray_project,
    velocity_from_vorticity_2d,
    velocity_from_vorticity_3d,
)
from vortexlab.fields import (
    Grid,
    ScalarField,
    VectorField,
    curl3d,
    derivative,
    divergence,
    fractional_laplacian,
    _magnitude,
    hs_norm,
    on_band_lattice,
    spectral_refine,
    spectral_restrict,
)
from vortexlab.heat import heat_evolve

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)
REL = 1e-12

grids = st.builds(
    Grid,
    dim=st.sampled_from([2, 3]),
    n=st.sampled_from([8, 10, 16]),
    box_length=st.sampled_from([2.0 * np.pi, 2.5]),
)
seeds = st.integers(0, 2**32 - 1)


# --- full-spectrum reference -------------------------------------------------

def full_k(grid, deriv=False):
    k1 = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.h)
    if deriv:
        k1[grid.n // 2] = 0.0
    out = []
    for a in range(grid.dim):
        shape = [1] * grid.dim
        shape[a] = grid.n
        out.append(k1.reshape(shape))
    return out


def full_ksq(grid):
    return sum(k**2 for k in full_k(grid))


def fft(f):
    return np.fft.fftn(f.samples)


def ifft(coeffs):
    return np.fft.ifftn(coeffs).real


def ref_derivative(f, axis):
    return ifft(1j * full_k(f.grid, deriv=True)[axis] * fft(f))


def ref_hs_norm(f, s):
    g = f.grid
    power = np.abs(fft(f)) ** 2
    kmag = np.sqrt(full_ksq(g))
    if s != 0:
        power.ravel()[0] = 0.0
        with np.errstate(divide="ignore"):
            power = power * np.where(kmag > 0, kmag ** (2.0 * s), 0.0)
    return np.sqrt(np.sum(power) * g.cell_measure / g.n**g.dim)


def ref_refine(f, n_new):
    g = f.grid
    old = np.fft.fftshift(fft(f))
    for a in range(g.dim):
        idx = [slice(None)] * g.dim
        idx[a] = 0
        old[tuple(idx)] = 0.0
    new = np.zeros((n_new,) * g.dim, dtype=np.complex128)
    lo = (n_new - g.n) // 2
    new[tuple(slice(lo, lo + g.n) for _ in range(g.dim))] = old
    return ifft(np.fft.ifftshift(new) * (n_new / g.n) ** g.dim)


def ref_inv_ksq(grid):
    ksq = full_ksq(grid)
    with np.errstate(divide="ignore"):
        return np.where(ksq > 0, 1.0 / ksq, 0.0)


def ref_leray(u):
    g = u.grid
    k = full_k(g, deriv=True)
    ksq = sum(ka**2 for ka in k)
    with np.errstate(divide="ignore"):
        inv = np.where(ksq > 0, 1.0 / ksq, 0.0)
    uh = [fft(c) for c in u.components]
    kdotu = sum(k[a] * uh[a] for a in range(g.dim))
    return [ifft(uh[a] - k[a] * kdotu * inv) for a in range(g.dim)]


def ref_velocity(omega):
    g = omega.grid
    k = full_k(g, deriv=True)
    inv = ref_inv_ksq(g)
    if g.dim == 2:
        w = fft(omega)
        return [ifft(1j * k[1] * w * inv), ifft(-1j * k[0] * w * inv)]
    w = [fft(c) for c in omega.components]
    return [
        ifft(1j * (k[i] * w[j] - k[j] * w[i]) * inv)
        for i, j in ((1, 2), (2, 0), (0, 1))
    ]


# --- helpers -----------------------------------------------------------------

def random_field(grid, rng, mean_zero=False):
    x = rng.standard_normal(grid.shape)
    return ScalarField(grid, x - x.mean() if mean_zero else x)


def random_vector(grid, rng, mean_zero=False):
    return VectorField([random_field(grid, rng, mean_zero) for _ in range(grid.dim)])


def band_limited(grid, rng):
    """Random real field with its Nyquist planes zeroed, built from its spectrum."""
    coeffs = np.fft.rfftn(rng.standard_normal(grid.shape))
    for a in range(grid.dim):
        np.moveaxis(coeffs, a, 0)[grid.n // 2] = 0.0
    return ScalarField.from_spectrum(grid, coeffs)


def assert_close(got, expect):
    scale = max(np.max(np.abs(expect)), 1e-300)
    assert np.max(np.abs(got - expect)) <= REL * scale


def assert_vector_close(v, expects):
    for c, e in zip(v.components, expects):
        assert_close(c.samples, e)


def assert_componentwise(op, v, *args):
    """op on the vector field v equals op on each component, bitwise."""
    out = op(v, *args)
    assert isinstance(out, VectorField)
    for got, c in zip(out.components, v.components, strict=True):
        expect = op(c, *args)
        assert got.grid == expect.grid
        assert np.array_equal(got.spectrum(), expect.spectrum())
        assert np.array_equal(got.samples, expect.samples)
    return out


# --- properties ----------------------------------------------------------------

@PROPERTY
@given(grid=grids, seed=seeds)
def test_derivative_and_divergence(grid, seed):
    rng = np.random.default_rng(seed)
    v = random_vector(grid, rng)
    for a, c in enumerate(v.components):
        assert_close(derivative(c, a).samples, ref_derivative(c, a))
    expect = sum(ref_derivative(c, a) for a, c in enumerate(v.components))
    assert_close(divergence(v).samples, expect)


@PROPERTY
@given(grid=grids.filter(lambda g: g.dim == 3), seed=seeds)
def test_curl3d(grid, seed):
    c = random_vector(grid, np.random.default_rng(seed)).components
    d = ref_derivative
    assert_vector_close(
        curl3d(VectorField(c)),
        [d(c[2], 1) - d(c[1], 2), d(c[0], 2) - d(c[2], 0), d(c[1], 0) - d(c[0], 1)],
    )


@PROPERTY
@given(grid=grids, seed=seeds, s=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))
def test_hs_norm(grid, seed, s):
    f = random_field(grid, np.random.default_rng(seed), mean_zero=True)
    expect = ref_hs_norm(f, s)
    assert abs(hs_norm(f, s) - expect) <= REL * expect


@PROPERTY
@given(grid=grids, seed=seeds, factor=st.sampled_from([1, 2, 3]))
def test_spectral_refine_band_limited(grid, seed, factor):
    # band-limited: no Nyquist content on any axis, so refinement is exact
    white = np.random.default_rng(seed).standard_normal(grid.shape)
    coeffs = np.fft.fftn(white)
    for a in range(grid.dim):
        idx = [slice(None)] * grid.dim
        idx[a] = grid.n // 2
        coeffs[tuple(idx)] = 0.0
    f = ScalarField(grid, ifft(coeffs))
    n_new = grid.n * factor
    fine = spectral_refine(f, n_new)
    assert_close(fine.samples, ref_refine(f, n_new))
    assert_close(fine.samples[(slice(None, None, factor),) * grid.dim], f.samples)
    if factor > 1:
        # unrestricted input: its Nyquist planes are dropped, as in the reference
        raw = ScalarField(grid, white)
        assert_close(spectral_refine(raw, n_new).samples, ref_refine(raw, n_new))


@PROPERTY
@given(grid=grids, seed=seeds)
def test_spectral_restrict_inverts_refine(grid, seed):
    f = band_limited(grid, np.random.default_rng(seed))
    back = spectral_restrict(spectral_refine(f, 2 * grid.n), grid.n)
    assert back.grid == grid
    assert np.array_equal(back.spectrum(), f.spectrum())
    assert np.array_equal(back.samples, f.samples)


@PROPERTY
@given(grid=grids, seed=seeds)
def test_spectral_restrict_rejects_content_off_the_lattice(grid, seed):
    # one coefficient outside the n lattice, or on its Nyquist planes
    rng = np.random.default_rng(seed)
    fine = spectral_refine(band_limited(grid, rng), 2 * grid.n)
    empty = np.flatnonzero(fine.spectrum() == 0)
    spec = fine.spectrum().copy()
    spec.flat[rng.choice(empty)] = 1.0
    with pytest.raises(ValueError, match="outside"):
        spectral_restrict(ScalarField.from_spectrum(fine.grid, spec), grid.n)


@PROPERTY
@given(grid=grids, seed=seeds)
def test_vector_refine_and_restrict(grid, seed):
    rng = np.random.default_rng(seed)
    v = VectorField([band_limited(grid, rng) for _ in range(grid.dim)])
    fine = assert_componentwise(spectral_refine, v, 2 * grid.n)
    back = assert_componentwise(spectral_restrict, fine, grid.n)
    assert all(np.array_equal(b.spectrum(), c.spectrum())
               for b, c in zip(back.components, v.components))


@PROPERTY
@given(grid=grids, seed=seeds)
def test_vector_restrict_rejects_content_off_the_lattice_in_one_component(grid, seed):
    rng = np.random.default_rng(seed)
    fine = spectral_refine(VectorField([band_limited(grid, rng) for _ in range(grid.dim)]),
                           2 * grid.n)
    comps = list(fine.components)
    a = rng.integers(grid.dim)
    spec = comps[a].spectrum().copy()
    spec.flat[rng.choice(np.flatnonzero(spec == 0))] = 1.0
    comps[a] = ScalarField.from_spectrum(fine.grid, spec)
    with pytest.raises(ValueError, match="outside"):
        spectral_restrict(VectorField(comps), grid.n)


@PROPERTY
@given(grid=grids, seed=seeds, t=st.floats(0.0, 0.5),
       power=st.sampled_from([-1.0, 0.5, 2.0]))
def test_vector_heat_evolve_and_fractional_laplacian(grid, seed, t, power):
    v = random_vector(grid, np.random.default_rng(seed), mean_zero=True)
    assert_componentwise(heat_evolve, v, t)
    assert_componentwise(fractional_laplacian, v, power)


@PROPERTY
@given(grid=grids, seed=seeds)
def test_leray_project(grid, seed):
    u = random_vector(grid, np.random.default_rng(seed))
    assert_vector_close(leray_project(u), ref_leray(u))


@PROPERTY
@given(grid=grids, seed=seeds)
def test_biot_savart(grid, seed):
    rng = np.random.default_rng(seed)
    if grid.dim == 2:
        omega = random_field(grid, rng, mean_zero=True)
        v = velocity_from_vorticity_2d(omega)
    else:
        omega = random_vector(grid, rng, mean_zero=True)
        v = velocity_from_vorticity_3d(omega)
    assert_vector_close(v, ref_velocity(omega))


@PROPERTY
@given(grid=grids, seed=seeds, t=st.floats(0.0, 0.5))
def test_heat_evolve(grid, seed, t):
    f = random_field(grid, np.random.default_rng(seed))
    expect = ifft(np.exp(-full_ksq(grid) * t) * fft(f))
    assert_close(heat_evolve(f, t).samples, expect)


@PROPERTY
@given(planes=st.sampled_from([2, 3, 9]).flatmap(lambda c: arrays(
    np.float64, (c, 5, 4), elements=st.floats(-1e150, 1e150, allow_subnormal=True))))
def test_magnitude_equals_stacked_formula(planes):
    # accumulated plane by plane, it adds in the order np.sum takes over axis 0
    got = _magnitude(iter(list(planes)))
    assert np.array_equal(got, np.sqrt(np.sum(planes * planes, axis=0)))


@PROPERTY
@given(grid=grids, seed=seeds, factor=st.sampled_from([2, 3]))
def test_on_band_lattice_restricts_to_the_band_limit(grid, seed, factor):
    rng = np.random.default_rng(seed)
    padded = [spectral_refine(band_limited(grid, rng), factor * grid.n) for _ in range(2)]
    (a, b), up = on_band_lattice(padded[0], VectorField([padded[1]] * grid.dim))
    assert a.grid == b.grid == grid
    for got, want in ((up(a), padded[0]), (up(b).components[0], padded[1])):
        assert got.grid == want.grid
        assert_close(got.samples, want.samples)


@PROPERTY
@given(grid=grids, seed=seeds)
def test_on_band_lattice_identity_on_full_band(grid, seed):
    f = random_field(grid, np.random.default_rng(seed))  # content on the Nyquist planes
    (same,), up = on_band_lattice(f)
    assert same is f and up(f) is f
