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
    PlaneSampler,
    ScalarField,
    VectorField,
    curl3d,
    divergence,
    fractional_laplacian,
    gradient,
    _magnitude,
    batch_samples,
    hs_norm,
    magnitude_norm,
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


def padded_refine(f, n_new):
    """f (scalar or vector) on the n_new grid from its half spectrum with the
    Nyquist planes dropped, placed by wavenumber into a zero n_new-point half
    spectrum and scaled: the zero-padding reference of the staged transform,
    as a field that holds that spectrum."""
    if isinstance(f, VectorField):
        return VectorField([padded_refine(c, n_new) for c in f.components])
    g = f.grid
    fine = Grid(g.dim, n_new, g.box_length)
    k = np.fft.fftfreq(g.n, 1.0 / g.n).astype(int)
    keep = [np.flatnonzero(np.abs(k) < g.n // 2)] * (g.dim - 1) + [np.arange(g.n // 2)]
    coeffs = np.zeros(fine.spectral_shape, dtype=np.complex128)
    coeffs[np.ix_(*[k[i] % n_new for i in keep])] = (
        f.spectrum()[np.ix_(*keep)] * (n_new / g.n) ** g.dim)
    return ScalarField.from_spectrum(fine, coeffs)


def spectral_refine(f, n_new):
    """f (scalar or vector) on the n_new grid as a field that holds the
    samples a ``PlaneSampler`` gives it, or f itself at its own n."""
    if isinstance(f, VectorField):
        return VectorField([spectral_refine(c, n_new) for c in f.components])
    g = f.grid
    if n_new == g.n:
        return f
    fine = Grid(g.dim, n_new, g.box_length)
    return ScalarField(fine, PlaneSampler(g, n_new)(f.spectrum()))


def staged_sampler(grid, n_new):
    """A PlaneSampler that runs the staged transform even onto the field's own
    grid, where it otherwise takes ``batch_samples``, so that its Nyquist-free
    zero padding is checked at factor 1 too."""
    sample = PlaneSampler(grid, n_new)
    sample.own = False
    return sample


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
        assert_close(gradient(c).components[a].samples, ref_derivative(c, a))
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
@given(grid=grids, seed=seeds, factor=st.sampled_from([1, 2, 3]))
def test_sampler_on_own_grid_and_finer(grid, seed, factor):
    # batch_samples on the field's own grid, else the samples of its refinement
    rng = np.random.default_rng(seed)
    v = VectorField([band_limited(grid, rng) for _ in range(grid.dim)])
    sample = PlaneSampler(grid, factor * grid.n)
    assert sample.eval_grid == Grid(grid.dim, factor * grid.n, grid.box_length)
    assert PlaneSampler(grid).eval_grid == grid
    want = padded_refine(v, factor * grid.n)  # Nyquist-free: equal at factor 1 too
    for a, b in zip(v.components, want.components):
        assert np.array_equal(sample(a.spectrum()), b.samples)
        if factor == 1:
            assert np.array_equal(sample(a.spectrum()), batch_samples(grid, a.spectrum()))


@PROPERTY
@given(grid=st.builds(Grid, dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 10, 16]),
                      box_length=st.sampled_from([2.0 * np.pi, 3.0])),
       seed=seeds, factor=st.sampled_from([1, 2, 3, 4]))
def test_refined_samples_equal_zero_padding_bitwise(grid, seed, factor):
    # unrestricted input, so the dropped Nyquist planes matter too
    f = ScalarField(grid, np.random.default_rng(seed).standard_normal(grid.shape))
    n_new = factor * grid.n
    want = padded_refine(f, n_new).samples
    assert np.array_equal(staged_sampler(grid, n_new)(f.spectrum()), want)
    assert_close(want, ref_refine(f, n_new))


@PROPERTY
@given(grid=st.builds(Grid, dim=st.sampled_from([2, 3]), n=st.sampled_from([8, 10, 16]),
                      box_length=st.sampled_from([2.0 * np.pi, 3.0])),
       seed=seeds, factor=st.sampled_from([1, 2, 3, 4]))
def test_reused_sampler_equals_zero_padding_bitwise(grid, seed, factor):
    # one sampler over a sequence of different spectra: its kept buffers must
    # hold nothing of an earlier call (unrestricted input, Nyquist planes too)
    rng = np.random.default_rng(seed)
    sample, staged = PlaneSampler(grid, factor * grid.n), staged_sampler(grid, factor * grid.n)
    for _ in range(3):
        f = ScalarField(grid, rng.standard_normal(grid.shape))
        want = padded_refine(f, factor * grid.n).samples
        assert np.array_equal(staged(f.spectrum()), want)
        if factor > 1:
            assert np.array_equal(sample(f.spectrum()), want)


@pytest.mark.parametrize("dim", [2, 3])
def test_non_integer_refinement_equals_zero_padding_bitwise(dim):
    # 16 -> 24 on L = 3: the kept modes sit at no common sub-lattice
    grid = Grid(dim, 16, 3.0)
    v = VectorField([band_limited(grid, np.random.default_rng(dim + a)) for a in range(dim)])
    fine = spectral_refine(v, 24)
    sample = PlaneSampler(grid, 24)  # one sampler, reused over the components
    for c, got, want in zip(v.components, fine.components, padded_refine(v, 24).components):
        assert got.grid == want.grid == Grid(dim, 24, 3.0)
        assert np.array_equal(got.samples, want.samples)
        assert np.array_equal(sample(c.spectrum()), want.samples)


@PROPERTY
@given(grid=grids, seed=seeds)
def test_vector_refine_and_restrict(grid, seed):
    # refined component by component; the coarse points of the refinement
    # restrict it back to the input
    rng = np.random.default_rng(seed)
    v = VectorField([band_limited(grid, rng) for _ in range(grid.dim)])
    fine = spectral_refine(v, 2 * grid.n)
    for b, c in zip(fine.components, v.components):
        assert_close(b.samples[(slice(None, None, 2),) * grid.dim], c.samples)


@PROPERTY
@given(grid=grids, seed=seeds, power=st.sampled_from([-1.0, 0.5, 2.0]))
def test_vector_fractional_laplacian(grid, seed, power):
    v = random_vector(grid, np.random.default_rng(seed), mean_zero=True)

    def on_stack(f, p):  # a vector field takes the multiplier on its component stack
        return VectorField(fractional_laplacian(f.stack, p)) if isinstance(f, VectorField) \
            else fractional_laplacian(f, p)

    assert_componentwise(on_stack, v, power)


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


def general_magnitude_norm(planes, grid, p):
    """(sum |m|^p h^d)^(1/p) of m = sqrt(sum of squared planes), by pow."""
    m = np.sqrt(np.sum(planes * planes, axis=0))
    if np.isinf(p):
        return float(np.max(m))
    return float((float(np.sum(m ** float(p))) * grid.cell_measure) ** (1.0 / p))


@PROPERTY
@given(grid=grids, seed=seeds, count=st.sampled_from([1, 2, 3, 9]),
       factor=st.sampled_from([1, 2]), p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, np.inf]))
def test_magnitude_norm_fast_paths_match_general_formula(grid, seed, count, factor, p):
    rng = np.random.default_rng(seed)
    spectra = [band_limited(grid, rng).spectrum() for _ in range(count)]
    sample = PlaneSampler(grid, factor * grid.n)
    planes = np.stack([sample(s).copy() for s in spectra])
    want = general_magnitude_norm(planes, sample.eval_grid, p)
    got = magnitude_norm(sample, spectra, p, "m")
    assert abs(got - want) <= 1e-15 * want
    if p in (1.0, 1.5, 2.0, np.inf):  # the same operations in the same order
        assert got == want


@pytest.mark.parametrize("bad, p", [(1e200, 2.0), (1e200, 1.0), (1e200, np.inf), (np.nan, 3.0)])
def test_magnitude_norm_names_itself_when_not_finite(bad, p):
    grid = Grid(3, 8, 2.0 * np.pi)
    f = band_limited(grid, np.random.default_rng(1))
    spectrum = f.spectrum() * bad if np.isfinite(bad) else np.full(grid.spectral_shape, bad)
    with pytest.raises(ValueError, match=f"norm 'grad f' \\(p = {p:g}\\) must be finite"):
        magnitude_norm(PlaneSampler(grid, 16), [spectrum, spectrum], p, "grad f")
