"""Deterministic test-data families shared by the CLI and the experiments;
every seeded draw is made here."""

import numpy as np

from .family import Family
from .fields import Grid, ScalarField, VectorField, batch_samples, check_n_eval
from .maxwell_wave import HarmonicCurrentDensity
from .oseen import min_image_displacements


def two_mode_vorticity(grid: Grid, amplitude: float) -> ScalarField:
    """Mean-zero low-mode pair, amplitude * (cos k1 x + cos 2 k1 y).

    The unequal wavenumbers keep the advective term active (an equal pair
    is a steady Euler state with v . grad w = 0).
    """
    x, y = grid.meshgrid()
    k1 = 2.0 * np.pi / grid.box_length
    return ScalarField(grid, amplitude * (np.cos(k1 * x) + np.cos(2.0 * k1 * y)))


def smooth_bump(grid: Grid) -> ScalarField:
    """Localized mean-zero bump: the x-derivative of a Gaussian of width L/32
    at the box center (odd symmetry makes the lattice mean cancel)."""
    if grid.dim != 2:
        raise ValueError("smooth_bump is 2D")
    L = grid.box_length
    sigma = L / 32.0
    X, Y = min_image_displacements(grid, (L / 2.0, L / 2.0))
    g = np.exp(-(X**2 + Y**2) / (2.0 * sigma**2))
    return ScalarField(grid, (X / sigma**2) * g)


def _random_spectrum(grid: Grid, beta: float, rng) -> np.ndarray:
    """Half spectrum of a mean-zero random field with |f_hat(k)| ~
    (1+|k|^2)^(-beta/2), Nyquist planes zeroed so spectral refinement
    reproduces the field exactly; not yet scaled."""
    coeffs = np.fft.rfftn(rng.standard_normal(grid.shape))
    coeffs *= (1.0 + grid.ksq()) ** (-beta / 2.0)
    coeffs.flat[0] = 0.0
    for a in range(grid.dim):
        np.moveaxis(coeffs, a, 0)[grid.n // 2] = 0.0
    return coeffs


def _random_scalar(grid: Grid, beta: float, rng) -> ScalarField:
    """A ``_random_spectrum`` field scaled to max|f| = 1, holding both domains."""
    f = ScalarField.from_spectrum(grid, _random_spectrum(grid, beta, rng))
    scale = float(np.max(np.abs(f.samples)))
    return f * (1.0 / scale) if scale > 0 else f


def random_vector_field(grid: Grid, rng, beta: float = 2.0) -> VectorField:
    """Mean-zero random vector field with smooth spectral decay: each
    component as ``_random_scalar`` draws it, its scaled spectrum written
    straight into one stack; no samples are held."""
    stack = np.empty((grid.dim,) + grid.spectral_shape, dtype=np.complex128)
    for c in range(grid.dim):
        coeffs = _random_spectrum(grid, beta, rng)
        scale = float(np.max(np.abs(batch_samples(grid, coeffs))))
        np.multiply(coeffs, 1.0 / scale if scale > 0 else 1.0, out=stack[c])
    return VectorField(ScalarField.from_spectrum(grid, stack))


def wave_fixture_family(grid: Grid, seed: int, count: int, n_eval: int | None = None) -> Family:
    """Seeded (B0, B1, j, n_eval) fixtures for the mixed-norm ratio experiments.

    B0, B1 are mean-zero with smooth decay; j oscillates harmonically in
    time with a seeded frequency, so its curl never vanishes identically.
    All three stay on ``grid``; ``n_eval`` (checked at the call) is the
    evaluation grid their physical-space norms sample, so the same fields
    (fixed mode content) serve every level of a refinement-stability run.
    """
    if grid.dim != 3:
        raise ValueError("wave fixtures are 3D")
    check_n_eval(grid, n_eval)

    def build(rng):
        B0, B1, j_cos, j_sin = (random_vector_field(grid, rng) for _ in range(4))
        sigma = float(rng.uniform(0.5, 2.0)) * 2.0 * np.pi / grid.box_length
        return B0, B1, HarmonicCurrentDensity(j_cos, j_sin, sigma), n_eval

    return Family(build, seed, count)
