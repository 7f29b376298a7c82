"""Velocity recovery from vorticity and the divergence-free projection.

On the torus a nonzero-mean vorticity has no periodic stream function, so
mean-zero input is a hard precondition; experiments use zero-circulation
configurations (dipoles).  The inverse Laplacian zero mode is set to zero
(mean-zero gauge for the velocity).
"""

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    curl3d,
    divergence_spectrum,
    fractional_laplacian,
    hs_sq,
    mean_is_negligible,
)


class CirculationObstructionError(ValueError):
    """Raised for nonzero-mean vorticity: no periodic Biot-Savart velocity exists."""


def _check_mean_zero(f: ScalarField, what: str):
    if not mean_is_negligible(f):
        raise CirculationObstructionError(
            f"circulation obstruction on torus: {what} has nonzero mean "
            f"{f.mean():.3e} (|mean| must be <= 1e-10 * max|field|)"
        )


class SolenoidalVectorField(VectorField):
    """VectorField whose discrete divergence is negligible relative to its size
    (both L2 norms, taken by Parseval on the component spectra)."""

    def __init__(self, components):
        super().__init__(components)
        g = self.grid
        size = np.sqrt(sum(hs_sq(g, c.spectrum()) for c in self.components))
        if size > 0:
            div = np.sqrt(hs_sq(g, divergence_spectrum(self)))
            if div > 1e-8 * size:
                raise ValueError(
                    f"field is not solenoidal: |div|_2 = {div:.3e} vs 1e-8 * |u|_2"
                )


def velocity_from_vorticity_2d(omega: ScalarField) -> SolenoidalVectorField:
    """2D Biot-Savart: v = (-Lap)^{-1} (d2 omega, -d1 omega)."""
    g = omega.grid
    if g.dim != 2:
        raise ValueError("velocity_from_vorticity_2d requires a 2D scalar field")
    _check_mean_zero(omega, "vorticity")
    psi = g.kpow(-2.0) * omega.spectrum()
    return SolenoidalVectorField.from_spectra(
        g, [1j * g.deriv_wavenumber(1) * psi, -1j * g.deriv_wavenumber(0) * psi])


def velocity_from_vorticity_3d(omega: VectorField) -> SolenoidalVectorField:
    """3D Biot-Savart: v = (-Lap)^{-1} (curl omega)."""
    if omega.grid.dim != 3:
        raise ValueError("velocity_from_vorticity_3d requires a 3D vector field")
    for c in omega.components:
        _check_mean_zero(c, "vorticity component")
    return SolenoidalVectorField(fractional_laplacian(curl3d(omega), -2.0).components)


def leray_project(u: VectorField) -> SolenoidalVectorField:
    """Remove the gradient part: u_hat -> u_hat - k (k . u_hat) / |k|^2.

    Uses the same Nyquist-zeroed wavenumbers as the divergence operator, so
    the output is solenoidal for that operator (Nyquist planes pass through
    untouched, as they carry no discrete derivative).
    """
    g = u.grid
    k = [g.deriv_wavenumber(a) for a in range(g.dim)]
    ksq = sum(ka**2 for ka in k)
    inv = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    uh = [c.spectrum() for c in u.components]
    kdotu = sum(k[a] * uh[a] for a in range(g.dim))
    proj = [uh[a] - k[a] * kdotu * inv for a in range(g.dim)]
    # pure-gradient inputs leave only roundoff; snap that to exact zero so
    # the solenoidal invariant is not tested against noise
    size_in = np.sqrt(sum(hs_sq(g, c) for c in uh))
    size_out = np.sqrt(sum(hs_sq(g, c) for c in proj))
    if size_out <= 1e-12 * size_in:
        proj = [np.zeros_like(c) for c in proj]
    return SolenoidalVectorField.from_spectra(g, proj)
