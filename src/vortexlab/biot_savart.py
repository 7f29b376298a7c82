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
    _l2_sizes,
    _readonly,
    curl3d,
    fractional_laplacian,
    mean_is_negligible,
)


class CirculationObstructionError(ValueError):
    """Raised for nonzero-mean vorticity: no periodic Biot-Savart velocity exists."""


def _check_mean_zero(f: ScalarField, what: str):
    """Raise unless f, or each field of a stack, is mean-zero (naming its first bad row)."""
    bad = np.flatnonzero(~np.asarray(mean_is_negligible(f)))
    if bad.size:
        i = np.unravel_index(bad[0], f.lead)  # () for one field
        row = f" {', '.join(map(str, i))} of {', '.join(map(str, f.lead))}" if i else ""
        raise CirculationObstructionError(
            f"circulation obstruction on torus: {what}{row} has nonzero mean "
            f"{(f[i] if i else f).mean():.3e} (|mean| must be <= 1e-10 * max|field|)")


class SolenoidalVectorField(VectorField):
    """VectorField, or stack of them, whose discrete divergence is below 1e-8
    of its size (both L2 norms, by Parseval on the component spectra; |i k.u| = |k.u|)."""

    def __init__(self, components):
        super().__init__(components)
        g, uh = self.grid, self.stack.spectrum()
        size, div = _l2_sizes(g, uh, sum(g.deriv_wavenumber(a) * uh[a] for a in range(g.dim))[None])
        bad = np.flatnonzero((size > 0) & (div > 1e-8 * size))
        if bad.size:
            ratio = np.ravel(div)[bad[0]] / np.ravel(size)[bad[0]]
            raise ValueError(f"field is not solenoidal: |div|_2 / |u|_2 = {ratio:.3e} > 1e-8")


def velocity_from_vorticity_2d(omega: ScalarField) -> SolenoidalVectorField:
    """2D Biot-Savart v = (-Lap)^{-1} (d2 omega, -d1 omega) of a vorticity,
    or of each of a stack (a velocity of stacked components): each vorticity
    must be mean-zero and each velocity solenoidal."""
    g = omega.grid
    if g.dim != 2:
        raise ValueError("velocity_from_vorticity_2d requires a 2D scalar field")
    _check_mean_zero(omega, "vorticity")
    # one array for both components: as two, the Picard CLI runs took 7x the page faults
    v = g.biot_savart_pair().reshape((2,) + (1,) * len(omega.lead) + g.spectral_shape) * (
        g.kpow(-2.0) * omega.spectrum())
    # not scanned again: omega was, and the multipliers are at most L / 2 pi in size
    return SolenoidalVectorField(ScalarField._held(g, spectrum=_readonly(v)))


def velocity_from_vorticity_3d(omega: VectorField) -> SolenoidalVectorField:
    """3D Biot-Savart: v = (-Lap)^{-1} (curl omega)."""
    if omega.grid.dim != 3:
        raise ValueError("velocity_from_vorticity_3d requires a 3D vector field")
    return velocity_from_curl_3d(omega, curl3d(omega))


def velocity_from_curl_3d(omega: VectorField, curl_omega: VectorField) -> SolenoidalVectorField:
    """3D Biot-Savart from a curl the caller already holds: v = (-Lap)^{-1}
    curl_omega, where curl_omega is curl3d(omega), which is checked mean-zero."""
    _check_mean_zero(omega.stack, "vorticity component")
    return SolenoidalVectorField(fractional_laplacian(curl_omega.stack, -2.0))


def leray_project(u: VectorField) -> SolenoidalVectorField:
    """Remove the gradient part: u_hat -> u_hat - k (k . u_hat) / |k|^2.

    Uses the same Nyquist-zeroed wavenumbers as the divergence operator, so
    the output is solenoidal for that operator (Nyquist planes pass through
    untouched, as they carry no discrete derivative).
    """
    g, uh = u.grid, u.stack.spectrum()
    k = [g.deriv_wavenumber(a) for a in range(g.dim)]  # each broadcasts along the stack axes
    k_dot_u, inv = sum(k[a] * uh[a] for a in range(g.dim)), g.inverse_deriv_ksq()
    proj = np.empty_like(uh)
    for a in range(g.dim):
        np.subtract(uh[a], k[a] * k_dot_u * inv, out=proj[a])
    # pure-gradient inputs leave only roundoff; snap that to exact zero so
    # the solenoidal invariant is not tested against noise
    size_in, size_out = _l2_sizes(g, uh, proj)
    proj[:, size_out <= 1e-12 * size_in] = 0.0  # one field: a 0-d mask, all or nothing
    return SolenoidalVectorField(ScalarField.from_spectrum(g, proj))
