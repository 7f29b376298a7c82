"""Heat semigroup, and exact-in-time Duhamel weights as spectral multipliers.

A source linear in time on a panel of length dt is integrated exactly
against the heat kernel, mode by mode (exponential time differencing, Cox &
Matthews 2002).  With z = |k|^2 dt, phi1(z) = (1 - e^-z)/z and
psi(z) = (1 - e^-z - z e^-z)/z^2, the weights are E = e^-z,
w_old = dt psi(z) and w_new = dt (phi1(z) - psi(z)).  For z < SERIES_Z the
closed forms cancel badly, so truncated Taylor series are used there
(cf. Kassam & Trefethen 2005); both branches agree to ~1e-15 at SERIES_Z.
"""

from math import factorial

import numpy as np

from .fields import ScalarField, VectorField

SERIES_Z = 0.1
SERIES_TERMS = 12  # truncation error < 1e-17 relative for z < SERIES_Z


def heat_evolve(f, t: float):
    """Apply exp(t * Laplacian) (viscosity 1) to a scalar or vector field."""
    if t < 0:
        raise ValueError(f"heat_evolve requires t >= 0, got {t}")
    if isinstance(f, VectorField):
        return VectorField([heat_evolve(c, t) for c in f.components])
    return ScalarField.from_spectrum(f.grid, np.exp(-f.grid.ksq() * t) * f.spectrum())


def etd_weights(ksq: np.ndarray, dt: float):
    """Per-mode (E, w_old, w_new) of one Duhamel panel of length dt: for a
    source linear from d_old to d_new across the panel,
    ``E * S + w_old * d_old + w_new * d_new`` is exp(dt Lap) S plus the
    exact panel integral of exp((end - s) Lap) d(s) ds."""
    if not dt > 0:
        raise ValueError(f"etd_weights requires dt > 0, got {dt}")
    z = np.asarray(ksq, dtype=np.float64) * dt
    small = z < SERIES_Z
    # Horner: phi1 = sum (-z)^n / (n+1)!,  psi = sum (-z)^n / (n! (n+2))
    phi1_s = psi_s = 0.0
    for n in reversed(range(SERIES_TERMS)):
        phi1_s = 1.0 / factorial(n + 1) - z * phi1_s
        psi_s = 1.0 / (factorial(n) * (n + 2)) - z * psi_s
    zc = np.where(small, 1.0, z)  # keeps the closed forms finite at z = 0
    phi1 = np.where(small, phi1_s, -np.expm1(-zc) / zc)
    psi = np.where(small, psi_s, (-np.expm1(-zc) - zc * np.exp(-zc)) / zc**2)
    return np.exp(-z), dt * psi, dt * (phi1 - psi)
