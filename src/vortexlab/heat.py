"""Heat semigroup, and exact-in-time Duhamel weights as spectral multipliers.

A source linear in time on a panel of length dt is integrated exactly
against the heat kernel, mode by mode (exponential time differencing, Cox &
Matthews 2002).  With z = |k|^2 dt, phi1(z) = (1 - e^-z)/z and
psi(z) = (1 - e^-z - z e^-z)/z^2, the weights are E = e^-z,
w_old = dt psi(z) and w_new = dt (phi1(z) - psi(z)).  For z < SERIES_Z the
closed forms cancel badly, so truncated Taylor series are used there
(cf. Kassam & Trefethen 2005); both branches agree to ~1e-15 at SERIES_Z.
That series/closed-form evaluation, ``_series_or_closed``, also builds the
wave solver's panel weights (``maxwell_wave.wave_weights``).
"""

from math import factorial

import numpy as np

from .fields import ScalarField

SERIES_Z = 0.1
SERIES_TERMS = 12  # truncation error < 1e-17 relative for z < SERIES_Z


def heat_evolve(f: ScalarField, t) -> ScalarField:
    """exp(t * Laplacian) f (viscosity 1) for a time t >= 0, or for each time
    of a 1-D array t: a stack whose leading axis is t's."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError(f"heat_evolve requires t >= 0, got {t}")
    decay = np.exp(-f.grid.ksq() * t.reshape(t.shape + (1,) * f.grid.dim))
    return ScalarField.from_spectrum(f.grid, decay * f.spectrum())


def _series_or_closed(z: np.ndarray, coeff, closed):
    """An entire function of z >= 0: the Horner sum of coeff(n) (-z)^n over
    SERIES_TERMS terms where z < SERIES_Z, else closed(z), which is never
    handed a z below SERIES_Z (those entries get 1, so z = 0 stays finite)."""
    small = z < SERIES_Z
    series, zs = 0.0, np.where(small, z, 0.0)  # the series only where it is kept
    for n in reversed(range(SERIES_TERMS)):
        series = coeff(n) - zs * series
    return np.where(small, series, closed(np.where(small, 1.0, z)))


def etd_weights(ksq: np.ndarray, dt: float):
    """Per-mode (E, w_old, w_new) of one Duhamel panel of length dt: for a
    source linear from d_old to d_new across the panel,
    ``E * S + w_old * d_old + w_new * d_new`` is exp(dt Lap) S plus the
    exact panel integral of exp((end - s) Lap) d(s) ds."""
    if not dt > 0:
        raise ValueError(f"etd_weights requires dt > 0, got {dt}")
    z = np.asarray(ksq, dtype=np.float64) * dt
    phi1 = _series_or_closed(z, lambda n: 1.0 / factorial(n + 1), lambda z: -np.expm1(-z) / z)
    with np.errstate(over="ignore"):  # a z^2 past the float range gives psi's limit, 0
        psi = _series_or_closed(z, lambda n: 1.0 / (factorial(n) * (n + 2)),
                                lambda z: (-np.expm1(-z) - z * np.exp(-z)) / z**2)
    return np.exp(-z), dt * psi, dt * (phi1 - psi)
