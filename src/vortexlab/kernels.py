"""Hot pointwise kernels with numba and pure-numpy implementations.

Each kernel exists twice: ``*_numpy`` (vectorized numpy, always available)
and ``*_numba`` (an ``@njit`` loop).  The public unsuffixed name is bound at
import time according to the ``VORTEXLAB_NO_NUMBA`` flag, see
:mod:`vortexlab._accel`.  Both paths agree to ~1e-12 relative (summation
order differs).
"""

import numpy as np

from ._accel import NUMBA_ENABLED, njit


# ---------------------------------------------------------------------------
# |f|^p reduction (the inner loop of every Lp norm)

def abs_pow_sum_numpy(a: np.ndarray, p: float) -> float:
    if p == 1.0:
        return float(np.sum(np.abs(a)))
    if p == 2.0:
        return float(np.sum(a * a))
    return float(np.sum(np.abs(a) ** p))


@njit(cache=True)
def _abs_pow_sum_loop(a, p):
    acc = 0.0
    if p == 1.0:
        for i in range(a.size):
            acc += abs(a.flat[i])
    elif p == 2.0:
        for i in range(a.size):
            acc += a.flat[i] * a.flat[i]
    else:
        for i in range(a.size):
            acc += abs(a.flat[i]) ** p
    return acc


def abs_pow_sum_numba(a: np.ndarray, p: float) -> float:
    return float(_abs_pow_sum_loop(np.ascontiguousarray(a).ravel(), p))


# ---------------------------------------------------------------------------
# pointwise Euclidean magnitude of a stack of components, shape (c, ...)

def magnitude_numpy(comps: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(comps * comps, axis=0))


@njit(cache=True)
def _magnitude_loop(comps):
    c, m = comps.shape
    out = np.empty(m)
    for i in range(m):
        acc = 0.0
        for j in range(c):
            acc += comps[j, i] * comps[j, i]
        out[i] = np.sqrt(acc)
    return out


def magnitude_numba(comps: np.ndarray) -> np.ndarray:
    flat = np.ascontiguousarray(comps).reshape(comps.shape[0], -1)
    return _magnitude_loop(flat).reshape(comps.shape[1:])


# ---------------------------------------------------------------------------
# Lamb-Oseen closed forms on a displacement lattice (transcendental-heavy)

def oseen_vorticity_numpy(r2: np.ndarray, t: float, alpha: float) -> np.ndarray:
    return alpha / (4.0 * np.pi * t) * np.exp(-r2 / (4.0 * t))


@njit(cache=True)
def _oseen_vorticity_loop(r2, t, alpha):
    out = np.empty(r2.size)
    c = alpha / (4.0 * np.pi * t)
    inv = 1.0 / (4.0 * t)
    for i in range(r2.size):
        out[i] = c * np.exp(-r2.flat[i] * inv)
    return out


def oseen_vorticity_numba(r2: np.ndarray, t: float, alpha: float) -> np.ndarray:
    return _oseen_vorticity_loop(np.ascontiguousarray(r2).ravel(), t, alpha).reshape(
        r2.shape
    )


def oseen_velocity_numpy(
    dx: np.ndarray, dy: np.ndarray, t: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    r2 = dx * dx + dy * dy
    with np.errstate(divide="ignore", invalid="ignore"):
        fac = alpha / (2.0 * np.pi) * (1.0 - np.exp(-r2 / (4.0 * t))) / r2
    fac = np.where(r2 > 0.0, fac, 0.0)
    return -dy * fac, dx * fac


@njit(cache=True)
def _oseen_velocity_loop(dx, dy, t, alpha):
    vx = np.empty(dx.size)
    vy = np.empty(dx.size)
    c = alpha / (2.0 * np.pi)
    inv = 1.0 / (4.0 * t)
    for i in range(dx.size):
        r2 = dx.flat[i] * dx.flat[i] + dy.flat[i] * dy.flat[i]
        if r2 > 0.0:
            fac = c * (1.0 - np.exp(-r2 * inv)) / r2
        else:
            fac = 0.0
        vx[i] = -dy.flat[i] * fac
        vy[i] = dx.flat[i] * fac
    return vx, vy


def oseen_velocity_numba(
    dx: np.ndarray, dy: np.ndarray, t: float, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    vx, vy = _oseen_velocity_loop(
        np.ascontiguousarray(dx).ravel(), np.ascontiguousarray(dy).ravel(), t, alpha
    )
    return vx.reshape(dx.shape), vy.reshape(dx.shape)


if NUMBA_ENABLED:
    abs_pow_sum = abs_pow_sum_numba
    magnitude = magnitude_numba
    oseen_vorticity_profile = oseen_vorticity_numba
    oseen_velocity_profile = oseen_velocity_numba
else:
    abs_pow_sum = abs_pow_sum_numpy
    magnitude = magnitude_numpy
    oseen_vorticity_profile = oseen_vorticity_numpy
    oseen_velocity_profile = oseen_velocity_numpy
