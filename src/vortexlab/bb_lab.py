"""Empirical ratio experiments for the critical L1-based velocity estimates.

The continuum constants are never asserted; the lab measures family maxima
of the estimate ratios over seeded random fields and checks that they are
stable under grid refinement.  Random fields are built from a fixed master
mode lattice, so refinement changes only the quadrature, not the function.
The fields are drawn by ``random_data``.
The ratios do their spectral work on the input's band lattice and refine
only what a norm samples: bitwise the full-grid values at a power-of-two
refinement; at another factor (16 -> 48 rescales by 27) they move in the
last place (<= 4e-16 relative measured).
"""

from dataclasses import dataclass

import numpy as np

from .biot_savart import (
    leray_project,
    velocity_from_vorticity_2d,
    velocity_from_vorticity_3d,
)
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    curl3d,
    gradient,
    jacobian_magnitude,
    lp_norm,
    on_band_lattice,
    spectral_refine,
)
from .family import Family, family_report
from .random_data import _random_scalar, check_n_eval, random_vector_field


@dataclass(frozen=True)
class RandomFieldSpec:
    """Seeded family of mean-zero fields with |w_hat(k)| ~ (1+|k|^2)^(-beta/2)."""

    seed: int
    beta: float
    dim: int
    n: int
    box_length: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def grid(self) -> Grid:
        return Grid(self.dim, self.n, self.box_length)


def random_family(spec: RandomFieldSpec, n_eval: int | None = None) -> Family:
    """The admissible fields, scalar in 2D and solenoidal in 3D (projected on
    their own grid, before any refinement); arguments are checked at the call."""
    check_n_eval(spec.grid, n_eval)

    def build(rng):
        if spec.dim == 2:
            f = _random_scalar(spec.grid, spec.beta, rng)
        else:
            f = leray_project(random_vector_field(spec.grid, rng, spec.beta))
        return f if n_eval is None else spectral_refine(f, n_eval)

    return Family(build, spec.seed, spec.count)


def _check_nonconstant(den: float, band, comps, what: str):
    """Reject when den <= 1e-12 * max(max|w|, 1) over the components comps;
    their samples are read only when den does not clear twice (for roundoff)
    the Hausdorff-Young bound sum|w_hat| / N^d of their band-lattice ones."""
    g = band[0].grid
    bound = max(np.sum(g.sobolev_weight(0) * np.abs(c.spectrum())) for c in band) / g.n**g.dim
    if den <= 1e-12 * max(2.0 * bound, 1.0) and den <= 1e-12 * max(
            max(float(np.max(np.abs(c.samples))) for c in comps), 1.0):
        raise ValueError(f"{what} rejected: denominator vanishes (constant field)")


def bb_ratio_2d(omega: ScalarField) -> float:
    """(|v|_Linf + |grad v|_L2) / |grad w|_L1 with v from the 2D inversion."""
    (w,), up = on_band_lattice(omega)
    den = lp_norm(up(gradient(w)), 1)
    _check_nonconstant(den, [w], [omega], "bb_ratio_2d")
    v = up(velocity_from_vorticity_2d(w))
    num = lp_norm(v, np.inf) + lp_norm(jacobian_magnitude(v), 2)
    return num / den


def bb_ratio_3d(omega: VectorField) -> float:
    """(|v|_L3 + |grad v|_L{3/2}) / |curl w|_L1 with v from the 3D inversion."""
    (w,), up = on_band_lattice(omega)
    den = lp_norm(up(curl3d(w)), 1)
    _check_nonconstant(den, w.components, omega.components, "bb_ratio_3d")
    v = up(velocity_from_vorticity_3d(w))
    num = lp_norm(v, 3) + lp_norm(jacobian_magnitude(v), 1.5)
    return num / den


def gn_ratio(omega: ScalarField) -> float:
    """|w|_L2 / |grad w|_L1 (the interpolation step of the well-posedness proof)."""
    (w,), up = on_band_lattice(omega)
    den = lp_norm(up(gradient(w)), 1)
    _check_nonconstant(den, [w], [omega], "gn_ratio")
    return lp_norm(omega, 2) / den


def family_ratio_report(spec: RandomFieldSpec, ratio_fn, n_eval: int | None = None,
                        map_fn=map) -> dict:
    """``family_report`` of ratio_fn over the family; a sample whose ratio
    raises ValueError is degenerate."""

    def row(i, f):
        try:
            return {"sample": i, "ratio": ratio_fn(f)}
        except ValueError:
            return None

    return family_report(random_family(spec, n_eval), row, map_fn)


def refinement_study(spec: RandomFieldSpec, ratio_fn, n_levels, map_fn=map) -> list:
    """One family report per evaluation resolution (fixed mode content),
    each with its ``n_eval``; the levels run one after another."""
    return [{"n_eval": int(m), **family_ratio_report(spec, ratio_fn, m, map_fn)}
            for m in n_levels]
