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

from dataclasses import dataclass, field as dc_field

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


@dataclass
class RatioReport:
    rows: list = dc_field(default_factory=list)
    family_max: float = 0.0
    family_mean: float = 0.0
    discarded: int = 0
    refinement: list = dc_field(default_factory=list)  # (n, family_max) pairs


def random_family(spec: RandomFieldSpec, n_eval: int | None = None):
    """Iterator over the admissible fields, scalar in 2D and solenoidal in
    3D; sample i is built from child seed (spec.seed, i) when it is reached,
    so growing count keeps earlier samples unchanged.  The arguments are
    checked at the call."""
    check_n_eval(spec.grid, n_eval)
    return (_family_member(spec, i, n_eval) for i in range(spec.count))


def _family_member(spec: RandomFieldSpec, i: int, n_eval: int | None):
    """Sample i, from child seed (spec.seed, i); in 3D Leray-projected on
    its own grid, before any refinement."""
    grid, rng = spec.grid, np.random.default_rng((spec.seed, i))
    if spec.dim == 2:
        f = _random_scalar(grid, spec.beta, rng)
    else:
        f = leray_project(random_vector_field(grid, rng, spec.beta))
    return f if n_eval is None else spectral_refine(f, n_eval)


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
                        map_fn=map) -> RatioReport:
    """Evaluate ratio_fn over the family; degenerate samples are discarded
    and counted.  Sample i is built and taken in one task of ``map_fn``
    (``map``, or an executor's), and rows keep the sample-index order."""
    check_n_eval(spec.grid, n_eval)

    def one(i):
        f = _family_member(spec, i, n_eval)
        try:
            return ratio_fn(f)
        except ValueError:
            return None

    report = RatioReport()
    ratios = []
    for i, r in enumerate(map_fn(one, range(spec.count))):
        if r is None:
            report.discarded += 1
            continue
        report.rows.append({"sample": i, "ratio": r})
        ratios.append(r)
    if ratios:
        report.family_max = float(np.max(ratios))
        report.family_mean = float(np.mean(ratios))
    return report


def refinement_study(spec: RandomFieldSpec, ratio_fn, n_levels) -> RatioReport:
    """Family max as a function of evaluation resolution (fixed mode content)."""
    report = None
    trace = []
    for n_eval in n_levels:
        rep = family_ratio_report(spec, ratio_fn, n_eval=n_eval)
        trace.append((int(n_eval), rep.family_max))
        report = rep
    report.refinement = trace
    return report
