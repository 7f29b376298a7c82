"""Empirical ratio experiments for the critical L1-based velocity estimates.

The continuum constants are never asserted; the lab measures family maxima
of the estimate ratios over seeded random fields and checks that they are
stable under grid refinement.  Random fields are built from a fixed master
mode lattice, so refinement changes only the quadrature, not the function.
The fields are drawn by ``random_data``.
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
    grid = spec.grid
    check_n_eval(grid, n_eval)
    return (_family_member(spec, grid, np.random.default_rng((spec.seed, i)), n_eval)
            for i in range(spec.count))


def _family_member(spec: RandomFieldSpec, grid: Grid, rng, n_eval: int | None):
    if spec.dim == 2:
        f = _random_scalar(grid, spec.beta, rng)
    else:
        f = random_vector_field(grid, rng, spec.beta)
    if n_eval is not None:
        f = spectral_refine(f, n_eval)
    return f if spec.dim == 2 else leray_project(f)


def _check_nonconstant(den: float, scale: float, what: str):
    if den <= 1e-12 * max(scale, 1.0):
        raise ValueError(f"{what} rejected: denominator vanishes (constant field)")


def bb_ratio_2d(omega: ScalarField) -> float:
    """(|v|_Linf + |grad v|_L2) / |grad w|_L1 with v from the 2D inversion."""
    den = lp_norm(gradient(omega), 1)
    _check_nonconstant(den, float(np.max(np.abs(omega.samples))), "bb_ratio_2d")
    v = velocity_from_vorticity_2d(omega)
    num = lp_norm(v, np.inf) + lp_norm(jacobian_magnitude(v), 2)
    return num / den


def bb_ratio_3d(omega: VectorField) -> float:
    """(|v|_L3 + |grad v|_L{3/2}) / |curl w|_L1 with v from the 3D inversion."""
    den = lp_norm(curl3d(omega), 1)
    scale = max(float(np.max(np.abs(c.samples))) for c in omega.components)
    _check_nonconstant(den, scale, "bb_ratio_3d")
    v = velocity_from_vorticity_3d(omega)
    num = lp_norm(v, 3) + lp_norm(jacobian_magnitude(v), 1.5)
    return num / den


def gn_ratio(omega: ScalarField) -> float:
    """|w|_L2 / |grad w|_L1 (the interpolation step of the well-posedness proof)."""
    den = lp_norm(gradient(omega), 1)
    _check_nonconstant(den, float(np.max(np.abs(omega.samples))), "gn_ratio")
    return lp_norm(omega, 2) / den


def family_ratio_report(spec: RandomFieldSpec, ratio_fn, n_eval: int | None = None) -> RatioReport:
    """Evaluate ratio_fn over the family; degenerate samples are discarded
    and counted.  Rows keep a fixed (sample-index) order."""
    report = RatioReport()
    ratios = []
    for i, f in enumerate(random_family(spec, n_eval=n_eval)):
        try:
            r = ratio_fn(f)
        except ValueError:
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
