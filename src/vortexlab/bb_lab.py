"""Empirical ratio experiments for the critical L1-based velocity estimates.

The continuum constants are never asserted; the lab measures family maxima
of the estimate ratios over seeded random fields and checks that they are
stable under grid refinement.  Random fields are built from a fixed master
mode lattice and stay on its grid, so refinement changes only the
quadrature, not the function.  The fields are drawn by ``random_data``.
A ratio takes curl, gradient and Biot-Savart on its input's own grid and
refines to the evaluation grid ``n_eval`` only what a norm samples.
"""

from dataclasses import dataclass

import numpy as np

from .biot_savart import leray_project, velocity_from_curl_3d, velocity_from_vorticity_2d
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    curl3d,
    gradient,
    jacobian_magnitude,
    lp_norm,
    on_eval_grid,
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


def random_family(spec: RandomFieldSpec) -> Family:
    """The admissible fields on spec.grid, scalar in 2D and solenoidal in 3D."""

    def build(rng):
        if spec.dim == 2:
            return _random_scalar(spec.grid, spec.beta, rng)
        return leray_project(random_vector_field(spec.grid, rng, spec.beta))

    return Family(build, spec.seed, spec.count)


def _check_nonconstant(den: float, comps, n_eval: int | None, what: str):
    """Reject when den <= 1e-12 * max(max|w|, 1), max|w| over the components
    comps sampled on the n_eval-point grid; those samples are read only when
    den does not clear twice (for roundoff) the Hausdorff-Young bound
    sum|w_hat| / N^d, which bounds max|w| on every grid."""
    g = comps[0].grid
    bound = max(np.sum(g.sobolev_weight(0) * np.abs(c.spectrum())) for c in comps) / g.n**g.dim
    if den <= 1e-12 * max(2.0 * bound, 1.0) and den <= 1e-12 * max(
            max(float(np.max(np.abs(on_eval_grid(c, n_eval).samples))) for c in comps), 1.0):
        raise ValueError(f"{what} rejected: denominator vanishes (constant field)")


def bb_ratio_2d(omega: ScalarField, n_eval: int | None = None) -> float:
    """(|v|_Linf + |grad v|_L2) / |grad w|_L1 with v from the 2D inversion."""
    den = lp_norm(on_eval_grid(gradient(omega), n_eval), 1)
    _check_nonconstant(den, [omega], n_eval, "bb_ratio_2d")
    v = on_eval_grid(velocity_from_vorticity_2d(omega), n_eval)
    num = lp_norm(v, np.inf) + lp_norm(jacobian_magnitude(v), 2)
    return num / den


def bb_ratio_3d(omega: VectorField, n_eval: int | None = None) -> float:
    """(|v|_L3 + |grad v|_L{3/2}) / |curl w|_L1 with v from the 3D inversion."""
    curl = curl3d(omega)
    den = lp_norm(on_eval_grid(curl, n_eval), 1)
    _check_nonconstant(den, omega.components, n_eval, "bb_ratio_3d")
    v = on_eval_grid(velocity_from_curl_3d(omega, curl), n_eval)
    del curl  # with the samples its norm cached, it would outlive the peak below
    num = lp_norm(v, 3) + lp_norm(jacobian_magnitude(v), 1.5)
    return num / den


def gn_ratio(omega: ScalarField, n_eval: int | None = None) -> float:
    """|w|_L2 / |grad w|_L1 (the interpolation step of the well-posedness proof)."""
    den = lp_norm(on_eval_grid(gradient(omega), n_eval), 1)
    _check_nonconstant(den, [omega], n_eval, "gn_ratio")
    return lp_norm(on_eval_grid(omega, n_eval), 2) / den


def family_ratio_report(spec: RandomFieldSpec, ratio_fn, n_eval: int | None = None,
                        map_fn=map) -> dict:
    """``family_report`` of ratio_fn(member, n_eval) over the family, n_eval
    checked at the call; a sample whose ratio raises ValueError is degenerate."""
    check_n_eval(spec.grid, n_eval)

    def row(i, f):
        try:
            return {"sample": i, "ratio": ratio_fn(f, n_eval)}
        except ValueError:
            return None

    return family_report(random_family(spec), row, map_fn)


def refinement_study(spec: RandomFieldSpec, ratio_fn, n_levels, map_fn=map) -> list:
    """One family report per evaluation resolution (fixed mode content),
    each with its ``n_eval``; the levels run one after another."""
    return [{"n_eval": int(m), **family_ratio_report(spec, ratio_fn, m, map_fn)}
            for m in n_levels]
