"""Empirical ratio experiments for the critical L1-based velocity estimates.

The continuum constants are never asserted; the lab measures family maxima
of the estimate ratios over seeded random fields and checks that they are
stable under grid refinement.  Random fields are built from a fixed master
mode lattice and stay on its grid, so refinement changes only the
quadrature, not the function.  The fields are drawn by ``random_data``.
A ratio takes curl, gradient, Biot-Savart and the velocity gradient planes
on its input's own grid, and samples on the evaluation grid ``n_eval`` only
what a norm reads.
"""

from dataclasses import dataclass

import numpy as np

from .biot_savart import leray_project, velocity_from_curl_3d, velocity_from_vorticity_2d
from .fields import (
    Grid,
    PlaneSampler,
    ScalarField,
    VectorField,
    check_n_eval,
    curl3d,
    gradient_planes,
    gradient_spectra,
    magnitude_norm,
)
from .family import Family, family_map, family_report
from .random_data import _random_scalar, random_vector_field


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


def _check_nonconstant(den: float, spectra: np.ndarray, sample: PlaneSampler, what: str):
    """Reject when den <= 1e-12 * max(max|w|, 1), max|w| over the stack of half
    spectra `spectra` as `sample` samples it, read only when den does not
    clear twice (for roundoff) the Hausdorff-Young bound sum|w_hat| / N^d;
    max|w| is read block by block."""
    g = sample.grid
    bound = max(np.sum(g.sobolev_weight(0) * np.abs(c)) for c in spectra) / g.n**g.dim
    if den <= 1e-12 * max(2.0 * bound, 1.0) and den <= 1e-12 * max(max(
            float(np.max(np.abs(x))) for c in spectra for _, x in sample.slabs(c)), 1.0):
        raise ValueError(f"{what} rejected: denominator vanishes (constant field)")


def _grad_l1_denominator(omega: ScalarField, n_eval: int | None, what: str):
    """A sampler on the n_eval grid and |grad w|_L1 there, checked nonconstant."""
    sample, w = PlaneSampler(omega.grid, n_eval), omega.spectrum()
    den = magnitude_norm(sample, gradient_spectra(omega.grid, w), 1, f"{what} |grad w|")
    _check_nonconstant(den, w[None], sample, what)
    return sample, den


def bb_ratio_2d(omega: ScalarField, n_eval: int | None = None) -> float:
    """(|v|_Linf + |grad v|_L2) / |grad w|_L1 with v from the 2D inversion."""
    sample, den = _grad_l1_denominator(omega, n_eval, "bb_ratio_2d")
    v = velocity_from_vorticity_2d(omega)
    return (magnitude_norm(sample, v.stack.spectrum(), np.inf, "bb_ratio_2d |v|")
            + magnitude_norm(sample, gradient_planes(v), 2, "bb_ratio_2d |grad v|")) / den


def bb_ratio_3d(omega: VectorField, n_eval: int | None = None) -> float:
    """(|v|_L3 + |grad v|_L{3/2}) / |curl w|_L1 with v from the 3D inversion."""
    sample, curl = PlaneSampler(omega.grid, n_eval), curl3d(omega)
    den = magnitude_norm(sample, curl.stack.spectrum(), 1, "bb_ratio_3d |curl w|")
    _check_nonconstant(den, omega.stack.spectrum(), sample, "bb_ratio_3d")
    v = velocity_from_curl_3d(omega, curl)
    del curl  # not held through the velocity norms
    return (magnitude_norm(sample, v.stack.spectrum(), 3, "bb_ratio_3d |v|")
            + magnitude_norm(sample, gradient_planes(v), 1.5, "bb_ratio_3d |grad v|")) / den


def gn_ratio(omega: ScalarField, n_eval: int | None = None) -> float:
    """|w|_L2 / |grad w|_L1 (the interpolation step of the well-posedness proof)."""
    sample, den = _grad_l1_denominator(omega, n_eval, "gn_ratio")
    return magnitude_norm(sample, [omega.spectrum()], 2, "gn_ratio |w|") / den


def refinement_study(spec: RandomFieldSpec, ratio_fn, n_levels, map_fn=map) -> list:
    """A ``family_report`` of ratio_fn(member, n_eval) per level n_eval (each
    checked at the call), from one map task per member, which builds it once.
    A ratio's ValueError makes its member degenerate at that level; a level
    with no other member raises ValueError naming it and member 0's reason."""
    for m in n_levels:
        check_n_eval(spec.grid, m)

    def ratio_or_reason(i, f, m):
        try:
            return {"sample": i, "ratio": ratio_fn(f, m)}
        except ValueError as exc:
            return str(exc)

    per_member = family_map(random_family(spec),
                            lambda i, f: [ratio_or_reason(i, f, m) for m in n_levels], map_fn)
    levels = []
    for m, rows in zip(n_levels, zip(*per_member)):
        if not any(isinstance(r, dict) for r in rows):
            raise ValueError(f"{ratio_fn.__name__} at n_eval {m}: all {len(rows)} members "
                             f"discarded; member 0: {rows[0]}")
        levels.append({"n_eval": m, **family_report(rows, lambda i, r: r)})  # rows as members
    return levels
