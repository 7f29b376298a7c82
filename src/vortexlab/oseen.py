"""Lamb-Oseen vortex closed forms, dipole builder, and t^{-1/2} scaling runs.

The point-vortex initial datum is replaced by the closed-form profile at a
small positive time; the t -> 0 limit is probed by decreasing that time.
Fields are evaluated pointwise with minimum-image displacements, so the
profile is the whole-plane one restricted to the box; the width
precondition sqrt(4t) <= L/16 keeps truncation below machine noise.
"""

from dataclasses import dataclass

import numpy as np

from .fields import Grid, ScalarField, VectorField, lp_norm, gradient, w11_norm

# closed-form constants of the profile:
#   |grad w|_L1           = GRAD_L1_PREFACTOR * alpha0 / sqrt(t)
#   |v|_Linf              = VMAX_PREFACTOR * alpha0 / sqrt(t)
# and the maximizer of (1 - exp(-u))/sqrt(u) sits at U_STAR.
GRAD_L1_PREFACTOR = np.sqrt(np.pi) / 2.0  # 0.886227...
U_STAR = 1.2564312086261697
VMAX_PREFACTOR = (1.0 - np.exp(-U_STAR)) / np.sqrt(U_STAR) / (4.0 * np.pi)  # 0.050784...


@dataclass(frozen=True)
class OseenParams:
    alpha0: float
    center: tuple
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError(f"Oseen profile needs t > 0, got {self.t}")
        if len(self.center) != 2:
            raise ValueError("center must be a 2D point")


def _check_width(t: float, grid: Grid):
    if np.sqrt(4.0 * t) > grid.box_length / 16.0:
        raise ValueError(
            f"vortex too wide for box: sqrt(4t) = {np.sqrt(4 * t):.3g} exceeds "
            f"L/16 = {grid.box_length / 16.0:.3g}"
        )


def min_image_displacements(grid: Grid, center):
    """Meshgrids (X, Y) of grid point minus center, wrapped into [-L/2, L/2)."""
    L = grid.box_length
    x = grid.axis_coords()
    dx = (x - center[0] + L / 2.0) % L - L / 2.0
    dy = (x - center[1] + L / 2.0) % L - L / 2.0
    return np.meshgrid(dx, dy, indexing="ij")


def oseen_vorticity(p: OseenParams, grid: Grid) -> ScalarField:
    """w(x) = alpha0 / (4 pi t) * exp(-|x - c|^2 / 4t), minimum-image."""
    if grid.dim != 2:
        raise ValueError("Oseen profiles are 2D")
    _check_width(p.t, grid)
    X, Y = min_image_displacements(grid, p.center)
    r2 = X * X + Y * Y
    return ScalarField(grid, p.alpha0 / (4.0 * np.pi * p.t) * np.exp(-r2 / (4.0 * p.t)))


def oseen_velocity(p: OseenParams, grid: Grid) -> VectorField:
    """Azimuthal profile alpha0/(2 pi r) (1 - exp(-r^2/4t)); zero at the center."""
    if grid.dim != 2:
        raise ValueError("Oseen profiles are 2D")
    _check_width(p.t, grid)
    X, Y = min_image_displacements(grid, p.center)
    r2 = X * X + Y * Y
    with np.errstate(divide="ignore", invalid="ignore"):
        fac = p.alpha0 / (2.0 * np.pi) * (1.0 - np.exp(-r2 / (4.0 * p.t))) / r2
    fac = np.where(r2 > 0.0, fac, 0.0)
    return VectorField(ScalarField(grid, np.stack([-Y * fac, X * fac])))


def oseen_dipole(alpha0: float, separation: float, grid: Grid, t: float,
                 center=None) -> ScalarField:
    """Zero-circulation pair: +alpha0 and -alpha0 vortices a distance
    `separation` apart along the first axis."""
    if separation < 4.0 * np.sqrt(4.0 * t):
        raise ValueError(
            f"dipole cores overlap: separation {separation:.3g} < 4*sqrt(4t) "
            f"= {4 * np.sqrt(4 * t):.3g}"
        )
    if separation > grid.box_length / 2.0:
        raise ValueError(
            f"separation {separation:.3g} exceeds L/2 = {grid.box_length / 2.0:.3g}"
        )
    if center is None:
        c = grid.box_length / 2.0
        center = (c, c)
    plus = oseen_vorticity(
        OseenParams(alpha0, (center[0] - separation / 2.0, center[1]), t), grid
    )
    minus = oseen_vorticity(
        OseenParams(-alpha0, (center[0] + separation / 2.0, center[1]), t), grid
    )
    return plus + minus


def sharpness_scaling_experiment(grid: Grid, t_list, alpha0: float = 1.0):
    """Tabulate the W^{1,1} and velocity-sup norms of the profile over t_list
    and fit their log-log slopes (both should sit near -1/2).

    The center sits a quarter cell off the box center: lattice-aligned
    centers sample the |x| kink of |grad w| and the flat maximum of |v|
    exactly on symmetry points, which inflates quadrature error.
    """
    t_list = np.asarray(list(t_list), dtype=float)
    if len(t_list) < 2:
        raise ValueError("need at least two times to fit a slope")
    c = grid.box_length / 2.0 + 0.25 * grid.h
    center = (c, c)
    rows = []
    for t in t_list:
        p = OseenParams(alpha0, center, float(t))
        w = oseen_vorticity(p, grid)
        v = oseen_velocity(p, grid)
        # an overflowing norm is named below, as inf, or as NaN where a gradient
        # spectrum overflowed before its transform
        with np.errstate(over="ignore", invalid="ignore"):
            row = {
                "t": float(t),
                "W11": w11_norm(w),
                "grad_L1": lp_norm(gradient(w), 1),
                "Linf_v": lp_norm(v, np.inf),
            }
        for key in ("W11", "Linf_v"):  # fitted in logs below
            if not 0 < row[key] < np.inf:
                raise ValueError(
                    f"{key} is {row[key]} at t = {t:g}: no log-log slope can be fitted "
                    f"(core width sqrt(4t) = {np.sqrt(4.0 * t):.3g}, grid spacing {grid.h:.3g})")
        rows.append(row)
    ts = np.log(t_list)
    slope_v = float(np.polyfit(ts, np.log([r["Linf_v"] for r in rows]), 1)[0])
    slope_w11 = float(np.polyfit(ts, np.log([r["W11"] for r in rows]), 1)[0])
    # median over rows: robust to the least-resolved (smallest t) sample,
    # whose core spans only a couple of cells
    pre_grad = float(np.median([r["grad_L1"] * np.sqrt(r["t"]) for r in rows]))
    pre_v = float(np.median([r["Linf_v"] * np.sqrt(r["t"]) for r in rows]))
    return {
        "rows": rows,
        "slope_Linf_v": slope_v,
        "slope_W11": slope_w11,
        "prefactor_grad_L1": pre_grad,
        "prefactor_Linf_v": pre_v,
        "alpha0": alpha0,
    }
