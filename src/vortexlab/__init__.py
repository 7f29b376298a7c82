"""vortexlab: pseudo-spectral torus laboratory for vorticity mild solutions,
Biot-Savart velocity recovery, critical L1 estimate ratios, and wave-equation
mixed-norm experiments."""

__version__ = "0.1.0"

from .fields import (
    Grid,
    NormReport,
    ScalarField,
    Trajectory,
    VectorField,
    curl2d,
    curl3d,
    derivative,
    divergence,
    gradient,
    hs_norm,
    jacobian_magnitude,
    load_field,
    lp_norm,
    mixed_norm,
    save_field,
    spectral_refine,
    spectral_restrict,
    w11_norm,
)
from .biot_savart import (
    CirculationObstructionError,
    SolenoidalVectorField,
    leray_project,
    velocity_from_vorticity_2d,
    velocity_from_vorticity_3d,
)
from .heat import etd_weights, heat_evolve
from .mild_solver import (
    ContractionFailureError,
    ConvergenceError,
    MildSolveConfig,
    PicardTrace,
    StabilityError,
    apply_T,
    calibrate_horizon,
    continuous_dependence_experiment,
    first_contraction_ratio,
    picard_solve,
    reference_stepper,
)
from .oseen import (
    OseenParams,
    oseen_dipole,
    oseen_velocity,
    oseen_vorticity,
    sharpness_scaling_experiment,
)
from .bb_lab import (
    RandomFieldSpec,
    RatioReport,
    bb_ratio_2d,
    bb_ratio_3d,
    family_ratio_report,
    gn_ratio,
    random_family,
    refinement_study,
)
from .maxwell_wave import (
    CurrentDensity,
    HarmonicCurrentDensity,
    StrichartzExponents,
    solve_wave,
    strichartz_admissible,
    strichartz_ratio_experiment,
    strichartz_sides,
    wave_energy,
)
