"""vortexlab: pseudo-spectral torus laboratory for vorticity mild solutions,
Biot-Savart velocity recovery, critical L1 estimate ratios, and wave-equation
mixed-norm experiments.  Names are imported from the module that defines
them; the package itself carries only ``__version__``."""

__version__ = "0.1.0"
