"""Picard fixed-point solve of the mild 2D vorticity equation, with an
independent integrating-factor RK4 time stepper as cross-validation oracle.

Both discretize the same dynamics (w_t - Lap w = -div(v w), v by Biot-Savart)
through different routes: the fixed point of the Duhamel integral operator
vs explicit spectral time stepping with 2/3-rule dealiasing.

A Picard iteration is one in-place sweep over the time lattice that carries
the iterate's samples of (w, d1 w, d2 w): per block of snapshots it samples
v for the flux, runs the recurrence into the iterate's own spectra, and
samples the new (w, d1 w, d2 w) for the W11 norms of the iterate and of its
difference from the held samples, which it then overwrites: 5 inverse and 2
forward transformed planes per snapshot.  ``apply_T`` shares that code and
samples w too.  Biot-Savart is handed each iterate without its zero mode:
an iterate keeps omega0's roundoff mean bitwise, and omega0 is checked at entry.
The last sweep's L1 and W11 norms per snapshot stay in the trace, so the
report (``solution_norms``) samples only v and grad v, and it takes them,
Biot-Savart and its checks included, one block of snapshots at a time: it
holds one block of velocity spectra and samples, so a run peaks in its solve.
"""

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .biot_savart import _check_mean_zero, velocity_from_vorticity_2d
from .fields import (
    Grid,
    ScalarField,
    Trajectory,
    _magnitude,
    _readonly,
    _per_field,
    _stacked,
    batch_samples,
    blocks,
    gradient_spectra,
    hs_sq,
    lp_norm,
    w11_norm,
    w11_rows,
)
from .heat import etd_weights, heat_evolve

CALIBRATION_NT = 16  # time samples of each trial horizon in calibrate_horizon
MAX_HALVINGS = 20  # trial horizons calibrate_horizon halves through
CFL = 0.25  # reference_stepper's substep, as a fraction of h / max|v|
MAX_SUBSTEPS = 200000  # per output interval of reference_stepper


class ContractionFailureError(RuntimeError):
    """Fixed-point iteration is not contracting; t0 is too large for A0."""


class StabilityError(RuntimeError):
    """CFL-limited step refinement exhausted."""


class ConvergenceError(RuntimeError):
    """Picard iteration reached max_iter without meeting its tolerance."""


@dataclass(frozen=True)
class MildSolveConfig:
    grid: Grid
    t0: float
    nt: int = 32
    tol: float = 1e-9
    max_iter: int = 60

    def __post_init__(self):
        if self.grid.dim != 2:
            raise ValueError(f"the mild solver is 2D, got a {self.grid.dim}D grid")
        if not self.t0 > 0:
            raise ValueError(f"t0 must be positive, got {self.t0}")
        if self.nt < 8:
            raise ValueError(f"nt must be >= 8, got {self.nt}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t0, self.nt)


@dataclass
class PicardTrace:
    sup_w11: list = dc_field(default_factory=list)
    diff_w11: list = dc_field(default_factory=list)
    ratios: list = dc_field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    # the L1 and W11 norm of each snapshot of the last iterate, from its sweep's samples
    l1: list = dc_field(default_factory=list)
    w11: list = dc_field(default_factory=list)


def _mean_dropped(omega: ScalarField) -> ScalarField:
    """omega without its zero mode, which Biot-Savart does not read: the heat
    evolution and the recurrence keep omega0's roundoff mean (checked at
    entry) bitwise, and a decayed iterate's own max must not judge it."""
    spectra = omega.spectrum().copy()
    spectra[..., 0, 0] = 0.0
    return ScalarField._held(omega.grid, spectrum=_readonly(spectra))


def _flux_divergence(omega: ScalarField) -> np.ndarray:
    """Dealiased spectra of -div(v w), the advective source, for each w of a
    stack of iterates; v by Biot-Savart."""
    grid = omega.grid
    v = batch_samples(grid, velocity_from_vorticity_2d(_mean_dropped(omega)).stack.spectrum())
    with np.errstate(over="ignore", invalid="ignore"):  # _duhamel_block names an overflow
        flux = np.fft.rfftn(v * omega.samples, axes=(-2, -1))
        div = sum(1j * grid.deriv_wavenumber(a) * flux[a] for a in range(2))
        return np.where(grid.dealias_mask(), -div, 0.0)


@lru_cache(maxsize=32)
def _panel_weights(grid: Grid, dt: float):
    """etd_weights of one time panel, built once per (grid, dt); read-only."""
    return tuple(_readonly(w) for w in etd_weights(grid.ksq(), dt))


def _duhamel_block(out, block: slice, omega: ScalarField, omega0: ScalarField, weights, d_prev):
    """Write the Duhamel recurrence into out[block] from the fluxes of omega,
    the block's input vorticities, formed first (so out may hold them); row 0
    is omega0, whose heat evolution the recurrence folds in.  Returns the
    block's last flux."""
    e, w_old, w_new = weights
    for i, d_next in enumerate(_flux_divergence(omega), start=block.start):
        if i == 0:
            out[0] = omega0.spectrum()
        else:
            np.multiply(e, out[i - 1], out=out[i])
            out[i] += w_old * d_prev
            out[i] += w_new * d_next
        d_prev = d_next
    if not np.all(np.isfinite(out[block])):
        raise ArithmeticError("non-finite values in Duhamel term: iteration diverged")
    return d_prev


def apply_T(omega_traj: Trajectory, omega0: ScalarField, cfg: MildSolveConfig) -> Trajectory:
    """One application of the Duhamel fixed-point operator to a trajectory,
    checked mean-zero whole first, so a bad snapshot is named by its index.

    One streaming pass over the time lattice, a block of input snapshots at
    a time: the flux divergences of a block are formed together, and the
    linear interpolant of the flux between nodes is integrated exactly
    against the heat kernel (``heat.etd_weights``).  Starting the recurrence
    from the spectrum of omega0 folds in its heat evolution.  The result is
    one stack of spectra.  Picard sweeps run the same code in place.
    """
    _check_mean_zero(omega0, "initial vorticity")
    grid = cfg.grid
    times = cfg.times
    if len(omega_traj.times) != cfg.nt or not np.allclose(omega_traj.times, times, atol=0):
        raise ValueError("input trajectory does not live on the config time lattice")
    _check_mean_zero(omega_traj.field, "vorticity")
    weights = _panel_weights(grid, times[1] - times[0])
    out = np.empty((cfg.nt,) + grid.spectral_shape, dtype=np.complex128)
    d_prev = None
    for block in blocks(cfg.nt, 3 * out[0].nbytes):  # w, v1 and v2 of each snapshot
        d_prev = _duhamel_block(out, block, omega_traj.field[block], omega0, weights, d_prev)
    return Trajectory(times, ScalarField._held(grid, spectrum=_readonly(out)))


def _picard_sweeps(omega0: ScalarField, cfg: MildSolveConfig):
    """Picard sweeps (see the module docstring) from the heat evolution of
    omega0, whose samples take 3 inverse planes per snapshot, over buffers
    allocated once.  Yields (spectra, l1, w11, diff_w11) after each: the
    iterate's L1 and W11 norm per snapshot and the sup in time of its
    difference's; the next sweep overwrites spectra."""
    _check_mean_zero(omega0, "initial vorticity")
    grid, times = cfg.grid, cfg.times
    weights = _panel_weights(grid, times[1] - times[0])
    spectra = heat_evolve(omega0, times).spectrum().copy()
    held = np.empty((3, cfg.nt) + grid.shape)
    steps = blocks(cfg.nt, 3 * spectra[0].nbytes)  # (w, v1, v2), then (w, d1 w, d2 w)
    for b in steps:
        held[:, b] = batch_samples(grid, gradient_spectra(grid, spectra[b], with_field=True))
    while True:
        d_prev, l1, w11, diff = None, [], [], []
        for b in steps:
            d_prev = _duhamel_block(spectra, b, ScalarField._held(grid, held[0, b], spectra[b]),
                                    omega0, weights, d_prev)
            with np.errstate(over="ignore", invalid="ignore"):  # a divergence, named below
                x = batch_samples(grid, gradient_spectra(grid, spectra[b], with_field=True))
                rows = w11_rows(grid, x[0], x[1:])
                d = np.subtract(x, held[:, b], out=held[:, b])
                diff += w11_rows(grid, d[0], d[1:])[1]
            l1 += rows[0]
            w11 += rows[1]
            held[:, b] = x
        if not np.all(np.isfinite(w11 + diff)):
            raise ArithmeticError("non-finite W11 norm of an iterate: iteration diverged")
        yield spectra, l1, w11, max(diff)


def picard_solve(omega0: ScalarField, cfg: MildSolveConfig):
    """Iterate the Duhamel operator from the pure heat evolution until the
    sup-in-time W^{1,1} successive difference drops below cfg.tol.

    Each iteration is one in-place sweep; the difference's norm is taken
    from both iterates' samples.  Returns (Trajectory, PicardTrace), the
    trajectory holding spectra only and the trace its L1 and W11 norms.
    Raises ContractionFailureError if the difference ratio stays >= 1 for
    three consecutive iterations.
    """
    trace = PicardTrace()
    prev_diff = None
    bad_streak = 0
    sweeps = _picard_sweeps(omega0, cfg)
    for it, (spectra, l1, w11, diff) in zip(range(1, cfg.max_iter + 1), sweeps):
        trace.l1, trace.w11 = l1, w11
        trace.sup_w11.append(max(w11))
        trace.diff_w11.append(diff)
        if prev_diff is not None and prev_diff > 0:
            ratio = diff / prev_diff
            trace.ratios.append(ratio)
            if ratio >= 1.0:
                bad_streak += 1
                if bad_streak >= 3:
                    raise ContractionFailureError(
                        "t0 too large for A0: successive-difference ratio >= 1 "
                        "for 3 consecutive iterations; reduce t0 (t0 = C/A0^2)"
                    )
            else:
                bad_streak = 0
        trace.iterations = it
        if diff < cfg.tol:
            trace.converged = True
            break
        prev_diff = diff
    return Trajectory(cfg.times, ScalarField._held(cfg.grid, spectrum=_readonly(spectra))), trace


def require_converged(trace: PicardTrace, cfg: MildSolveConfig):
    """Raise ConvergenceError unless the solve behind ``trace`` met cfg.tol."""
    if not trace.converged:
        raise ConvergenceError(
            f"Picard iteration did not converge in {trace.iterations} iterations: "
            f"last sup-in-time W11 difference {trace.diff_w11[-1]:.6e} >= tol {cfg.tol:.6e}"
        )


def solution_norms(omega: ScalarField, l1, w11) -> dict:
    """The report columns of a vorticity, or of each of a stack, given its L1
    and W11 norms (a Picard trace holds them from its last sweep): L1, W11,
    velocity sup and gradient L2, the last two taken one block of snapshots
    at a time by ``_velocity_rows``.  Each must be finite and >= 0."""
    spectra = _stacked(omega.spectrum(), 2)
    columns = {"L1": np.ravel(l1).tolist(), "W11": np.ravel(w11).tolist(),
               "Linf_v": [], "L2_gradv": []}
    for b in blocks(len(spectra), 6 * spectra[0].nbytes):
        for label, rows in zip(("Linf_v", "L2_gradv"), _velocity_rows(omega.grid, spectra[b])):
            columns[label] += rows
    for label, value in ((k, x) for k, xs in columns.items() for x in xs):
        if not 0 <= value < np.inf:
            raise ValueError(f"norm {label!r} must be finite and >= 0, got {value}")
    return {k: _per_field(omega, xs) for k, xs in columns.items()}


def _velocity_rows(g: Grid, spectra: np.ndarray) -> tuple[list, list]:
    """sup|v| and the L2 norm of grad v of each vorticity of a stack of half
    spectra: v by Biot-Savart without the zero mode, then v and its gradient
    sampled in one batched inverse transform.  A function of its own, so
    that a block's arrays are freed before the next block, and v's spectra
    before the transform."""
    # x[0] is v, x[1 + a] its derivative d_a; grad v is summed component-major
    x = batch_samples(g, gradient_spectra(g, velocity_from_vorticity_2d(
        _mean_dropped(ScalarField._held(g, spectrum=spectra))).stack.spectrum(), with_field=True))
    with np.errstate(over="ignore"):  # reported by solution_norms, by the norm it reaches
        return tuple(lp_norm(ScalarField._held(g, y), p).tolist() for y, p in (
            (_magnitude(x[0]), np.inf),
            (_magnitude(d for dv_c in x[1:].swapaxes(0, 1) for d in dv_c), 2)))


def calibrate_horizon(omega0: ScalarField, grid: Grid, t_max: float):
    """Pick t0 = c/A0^2 adaptively: halve until the first measured
    contraction ratio is <= 1/2.  Returns (t0, ratio)."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN past the float range,
        a0 = w11_norm(omega0)  # named below; float products give inf or 0, never a raise
    t0 = min(1.0 / (a0 * a0), t_max) if a0 * a0 > 0 else t_max  # the cap if A0^2 underflows
    if not (t0 > 0 and a0 < np.inf):
        raise ValueError(f"initial vorticity: its W11 norm A0 = {a0:.3e} leaves no t0 = 1/A0^2 > 0")
    for _ in range(MAX_HALVINGS):
        cfg = MildSolveConfig(grid=grid, t0=t0, nt=CALIBRATION_NT)
        ratio = first_contraction_ratio(omega0, cfg)
        if ratio <= 0.5:
            return t0, ratio
        t0 /= 2.0
    raise ContractionFailureError(
        f"could not find a contracting horizon above t0 = {t0:.3e}"
    )


def first_contraction_ratio(omega0: ScalarField, cfg: MildSolveConfig) -> float:
    """Ratio of the first two successive-difference norms of the iteration."""
    sweeps = _picard_sweeps(omega0, cfg)
    (*_, d1), (*_, d2) = next(sweeps), next(sweeps)
    return d2 / d1 if d1 else 0.0


# ---------------------------------------------------------------------------
# independent oracle: integrating-factor RK4 pseudo-spectral stepper

def _nonlinear_rhs(w_hat, grid: Grid):
    """-div(v w) in spectral space, dealiased; v by the Biot-Savart multiplier."""
    k = [grid.deriv_wavenumber(a) for a in range(2)]
    mask = grid.dealias_mask()
    psi = grid.kpow(-2.0) * w_hat
    w = np.fft.irfftn(w_hat, s=grid.shape, axes=(0, 1))
    v0 = np.fft.irfftn(1j * k[1] * psi, s=grid.shape, axes=(0, 1))
    v1 = np.fft.irfftn(-1j * k[0] * psi, s=grid.shape, axes=(0, 1))
    g0 = np.where(mask, np.fft.rfftn(v0 * w), 0.0)
    g1 = np.where(mask, np.fft.rfftn(v1 * w), 0.0)
    return -(1j * k[0] * g0 + 1j * k[1] * g1), max(np.max(np.abs(v0)), np.max(np.abs(v1)))


def reference_stepper(omega0: ScalarField, t0: float, nt_fine: int) -> Trajectory:
    """IF-RK4 pseudo-spectral integration of the vorticity equation.

    Adaptive CFL substepping between the nt_fine stored output times; the
    mean is conserved exactly and the enstrophy must not increase.
    """
    grid = omega0.grid
    if grid.dim != 2:
        raise ValueError("reference_stepper is 2D only")
    _check_mean_zero(omega0, "initial vorticity")
    if nt_fine < 2:
        raise ValueError("nt_fine must be >= 2")
    ksq = grid.ksq()
    times = np.linspace(0.0, t0, nt_fine)
    spectra = np.empty((nt_fine,) + grid.spectral_shape, dtype=np.complex128)
    spectra[0] = w_hat = omega0.spectrum()
    for i in range(nt_fine - 1):
        span = times[i + 1] - times[i]
        _, vmax = _nonlinear_rhs(w_hat, grid)
        dt_cfl = CFL * grid.h / max(vmax, 1e-12)
        nsub = max(1, int(np.ceil(span / dt_cfl)))
        if nsub > MAX_SUBSTEPS:
            raise StabilityError(
                f"CFL requires {nsub} substeps over one output interval "
                f"(limit {MAX_SUBSTEPS}); flow too fast for this grid"
            )
        dt = span / nsub
        e_half = np.exp(-ksq * dt / 2.0)
        e_full = e_half * e_half
        for _ in range(nsub):
            ens_old = hs_sq(grid, w_hat)
            n1, _ = _nonlinear_rhs(w_hat, grid)
            n2, _ = _nonlinear_rhs(e_half * (w_hat + dt / 2.0 * n1), grid)
            n3, _ = _nonlinear_rhs(e_half * w_hat + dt / 2.0 * n2, grid)
            n4, _ = _nonlinear_rhs(e_full * w_hat + dt * e_half * n3, grid)
            w_hat = e_full * w_hat + dt / 6.0 * (
                e_full * n1 + 2.0 * e_half * (n2 + n3) + n4
            )
            ens_new = hs_sq(grid, w_hat)
            if ens_new > ens_old * (1.0 + 1e-10) + 1e-300:
                raise StabilityError(
                    f"enstrophy increased ({ens_old:.6e} -> {ens_new:.6e}): "
                    "step unstable"
                )
        spectra[i + 1] = w_hat
    return Trajectory(times, ScalarField.from_spectrum(grid, spectra))


# ---------------------------------------------------------------------------
# continuous dependence on initial data

def continuous_dependence_experiment(omega0: ScalarField, perturbations, cfg: MildSolveConfig):
    """Solve for omega0 and each perturbed datum; report input/output sizes,
    their ratios, and (when >= 2 nonzero inputs) the log-log slope.

    Raises ConvergenceError if any of the solves does not converge."""
    base, trace = picard_solve(omega0, cfg)
    require_converged(trace, cfg)
    rows = []
    for delta in perturbations:
        input_size = w11_norm(delta)
        pert, trace = picard_solve(omega0 + delta, cfg)
        require_converged(trace, cfg)
        output_size = max(w11_norm(pert.field - base.field).tolist())
        ratio = output_size / input_size if input_size > 0 else 0.0
        rows.append(
            {"input_w11": input_size, "output_w11": output_size, "ratio": ratio}
        )
    sizes = [(r["input_w11"], r["output_w11"]) for r in rows
             if r["input_w11"] > 0 and r["output_w11"] > 0]
    slope = None
    if len(sizes) >= 2:
        lx = np.log([s[0] for s in sizes])
        ly = np.log([s[1] for s in sizes])
        slope = float(np.polyfit(lx, ly, 1)[0])
    return {"rows": rows, "slope": slope}
