"""Spectral solver for B_tt - Lap B = curl j and mixed-norm experiments.

The propagator is exact per Fourier mode; only the source time integral is
approximated: the source is interpolated linearly between stored times and
integrated against the oscillatory kernel exactly on each panel, one
cumulative update per step.  Constant-in-time sources are thus exact.  On the
torus dispersive decay degrades once the light cone wraps, so experiments
restrict T <= L/4 and record that restriction in their reports.
"""

from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    Trajectory,
    VectorField,
    curl3d,
    gradient_tensor,
    hs_norm,
    jacobian_magnitude,
    lp_norm,
    mean_is_negligible,
    time_lq_norm,
)


@dataclass(frozen=True)
class StrichartzExponents:
    q: float
    r: float
    q_tilde: float
    s: float
    k: float


def _dual(q_tilde: float) -> float:
    if np.isinf(q_tilde):
        return 1.0
    return q_tilde / (q_tilde - 1.0)


def strichartz_admissible(e: StrichartzExponents, tol: float = 1e-12):
    """Check the wave compatibility, scale-invariance, and range conditions.

    Returns (verdict, reasons); reasons lists every violated condition.
    """
    reasons = []
    if not (2.0 <= e.q):
        reasons.append(f"range violated: q must satisfy 2 <= q <= inf, got {e.q}")
    if not (2.0 < e.q_tilde):
        reasons.append(
            f"range violated: q_tilde must satisfy 2 < q_tilde <= inf, got {e.q_tilde}"
        )
    if not (2.0 <= e.r < np.inf):
        reasons.append(f"range violated: r must satisfy 2 <= r < inf, got {e.r}")
    if 1.0 / e.q + 1.0 / e.r > 0.5 + tol:
        reasons.append(
            f"wave compatibility violated: 1/q + 1/r = {1 / e.q + 1 / e.r:.6g} > 1/2"
        )
    lhs = 1.0 / e.q + 3.0 / e.r
    mid = 1.5 - e.s
    rhs = 1.0 / _dual(e.q_tilde) + 1.0 - e.k
    if abs(lhs - mid) > tol or abs(mid - rhs) > tol:
        reasons.append(
            "scale invariance violated: 1/q + 3/r = "
            f"{lhs:.6g}, 3/2 - s = {mid:.6g}, 1/q_tilde' + 1 - k = {rhs:.6g}"
        )
    return len(reasons) == 0, reasons


class CurrentDensity:
    """Time-dependent current on a fixed 3D grid, j = evaluate(t)."""

    def __init__(self, grid: Grid, evaluate):
        if grid.dim != 3:
            raise ValueError("current density lives on a 3D grid")
        self.grid = grid
        self._evaluate = evaluate

    def evaluate(self, t: float) -> VectorField:
        j = self._evaluate(t)
        if j.grid != self.grid:
            raise ValueError("current density evaluated on the wrong grid")
        return j

    def curl_spectra(self, t: float):
        c = curl3d(self.evaluate(t))
        return [comp.spectrum() for comp in c.components]


class HarmonicCurrentDensity(CurrentDensity):
    """j(x, t) = j_cos(x) cos(sigma t) + j_sin(x) sin(sigma t).

    Curl spectra and gradient tensors are precomputed once, so per-time
    evaluation is pointwise only.
    """

    def __init__(self, j_cos: VectorField, j_sin: VectorField, sigma: float):
        if j_cos.grid != j_sin.grid:
            raise ValueError("harmonic current parts must share one grid")
        super().__init__(j_cos.grid, None)
        self.j_cos = j_cos
        self.j_sin = j_sin
        self.sigma = sigma
        self._curl_cos = [c.spectrum() for c in curl3d(j_cos).components]
        self._curl_sin = [c.spectrum() for c in curl3d(j_sin).components]
        self._grad_cache = {}

    def evaluate(self, t: float) -> VectorField:
        a, b = np.cos(self.sigma * t), np.sin(self.sigma * t)
        return VectorField(
            [
                ScalarField(self.grid, a * ca.samples + b * cb.samples)
                for ca, cb in zip(self.j_cos.components, self.j_sin.components)
            ]
        )

    def curl_spectra(self, t: float):
        a, b = np.cos(self.sigma * t), np.sin(self.sigma * t)
        return [a * ca + b * cb for ca, cb in zip(self._curl_cos, self._curl_sin)]

    def smoothed_gradient_tensors(self, k_power: float):
        """Cached stacks of the (-Lap)^{k/2} gradient tensor samples of both
        harmonic parts, shape (9, n^3) each."""
        cache = self._grad_cache
        if k_power not in cache:
            stacks = []
            for part in (self.j_cos, self.j_sin):
                smoothed = VectorField(
                    [fractional_laplacian(c, k_power) for c in part.components]
                )
                stacks.append(gradient_tensor(smoothed).reshape(9, -1))
            cache[k_power] = tuple(stacks)
        return cache[k_power]


def wave_steps(B0: VectorField, B1: VectorField, j: CurrentDensity | None,
               T: float, nt: int):
    """Generator over (t, B, dB/dt) on nt uniform times; exact per-mode
    propagator, source integrated exactly against its piecewise-linear
    time interpolant via cumulative cos/sin moments."""
    grid = B0.grid
    if grid.dim != 3:
        raise ValueError("wave solver expects 3D fields")
    if B1.grid != grid or (j is not None and j.grid != grid):
        raise ValueError("grid mismatch between initial data and source")
    if nt < 2:
        raise ValueError("nt must be >= 2")
    if not T > 0:
        raise ValueError("T must be positive")
    times = np.linspace(0.0, T, nt)
    dt = times[1] - times[0]
    kmag = grid.kmag()
    inv_k = grid.kpow(-1.0)
    zero = (0, 0, 0)

    b0h = [c.spectrum() for c in B0.components]
    b1h = [c.spectrum() for c in B1.components]
    cum_cos = [np.zeros(grid.spectral_shape, dtype=np.complex128) for _ in range(3)]
    cum_sin = [np.zeros(grid.spectral_shape, dtype=np.complex128) for _ in range(3)]
    cum_s0 = np.zeros(3, dtype=np.complex128)  # int S(0-mode) ds
    cum_s1 = np.zeros(3, dtype=np.complex128)  # int s S(0-mode) ds
    prev_src = j.curl_spectra(times[0]) if j is not None else None

    for i, t in enumerate(times):
        # the panel [a_s, b_s] ends at t and starts at the previous step's t,
        # so each step evaluates its trig factors once and carries them on
        sin_t, cos_t = np.sin(kmag * t), np.cos(kmag * t)
        if j is not None and i > 0:
            src = j.curl_spectra(t)
            a_s, b_s = times[i - 1], t
            # integrate cos(|k| s) / sin(|k| s) against the piecewise-linear
            # source interpolant exactly on the panel [a_s, b_s]; this keeps
            # constant-in-time sources exact (a sampled trapezoid rule is
            # orders too crude for the per-mode propagator's accuracy)
            int_cos = (sin_t - sin_a) * inv_k
            int_scos = (b_s * sin_t - a_s * sin_a) * inv_k + (cos_t - cos_a) * inv_k**2
            int_sin = (cos_a - cos_t) * inv_k
            int_ssin = (a_s * cos_a - b_s * cos_t) * inv_k + (sin_t - sin_a) * inv_k**2
            for c in range(3):
                sa, sb = prev_src[c], src[c]
                alpha = (sa * b_s - sb * a_s) / dt
                beta = (sb - sa) / dt
                cum_cos[c] += alpha * int_cos + beta * int_scos
                cum_sin[c] += alpha * int_sin + beta * int_ssin
                # zero mode moments (kernel t - s), exact for linear sources
                sa0, sb0 = sa[zero], sb[zero]
                cum_s0[c] += dt / 2.0 * (sa0 + sb0)
                cum_s1[c] += dt * ((2.0 * a_s + b_s) * sa0 + (a_s + 2.0 * b_s) * sb0) / 6.0
            prev_src = src
        sin_a, cos_a = sin_t, cos_t
        comps_b = []
        comps_bt = []
        for a in range(3):
            bh = cos_t * b0h[a] + sin_t * inv_k * b1h[a]
            bth = -kmag * sin_t * b0h[a] + cos_t * b1h[a]
            if j is not None:
                bh = bh + inv_k * (sin_t * cum_cos[a] - cos_t * cum_sin[a])
                bth = bth + cos_t * cum_cos[a] + sin_t * cum_sin[a]
            # zero mode: kernel (t - s); homogeneous part B0 + t B1
            bh[zero] = b0h[a][zero] + t * b1h[a][zero]
            bth[zero] = b1h[a][zero]
            if j is not None:
                bh[zero] += t * cum_s0[a] - cum_s1[a]
                bth[zero] += cum_s0[a]
            comps_b.append(ScalarField.from_spectrum(grid, bh))
            comps_bt.append(ScalarField.from_spectrum(grid, bth))
        yield float(t), VectorField(comps_b), VectorField(comps_bt)


def solve_wave(B0: VectorField, B1: VectorField, j: CurrentDensity | None,
               T: float, nt: int):
    """Materialized trajectories (B, dB/dt) on nt uniform times in [0, T]."""
    times, bs, bts = [], [], []
    for t, b, bt in wave_steps(B0, B1, j, T, nt):
        times.append(t)
        bs.append(b)
        bts.append(bt)
    return Trajectory(times, bs), Trajectory(times, bts)


def wave_energy(B: VectorField, Bt: VectorField) -> float:
    """|dB/dt|_L2^2 + |grad B|_L2^2 (conserved when the source vanishes)."""
    return lp_norm(Bt, 2) ** 2 + lp_norm(jacobian_magnitude(B), 2) ** 2


def fractional_laplacian(f: ScalarField, power: float) -> ScalarField:
    """Multiplier |k|^power; the zero mode is dropped (mean-zero input for
    power < 0, same obstruction as the homogeneous Sobolev norms)."""
    if power < 0 and not mean_is_negligible(f):
        raise ValueError("fractional_laplacian with power < 0 needs a mean-zero field")
    return ScalarField.from_spectrum(f.grid, f.grid.kpow(power) * f.spectrum())


def source_gradient_l1(j: CurrentDensity, t: float, k_power: float) -> float:
    """|(-Lap)^{k/2} grad j(t)|_L1 with the Frobenius pointwise magnitude.

    The multiplier commutes with the gradient, so each component is
    smoothed first and the tensor magnitude taken after.
    """
    if isinstance(j, HarmonicCurrentDensity):
        from . import kernels

        ta, tb = j.smoothed_gradient_tensors(k_power)
        a, b = np.cos(j.sigma * t), np.sin(j.sigma * t)
        mag = kernels.magnitude(a * ta + b * tb)
        return float(np.sum(mag) * j.grid.cell_measure)
    jt = j.evaluate(t)
    smoothed = VectorField([fractional_laplacian(c, k_power) for c in jt.components])
    return lp_norm(jacobian_magnitude(smoothed), 1)


def strichartz_sides(e: StrichartzExponents, B0: VectorField, B1: VectorField,
                     j: CurrentDensity, T: float, nt: int):
    """Left and right side of the mixed-norm estimate for one data triple.

    Streaming over the time lattice, so no full trajectory is stored.
    """
    dt = T / (nt - 1)
    lr_norms = []
    sup_hs = 0.0
    sup_hs_dt = 0.0
    grad_norms = []
    for t, b, bt in wave_steps(B0, B1, j, T, nt):
        lr_norms.append(lp_norm(b, e.r))
        sup_hs = max(sup_hs, hs_norm(b, e.s))
        sup_hs_dt = max(sup_hs_dt, hs_norm(bt, e.s - 1.0))
        grad_norms.append(
            source_gradient_l1(j, t, e.k) if j is not None else 0.0
        )
    lhs = time_lq_norm(lr_norms, dt, e.q) + sup_hs + sup_hs_dt
    rhs = (
        hs_norm(B0, e.s)
        + hs_norm(B1, e.s - 1.0)
        + time_lq_norm(grad_norms, dt, _dual(e.q_tilde))
    )
    return lhs, rhs


def strichartz_ratio_experiment(e: StrichartzExponents, fixtures, T: float, nt: int):
    """Per-fixture LHS, RHS and ratio; fixtures with RHS < 1e-12 are
    discarded and counted.  Each fixture is a (B0, B1, j) triple."""
    ok, reasons = strichartz_admissible(e)
    if not ok:
        raise ValueError("inadmissible exponents: " + "; ".join(reasons))
    rows = []
    discarded = 0
    for idx, (B0, B1, j) in enumerate(fixtures):
        lhs, rhs = strichartz_sides(e, B0, B1, j, T, nt)
        if rhs < 1e-12:
            discarded += 1
            continue
        rows.append({"fixture": idx, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs})
    ratios = [r["ratio"] for r in rows]
    return {
        "rows": rows,
        "family_max": float(np.max(ratios)) if ratios else 0.0,
        "family_mean": float(np.mean(ratios)) if ratios else 0.0,
        "discarded": discarded,
        "time_horizon_restriction": "T <= L/4 (pre-wrap light cone)",
    }
