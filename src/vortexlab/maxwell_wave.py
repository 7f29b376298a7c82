"""Spectral solver for B_tt - Lap B = curl j and mixed-norm experiments.

Each step is one exact panel of the per-mode equation B_tt + |k|^2 B = S:
the propagator is exact, and the source, interpolated linearly between
stored times, is integrated exactly against the oscillatory kernel.  The
panel weights depend only on |k| dt, so they are computed once per run and
the step loop does no trig; the zero mode (kernel t - s) is the |k| -> 0
limit of the same weights, not a special case.  Sources linear in time
are thus exact.  On the torus dispersive decay degrades once the light cone
wraps, so experiments restrict T <= L/4 and record that restriction in
their reports.

A data triple is stepped, and its H^s norms taken, on the grid it was drawn
on.  Only the physical-space norms see an evaluation grid ``n_eval``: the
L^r norm of B(t) and the L^1 norm of the source gradient.  What they read
is formed on the triple's grid (B, or the smoothed gradient planes of j)
and sampled on ``n_eval`` by a ``PlaneSampler``'s exact staged transform,
a block of axis-0 slabs at a time: B(t)'s squares go into one accumulator,
and the source's QR planes are formed block by block.
"""

from dataclasses import dataclass, replace
from math import factorial

import numpy as np

from .family import family_map, family_report
from .fields import (
    Grid,
    PlaneSampler,
    ScalarField,
    Trajectory,
    VectorField,
    curl3d,
    fractional_laplacian,
    gradient_planes,
    hs_norm,
    lp_norm,
    magnitude_norm,
    time_lq_norm,
)
from .heat import _series_or_closed


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


def strichartz_admissible(e: StrichartzExponents):
    """Check the range, wave compatibility, and scale-invariance conditions.

    Returns (verdict, reasons).  When a range condition fails, reasons lists
    every violated range condition and nothing else (the other two divide by
    q, r and q_tilde - 1); otherwise it lists every violated condition.
    """
    tol = 1e-12  # slack of the compatibility and scale-invariance conditions
    reasons = []
    if not (2.0 <= e.q):
        reasons.append(f"range violated: q must satisfy 2 <= q <= inf, got {e.q}")
    if not (2.0 < e.q_tilde):
        reasons.append(
            f"range violated: q_tilde must satisfy 2 < q_tilde <= inf, got {e.q_tilde}"
        )
    if not (2.0 <= e.r < np.inf):
        reasons.append(f"range violated: r must satisfy 2 <= r < inf, got {e.r}")
    if reasons:
        return False, reasons
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


def require_admissible(e: StrichartzExponents):
    """Raise ValueError naming every reason of ``strichartz_admissible`` to reject e."""
    ok, reasons = strichartz_admissible(e)
    if not ok:
        raise ValueError("inadmissible exponents: " + "; ".join(reasons))


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

    def curl_spectra(self, t: float) -> np.ndarray:
        """Half spectra of curl j(t): its component stack's, shape (3, *spectral_shape)."""
        return curl3d(self.evaluate(t)).stack.spectrum()


class HarmonicCurrentDensity(CurrentDensity):
    """j(x, t) = j_cos(x) cos(sigma t) + j_sin(x) sin(sigma t); constant at sigma = 0.

    Curl spectra are precomputed once, and the source norm's three gradient
    planes once per evaluation grid, so per-time evaluation is pointwise only.
    """

    def __init__(self, j_cos: VectorField, j_sin: VectorField, sigma: float):
        if j_cos.grid != j_sin.grid:
            raise ValueError("harmonic current parts must share one grid")
        super().__init__(j_cos.grid, None)
        self.j_cos = j_cos
        self.j_sin = j_sin
        self.sigma = sigma
        self._curl_cos, self._curl_sin = (curl3d(j).stack.spectrum() for j in (j_cos, j_sin))
        self._grad_cache = {}

    def evaluate(self, t: float) -> VectorField:
        return VectorField(self.j_cos.stack * np.cos(self.sigma * t)
                           + self.j_sin.stack * np.sin(self.sigma * t))

    def curl_spectra(self, t: float) -> np.ndarray:
        a, b = np.cos(self.sigma * t), np.sin(self.sigma * t)
        return a * self._curl_cos + b * self._curl_sin

    def smoothed_gradient_planes(self, k_power: float, n_eval: int | None = None):
        """Cached pointwise QR planes (r11, r12, r22) of [Ta Tb] on the n_eval
        grid (its own by default), where Ta and Tb are the (-Lap)^{k/2}
        gradient tensors of j_cos and j_sin, taken on j's grid, so that
        |a Ta + b Tb| = |(a r11 + b r12, b r22)|: r11 = |Ta|, r12 = mu r11 and
        r22 = |Tb - mu Ta| with mu = Ta.Tb / |Ta|^2 (0 where Ta = 0).  Taken
        from the tensors, a near-cancelling sum keeps its relative accuracy.
        The 18 planes keep their first stage on the n_eval grid, and the QR
        planes are formed one block of slabs at a time from their blocks."""
        cache = self._grad_cache
        key = (k_power, n_eval or self.grid.n)
        if key not in cache:
            # blocks of a quarter of SLAB_BYTES: the 18 held take 1.1 MiB, and
            # thinner ones cost more transform calls than they save
            sample = PlaneSampler(self.grid, n_eval, planes=4)
            first = [sample.first_stage(d).copy() for f in (self.j_cos, self.j_sin)
                     for d in gradient_planes(VectorField(fractional_laplacian(f.stack, k_power)))]
            r11, r12, r22 = (np.empty(sample.eval_grid.shape) for _ in range(3))
            held = np.empty((len(first),) + r11[sample.rows[0]].shape)  # a block of each plane
            for rows in sample.rows:
                block = held[:, :rows.stop - rows.start]
                for out, s in zip(block, first):
                    out[...] = sample.block(s, rows)
                ta, tb = block[:9], block[9:]
                # summed one component at a time, so no product holds nine blocks
                p = sum(x * x for x in ta)
                mu = np.divide(sum(x * y for x, y in zip(ta, tb)), p, where=p > 0,
                               out=np.zeros_like(p))
                np.sqrt(p, out=r11[rows])
                np.multiply(mu, r11[rows], out=r12[rows])
                np.sqrt(sum((y - mu * x) ** 2 for x, y in zip(ta, tb)), out=r22[rows])
            cache[key] = (r11, r12, r22)
        return cache[key]


def wave_weights(kmag: np.ndarray, dt: float):
    """Per-mode weights (cos x, sin x/|k|, a0, a1, c1) of one panel of
    length dt, x = |k| dt.  For a source linear from d_old to d_new across
    the panel the exact step of B_tt + |k|^2 B = S is

        B+   = cos x B + (sin x/|k|) B_t + a1 d_old + (a0 - a1) d_new
        B_t+ = -|k| sin x B + cos x B_t + c1 d_old + (sin x/|k| - c1) d_new

    with a0 = (1 - cos x)/|k|^2, a1 = (sin x - x cos x)/(|k|^3 dt) and
    c1 = (x sin x + cos x - 1)/(|k|^2 dt).  Each is an entire function of
    z = x^2, evaluated by its series below heat.SERIES_Z, so |k| = 0 needs
    no special case (there a0 = dt^2/2, a1 = dt^2/3, c1 = dt/2)."""
    x = np.asarray(kmag, dtype=np.float64) * dt
    z = x * x

    def in_x(f):  # the closed forms read more simply in x = sqrt(z)
        return lambda z: f(np.sqrt(z))

    sinc = dt * _series_or_closed(z, lambda n: 1.0 / factorial(2 * n + 1),
                                  in_x(lambda x: np.sin(x) / x))
    a0 = dt**2 * _series_or_closed(z, lambda n: 1.0 / factorial(2 * n + 2),
                                   in_x(lambda x: (1.0 - np.cos(x)) / x**2))
    a1 = dt**2 * _series_or_closed(z, lambda n: 1.0 / ((2 * n + 3) * factorial(2 * n + 1)),
                                   in_x(lambda x: (np.sin(x) - x * np.cos(x)) / x**3))
    c1 = dt * _series_or_closed(z, lambda n: 1.0 / ((2 * n + 2) * factorial(2 * n)),
                                in_x(lambda x: (x * np.sin(x) + np.cos(x) - 1.0) / x**2))
    return np.cos(x), sinc, a0, a1, c1


def check_wave_times(T: float, nt: int):
    """Reject a lattice of nt uniform times over [0, T] unless nt >= 2 and T > 0."""
    if nt < 2:
        raise ValueError(f"nt must be >= 2, got {nt}")
    if not T > 0:
        raise ValueError(f"horizon must be positive, got {T}")


def wave_steps(B0: VectorField, B1: VectorField, j: CurrentDensity | None,
               T: float, nt: int):
    """Generator over (t, B, dB/dt) on nt uniform times.

    A fixed-factor recurrence on the spectra (B, dB/dt): each step is the
    exact panel of ``wave_weights``, with the source integrated exactly
    against its piecewise-linear time interpolant; the zero mode included."""
    grid = B0.grid
    if grid.dim != 3:
        raise ValueError("wave solver expects 3D fields")
    if B1.grid != grid or (j is not None and j.grid != grid):
        raise ValueError("grid mismatch between initial data and source")
    check_wave_times(T, nt)
    times = np.linspace(0.0, T, nt)
    dt = times[1] - times[0]
    cos_x, sinc, a0, a1, c1 = wave_weights(grid.kmag(), dt)
    k_sin = -grid.ksq() * sinc  # -|k| sin x
    a_new, c_new = a0 - a1, sinc - c1

    b, bt = B0.stack.spectrum(), B1.stack.spectrum()
    d_new = j.curl_spectra(times[0]) if j is not None else None
    for i, t in enumerate(times):
        if i > 0:
            b, bt = cos_x * b + sinc * bt, k_sin * b + cos_x * bt
            if j is not None:
                d_old, d_new = d_new, j.curl_spectra(t)
                b += a1 * d_old + a_new * d_new
                bt += c1 * d_old + c_new * d_new
        yield float(t), *(VectorField(ScalarField.from_spectrum(grid, x)) for x in (b, bt))


def solve_wave(B0: VectorField, B1: VectorField, j: CurrentDensity | None,
               T: float, nt: int):
    """Materialized trajectories (B, dB/dt) on nt uniform times in [0, T]."""
    times, *stacks = zip(*wave_steps(B0, B1, j, T, nt))
    return tuple(Trajectory(times, VectorField(ScalarField.from_spectrum(
        B0.grid, np.stack([f.stack.spectrum() for f in x], axis=1)))) for x in stacks)


def wave_energy(B: VectorField, Bt: VectorField) -> float:
    """|dB/dt|_L2^2 + |grad B|_L2^2 (conserved when the source vanishes)."""
    grad_b = magnitude_norm(PlaneSampler(B.grid), gradient_planes(B), 2, "|grad B|")
    return lp_norm(Bt, 2) ** 2 + grad_b ** 2


def source_gradient_l1(j: CurrentDensity, t: float, k_power: float,
                       n_eval: int | None = None) -> float:
    """|(-Lap)^{k/2} grad j(t)|_L1 on the n_eval grid (j's own by default),
    with the Frobenius pointwise magnitude.

    The multiplier commutes with the gradient, so each component is
    smoothed first and the tensor magnitude taken after.
    """
    if isinstance(j, HarmonicCurrentDensity):
        r11, r12, r22 = j.smoothed_gradient_planes(k_power, n_eval)
        a, b = np.cos(j.sigma * t), np.sin(j.sigma * t)
        u, v = a * r11 + b * r12, b * r22
        u *= u  # squared and summed in place: this runs at every time sample
        u += np.square(v, out=v)
        grid = replace(j.grid, n=n_eval or j.grid.n)
        return float(np.sum(np.sqrt(u, out=u)) * grid.cell_measure)
    grad_j = gradient_planes(VectorField(fractional_laplacian(j.evaluate(t).stack, k_power)))
    return magnitude_norm(PlaneSampler(j.grid, n_eval), grad_j, 1, "|grad j|")


def strichartz_sides(e: StrichartzExponents, B0: VectorField, B1: VectorField,
                     j: CurrentDensity, T: float, nt: int, n_eval: int | None = None):
    """Left and right side of the mixed-norm estimate for one data triple.

    Streaming over the time lattice, so no full trajectory is stored, and on
    the triple's own grid; the physical-space norms sample the n_eval grid
    (see the module docstring), B(t)'s through one sampler over all steps.
    """
    lr_norms, grad_norms, sup_hs, sup_hs_dt = [], [], 0.0, 0.0
    sample = PlaneSampler(B0.grid, n_eval)
    for t, b, bt in wave_steps(B0, B1, j, T, nt):
        lr_norms.append(magnitude_norm(sample, b.stack.spectrum(), e.r, "|B(t)|"))
        sup_hs = max(sup_hs, hs_norm(b, e.s))
        sup_hs_dt = max(sup_hs_dt, hs_norm(bt, e.s - 1.0))
        grad_norms.append(source_gradient_l1(j, t, e.k, n_eval) if j is not None else 0.0)
    dt = T / (nt - 1)  # after the loop: wave_steps rejects nt < 2 first
    lhs = time_lq_norm(lr_norms, dt, e.q) + sup_hs + sup_hs_dt
    rhs = (hs_norm(B0, e.s) + hs_norm(B1, e.s - 1.0)
           + time_lq_norm(grad_norms, dt, _dual(e.q_tilde)))
    return lhs, rhs


def strichartz_ratio_experiment(e: StrichartzExponents, fixtures, T: float, nt: int,
                                map_fn=map) -> dict:
    """``family_report`` of LHS, RHS and ratio over a sequence of
    (B0, B1, j, n_eval) fixtures; a fixture with RHS < 1e-12 is degenerate."""
    require_admissible(e)

    def row(i, fixture):
        B0, B1, j, n_eval = fixture
        lhs, rhs = strichartz_sides(e, B0, B1, j, T, nt, n_eval)
        return None if rhs < 1e-12 else {"fixture": i, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}

    return {**family_report(family_map(fixtures, row, map_fn)),
            "time_horizon_restriction": "T <= L/4 (pre-wrap light cone)"}
