"""Periodic scalar/vector fields on uniform grids, spectral calculus, norms.

Conventions, fixed once for the whole package:

* Fields are real, so a spectrum is the ``numpy.fft.rfftn`` half spectrum
  of shape ``Grid.spectral_shape``: the last axis keeps wavenumbers 0..n/2
  only (its last column is the Nyquist wavenumber +n/2), the rest follow by
  Hermitian symmetry.  Without extra normalization the coefficient at
  wavevector 0 (flat index 0) equals ``mean(f) * n**dim``.
* Physical wavenumbers are ``2*pi*fftfreq(n, d=h)`` (``rfftfreq`` on the
  last axis); odd derivatives zero the Nyquist mode of every axis so real
  fields stay real and derivatives antisymmetric.
* Parseval sums weight each half-spectrum column by 2, except the zero and
  Nyquist columns of the last axis (weight 1), their own mirror images.
* All integral norms carry the cell measure ``h**dim`` so values converge
  to continuum integrals under refinement.
* Vector magnitudes (including gradient tensors) are pointwise Euclidean.
* A per-field operation decorated ``componentwise`` (resampling, the heat
  semigroup, the fractional Laplacian) takes a VectorField too, and applies
  to each component with the same arguments; callers never map components.
* A field keeps the grid it was built on, and spectral work never leaves
  it.  A norm taken on a finer evaluation grid samples it there through
  ``on_eval_grid``: staged inverse transforms of its kept modes, exact for
  a field with no Nyquist content, give a refinement that holds samples
  only; no evaluation-grid spectrum is ever padded or built.
* A stack of fields (a trajectory) is an array with leading axes before the
  field's own; its transforms and reductions run over the last ``dim`` axes,
  bitwise as for each field alone, one batched call per ``blocks`` slice.
"""

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

# input spectra of one batched transform: 4 snapshots of three 64^2 spectra.
# On a 2 MiB L2, blocks of 2-4 such snapshots ran fastest, of 5 or more slower
BLOCK_BYTES = 400 << 10


@dataclass(frozen=True)
class Grid:
    """Uniform isotropic periodic lattice, ``n`` points per axis, period ``box_length``.

    Its spectral multipliers are cached per grid value, so equal grids share
    them; every one is a read-only array on the half spectrum.
    """

    dim: int
    n: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not 0 < self.box_length < np.inf:
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")

    @property
    def h(self) -> float:
        return self.box_length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of the rfftn half spectrum."""
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @property
    def cell_measure(self) -> float:
        return self.h**self.dim

    def axis_coords(self) -> np.ndarray:
        """Sample coordinates along one axis, [0, L)."""
        return np.arange(self.n) * self.h

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        x = self.axis_coords()
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def wavenumber(self, axis: int) -> np.ndarray:
        """Physical wavenumbers 2*pi*k/L along `axis`, broadcastable to the half spectrum."""
        return self._wavenumbers(False)[axis]

    def deriv_wavenumber(self, axis: int) -> np.ndarray:
        """Wavenumbers for odd derivatives: Nyquist mode zeroed."""
        return self._wavenumbers(True)[axis]

    @lru_cache(maxsize=32)
    def _wavenumbers(self, zero_nyquist: bool) -> tuple[np.ndarray, ...]:
        out = []
        for axis in range(self.dim):
            freq = np.fft.rfftfreq if axis == self.dim - 1 else np.fft.fftfreq
            k1 = 2.0 * np.pi * freq(self.n, d=self.h)
            if zero_nyquist:
                k1[self.n // 2] = 0.0
            shape = [1] * self.dim
            shape[axis] = k1.size
            out.append(_readonly(k1.reshape(shape)))
        return tuple(out)

    @lru_cache(maxsize=32)
    def ksq(self) -> np.ndarray:
        return _readonly(sum(k**2 for k in self._wavenumbers(False)))

    @lru_cache(maxsize=32)
    def kmag(self) -> np.ndarray:
        return _readonly(np.sqrt(self.ksq()))

    @lru_cache(maxsize=32)
    def kpow(self, p: float) -> np.ndarray:
        """Multiplier |k|^p with the zero mode set to 0; p = -2 is the
        inverse Laplacian (-Lap)^{-1} in the mean-zero gauge."""
        k = self.kmag()
        with np.errstate(divide="ignore"):
            return _readonly(np.where(k > 0, k**p, 0.0))

    @lru_cache(maxsize=32)
    def sobolev_weight(self, s: float) -> np.ndarray:
        """Parseval weight (2 per half-spectrum column, 1 on the zero and
        Nyquist columns of the last axis) times |k|^{2s}; the zero mode is
        dropped for s != 0."""
        col = np.full(self.n // 2 + 1, 2.0)
        col[0] = col[-1] = 1.0
        w = col.reshape((1,) * (self.dim - 1) + (-1,))
        return _readonly(w * self.kpow(2.0 * s) if s != 0 else w)

    @lru_cache(maxsize=32)
    def dealias_mask(self) -> np.ndarray:
        kcut = (2.0 / 3.0) * np.pi * self.n / self.box_length
        mask = np.ones(self.spectral_shape, dtype=bool)
        for k in self._wavenumbers(False):
            mask &= np.abs(k) < kcut
        return _readonly(mask)


def _readonly(a):
    a.flags.writeable = False
    return a


def batch_samples(grid: Grid, spectra: np.ndarray) -> np.ndarray:
    """Samples of every half spectrum in `spectra` (any leading axes), in one
    batched ``irfftn`` over the last grid.dim axes."""
    return np.fft.irfftn(spectra, s=grid.shape, axes=range(-grid.dim, 0))


def blocks(count: int, item_bytes: int) -> list[slice]:
    """Slices of range(count), each as many items as fit BLOCK_BYTES (one at least)."""
    step = max(1, BLOCK_BYTES // item_bytes)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _magnitude(comps) -> np.ndarray:
    """Pointwise Euclidean magnitude of an iterable of component arrays,
    added in the order of ``np.sum(stack * stack, axis=0)``, unstacked."""
    comps = iter(comps)
    acc = next(comps) ** 2
    for c in comps:
        acc += c * c
    return _readonly(np.sqrt(acc, out=acc))


class ScalarField:
    """A real field on a Grid, held in the domain it was built in.

    Samples and the rfftn half spectrum are each computed on first use and
    then cached; both are read-only.  Linear arithmetic keeps every domain
    both operands already hold, and transforms only when they share none.
    """

    __slots__ = ("grid", "_samples", "_spectrum")

    def __init__(self, grid: Grid, samples=None, *, spectrum=None):
        """From real samples (checked finite; copied unless read-only), from
        rfftn coefficients (see from_spectrum), or from both."""
        if samples is not None:
            samples = np.asarray(samples, dtype=np.float64)
            if samples.shape != grid.shape:
                raise ValueError(
                    f"samples shape {samples.shape} does not match grid {grid.shape}"
                )
            if not np.all(np.isfinite(samples)):
                raise ValueError("field samples must be finite")
            samples = _readonly(samples.copy() if samples.flags.writeable else samples)
        if spectrum is not None:
            spectrum = np.asarray(spectrum, dtype=np.complex128)
            if spectrum.shape != grid.spectral_shape:
                raise ValueError(
                    f"spectrum shape {spectrum.shape} is not the rfftn half "
                    f"spectrum shape {grid.spectral_shape} of grid {grid.shape}"
                )
            if samples is None and not np.all(np.isfinite(spectrum)):
                raise ValueError("field spectrum must be finite")
            _readonly(spectrum)
        elif samples is None:
            raise ValueError("a field needs samples or a spectrum")
        self.grid = grid
        self._samples = samples
        self._spectrum = spectrum

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, func) -> "ScalarField":
        return cls(grid, func(*grid.meshgrid()))

    @classmethod
    def from_spectrum(cls, grid: Grid, coeffs: np.ndarray) -> "ScalarField":
        """Field with rfftn coefficients `coeffs` (shape grid.spectral_shape),
        taken over without a copy and made read-only; the samples are
        computed only when first read."""
        return cls(grid, spectrum=coeffs)

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = _readonly(batch_samples(self.grid, self._spectrum))
        return self._samples

    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = _readonly(np.fft.rfftn(self._samples))
        return self._spectrum

    def mean(self) -> float:
        return float(self.samples.mean())

    def _linear(self, op, *others) -> "ScalarField":
        """op in every domain that self and `others` all hold, else on samples."""
        fields = (self,) + others
        for f in others:
            if f.grid != self.grid:
                raise ValueError(f"grid mismatch: {self.grid} vs {f.grid}")
        spectral = all(f._spectrum is not None for f in fields)
        sampled = all(f._samples is not None for f in fields)
        return ScalarField(
            self.grid,
            _readonly(op(*(f.samples for f in fields))) if sampled or not spectral else None,
            spectrum=op(*(f._spectrum for f in fields)) if spectral else None,
        )

    def __add__(self, other):
        if isinstance(other, ScalarField):
            return self._linear(np.add, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return self._linear(np.subtract, other)
        return NotImplemented

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return self._linear(lambda a: a * c)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self._linear(np.negative)

    def __repr__(self):
        return f"ScalarField(dim={self.grid.dim}, n={self.grid.n}, L={self.grid.box_length})"


class VectorField:
    """dim ScalarField components sharing one grid."""

    __slots__ = ("grid", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        grid = components[0].grid
        if len(components) != grid.dim:
            raise ValueError(
                f"expected {grid.dim} components, got {len(components)}"
            )
        for c in components[1:]:
            if c.grid != grid:
                raise ValueError("vector components must share one grid")
        self.grid = grid
        self.components = components

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls([ScalarField.zeros(grid) for _ in range(grid.dim)])

    @classmethod
    def from_spectra(cls, grid: Grid, spectra) -> "VectorField":
        """Field whose component c is ScalarField.from_spectrum(grid, spectra[c])."""
        return cls([ScalarField.from_spectrum(grid, c) for c in spectra])

    def spectra(self) -> np.ndarray:
        """Component half spectra stacked, shape (dim, *grid.spectral_shape)."""
        return np.stack([c.spectrum() for c in self.components])

    def magnitude(self) -> ScalarField:
        return ScalarField(self.grid, _magnitude(c.samples for c in self.components))

    def __add__(self, other):
        if isinstance(other, VectorField):
            return VectorField(
                [a + b for a, b in zip(self.components, other.components)]
            )
        return NotImplemented

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return VectorField([comp * c for comp in self.components])
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"VectorField(dim={self.grid.dim}, n={self.grid.n}, L={self.grid.box_length})"


def componentwise(op):
    """Lift op(f: ScalarField, *args) -> ScalarField to VectorFields, one
    component at a time with the same arguments."""
    @wraps(op)
    def lifted(f, *args):
        if isinstance(f, VectorField):
            return VectorField([op(c, *args) for c in f.components])
        return op(f, *args)
    return lifted


class Trajectory:
    """Time-indexed fields on a uniform lattice over [0, t_max]."""

    __slots__ = ("grid", "times", "snapshots", "_spectra")

    def __init__(self, times, snapshots):
        times = np.asarray(times, dtype=np.float64)
        snapshots = list(snapshots)
        if times.ndim != 1 or len(times) != len(snapshots):
            raise ValueError("times and snapshots must have equal length")
        if len(times) == 0:
            raise ValueError("empty trajectory")
        dts = np.diff(times)
        if len(dts) and (np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-10, atol=0)):
            raise ValueError("times must be strictly increasing and uniform")
        self.grid = snapshots[0].grid
        for s in snapshots[1:]:
            if s.grid != self.grid:
                raise ValueError("all snapshots must share one grid")
        self.times = times
        self.snapshots = snapshots
        self._spectra = None

    @classmethod
    def from_spectra(cls, times, grid: Grid, spectra: np.ndarray) -> "Trajectory":
        """Snapshots over the rows of a complex stack of half spectra (leading
        time axis), which is kept without a copy and made read-only."""
        traj = cls(times, [ScalarField.from_spectrum(grid, c) for c in _readonly(spectra)])
        traj._spectra = spectra
        return traj

    def spectra(self) -> np.ndarray:
        """Snapshot half spectra stacked, shape (len(self), *grid.spectral_shape)."""
        return self._spectra if self._spectra is not None else np.stack(
            [s.spectrum() for s in self.snapshots])

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return zip(self.times, self.snapshots)


# ---------------------------------------------------------------------------
# spectral calculus

def _dspec(f: ScalarField, axis: int) -> np.ndarray:
    """Spectrum of the derivative of f along `axis`."""
    return 1j * f.grid.deriv_wavenumber(axis) * f.spectrum()


def gradient_spectra(grid: Grid, spectra: np.ndarray) -> list[np.ndarray]:
    """Spectra of the gradient components of a field or of each field of a stack."""
    return [1j * grid.deriv_wavenumber(a) * spectra for a in range(grid.dim)]


def derivative(f: ScalarField, axis: int) -> ScalarField:
    g = f.grid
    if not 0 <= axis < g.dim:
        raise ValueError(f"axis {axis} out of range for dim {g.dim}")
    return ScalarField.from_spectrum(g, _dspec(f, axis))


def gradient(f: ScalarField) -> VectorField:
    return VectorField([derivative(f, a) for a in range(f.grid.dim)])


def divergence(v: VectorField) -> ScalarField:
    return ScalarField.from_spectrum(v.grid, sum(_dspec(c, a) for a, c in enumerate(v.components)))


def curl2d(v: VectorField) -> ScalarField:
    if v.grid.dim != 2:
        raise ValueError("curl2d requires a 2D field")
    c = v.components
    return ScalarField.from_spectrum(v.grid, _dspec(c[1], 0) - _dspec(c[0], 1))


def curl3d(v: VectorField) -> VectorField:
    if v.grid.dim != 3:
        raise ValueError("curl3d requires a 3D field")
    c = v.components
    return VectorField.from_spectra(
        v.grid, [_dspec(c[i], j) - _dspec(c[j], i) for i, j in ((2, 1), (0, 2), (1, 0))])


def gradient_planes(v: VectorField, n_eval: int | None = None):
    """Samples of every d_a v_c on the n_eval grid (v's own by default),
    component-major, one plane at a time; each is taken on v's grid."""
    return (on_eval_grid(derivative(c, a), n_eval).samples
            for c in v.components for a in range(v.grid.dim))


def jacobian_magnitude(v: VectorField, n_eval: int | None = None) -> ScalarField:
    """Pointwise Frobenius magnitude of the gradient tensor of v, on the
    n_eval grid (v's own by default)."""
    grid = Grid(v.grid.dim, n_eval or v.grid.n, v.grid.box_length)
    return ScalarField(grid, _magnitude(gradient_planes(v, n_eval)))


def refined_samples(grid: Grid, spectrum: np.ndarray, n_new: int) -> np.ndarray:
    """Samples on the n_new grid of the field with half spectrum `spectrum` on
    `grid`, Nyquist planes dropped (ambiguous under embedding): one ``ifft``
    per axis but the last over its kept modes, then ``irfft``.  Each 1D
    transform sees what ``irfftn`` of the zero-padded half spectrum would, so
    the result is bitwise that, but no n_new-point spectrum is built."""
    half = grid.n // 2
    # wavenumbers 0..half-1 and -(half-1)..-1 sit at the same index from the
    # front and from the back on both grids
    keep = (slice(0, half), slice(1 - half, None))
    a = spectrum[..., :half] * (n_new / grid.n) ** grid.dim
    for axis in range(grid.dim - 1):
        lo, hi = ((slice(None),) * axis + (k,) for k in keep)
        padded = np.zeros(a.shape[:axis] + (n_new,) + a.shape[axis + 1:], dtype=np.complex128)
        padded[lo], padded[hi] = a[lo], a[hi]
        a = np.fft.ifft(padded, axis=axis)
    return np.fft.irfft(a, n=n_new, axis=-1)


@componentwise
def spectral_refine(f: ScalarField, n_new: int) -> ScalarField:
    """f sampled on a finer grid (``refined_samples``); the result holds
    samples only.  Exact for fields with no Nyquist content."""
    g = f.grid
    check_n_eval(g, n_new)
    if n_new == g.n:
        return f
    return ScalarField(Grid(g.dim, n_new, g.box_length),
                       _readonly(refined_samples(g, f.spectrum(), n_new)))


def check_n_eval(grid: Grid, n_eval: int | None):
    """Reject an evaluation grid that a field on `grid` cannot be refined onto."""
    if n_eval is not None and (n_eval < grid.n or n_eval % 2 != 0):
        raise ValueError(f"n_eval must be even and >= n = {grid.n}, got {n_eval}")


def on_eval_grid(f, n_eval: int | None):
    """f (scalar or vector) on the n_eval-point evaluation grid: f itself when
    n_eval is None or f's own n, else ``spectral_refine(f, n_eval)``."""
    return f if n_eval is None or n_eval == f.grid.n else spectral_refine(f, n_eval)


@componentwise
def fractional_laplacian(f: ScalarField, power: float) -> ScalarField:
    """Multiplier |k|^power; the zero mode is dropped (mean-zero input for
    power < 0, same obstruction as the homogeneous Sobolev norms)."""
    if power < 0 and not mean_is_negligible(f):
        raise ValueError("fractional_laplacian with power < 0 needs a mean-zero field")
    return ScalarField.from_spectrum(f.grid, f.grid.kpow(power) * f.spectrum())


# ---------------------------------------------------------------------------
# norms

def lp_norm(f, p: float) -> float:
    """Discrete Lp norm with cell measure; vectors use pointwise Euclidean magnitude."""
    if p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    if isinstance(f, VectorField):
        f = f.magnitude()
    return lp_norms(f.grid, f.samples[None], p)[0]


def lp_norms(grid: Grid, samples: np.ndarray, p: float) -> list[float]:
    """lp_norm of each field of a stack of real samples (leading axis), p >= 1."""
    axes = tuple(range(-grid.dim, 0))
    if np.isinf(p):
        return [float(m) for m in np.max(np.abs(samples), axis=axes)]
    if p == 1:
        sums = np.sum(np.abs(samples), axis=axes)
    elif p == 2:
        sums = np.sum(samples * samples, axis=axes)
    else:
        sums = np.sum(np.abs(samples) ** float(p), axis=axes)
    return [float((float(s) * grid.cell_measure) ** (1.0 / p)) for s in sums]


def w11_norm(f: ScalarField) -> float:
    """L1 norm of f plus L1 norm of its (Euclidean) gradient; 2D only."""
    if f.grid.dim != 2:
        raise ValueError("w11_norm is defined for 2D scalar fields")
    return lp_norm(f, 1) + lp_norm(gradient(f), 1)


def w11_norms(grid: Grid, spectra: np.ndarray) -> list[float]:
    """w11_norm of each field of a stack of 2D half spectra (leading axis),
    with one batched inverse transform per block."""
    if grid.dim != 2:
        raise ValueError("w11_norms is defined for 2D scalar fields")
    out = []
    for b in blocks(len(spectra), 3 * spectra[0].nbytes):
        f, *grad = batch_samples(grid, np.stack([spectra[b], *gradient_spectra(grid, spectra[b])]))
        out += [a + g for a, g in zip(lp_norms(grid, f, 1), lp_norms(grid, _magnitude(grad), 1))]
    return out


def hs_sq(grid: Grid, coeffs: np.ndarray, s: float = 0.0):
    """Squared homogeneous H^s norm of the field with half-spectrum `coeffs`
    (or of each field of a stack of them), by weighted Parseval; s = 0 gives
    the squared L2 norm, zero mode included."""
    power = coeffs.real**2 + coeffs.imag**2
    total = np.sum(grid.sobolev_weight(s) * power, axis=tuple(range(-grid.dim, 0)))
    return total * grid.cell_measure / grid.n**grid.dim


def negligible_means(grid: Grid, spectra: np.ndarray) -> np.ndarray:
    """Whether |mean| <= 1e-10 * max|f| for each field f of a stack of half
    spectra (leading axis; an all-zero field passes).

    Decided from the spectrum when the mean is exactly 0, or else when
    |mean| <= 1e-10 * rms: rms <= max|f|, so that implies the sample test.
    Only the other fields are sampled.
    """
    mean = np.abs(spectra.reshape(len(spectra), -1)[:, 0].real) / grid.n**grid.dim
    ok = mean == 0
    rest = np.flatnonzero(~ok)
    if rest.size:
        rms = np.sqrt(hs_sq(grid, spectra[rest]) / grid.box_length**grid.dim)
        ok[rest] = mean[rest] <= 1e-10 * rms
    for i in np.flatnonzero(~ok):
        f = batch_samples(grid, spectra[i])
        ok[i] = abs(float(f.mean())) <= 1e-10 * float(np.max(np.abs(f)))
    return ok


def mean_is_negligible(f: ScalarField) -> bool:
    """negligible_means of one field."""
    return bool(negligible_means(f.grid, f.spectrum()[None])[0])


def hs_norm(f, s: float) -> float:
    """Homogeneous Sobolev norm, normalized so hs_norm(f, 0) == lp_norm(f, 2)
    on mean-zero fields.  Zero mode excluded for s != 0; s < 0 requires a
    vanishing mean.
    """
    if isinstance(f, VectorField):
        return float(np.sqrt(sum(hs_norm(c, s) ** 2 for c in f.components)))
    if s < 0 and not mean_is_negligible(f):
        raise ValueError("homogeneous norm undefined: s < 0 requires a mean-zero field")
    return float(np.sqrt(hs_sq(f.grid, f.spectrum(), s)))


def time_lq_norm(values, dt: float, q: float) -> float:
    """L^q norm in time of values on a uniform lattice of step dt, trapezoid rule."""
    values = np.asarray(values)
    if np.isinf(q):
        return float(np.max(values))
    weights = np.full(len(values), dt)
    weights[0] = weights[-1] = dt / 2
    return float(np.sum(weights * values**q) ** (1.0 / q))
