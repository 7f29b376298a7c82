"""Periodic scalar/vector fields on uniform grids, spectral calculus, norms.

Conventions, fixed once for the whole package:

* Transforms use ``numpy.fft.fftn`` without extra normalization, so the
  coefficient at wavevector 0 equals ``mean(f) * n**dim``.
* Physical wavenumbers are ``2*pi*fftfreq(n, d=h)``; odd derivatives zero
  the Nyquist mode so real fields stay real and derivatives antisymmetric.
* All integral norms carry the cell measure ``h**dim`` so values converge
  to continuum integrals under refinement.
* Vector magnitudes (including gradient tensors) are pointwise Euclidean.
"""

from dataclasses import dataclass, field
from functools import lru_cache
import struct

import numpy as np

from . import kernels

_FIELD_MAGIC = b"VXLF"


@dataclass(frozen=True)
class Grid:
    """Uniform isotropic periodic lattice, ``n`` points per axis, period ``box_length``."""

    dim: int
    n: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 8, got {self.n}")
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")

    @property
    def h(self) -> float:
        return self.box_length / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

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
        """Physical wavenumbers 2*pi*k/L along `axis`, broadcast to full shape."""
        return _wavenumbers(self.dim, self.n, self.box_length)[axis]

    def deriv_wavenumber(self, axis: int) -> np.ndarray:
        """Wavenumbers for odd derivatives: Nyquist mode zeroed."""
        return _deriv_wavenumbers(self.dim, self.n, self.box_length)[axis]

    def ksq(self) -> np.ndarray:
        return _ksq(self.dim, self.n, self.box_length)

    def kmag(self) -> np.ndarray:
        return _kmag(self.dim, self.n, self.box_length)

    def dealias_mask(self) -> np.ndarray:
        return _dealias_mask(self.dim, self.n, self.box_length)


@lru_cache(maxsize=32)
def _wavenumbers(dim, n, L):
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
    out = []
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = n
        arr = k1.reshape(shape)
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


@lru_cache(maxsize=32)
def _deriv_wavenumbers(dim, n, L):
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
    k1[n // 2] = 0.0
    out = []
    for axis in range(dim):
        shape = [1] * dim
        shape[axis] = n
        arr = k1.reshape(shape).copy()
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


@lru_cache(maxsize=32)
def _ksq(dim, n, L):
    ks = _wavenumbers(dim, n, L)
    out = sum(k**2 for k in ks)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _kmag(dim, n, L):
    out = np.sqrt(_ksq(dim, n, L))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _dealias_mask(dim, n, L):
    kcut = (2.0 / 3.0) * np.pi * n / L
    ks = _wavenumbers(dim, n, L)
    mask = np.ones((n,) * dim, dtype=bool)
    for k in ks:
        mask &= np.abs(k) < kcut
    mask.flags.writeable = False
    return mask


class ScalarField:
    """Real samples on a Grid with a lazily cached spectrum.

    Treated as immutable: the sample array is marked read-only.
    """

    __slots__ = ("grid", "samples", "_spectrum")

    def __init__(self, grid: Grid, samples: np.ndarray, _spectrum=None):
        samples = np.asarray(samples, dtype=np.float64)
        if samples.shape != grid.shape:
            raise ValueError(
                f"samples shape {samples.shape} does not match grid {grid.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValueError("field samples must be finite")
        samples = samples.copy() if samples.flags.writeable else samples
        samples.flags.writeable = False
        self.grid = grid
        self.samples = samples
        self._spectrum = _spectrum

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, func) -> "ScalarField":
        return cls(grid, func(*grid.meshgrid()))

    @classmethod
    def from_spectrum(cls, grid: Grid, coeffs: np.ndarray) -> "ScalarField":
        samples = np.fft.ifftn(coeffs).real
        f = cls(grid, samples)
        f._spectrum = np.asarray(coeffs, dtype=np.complex128)
        return f

    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = np.fft.fftn(self.samples)
        return self._spectrum

    def mean(self) -> float:
        return float(self.samples.mean())

    def __add__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return ScalarField(self.grid, self.samples + other.samples)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            _check_same_grid(self, other)
            return ScalarField(self.grid, self.samples - other.samples)
        return NotImplemented

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return ScalarField(self.grid, self.samples * c)
        if isinstance(c, ScalarField):
            _check_same_grid(self, c)
            return ScalarField(self.grid, self.samples * c.samples)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.samples)

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

    def component_samples(self) -> np.ndarray:
        return np.stack([c.samples for c in self.components])

    def magnitude(self) -> ScalarField:
        return ScalarField(self.grid, kernels.magnitude(self.component_samples()))

    def __add__(self, other):
        if isinstance(other, VectorField):
            return VectorField(
                [a + b for a, b in zip(self.components, other.components)]
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, VectorField):
            return VectorField(
                [a - b for a, b in zip(self.components, other.components)]
            )
        return NotImplemented

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return VectorField([comp * c for comp in self.components])
        if isinstance(c, ScalarField):
            return VectorField([comp * c for comp in self.components])
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return f"VectorField(dim={self.grid.dim}, n={self.grid.n}, L={self.grid.box_length})"


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


@dataclass
class NormReport:
    """Named nonnegative norm values of one field or trajectory."""

    entries: dict = field(default_factory=dict)

    def set(self, label: str, value: float):
        value = float(value)
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"norm {label!r} must be finite and >= 0, got {value}")
        self.entries[label] = value

    def __getitem__(self, label: str) -> float:
        return self.entries[label]

    def __contains__(self, label):
        return label in self.entries


class Trajectory:
    """Time-indexed fields on a uniform lattice over [0, t_max]."""

    __slots__ = ("grid", "times", "snapshots")

    def __init__(self, times, snapshots):
        times = np.asarray(times, dtype=np.float64)
        snapshots = list(snapshots)
        if times.ndim != 1 or len(times) != len(snapshots):
            raise ValueError("times and snapshots must have equal length")
        if len(times) == 0:
            raise ValueError("empty trajectory")
        dts = np.diff(times)
        if len(dts) and (np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-10)):
            raise ValueError("times must be strictly increasing and uniform")
        self.grid = snapshots[0].grid
        for s in snapshots[1:]:
            if s.grid != self.grid:
                raise ValueError("all snapshots must share one grid")
        self.times = times
        self.snapshots = snapshots

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return zip(self.times, self.snapshots)


# ---------------------------------------------------------------------------
# spectral calculus

def transform(f: ScalarField) -> np.ndarray:
    """Forward FFT coefficients of f (numpy fftn convention)."""
    return f.spectrum()


def inverse_transform(coeffs: np.ndarray, grid: Grid) -> ScalarField:
    return ScalarField.from_spectrum(grid, coeffs)


def derivative(f: ScalarField, axis: int) -> ScalarField:
    g = f.grid
    if not 0 <= axis < g.dim:
        raise ValueError(f"axis {axis} out of range for dim {g.dim}")
    return ScalarField.from_spectrum(g, 1j * g.deriv_wavenumber(axis) * f.spectrum())


def gradient(f: ScalarField) -> VectorField:
    return VectorField([derivative(f, a) for a in range(f.grid.dim)])


def divergence(v: VectorField) -> ScalarField:
    g = v.grid
    coeffs = sum(
        1j * g.deriv_wavenumber(a) * v.components[a].spectrum()
        for a in range(g.dim)
    )
    return ScalarField.from_spectrum(g, coeffs)


def curl2d(v: VectorField) -> ScalarField:
    if v.grid.dim != 2:
        raise ValueError("curl2d requires a 2D field")
    return derivative(v.components[1], 0) - derivative(v.components[0], 1)


def curl3d(v: VectorField) -> VectorField:
    if v.grid.dim != 3:
        raise ValueError("curl3d requires a 3D field")
    c = v.components
    return VectorField(
        [
            derivative(c[2], 1) - derivative(c[1], 2),
            derivative(c[0], 2) - derivative(c[2], 0),
            derivative(c[1], 0) - derivative(c[0], 1),
        ]
    )


def jacobian_magnitude(v: VectorField) -> ScalarField:
    """Pointwise Frobenius magnitude of the gradient tensor of v."""
    rows = []
    for comp in v.components:
        for a in range(v.grid.dim):
            rows.append(derivative(comp, a).samples)
    return ScalarField(v.grid, kernels.magnitude(np.stack(rows)))


def spectral_refine(f: ScalarField, n_new: int) -> ScalarField:
    """Resample f on a finer grid by zero-padding its spectrum.

    The source Nyquist planes are dropped (they are ambiguous under
    embedding), so refine is exact for fields with no Nyquist content.
    """
    g = f.grid
    if n_new < g.n:
        raise ValueError("spectral_refine only refines (n_new >= n)")
    if n_new == g.n:
        return f
    if n_new % 2 != 0:
        raise ValueError("n_new must be even")
    old = np.fft.fftshift(f.spectrum())
    # zero the old Nyquist planes (index 0 after fftshift for even n)
    for a in range(g.dim):
        idx = [slice(None)] * g.dim
        idx[a] = 0
        old[tuple(idx)] = 0.0
    new = np.zeros((n_new,) * g.dim, dtype=np.complex128)
    lo = (n_new - g.n) // 2
    sl = tuple(slice(lo, lo + g.n) for _ in range(g.dim))
    new[sl] = old
    new = np.fft.ifftshift(new) * (n_new / g.n) ** g.dim
    return ScalarField.from_spectrum(Grid(g.dim, n_new, g.box_length), new)


# ---------------------------------------------------------------------------
# norms

def lp_norm(f, p: float) -> float:
    """Discrete Lp norm with cell measure; vectors use pointwise Euclidean magnitude."""
    if p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    if isinstance(f, VectorField):
        f = f.magnitude()
    if np.isinf(p):
        return float(np.max(np.abs(f.samples)))
    s = kernels.abs_pow_sum(f.samples, float(p))
    return float((s * f.grid.cell_measure) ** (1.0 / p))


def w11_norm(f: ScalarField) -> float:
    """L1 norm of f plus L1 norm of its (Euclidean) gradient; 2D only."""
    if f.grid.dim != 2:
        raise ValueError("w11_norm is defined for 2D scalar fields")
    return lp_norm(f, 1) + lp_norm(gradient(f), 1)


def hs_norm(f, s: float) -> float:
    """Homogeneous Sobolev norm, normalized so hs_norm(f, 0) == lp_norm(f, 2)
    on mean-zero fields.  Zero mode excluded for s != 0; s < 0 requires a
    vanishing mean.
    """
    if isinstance(f, VectorField):
        return float(
            np.sqrt(sum(hs_norm(c, s) ** 2 for c in f.components))
        )
    g = f.grid
    if s < 0:
        scale = float(np.max(np.abs(f.samples)))
        if scale == 0.0:
            return 0.0
        if abs(f.mean()) > 1e-10 * scale:
            raise ValueError(
                "homogeneous norm undefined: s < 0 requires a mean-zero field"
            )
    coeffs = f.spectrum()
    power = np.abs(coeffs) ** 2
    kmag = g.kmag()
    flat_p = power.ravel().copy()
    flat_k = kmag.ravel()
    if s == 0:
        weighted = flat_p  # plain Parseval, equals the L2 norm
    else:
        flat_p[0] = 0.0  # zero mode excluded (index 0 in fft layout)
        with np.errstate(divide="ignore"):
            w = np.where(flat_k > 0, flat_k**(2.0 * s), 0.0)
        weighted = flat_p * w
    total = np.sum(weighted)
    return float(np.sqrt(total * g.cell_measure / g.n**g.dim))


def mixed_norm(traj: Trajectory, q: float, r: float) -> float:
    """Space-time norm L^q in time of the spatial L^r norms, trapezoid in time."""
    if len(traj) < 2:
        raise ValueError("mixed_norm needs at least 2 time samples")
    if q < 1 or r < 1:
        raise ValueError("exponents must satisfy 1 <= q, r <= inf")
    vals = np.array([lp_norm(f, r) for f in traj.snapshots])
    if np.isinf(q):
        return float(np.max(vals))
    dt = traj.times[1] - traj.times[0]
    weights = np.full(len(vals), dt)
    weights[0] = weights[-1] = dt / 2
    return float(np.sum(weights * vals**q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# serialization (little-endian: magic, uint8 dim, uint32 n, float64 L, samples)

def save_field(path, f: ScalarField):
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(struct.pack("<BI", g.dim, g.n))
        fh.write(struct.pack("<d", g.box_length))
        fh.write(f.samples.astype("<f8").tobytes(order="C"))


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _FIELD_MAGIC:
            raise ValueError(f"not a vortexlab field file: bad magic {magic!r}")
        header = fh.read(13)
        if len(header) != 13:
            raise ValueError(f"field file header is {len(header)} bytes, needs 13")
        dim, n, L = struct.unpack("<BId", header)
        grid = Grid(dim, n, L)
        payload = fh.read()
    if len(payload) != 8 * n**dim:
        raise ValueError(f"field file payload is {len(payload)} bytes, "
                         f"its header (dim={dim}, n={n}) needs {8 * n**dim}")
    data = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    return ScalarField(grid, data.astype(np.float64))
