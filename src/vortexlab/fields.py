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
* A field keeps the grid it was built on, and spectral work never leaves
  it.  A norm on an evaluation grid is ``magnitude_norm``: a ``PlaneSampler``
  samples each half spectrum there as blocks of axis-0 slabs, bitwise
  ``batch_samples`` on the field's own grid and exact on a finer one for a
  field without Nyquist content, so the one full-size array a norm holds is
  its accumulator; ``gradient_planes`` forms one derivative plane at a time.
* A field may be a stack (a trajectory): its arrays carry leading axes
  ``lead`` before the grid's own, and ``f[i]`` is row i, over views.  Its
  transforms and each rule below (norms, mean, mean-zero test, Biot-Savart,
  heat) run over the last ``dim`` axes, bitwise as for each row alone, one
  batched call per ``blocks`` slice; a rule gives a float for an unstacked
  field and an array of shape ``lead`` for a stack.
* A vector field is one such stack, ``VectorField.stack``: the component
  axis comes first, then the stack axes, then the grid's, so its arrays have
  shape ``(dim,) + lead + grid.shape``; its components are rows of the stack.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# input spectra of one batched transform: 4 snapshots of three 64^2 spectra.
# On a 2 MiB L2, blocks of 2-4 such snapshots ran fastest, of 5 or more slower
BLOCK_BYTES = 400 << 10
# evaluation-grid samples of one block of axis-0 slabs, the unit in which a
# PlaneSampler hands out a plane: 8 slabs of a 64^3 grid
SLAB_BYTES = 256 << 10


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
        if not math.prod([float(self.box_length)] * self.dim) < np.inf:  # float products: inf
            raise ValueError(f"box_length {self.box_length:g} too large: L^{self.dim} overflows")
        k_max = np.pi * self.n / float(self.box_length)  # Python floats: inf, never a raise
        if not self.dim * k_max * k_max < np.inf:
            raise ValueError(f"box_length {self.box_length:g} too small for n = {self.n}: the "
                             f"largest |k|^2, dim * (pi n / box_length)^2, overflows")

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
    def inverse_deriv_ksq(self) -> np.ndarray:
        """1 / |k|^2 on the odd-derivative wavenumbers, 0 where |k| is 0."""
        ksq = sum(k**2 for k in self._wavenumbers(True))
        return _readonly(np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0))

    @lru_cache(maxsize=32)
    def biot_savart_pair(self) -> np.ndarray:
        """The 2D multipliers (i k2, -i k1) of (d2, -d1), stacked, on the
        odd-derivative wavenumbers."""
        k = self._wavenumbers(True)
        return _readonly(np.stack(np.broadcast_arrays(1j * k[1], -1j * k[0])))

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


def blocks(count: int, item_bytes: int, budget: int | None = None) -> list[slice]:
    """Slices of range(count), each as many items as fit `budget` bytes
    (BLOCK_BYTES by default; one item at least)."""
    step = max(1, (budget or BLOCK_BYTES) // item_bytes)
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
    """A real field on a Grid, or a stack of them, held in the domain it was
    built in: samples of shape ``lead + grid.shape`` and/or half spectra of
    shape ``lead + grid.spectral_shape``, where ``lead`` is () for one field.

    Both are checked finite once, at construction, and are read-only; each is
    computed over the last ``dim`` axes on first use and then cached.  Linear
    arithmetic keeps every domain both operands already hold, and transforms
    only when they share none.
    """

    __slots__ = ("grid", "_samples", "_spectrum")
    __iter__ = None  # rows are read by index, so a stack is never unpacked by accident

    def __init__(self, grid: Grid, samples=None, *, spectrum=None):
        """From real samples (checked finite; copied unless read-only), from
        rfftn coefficients (see from_spectrum), or from both."""
        if samples is not None:
            samples = np.asarray(samples, dtype=np.float64)
            if samples.shape[-grid.dim:] != grid.shape:
                raise ValueError(
                    f"samples shape {samples.shape} does not match grid {grid.shape}"
                )
            if not np.all(np.isfinite(samples)):
                raise ValueError("field samples must be finite")
            samples = _readonly(samples.copy() if samples.flags.writeable else samples)
        if spectrum is not None:
            spectrum = np.asarray(spectrum, dtype=np.complex128)
            if spectrum.shape[-grid.dim:] != grid.spectral_shape:
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
    def _held(cls, grid: Grid, samples=None, spectrum=None) -> "ScalarField":
        """A field over arrays taken as they are, neither copied nor checked:
        views of a checked field, spectra a bounded multiplier derives from
        one, or samples whose norm reports overflow."""
        f = cls.__new__(cls)
        f.grid, f._samples, f._spectrum = grid, samples, spectrum
        return f

    @property
    def lead(self) -> tuple[int, ...]:
        """The stack axes before the grid's own; () for one field."""
        held = self._spectrum if self._samples is None else self._samples
        return held.shape[:held.ndim - self.grid.dim]

    def __getitem__(self, i) -> "ScalarField":
        """Row i (an index or a slice along the first stack axis, or a tuple of
        them), over views of what the stack holds; not checked again."""
        if not self.lead:
            raise TypeError("an unstacked field has no rows")
        return ScalarField._held(self.grid, *(None if a is None else a[i]
                                              for a in (self._samples, self._spectrum)))

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
        """The half spectra, formed from the samples on first use (ValueError if that overflows)."""
        if self._spectrum is None:
            try:  # the samples are finite, so a non-finite coefficient raised a flag
                with np.errstate(over="raise", invalid="raise"):
                    spectrum = np.fft.rfftn(self._samples, axes=range(-self.grid.dim, 0))
            except FloatingPointError:
                raise ValueError("field spectrum must be finite: the transform of its "
                                 "finite samples overflows") from None
            self._spectrum = _readonly(spectrum)
        return self._spectrum

    def mean(self):
        """Mean of the field, or of each field of a stack."""
        rows = _stacked(self.samples, self.grid.dim)
        return _per_field(self, rows.mean(axis=tuple(range(1, rows.ndim))).tolist())

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


class VectorField:
    """dim components sharing one grid and one ``lead``, held as one
    ScalarField ``stack`` whose first axis is the component axis: arrays of
    shape ``(dim,) + lead + grid.shape``."""

    __slots__ = ("grid", "stack")

    def __init__(self, components):
        """From such a stack (checked when it was built), or from a sequence
        of checked components: each domain any of them holds is stacked
        (computed for the others, as on first use), not scanned again."""
        if not isinstance(components, ScalarField):
            comps = tuple(components)
            if len({(c.grid, c.lead) for c in comps}) != 1:
                raise ValueError("vector components must share one grid and stack axes")
            components = ScalarField._held(comps[0].grid, *(
                _readonly(np.stack([read(c) for c in comps]))
                if any(getattr(c, slot) is not None for c in comps) else None
                for slot, read in (("_samples", lambda c: c.samples),
                                   ("_spectrum", ScalarField.spectrum))))
        self.grid, self.stack = components.grid, components
        if self.stack.lead[:1] != (self.grid.dim,):
            raise ValueError(f"expected {self.grid.dim} components on the stack's first "
                             f"axis, got stack axes {self.stack.lead}")

    @property
    def lead(self) -> tuple[int, ...]:
        return self.stack.lead[1:]

    @property
    def components(self) -> tuple:
        """The components, rows of the stack over views."""
        return tuple(self.stack[c] for c in range(self.grid.dim))

    def __getitem__(self, i) -> "VectorField":
        """Row i of a stack of vector fields, over views."""
        if not self.lead:
            raise TypeError("an unstacked field has no rows")
        return VectorField(self.stack[:, i])

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(ScalarField(grid, np.zeros((grid.dim,) + grid.shape)))


class Trajectory:
    """Fields at the times of a uniform lattice over [0, t_max], held as one
    ScalarField or VectorField whose first stack axis (its ``lead``) is time."""

    __slots__ = ("times", "field")

    def __init__(self, times, field):
        times = np.asarray(times, dtype=np.float64)
        if times.ndim != 1 or field.lead != times.shape:
            raise ValueError("times and snapshots must have equal length")
        if len(times) == 0:
            raise ValueError("empty trajectory")
        dts = np.diff(times)
        if len(dts) and (np.any(dts <= 0) or not np.allclose(dts, dts[0], rtol=1e-10, atol=0)):
            raise ValueError("times must be strictly increasing and uniform")
        self.times = times
        self.field = field

    @property
    def snapshots(self) -> list:
        """The field at each time: the rows of the stack, over views."""
        return [self.field[i] for i in range(len(self.times))]

    def __iter__(self):
        return zip(self.times, self.snapshots)


# ---------------------------------------------------------------------------
# spectral calculus

def _dspec(grid: Grid, spectra: np.ndarray, axis: int) -> np.ndarray:
    """Spectra of the derivative along `axis` of the fields with half spectra `spectra`."""
    return 1j * grid.deriv_wavenumber(axis) * spectra


def gradient_spectra(grid: Grid, spectra: np.ndarray, with_field: bool = False) -> np.ndarray:
    """Spectra of the gradient of a field or of each field of a stack, one
    array whose first axis is the derivative's; with_field puts `spectra`
    first, so that one batched transform samples a field and its gradient."""
    first = int(with_field)
    out = np.empty((first + grid.dim,) + spectra.shape, dtype=np.complex128)
    out[:first] = spectra
    for a in range(grid.dim):
        np.multiply(1j * grid.deriv_wavenumber(a), spectra, out=out[first + a])
    return out


def gradient_planes(v: VectorField):
    """Half spectra of every d_a v_c, component-major, one plane at a time."""
    g = v.grid
    return (_dspec(g, c, a) for c in v.stack.spectrum() for a in range(g.dim))


def gradient(f: ScalarField) -> VectorField:
    return VectorField(ScalarField.from_spectrum(f.grid, gradient_spectra(f.grid, f.spectrum())))


def divergence(v: VectorField) -> ScalarField:
    g, s = v.grid, v.stack.spectrum()
    return ScalarField.from_spectrum(g, sum(_dspec(g, s[a], a) for a in range(g.dim)))


def curl2d(v: VectorField) -> ScalarField:
    if v.grid.dim != 2:
        raise ValueError("curl2d requires a 2D field")
    g, s = v.grid, v.stack.spectrum()
    return ScalarField.from_spectrum(g, _dspec(g, s[1], 0) - _dspec(g, s[0], 1))


def curl3d(v: VectorField) -> VectorField:
    if v.grid.dim != 3:
        raise ValueError("curl3d requires a 3D field")
    g, s = v.grid, v.stack.spectrum()
    out = np.empty(s.shape, dtype=np.complex128)
    for c, (i, j) in enumerate(((2, 1), (0, 2), (1, 0))):
        np.subtract(_dspec(g, s[i], j), _dspec(g, s[j], i), out=out[c])
    return VectorField(ScalarField.from_spectrum(g, out))


class PlaneSampler:
    """Samples on the n_eval grid (by default the field's own) of half spectra
    on `grid`, in blocks of axis-0 slabs, ``rows`` (SLAB_BYTES for each of the
    `planes` planes held at once): bitwise ``irfftn`` of the spectrum zero-padded,
    staged: the axis-0 ``ifft`` of the whole plane in a padded buffer it keeps,
    then the other axes line by line per block, into one block buffer.  On the
    own grid that is ``batch_samples``; a finer one drops the Nyquist planes.
    A block is valid until the next ``slabs`` call."""

    def __init__(self, grid: Grid, n_eval: int | None = None, planes: int = 1):
        check_n_eval(grid, n_eval)
        self.grid, self.eval_grid = grid, Grid(grid.dim, n_eval or grid.n, grid.box_length)
        m, half = self.eval_grid.n, grid.n // 2
        self.rows = blocks(m, planes * 8 * m ** (grid.dim - 1), SLAB_BYTES)
        # wavenumbers 0..half-1 and -(half-1)..-1, the same index on both grids, and
        # the Nyquist -half (and last-axis +half) where the n_eval grid has them too
        nyquist = int(m == grid.n)
        self._kept, self._cols = (slice(0, half), slice(1 - half - nyquist, None)), half + nyquist
        step = self.rows[0].stop
        shapes = [(m if a == 0 else step,) + (m,) * a + (grid.n,) * (grid.dim - 2 - a)
                  + (self._cols,) for a in range(grid.dim - 1)]
        # the later stages' padded inputs are zeroed once: only kept modes are written
        self._buffers = (np.empty(shapes[0], dtype=np.complex128),
                         [(np.zeros(s, dtype=np.complex128), np.empty(s, dtype=np.complex128))
                          for s in shapes[1:]], np.empty((step,) + self.eval_grid.shape[1:]))

    def slabs(self, spectrum: np.ndarray):
        """(rows, samples of those rows) of one plane, block by block."""
        first = self.first_stage(spectrum)
        return ((rows, self.block(first, rows)) for rows in self.rows)

    def first_stage(self, spectrum: np.ndarray) -> np.ndarray:
        """What ``block`` reads of one plane: the scaled kept modes, padded along
        axis 0 and transformed there, in place in the sampler's padded buffer,
        whose gap rows the last call filled are zeroed first."""
        g, m, half = self.grid, self.eval_grid.n, self.grid.n // 2
        padded = self._buffers[0]
        padded[half:m + self._kept[1].start] = 0.0
        for k in self._kept:
            np.multiply(spectrum[k, ..., :self._cols], (m / g.n) ** g.dim, out=padded[k])
        return np.fft.ifft(padded, axis=0, out=padded)

    def block(self, first: np.ndarray, rows: slice) -> np.ndarray:
        """Samples of `rows` of the plane whose ``first_stage`` is `first`: the
        ``ifft`` of each middle axis, then ``irfft``, in the block buffers."""
        _, stages, result = self._buffers
        count, a = rows.stop - rows.start, first[rows]
        for axis, (padded, out) in enumerate(stages, start=1):
            padded, out = padded[:count], out[:count]
            for k in self._kept:
                padded[(slice(None),) * axis + (k,)] = a[(slice(None),) * axis + (k,)]
            a = np.fft.ifft(padded, axis=axis, out=out)
        return np.fft.irfft(a, n=self.eval_grid.n, axis=-1, out=result[:count])


def check_n_eval(grid: Grid, n_eval: int | None):
    """Reject an evaluation grid that a field on `grid` cannot be refined onto."""
    if n_eval is not None and (n_eval < grid.n or n_eval % 2 != 0):
        raise ValueError(f"n_eval must be even and >= n = {grid.n}, got {n_eval}")


def fractional_laplacian(f: ScalarField, power: float) -> ScalarField:
    """Multiplier |k|^power on a field or on each field of a stack, such as a
    vector field's ``stack``; the zero mode is dropped (mean-zero input for
    power < 0, same obstruction as the homogeneous Sobolev norms)."""
    if power < 0 and not np.all(mean_is_negligible(f)):
        raise ValueError("fractional_laplacian with power < 0 needs a mean-zero field")
    return ScalarField.from_spectrum(f.grid, f.grid.kpow(power) * f.spectrum())


# ---------------------------------------------------------------------------
# norms

def _stacked(a: np.ndarray, dim: int) -> np.ndarray:
    """a with its stack axes flattened into one leading axis (of length 1 for one field)."""
    return a.reshape((-1,) + a.shape[a.ndim - dim:])


def _per_field(f, values: list):
    """values, one per field of f in row order: the one value of an unstacked
    field, else an array of shape f.lead."""
    return np.array(values).reshape(f.lead) if f.lead else values[0]


def lp_norm(f, p: float):
    """Discrete Lp norm (p >= 1) with cell measure of a field or of each field
    of a stack; vectors use pointwise Euclidean magnitude."""
    if p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    samples = _magnitude(f.stack.samples) if isinstance(f, VectorField) else f.samples
    samples, axes = _stacked(samples, f.grid.dim), tuple(range(-f.grid.dim, 0))
    if np.isinf(p):
        return _per_field(f, [float(m) for m in np.max(np.abs(samples), axis=axes)])
    if p == 1:
        sums = np.sum(np.abs(samples), axis=axes)
    elif p == 2:
        sums = np.sum(samples * samples, axis=axes)
    else:
        sums = np.sum(np.abs(samples) ** float(p), axis=axes)
    return _per_field(f, [float((float(s) * f.grid.cell_measure) ** (1.0 / p)) for s in sums])


def magnitude_norm(sample: PlaneSampler, planes, p: float, name: str) -> float:
    """Lp norm (p >= 1, cell measure) of the pointwise magnitude of the fields
    with half spectra `planes`: each sampled block by block, its squares added
    in ``_magnitude``'s order into one accumulator, to which the p rule and
    one sum or max apply.  Raises ValueError naming the norm and p unless finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by name
        planes, acc = iter(planes), np.empty(sample.eval_grid.shape)
        for rows, x in sample.slabs(next(planes)):
            np.square(x, out=acc[rows])
        for plane in planes:
            for rows, x in sample.slabs(plane):
                acc[rows] += np.square(x, out=x)
        if p == 3:  # the root a block at a time, so no second full-size array
            root = np.empty_like(acc[sample.rows[0]])
            for rows in sample.rows:
                a = acc[rows]
                a *= np.sqrt(a, out=root[:len(a)])
        elif p % 2 == 0 and p > 2:
            acc **= p // 2
        elif not np.isinf(p):  # sqrt(acc)^p: at p = 2 bitwise the square of the magnitude
            np.sqrt(acc, out=acc)
            acc **= p
        total = (float(np.sqrt(np.max(acc))) if np.isinf(p)  # the max first
                 else float((float(np.sum(acc)) * sample.eval_grid.cell_measure) ** (1.0 / p)))
    if not 0 <= total < np.inf:
        raise ValueError(f"norm {name!r} (p = {p:g}) must be finite and >= 0, got {total}")
    return total


def w11_norm(f: ScalarField):
    """L1 norm of f plus L1 norm of its (Euclidean) gradient, of a 2D field
    or of each field of a stack."""
    return _per_field(f, w11_columns(f)[1])


def w11_columns(f: ScalarField) -> tuple[list, list]:
    """The L1 and W^{1,1} norms of each field of f (a 2D field or a stack),
    in ``w11_rows``' arithmetic; the gradient is sampled in one batched
    inverse transform per block."""
    g = f.grid
    if g.dim != 2:
        raise ValueError("w11_norm is defined for 2D scalar fields")
    samples, spectra = _stacked(f.samples, 2), _stacked(f.spectrum(), 2)
    l1, w11 = [], []
    for b in blocks(len(spectra), 2 * spectra[0].nbytes):
        rows = w11_rows(g, samples[b], batch_samples(g, gradient_spectra(g, spectra[b])))
        l1 += rows[0]
        w11 += rows[1]
    return l1, w11


def w11_rows(grid: Grid, samples: np.ndarray, gradient: np.ndarray) -> tuple[list, list]:
    """The L1 and W^{1,1} norms of each field of a stack of 2D samples, given
    the samples of its gradient (derivative axis first)."""
    l1 = lp_norm(ScalarField._held(grid, samples), 1)
    return l1.tolist(), (l1 + lp_norm(ScalarField._held(grid, _magnitude(gradient)), 1)).tolist()


def hs_sq(grid: Grid, coeffs: np.ndarray, s: float = 0.0):
    """Squared homogeneous H^s norm of the field with half-spectrum `coeffs`
    (or of each field of a stack of them), by weighted Parseval; s = 0 gives
    the squared L2 norm, zero mode included."""
    power = coeffs.real**2 + coeffs.imag**2
    total = np.sum(grid.sobolev_weight(s) * power, axis=tuple(range(-grid.dim, 0)))
    return total * grid.cell_measure / grid.n**grid.dim


def _l2_sizes(grid: Grid, *stacks: np.ndarray) -> list:
    """``np.sqrt(sum(hs_sq(grid, x)))`` of each x of `stacks`; where a square may
    overflow or the first's underflow, each field at the power of two that
    brings its max|c| in the first into [0.5, 1), so ratios stay plain, bitwise."""
    with np.errstate(over="ignore"):  # an overflowing square is taken again at that scale
        sizes = [np.sqrt(sum(hs_sq(grid, x))) for x in stacks]
        if all(np.all(np.isfinite(s)) for s in sizes) and np.all(sizes[0] > 2.0**-400):
            return sizes
        peak = np.max(np.abs(stacks[0]), axis=(0, *range(-grid.dim, 0)), keepdims=True)[0]
        e = -np.frexp(peak)[1]  # in two factors: 2^e alone is inf for a subnormal peak
        return [np.sqrt(sum(hs_sq(grid, x * np.ldexp(1.0, e // 2) * np.ldexp(1.0, e - e // 2))))
                for x in stacks]


def mean_is_negligible(f: ScalarField):
    """Whether |mean| <= 1e-10 * max|f| for a field or for each field of a
    stack (an all-zero field passes).

    Decided from the spectrum when the mean is exactly 0, or else when
    |mean| <= 1e-10 * rms: rms <= max|f|, so that implies the sample test.
    Only the other fields are sampled, and those whose rms overflows.
    """
    grid, spectra = f.grid, _stacked(f.spectrum(), f.grid.dim)
    mean = np.abs(spectra.reshape(len(spectra), -1)[:, 0].real) / grid.n**grid.dim
    ok = mean == 0
    rest = np.flatnonzero(~ok)
    if rest.size:
        with np.errstate(over="ignore"):  # an rms past the float range decides nothing
            rms = np.sqrt(hs_sq(grid, spectra[rest]) / grid.box_length**grid.dim)
        ok[rest] = (mean[rest] <= 1e-10 * rms) & (rms < np.inf)
    for i in np.flatnonzero(~ok):
        x = batch_samples(grid, spectra[i])
        ok[i] = abs(float(x.mean())) <= 1e-10 * float(np.max(np.abs(x)))
    return _per_field(f, ok.tolist())


def hs_norm(f, s: float):
    """Homogeneous Sobolev norm of a field or of each field of a stack,
    normalized so hs_norm(f, 0) == lp_norm(f, 2) on mean-zero fields; a
    vector's is the root of the sum of its components' squared norms.  Zero
    mode excluded for s != 0; s < 0 requires a vanishing mean.
    """
    x = f.stack if isinstance(f, VectorField) else f
    if s < 0 and not np.all(mean_is_negligible(x)):
        raise ValueError("homogeneous norm undefined: s < 0 requires a mean-zero field")
    norms = np.sqrt(hs_sq(f.grid, x.spectrum(), s))
    if x is not f:  # each component's root, squared as a Python float (pow, not x * x)
        norms = [np.sqrt(sum(float(c) ** 2 for c in cs)) for cs in zip(*map(np.ravel, norms))]
    return _per_field(f, np.ravel(norms).tolist())


def time_lq_norm(values, dt: float, q: float) -> float:
    """L^q norm in time of values on a uniform lattice of step dt, trapezoid rule."""
    values = np.asarray(values)
    if np.isinf(q):
        return float(np.max(values))
    weights = np.full(len(values), dt)
    weights[0] = weights[-1] = dt / 2
    return float(np.sum(weights * values**q) ** (1.0 / q))
