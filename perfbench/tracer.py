"""In-memory span tracer for the benchmark's traced run.

Spans are recorded only from the benchmark's side: the tracer replaces
vortexlab's public functions (and the ``numpy.fft`` entry points) with timing
wrappers in every namespace where they are bound, so a name imported with
``from .fields import hs_norm`` is wrapped in ``maxwell_wave`` as well as in
``fields``.  Nothing under ``src/`` is edited.  A wrapped name that does not
exist in the code under test is skipped and listed in ``Tracer.skipped``, so
the same tracer runs against older and newer versions of the package.

A layer's self time is its span's duration minus the time of the spans it
directly encloses.  Spans stay in memory until the run ends, then go to one
JSON-lines file, each naming the span that encloses it.
"""

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter

import numpy
import numpy.fft

PACKAGE = "vortexlab"

# (module, attribute, layer) for plain functions.
FUNCTIONS = (
    ("heat", "heat_evolve", "heat.evolve"),
    ("heat", "duhamel_derivative_term", "heat.duhamel"),
    ("mild_solver", "apply_T", "mild_solver.apply_T"),
    ("mild_solver", "picard_solve", "mild_solver.picard"),
    ("mild_solver", "reference_stepper", "mild_solver.oracle"),
    ("maxwell_wave", "strichartz_sides", "maxwell_wave.sides"),
    ("maxwell_wave", "source_gradient_l1", "maxwell_wave.source_grad"),
    ("fields", "lp_norm", "fields.norm"),
    ("fields", "hs_norm", "fields.norm"),
    ("fields", "w11_norm", "fields.norm"),
    ("fields", "mixed_norm", "fields.norm"),
    ("fields", "derivative", "fields.calculus"),
    ("fields", "gradient", "fields.calculus"),
    ("fields", "divergence", "fields.calculus"),
    ("fields", "curl2d", "fields.calculus"),
    ("fields", "curl3d", "fields.calculus"),
    ("fields", "jacobian_magnitude", "fields.calculus"),
    ("fields", "spectral_refine", "fields.refine"),
    ("biot_savart", "velocity_from_vorticity_2d", "biot_savart"),
    ("biot_savart", "velocity_from_vorticity_3d", "biot_savart"),
    ("biot_savart", "leray_project", "biot_savart"),
    ("bb_lab", "random_family", "bb_lab.family"),
    ("bb_lab", "family_ratio_report", "bb_lab.family"),
    ("bb_lab", "bb_ratio_2d", "bb_lab.ratio"),
    ("bb_lab", "bb_ratio_3d", "bb_lab.ratio"),
    ("bb_lab", "gn_ratio", "bb_lab.ratio"),
    ("random_data", "wave_fixture_family", "random_data.fixtures"),
    ("kernels", "abs_pow_sum", "kernels"),
    ("kernels", "magnitude", "kernels"),
    ("kernels", "oseen_vorticity_profile", "kernels"),
    ("kernels", "oseen_velocity_profile", "kernels"),
    ("io", "write_csv", "io"),
    ("io", "write_json", "io"),
    ("io", "write_trajectory_trace", "io"),
    ("cli", "parse_config", "cli.parse"),
    ("cli", "validate_config", "cli.parse"),
)
# Generator functions: one span per next(), one count per item yielded.
GENERATORS = (("maxwell_wave", "wave_steps", "maxwell_wave.step", "maxwell_wave.steps"),)
# (module, class, method, layer, counter) for methods looked up through the class.
METHODS = (
    ("fields", "ScalarField", "__init__", "fields.construct", "fields.scalarfield.constructed"),
    ("biot_savart", "SolenoidalVectorField", "__init__", "biot_savart", None),
)
FFT_FORWARD = ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn", "ihfft")
FFT_INVERSE = ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn", "hfft")
SPAN_FIELDS = ("id", "parent", "layer", "thread", "start", "end", "self_s")
# Report writers whose first argument is the path written.
BYTES_WRITTEN = ("write_csv", "write_json")


def _package_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patcher:
    """Rebinds a function object everywhere vortexlab holds it; undoable.

    Looks in every loaded vortexlab module's globals, and one level into
    module-level dicts (and tuples held in them, such as the CLI's table of
    ratio functions).
    """

    def __init__(self):
        self._undo = []

    def replace(self, original, replacement):
        for mod in _package_modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(namespace, key, replacement)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, replacement)
                        elif isinstance(dvalue, tuple) and any(v is original for v in dvalue):
                            self._set(value, dkey, tuple(
                                replacement if v is original else v for v in dvalue
                            ))

    def set_attr(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name), True))
        setattr(owner, name, value)

    def _set(self, container, key, value):
        self._undo.append((container, key, container[key], False))
        container[key] = value

    def restore(self):
        while self._undo:
            owner, key, old, is_attr = self._undo.pop()
            if is_attr:
                setattr(owner, key, old)
            else:
                owner[key] = old


def _lookup(module, attr):
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    return getattr(mod, attr, None)


class Tracer:
    """Span and counter store with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []  # SPAN_FIELDS tuples
        self.counts = Counter()
        self.skipped = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patcher = Patcher()
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------------

    def _enter(self):
        stack = self._local.__dict__.setdefault("stack", [])
        frame = [time.perf_counter(), 0.0, next(self._ids)]
        stack.append(frame)
        return stack, frame

    def _exit(self, layer, stack, frame):
        end = time.perf_counter()
        duration = end - frame[0]
        stack.pop()
        parent = 0
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        self.spans.append(
            (frame[2], parent, layer, threading.get_ident(), frame[0], end, duration - frame[1])
        )

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, stack, frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, layer, item_count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    stack, frame = self._enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit(layer, stack, frame)
                    self.count(item_count)
                    yield item
            finally:
                gen.close()

        return wrapper

    def _after_fft(self, direction):
        def after(args, kwargs, out):
            a = numpy.asarray(args[0] if args else kwargs["a"])
            shape = "x".join(map(str, (a if direction == "fwd" else out).shape))
            nbytes = a.nbytes + out.nbytes
            with self._lock:
                self.counts[f"fft.{direction}.calls"] += 1
                self.counts[f"fft.{direction}.calls.{shape}"] += 1
                self.counts["fft.bytes"] += nbytes

        return after

    def _after_write(self, args, kwargs, _result):
        path = args[0] if args else kwargs["path"]
        # the manifest carries wall-clock time, so its length varies run to run
        if os.path.basename(path) != "manifest.json":
            self.count("io.bytes_written", os.path.getsize(path))

    def _after_picard(self, _args, _kwargs, result):
        iterations = getattr(result[1], "iterations", None) if isinstance(result, tuple) else None
        if iterations is not None:
            self.count("mild_solver.picard.iterations", iterations)

    # -- install -----------------------------------------------------------

    def install(self):
        """Wrap every listed name that exists; record the ones that do not."""
        for module, attr, layer in FUNCTIONS:
            fn = _lookup(module, attr)
            if fn is None:
                self.skipped.append(f"{module}.{attr}")
                continue
            after = None
            if attr in BYTES_WRITTEN:
                after = self._after_write
            elif attr == "picard_solve":
                after = self._after_picard
            self._patcher.replace(fn, self._wrap(fn, layer, after))
        for module, attr, layer, item_count in GENERATORS:
            fn = _lookup(module, attr)
            if fn is None:
                self.skipped.append(f"{module}.{attr}")
                continue
            self._patcher.replace(fn, self._wrap_generator(fn, layer, item_count))
        for module, cls_name, method, layer, counter in METHODS:
            cls = _lookup(module, cls_name)
            fn = getattr(cls, method, None) if cls is not None else None
            if fn is None:
                self.skipped.append(f"{module}.{cls_name}.{method}")
                continue
            after = (lambda _a, _k, _r, key=counter: self.count(key)) if counter else None
            self._patcher.set_attr(cls, method, self._wrap(fn, layer, after))
        for direction, names in (("fwd", FFT_FORWARD), ("inv", FFT_INVERSE)):
            for name in names:
                fn = getattr(numpy.fft, name, None)
                if fn is None:
                    self.skipped.append(f"numpy.fft.{name}")
                    continue
                wrapped = self._wrap(fn, "fft", self._after_fft(direction))
                self._patcher.set_attr(numpy.fft, name, wrapped)
                self._patcher.replace(fn, wrapped)

    def uninstall(self):
        self._patcher.restore()

    # -- summaries ---------------------------------------------------------

    def mark(self):
        """Position to summarize from: (span index, copy of the counters)."""
        with self._lock:
            return len(self.spans), Counter(self.counts)

    def summary(self, since):
        """Per-layer self time and call count, and counter increments, since a mark."""
        first, counts_then = since
        out = {}
        for _id, _parent, layer, _tid, _start, _end, self_s in self.spans[first:]:
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        with self._lock:
            for key, value in self.counts.items():
                out[key] = value - counts_then.get(key, 0)
        return out

    def write(self, path):
        """All spans as JSON lines, after a header line of field names."""
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
