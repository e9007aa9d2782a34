"""Span tracer that times ucdl's layers from outside the package.

Installing a :class:`Tracer` rebinds, in every loaded ``ucdl`` module, each
module-level name that refers to a traced function, so callers that look
the name up at call time reach a timing wrapper; leaving the ``installed``
block restores the originals.  Nothing under ``src/`` is modified.

Every span adds its duration to the open parent span's child time, so a
label's *self* time is its spans' durations minus the parts covered by
spans nested inside them.  Work counts (FFT elements, trace and file bytes,
CG iterations) are computed from array shapes after each call returns; the
time they take is booked under the label ``count`` and taken out of the
parent span's self time.  The self times of all labels, ``count`` included,
therefore add up to the duration of the outermost spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Self times, call counts and computed work counts, keyed by label."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._open = []  # child seconds accumulated by each open span

    def wrap(self, label, fn, count=None):
        """Return `fn` timed under `label`; `count(tracer, args, result)`
        runs after the span closes, timed under ``count``."""

        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self.self_s[label] += end - start - self._open.pop()
                self.calls[label] += 1
                if self._open:
                    self._open[-1] += end - start
            if count is not None:
                count(self, args, result)
                counted = self.clock() - end
                self.self_s["count"] += counted
                if self._open:
                    self._open[-1] += counted
            return result

        return traced

    def span(self, label, fn, *args, **kwargs):
        """Call `fn` once inside a span named `label`."""
        return self.wrap(label, fn)(*args, **kwargs)

    @contextmanager
    def installed(self, targets):
        """Rebind every ucdl module-level name of each traced function.

        `targets` holds ``(module, name, label, count)`` tuples; `count` may
        be None.
        """
        modules = [m for name, m in sys.modules.items()
                   if m is not None and name.split(".")[0] == "ucdl"]
        saved = []
        try:
            for module, name, label, count in targets:
                original = getattr(module, name)
                wrapper = self.wrap(label, original, count)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def array_bytes(obj, seen=None) -> int:
    """Bytes of every distinct ndarray reachable through dataclass fields,
    tuples and lists; an array held twice counts once."""
    if seen is None:
        seen = set()
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name), seen)
                   for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(item, seen) for item in obj)
    return 0


# -- work counts computed from the arguments and results of a call ----------

def count_normal_apply(tracer, args, result):
    x, coils = args[0], args[1]
    # one forward and one inverse 2D FFT per coil over the whole image
    tracer.counts["normal_apply.fft_elems"] += 2 * coils.count * np.size(x)


def count_dft(tracer, args, result):
    tracer.counts["dft.elems"] += np.size(args[0])


def count_cg(tracer, args, result):
    rhs_norm = float(np.linalg.norm(args[0]))
    tracer.counts["cg.iterations"] += len(result.trace.iterations)
    tracer.counts["cg.solves"] += 1
    tracer.counts["cg.rel_residual_sum"] += result.residuals[-1] / max(rhs_norm, 1e-300)


def count_forward(tracer, args, result):
    if result.trace is not None:
        tracer.counts["trace.bytes"] += array_bytes(result.trace)
        tracer.counts["trace.forwards"] += 1


def count_read(tracer, args, result):
    tracer.counts["io.bytes"] += result.nbytes


def count_write(tracer, args, result):
    # files hold complex128 whatever the dtype handed in
    tracer.counts["io.bytes"] += 16 * np.size(args[1])


# (ucdl module, function, span label, work count) of each traced public
# function; the label is the layer's name in the per-layer metrics.
# ``csc.admm_step`` times ``admm_step_traced``, the ADMM sweep the network
# calls; ``tensors.dft`` merges the forward and inverse DFT.
OPERATION_TARGETS = [
    ("operators", "normal_apply", "operators.normal_apply", count_normal_apply),
    ("operators", "adjoint_apply", "operators.adjoint_apply", None),
    ("csc", "admm_step_traced", "csc.admm_step", None),
    ("csc", "dictionary_synthesis", "csc.dictionary_synthesis", None),
    ("csc", "filter_spectra", "csc.filter_spectra", None),
    ("tensors", "dft_forward", "tensors.dft", count_dft),
    ("tensors", "dft_inverse", "tensors.dft", count_dft),
    ("dc", "cg_solve", "dc.cg_solve", count_cg),
    ("network", "forward_reconstruct", "network.forward_reconstruct", count_forward),
    ("backprop", "backward", "backprop.backward", None),
    ("backprop", "cg_backward", "backprop.cg_backward", None),
    ("backprop", "admm_step_backward", "backprop.admm_step_backward", None),
    ("backprop", "synthesis_backward", "backprop.synthesis_backward", None),
    ("backprop", "spectra_to_kernel_grad", "backprop.spectra_to_kernel_grad", None),
    ("training", "adam_step", "training.adam_step", None),
    ("io", "read_tensor", "io.read_tensor", count_read),
    ("io", "write_tensor", "io.write_tensor", count_write),
    ("metrics", "compute_report", "metrics.compute_report", None),
    ("cli", "main", "cli.main", None),
]

# traced during the set-ups, by a tracer of their own
SETUP_TARGETS = [
    ("data", "make_phantom", "data.make_phantom", None),
    ("data", "synth_dataset", "data.synth_dataset", None),
]


def ucdl_targets(table):
    """`table`'s rows with the module imported, as ``installed`` expects them."""
    return [(importlib.import_module(f"ucdl.{module}"), name, label, count)
            for module, name, label, count in table]
