"""In-memory span recorder and the wrappers that feed it.

A span is one call of a wrapped function: its name, start, end, parent span
and operation id. Spans are kept in compact arrays while the benchmark runs
and written out once at the end. Self time is the span's duration minus the
time covered by its direct children.

The wrappers live only in the benchmark: they are installed at every name a
caller looks up. The cvdist modules bind names with ``from .x import y``, so
wrapping ``cvdist.measurements.condition`` alone would miss the calls made
through ``cvdist.protocols.condition``; ``install`` replaces every binding of
a cvdist function in every loaded cvdist module. Functions from other
packages (``scipy.optimize.minimize``, ``scipy.linalg.block_diag``) are
wrapped only at the one binding named, so the span says whose call it was.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: Name of the root span the benchmark opens around each operation.
ROOT = "bench.op"

#: Span name -> (cvdist module, attribute path). A path with a dot names a
#: method; a class name wraps its ``__init__``, which counts constructions.
TARGETS = {
    "cli.main": ("cli", "main"),
    "nogo.optimize": ("nogo", "optimize"),
    "nogo.minimize": ("nogo", "minimize"),
    "nogo.objective": ("nogo", "objective"),
    "nogo.realize": ("nogo", "SymplecticParams.realize"),
    "protocols.build_fig2": ("protocols", "build_fig2"),
    "protocols.block_diag": ("protocols", "block_diag"),
    "protocols.run_fig1": ("protocols", "run_fig1"),
    "states.GaussianState": ("states", "GaussianState.__init__"),
    "states.tensor": ("states", "tensor"),
    "states.apply_symplectic": ("states", "apply_symplectic"),
    "symplectic.assert_symplectic": ("symplectic", "assert_symplectic"),
    "symplectic.symplectic_eigenvalues": ("symplectic", "symplectic_eigenvalues"),
    "measurements.condition": ("measurements", "condition"),
    "measurements.sample_outcome": ("measurements", "sample_outcome"),
    "measurements.bell_measure": ("measurements", "bell_measure"),
    "entanglement.log_negativity": ("entanglement", "log_negativity"),
    "channels.GaussianChannel": ("channels", "GaussianChannel.__init__"),
    "channels.apply": ("channels", "apply"),
    "channels.conditional_output_mean": ("channels", "conditional_output_mean"),
}


class Recorder:
    """Spans of one traced run, with per-name totals kept as they close."""

    def __init__(self):
        self.names = [ROOT, *TARGETS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.calls = np.zeros(len(self.names), dtype=np.int64)
        self.raised = np.zeros(len(self.names), dtype=np.int64)
        self.total_s = np.zeros(len(self.names))
        self.self_s = np.zeros(len(self.names))
        self.op_id = -1
        self._stack = []  # [span index, name id, start, child seconds]

    def open(self, name_id: int) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append([idx, name_id, time.perf_counter(), 0.0])

    def close(self, raised: bool = False) -> float:
        end = time.perf_counter()
        idx, name_id, start, child_s = self._stack.pop()
        dur = end - start
        self.start[idx] = start
        self.end[idx] = end
        self.calls[name_id] += 1
        self.raised[name_id] += raised
        self.total_s[name_id] += dur
        self.self_s[name_id] += dur - child_s
        if self._stack:
            self._stack[-1][3] += dur
        return dur

    def wrap(self, fn, name: str):
        name_id = self.name_id[name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name_id)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                self.close(raised)

        return traced

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def _resolve(module: str, path: str):
    """(owner, attribute, current value) for a TARGETS entry."""
    owner = sys.modules[f"cvdist.{module}"]
    *parts, attr = path.split(".")
    for part in parts:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(recorder: Recorder):
    """Wrap every target; returns a function that restores the originals."""
    saved = []
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "cvdist" or n.startswith("cvdist.")]
    for name, (module, path) in TARGETS.items():
        owner, attr, fn = _resolve(module, path)
        wrapper = recorder.wrap(fn, name)
        if "." in path or not fn.__module__.startswith("cvdist"):
            bindings = [(owner, attr)]
        else:  # every alias, e.g. ``apply as apply_channel``
            bindings = [(m, k) for m in modules
                        for k, v in vars(m).items() if v is fn]
        for o, k in bindings:
            saved.append((o, k, fn))
            setattr(o, k, wrapper)

    def restore():
        for o, attr, fn in reversed(saved):
            setattr(o, attr, fn)

    return restore
