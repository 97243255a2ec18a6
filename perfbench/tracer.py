"""Outside-in spans around the program's public functions.

Each probe replaces a function at the module attribute its caller looks up
(``psdfit.solver.step`` is what ``solve`` calls, ``psdfit.imagedemo.solve``
is what ``image_demo`` calls) with a wrapper that records one span: name,
start, end, parent span and operation id.  The program itself carries no
instrumentation.  A probed name the program no longer has is listed in
``absent`` and otherwise ignored, so the benchmark keeps running when later
versions fuse, move or delete functions.

Spans live in flat arrays while the run lasts and are written once at the
end (``Tracer.save``).
"""

import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Span names are layer.function, whatever
# module the caller imported the function through.
SOLVE_PROBES = [
    ("psdfit.cli", "solve", "solver.solve"),
    ("psdfit.imagedemo", "solve", "solver.solve"),
    ("psdfit.solver", "solve", "solver.solve"),
]

LAYER_PROBES = SOLVE_PROBES + [
    ("psdfit._kernels", "residual_sq", "kernels.residual_sq"),
    ("psdfit._kernels", "gradient_accum", "kernels.gradient_accum"),
    ("psdfit._kernels", "quartic_terms", "kernels.quartic_terms"),
    ("psdfit.solver", "gradient", "problem.gradient"),
    ("psdfit.solver", "objective", "problem.objective"),
    ("psdfit.solver", "residual_error", "problem.residual_error"),
    ("psdfit.solver", "step", "solver.step"),
    ("psdfit.solver", "fr_beta", "solver.fr_beta"),
    ("psdfit.linesearch", "exact_step", "linesearch.exact_step"),
    ("psdfit.linesearch", "quartic_coeffs", "linesearch.quartic_coeffs"),
    ("psdfit.linesearch", "minimize_quartic", "linesearch.minimize_quartic"),
    ("psdfit.linesearch", "cubic_real_roots", "linesearch.cubic_real_roots"),
    ("psdfit.io", "read_problem", "io.read_problem"),
    ("psdfit.io", "write_trace", "io.write_trace"),
    ("psdfit.io", "write_solution", "io.write_solution"),
    ("psdfit.imagedemo", "write_trace", "io.write_trace"),
    ("psdfit.imagedemo", "write_matrix", "io.write_matrix"),
    ("psdfit.imagedemo", "write_pgm", "imagedemo.write_pgm"),
    ("psdfit.imagedemo", "read_pgm", "imagedemo.read_pgm"),
    ("psdfit.imagedemo", "image_to_truth", "imagedemo.image_to_truth"),
    ("psdfit.imagedemo", "observation_instance", "imagedemo.observation_instance"),
    ("psdfit.imagedemo", "summarize_restoration", "imagedemo.summarize_restoration"),
    ("psdfit.cli", "image_demo", "imagedemo.image_demo"),
    ("psdfit.cli", "main", "cli.main"),
]


class Tracer:
    """Records spans for the probes installed between ``install`` and ``remove``."""

    def __init__(self):
        self.names = []  # span name per name id
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.op_id = 0
        self.absent = []
        self._stack = [-1]
        self._saved = []

    def install(self, probes, keep=None):
        """Wrap each probe; keep maps a span name to f(args, kwargs, result)."""
        keep = keep or {}
        for module_name, attr, span in probes:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                if span not in self.absent:
                    self.absent.append(span)
                continue
            if span not in self.names:
                self.names.append(span)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, self.names.index(span), keep.get(span)))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name_id, keep):
        ids, start, end, parent, op, stack = (
            self.name_id, self.start, self.end, self.parent, self.op, self._stack)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(name_id)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if keep is not None:
                keep(args, kwargs, result)
            return result

        return traced

    def spans(self, first=0, last=None):
        """Columns (name id, start, end, parent) of spans first..last."""
        sl = slice(first, last)
        return (np.asarray(self.name_id[sl]), np.asarray(self.start[sl]),
                np.asarray(self.end[sl]), np.asarray(self.parent[sl]))

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), op=np.asarray(self.op))


def layer_times(tracer, first, last, scale=1.0):
    """Per span name over spans first..last: call count, total and self seconds.

    Self time is a span's duration minus the durations of its direct children.
    Durations are multiplied by scale.
    """
    ids, start, end, parent = tracer.spans(first, last)
    dur = (end - start) * scale
    child = np.zeros(len(dur))
    inside = parent >= first
    np.add.at(child, parent[inside] - first, dur[inside])
    out = {}
    for nid, name in enumerate(tracer.names):
        mask = ids == nid
        if mask.any():
            out[name] = (int(mask.sum()), float(dur[mask].sum()),
                         float((dur[mask] - child[mask]).sum()))
    return out, ids, dur - child, parent
