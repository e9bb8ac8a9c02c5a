"""Per-layer tracing for the lomlab benchmark, from outside the library.

The layers are lomlab's modules.  ``Tracer.installed()`` replaces every
public function of each layer with a wrapper that records a span, at every
binding of that function in any loaded module: ``lomlab.classify.commutant``
and ``lomlab.cli.commutant`` are separate from-imports of
``lomlab.engine.commutant``, and each is patched, as are the benchmark's own
imports.  ``numpy.linalg.svd`` is
wrapped to count calls and a computed flop and byte cost, whichever module
calls it; it records no span, so SVD time stays in its caller's self time.

A span is ``(id, op, parent, name, start, end)``.  Spans are kept in memory
and written out by ``write``; self time is a span's duration minus its child
spans' durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numeric", "division", "engine", "classify", "construct", "ranges", "cli")

# Per-layer metrics reported by a traced run: (name, unit, better).
SELF_AND_CALLS = (
    "engine.is_transitive", "engine.commutant", "engine.commutant_of_matrices",
    "engine.strict_interpolate", "engine.expansion_residual",
    "division.frobenius_recognize", "numeric.rank_of", "numeric.nullspace_of",
    "numeric.solve_least_squares", "numeric.orthonormal_rows",
    "ranges.check_isomorphism",
)
SELF_ONLY = (
    "engine.generate_algebra", "engine.min_rank", "classify.classify",
    "classify.classify_type", "classify.density_degree", "classify.envelope",
    "construct.pcs_commutant_algebra", "construct.rep_commutant_algebra",
    "construct.generic_pair_pcs", "construct.twisted_rep",
    "cli.run_instance", "cli.load_instance",
)
PER_LAYER = (
    [(f"{f}.self_s", "s/op", "lower") for f in SELF_AND_CALLS + SELF_ONLY]
    + [(f"{f}.calls", "calls/op", "lower") for f in SELF_AND_CALLS]
    + [
        ("engine.is_transitive.false_pass", "count", "lower"),
        ("engine.is_transitive.witness_ratio", "ratio", "higher"),
        ("numeric.svd.calls", "calls/op", "lower"),
        ("numeric.svd.flops_computed", "flop/op", "lower"),
        ("numeric.svd.bytes_computed", "B/op", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
    ]
)


def svd_cost(shape, full_matrices=True, compute_uv=True):
    """Computed (flops, bytes) of one dense SVD of an array of ``shape``.

    Flops follow the Golub-Reinsch counts (Golub and Van Loan, Matrix
    Computations, section 5.4.5) for m >= n, transposed otherwise: singular
    values only 4mn^2 - 4n^3/3; thin U and V 14mn^2 + 8n^3; full U and V
    4m^2n + 8mn^2 + 9n^3.  Bytes are the float64 input and outputs.  Both are
    models of the work asked for, not measurements.
    """
    *batch, rows, cols = shape
    count = int(np.prod(batch)) if batch else 1
    m, n = max(rows, cols), min(rows, cols)
    words = rows * cols + n
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
        words += m * m + n * n
    else:
        flops = 14 * m * n * n + 8 * n ** 3
        words += 2 * m * n
    return count * flops, count * 8 * words


def _public_functions():
    """{original function: span name} for the public functions of each layer."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"lomlab.{layer}"]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{layer}.{name}"
    return found


class Tracer:
    """Span recorder for one process; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans = []
        self.transitive = {}  # span id -> verdict of an engine.is_transitive span
        self.svd = {"calls": 0, "flops": 0.0, "bytes": 0.0}
        self.op = None
        self._stack = []

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, self.op, parent, name, start, end)
            if name == "engine.is_transitive":
                self.transitive[sid] = bool(result.transitive)
            return result
        return wrapper

    def _svd(self, fn):
        @functools.wraps(fn)
        def wrapper(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            flops, nbytes = svd_cost(np.shape(a), full_matrices, compute_uv)
            self.svd["calls"] += 1
            self.svd["flops"] += flops
            self.svd["bytes"] += nbytes
            return fn(a, full_matrices, compute_uv, *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of each wrapped function, and restore on exit."""
        originals = {id(fn): (fn, self._span(name, fn))
                     for fn, name in _public_functions().items()}
        patched = []
        for module in list(sys.modules.values()):
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    patched.append((module, attr, value, entry[1]))
        patched.append((np.linalg, "svd", np.linalg.svd, self._svd(np.linalg.svd)))
        try:
            for module, attr, _, wrapper in patched:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original, _ in patched:
                setattr(module, attr, original)

    @contextlib.contextmanager
    def op_span(self, op_id):
        """Root span of one op; every span recorded inside carries ``op_id``."""
        self.op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (sid, op_id, None, "bench.op", start, time.perf_counter())

    def self_times(self):
        """{name: [total self seconds, calls]} over all recorded spans; other names read as zero."""
        child = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for sid, _, _, name, start, end in self.spans:
            entry = totals[name]
            entry[0] += end - start - child[sid]
            entry[1] += 1
        return totals

    def false_pass_ops(self, op_ids):
        """Ops among ``op_ids`` in which engine.is_transitive said transitive."""
        return {self.spans[sid][1] for sid, verdict in self.transitive.items()
                if verdict and self.spans[sid][1] in op_ids}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
