"""Per-layer tracing from outside hopfex.

The tracer wraps public entry points of the hopfex layers.  A wrapped
function is patched in every hopfex module namespace that bound it with
``from .x import y``; a wrapped method is patched on its class.  Spans
(name, start, end, parent, outermost) are kept in memory and written out
when the run ends.  A layer's self time is its span time minus the time
its child spans cover.  Scalar arithmetic is counted, not spanned: a
span per field operation would cost more than the operation.

Nothing is patched until ``install``; ``uninstall`` restores every
original, so an untraced pass runs the program unchanged.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import hopfex
import hopfex.cli
import hopfex.structfile
from hopfex.algebra import FiniteAlgebra
from hopfex.coalgebra import Coalgebra, CoradicalAnalysis
from hopfex.hopf import HopfAlgebra
from hopfex.linalg import SubspaceBasis
from hopfex.scalars import Scalar

# (span name, owner, attribute names).  The owner is a class for methods
# and a module for functions; functions are patched wherever they are bound.
SPANNED = [
    ("linalg.rref_rows", hopfex.linalg, ("rref_rows",)),
    ("algebra.radical", FiniteAlgebra, ("radical",)),
    ("algebra.ideal_powers", FiniteAlgebra, ("ideal_powers",)),
    ("algebra.primitive_idempotent_in", FiniteAlgebra,
     ("primitive_idempotent_in",)),
    ("coalgebra.analysis", CoradicalAnalysis, ("__init__",)),
    ("coalgebra.dual_algebra", Coalgebra, ("dual_algebra",)),
    ("coalgebra.simples", CoradicalAnalysis, ("simples",)),
    ("coalgebra.idempotents", CoradicalAnalysis, ("idempotents",)),
    ("coalgebra.is_subcoalgebra", Coalgebra, ("is_subcoalgebra",)),
    ("extension.extend_coalgebra", hopfex.extension, ("extend_coalgebra",)),
    ("hopf.convolution", HopfAlgebra, ("convolution",)),
    ("hopf.exponent", HopfAlgebra, ("exponent",)),
    ("hopf.classify_exponent", HopfAlgebra, ("classify_exponent",)),
    ("hopf.integral", HopfAlgebra, ("integral_trace", "integral_dual_basis")),
    ("matforms.basic_multiplicative_matrix", hopfex.matforms,
     ("basic_multiplicative_matrix",)),
    ("matforms.primitive_decompose", hopfex.matforms,
     ("primitive_decompose",)),
    ("matforms.is_multiplicative", hopfex.matforms, ("is_multiplicative",)),
    ("structfile.parse", hopfex.structfile, ("parse_structure_file",)),
    ("structfile.emit", hopfex.structfile, ("emit_structure_file",)),
    ("cli.render_text", hopfex.cli, ("render_text",)),
]

COUNTED = [
    ("scalars.mul", Scalar, ("__mul__", "__rmul__")),
    ("scalars.add", Scalar, ("__add__", "__radd__")),
    ("scalars.inverse", Scalar, ("inverse",)),
    ("scalars.created", Scalar, ("__init__",)),
    ("linalg.perp", SubspaceBasis, ("perp",)),
    ("linalg.intersect", SubspaceBasis, ("intersect",)),
    ("linalg.kernel", hopfex.linalg, ("kernel",)),
    ("algebra.char_poly", hopfex.algebra, ("char_poly",)),
    ("algebra.left_mult_mat", FiniteAlgebra, ("left_mult_mat",)),
    ("algebra.mult", FiniteAlgebra, ("mult",)),
    ("algebra.split_idempotent", FiniteAlgebra, ("split_idempotent",)),
]

# The span that each operation of the benchmark runs under.
OP_SPAN = "op"


def _hopfex_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hopfex"
                                  or name.startswith("hopfex."))]


def _bindings(owner, attr):
    """(namespace, attribute) pairs to patch for owner.attr."""
    if isinstance(owner, type):
        return [(owner, attr)]
    fn = getattr(owner, attr)
    return [(m, a) for m in _hopfex_modules()
            for a, v in vars(m).items() if v is fn]


class Tracer:
    """Spans and counters for one process; install around traced passes."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._active: dict = {}
        self._patches: list = []
        for specs, wrap in ((SPANNED, self._spanned),
                            (COUNTED, self._counted)):
            for name, owner, attrs in specs:
                self.counts[name] = 0
                self._active[name] = 0
                for attr in attrs:
                    original = getattr(owner, attr)
                    wrapper = wrap(name, original)
                    for ns, a in _bindings(owner, attr):
                        self._patches.append((ns, a, original, wrapper))
        self._active[OP_SPAN] = 0
        self.counts["linalg.rref_rows.cells"] = 0
        self.counts["linalg.rref_rows.max_cols"] = 0
        self.counts["algebra.split_idempotent.hits"] = 0

    # -- patching ---------------------------------------------------------------

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without tracing them."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def reset(self):
        """Forget the spans and counts of the previous pass."""
        self.spans.clear()
        for name in self.counts:
            self.counts[name] = 0

    # -- wrappers ---------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        before = self._rref_sizes if name == "linalg.rref_rows" else None

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(spans)
            spans.append(None)
            outermost = not active[name]
            active[name] += 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans[idx] = (name, start, end, parent, outermost)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts
        if name == "algebra.split_idempotent":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                out = fn(*args, **kwargs)
                if out is not None:
                    counts["algebra.split_idempotent.hits"] += 1
                return out
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _rref_sizes(self, args):
        rows = list(args[1])
        ncols = len(rows[0]) if rows else 0
        self.counts["linalg.rref_rows.cells"] += len(rows) * ncols
        if ncols > self.counts["linalg.rref_rows.max_cols"]:
            self.counts["linalg.rref_rows.max_cols"] = ncols
        return (args[0], rows) + tuple(args[2:])

    def run_op(self, fn):
        """Call fn under a root span, so time outside every wrapped entry
        point is still attributed."""
        return self._spanned(OP_SPAN, fn)()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded so far."""
        spans = self.spans
        calls: dict = {}
        outer_s: dict = {}
        child_s = [0.0] * len(spans)
        for name, start, end, parent, outermost in spans:
            calls[name] = calls.get(name, 0) + 1
            if outermost:
                outer_s[name] = outer_s.get(name, 0.0) + (end - start)
            if parent >= 0:
                child_s[parent] += end - start
        self_s: dict = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            layer = "other" if name == OP_SPAN else name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_s[i]

        extends = [i for i, s in enumerate(spans)
                   if s[0] == "extension.extend_coalgebra"]
        inside = 0
        for s in spans:
            if s[0] != "coalgebra.analysis":
                continue
            p = s[3]
            while p >= 0 and spans[p][0] != "extension.extend_coalgebra":
                p = spans[p][3]
            inside += p >= 0

        c = self.counts
        field_ops = c["scalars.mul"] + c["scalars.add"] + c["scalars.inverse"]
        split = c["algebra.split_idempotent"]
        out = {
            "scalars.mul": c["scalars.mul"],
            "scalars.add": c["scalars.add"],
            "scalars.inverse": c["scalars.inverse"],
            "scalars.created": c["scalars.created"],
            "scalars.created_per_op": _ratio(c["scalars.created"], field_ops),
            "linalg.rref_rows.calls": calls.get("linalg.rref_rows", 0),
            "linalg.rref_rows.s": outer_s.get("linalg.rref_rows", 0.0),
            "linalg.rref_rows.cells": c["linalg.rref_rows.cells"],
            "linalg.rref_rows.max_cols": c["linalg.rref_rows.max_cols"],
            "linalg.perp.calls": c["linalg.perp"],
            "linalg.intersect.calls": c["linalg.intersect"],
            "linalg.kernel.calls": c["linalg.kernel"],
            "algebra.radical.s": outer_s.get("algebra.radical", 0.0),
            "algebra.char_poly.calls": c["algebra.char_poly"],
            "algebra.left_mult_mat.calls": c["algebra.left_mult_mat"],
            "algebra.mult.calls": c["algebra.mult"],
            "algebra.ideal_powers.s": outer_s.get("algebra.ideal_powers", 0.0),
            "algebra.primitive_idempotent_in.s":
                outer_s.get("algebra.primitive_idempotent_in", 0.0),
            "algebra.split_idempotent.calls": split,
            "algebra.split_idempotent.hits":
                c["algebra.split_idempotent.hits"],
            "algebra.split_idempotent.hit_ratio":
                _ratio(c["algebra.split_idempotent.hits"], split),
            "coalgebra.analysis.builds": calls.get("coalgebra.analysis", 0),
            "coalgebra.analysis.s": outer_s.get("coalgebra.analysis", 0.0),
            "coalgebra.dual_algebra.s":
                outer_s.get("coalgebra.dual_algebra", 0.0),
            "coalgebra.simples.s": outer_s.get("coalgebra.simples", 0.0),
            "coalgebra.idempotents.s":
                outer_s.get("coalgebra.idempotents", 0.0),
            "coalgebra.is_subcoalgebra.calls":
                calls.get("coalgebra.is_subcoalgebra", 0),
            "coalgebra.is_subcoalgebra.s":
                outer_s.get("coalgebra.is_subcoalgebra", 0.0),
            "extension.extend_coalgebra.s":
                outer_s.get("extension.extend_coalgebra", 0.0),
            "extension.analyses_per_extend": _ratio(inside, len(extends)),
            "hopf.convolution.calls": calls.get("hopf.convolution", 0),
            "hopf.convolution.s": outer_s.get("hopf.convolution", 0.0),
            "hopf.exponent.s": outer_s.get("hopf.exponent", 0.0),
            "hopf.classify_exponent.s":
                outer_s.get("hopf.classify_exponent", 0.0),
            "hopf.integral.s": outer_s.get("hopf.integral", 0.0),
            "matforms.basic_multiplicative_matrix.s":
                outer_s.get("matforms.basic_multiplicative_matrix", 0.0),
            "matforms.primitive_decompose.s":
                outer_s.get("matforms.primitive_decompose", 0.0),
            "matforms.is_multiplicative.s":
                outer_s.get("matforms.is_multiplicative", 0.0),
            "structfile.parse.s": outer_s.get("structfile.parse", 0.0),
            "structfile.emit.s": outer_s.get("structfile.emit", 0.0),
            "cli.render_text.s": outer_s.get("cli.render_text", 0.0),
            "trace.spans": len(spans),
        }
        for layer in LAYERS_WITH_SPANS:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        return {k: {"value": v, "unit": unit(k)} for k, v in out.items()}

    def write_spans(self, path):
        """Write the spans of the current pass, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


LAYERS_WITH_SPANS = ["linalg", "algebra", "coalgebra", "extension", "hopf",
                     "matforms", "structfile", "cli", "other"]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


RATIOS = {"scalars.created_per_op", "algebra.split_idempotent.hit_ratio",
          "extension.analyses_per_extend"}


def unit(metric: str) -> str:
    """Seconds for times; every other metric repeats exactly between
    passes and between runs of the same code."""
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    return "ratio" if metric in RATIOS else "count"
