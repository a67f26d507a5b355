"""Spans around the package's public functions, installed from outside.

The tracer rebinds each timed function wherever a module of the package
holds it (``toeplitz`` imports ``check_admissible`` by name, so patching
``forms`` alone would miss those calls) and wraps ``ToeplitzProblem``'s
constructor.  Nothing in ``src/bargtop`` changes.

A span is ``[name, start, end, parent_index, op_id]``; spans stay in
memory and are written out once at the end.  Self time is a span's
duration minus the durations of its direct children, which nest inside it
because everything runs on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

#: Timed public functions, as "<module>.<name>".  A name the package no
#: longer defines is reported as missing and reads zero.
SPANS = (
    "forms.check_admissible", "forms.quadratic_matrix", "forms.real_part_matrix",
    "forms.classify_real_form",
    "symplectic.canonical_from_phase", "symplectic.involution_for_weight",
    "symplectic.positivity_certificate",
    "toeplitz.ToeplitzProblem", "toeplitz.reduce_and_factor", "toeplitz.classify_operator",
    "weyl.weyl_symbol", "weyl.symbol_subverdict",
    "bergman.critical_system", "bergman.bergman_exponent", "bergman.growth_subverdict",
    "model.detect_model", "model.classify_model",
    "cli.load_problem", "cli.build_report", "cli.main",
    "oracle.truncated_matrix", "oracle.norm_trend", "oracle.numeric_weyl",
    "oracle.numeric_coherent_norm",
)

LAYERS = ("forms", "symplectic", "toeplitz", "weyl", "bergman", "model", "oracle", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.active = False
        self.counts = Counter()
        self.raised = Counter()
        self.missing = []
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        import bargtop  # noqa: F401  (loads every module of the package)

        modules = [m for name, m in sys.modules.items()
                   if name == "bargtop" or name.startswith("bargtop.")]
        for full in SPANS:
            mod_name, attr = full.split(".")
            mod = sys.modules.get(f"bargtop.{mod_name}")
            target = getattr(mod, attr, None)
            if target is None:
                self.missing.append(full)
            elif isinstance(target, type):
                self._patch(target, "__init__", self._span(full, target.__init__))
            else:
                self._rebind(modules, target, self._span(full, target))
        # quadrature sizes: counted from the arrays the oracle's private
        # helpers produce, so they are labelled as computed
        oracle = sys.modules["bargtop.oracle"]
        for attr, wrapper in (("_tensor_chunks", self._count_chunks),
                              ("_monomials", self._count_array),
                              ("_q_values", self._count_array),
                              ("_radial_diagonal", self._count_radial)):
            target = getattr(oracle, attr, None)
            if target is None:
                self.missing.append(f"oracle.{attr}")
            else:
                self._rebind(modules, target, wrapper(target))

    def uninstall(self):
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()

    def _patch(self, obj, attr, new):
        self._undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, new)

    def _rebind(self, modules, target, new):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._patch(mod, attr, new)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        layer = name.split(".")[0]
        count_evals = name == "forms.quadratic_matrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count_evals:
                args = (self._counting(args[0]),) + args[1:]
            parent = self.stack[-1] if self.stack else None
            span = [name, 0.0, 0.0, parent, self.op_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer it leaves
                if parent is None or self.spans[parent][0].split(".")[0] != layer:
                    self.raised[layer] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def _counting(self, fn):
        def counted(t):
            self.counts["forms.quadratic_matrix.evals"] += 1
            return fn(t)
        return counted

    def _count_chunks(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for pts, wts in fn(*args, **kwargs):
                if self.active:
                    self.counts["oracle.nodes"] += pts.shape[0]
                    self.counts["oracle.bytes"] += pts.nbytes + wts.nbytes
                yield pts, wts
        return wrapper

    def _count_array(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.active:
                self.counts["oracle.bytes"] += out.nbytes
            return out
        return wrapper

    def _count_radial(self, fn):
        @functools.wraps(fn)
        def wrapper(problem, size, order):
            if self.active:
                # Gauss-Laguerre nodes and weights, and the size x order
                # table of moment terms
                self.counts["oracle.nodes"] += order
                self.counts["oracle.bytes"] += 8 * (2 * order + size * order)
            return fn(problem, size, order)
        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self):
        """Per span name: calls, total seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "missing": self.missing}, fh)
