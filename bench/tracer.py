"""Per-layer spans and counters, installed from outside the library.

The tracer replaces functions and methods of ``leavitt`` with wrappers for
the length of a traced run. A function is rebound at every import site: each
``leavitt`` module attribute that holds the original object gets the
wrapper, so ``enumerate_Xg`` is traced whether it is called from
``grading``, ``epsilon``, ``sampling`` or ``cli``. A method is patched on its
class.

Only names exported in ``leavitt.__all__`` (functions, or methods of exported
classes) are wrapped, plus the module-level helpers in ``HELPERS``. A target
that no longer exists, or is no longer exported, is listed as absent and its
metrics read 0; the tracer never fails on it.

Spans are aggregated in memory as they close: calls and self time per span
name, where self time is the span's duration minus the time of the spans it
caused, and the inclusive time of each layer, counted on its outermost spans
only. Counters are cheaper wrappers without a clock, for hot leaves.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import leavitt

# (metric name, module, qualified name). Several targets may share a name.
SPANS = (
    ("graph.enumerate_paths", "graph", "Graph.enumerate_paths"),
    ("algebra.mul", "algebra", "Element.__mul__"),
    ("algebra.from_terms", "algebra", "Element.from_terms"),
    ("algebra.enumerate_monomials", "algebra", "enumerate_monomials"),
    ("algebra.parse_element", "algebra", "parse_element"),
    ("grading.enumerate_Xg", "grading", "enumerate_Xg"),
    ("grading.decompose", "grading", "decompose"),
    ("grading.check_grading_axiom", "grading", "check_grading_axiom"),
    ("epsilon.minimal_classes", "epsilon", "minimal_classes"),
    ("epsilon.epsilon", "epsilon", "epsilon"),
    ("epsilon.local_units", "epsilon", "local_units"),
    ("epsilon.check_epsilon_strong", "epsilon", "check_epsilon_strong"),
    ("epsilon.check_nearly_epsilon", "epsilon", "check_nearly_epsilon"),
    ("epsilon.check_nondegenerate", "epsilon", "check_nondegenerate"),
    ("frobenius.build", "frobenius", "build_frobenius_system"),
    ("frobenius.verify", "frobenius", "verify_frobenius"),
    ("frobenius.projection_e", "frobenius", "projection_e"),
    ("sampling.random_homogeneous", "sampling", "random_homogeneous"),
    ("sampling.random_element", "sampling", "random_element"),
    ("sampling.realized_degrees", "sampling", "realized_degrees"),
    ("cli.parse_inputs", "graph", "parse_graph"),
    ("cli.parse_inputs", "grading", "parse_degree_map"),
    ("reports.render", "reports", "Report.structured"),
    ("reports.render", "reports", "Report.text"),
)
COUNTERS = (
    ("graph.path_new", "graph", "Path.__init__"),
    ("algebra.mono_product", "algebra", "_mono_product"),
    ("algebra.rewrite", "algebra", "_expand_normal"),
    ("algebra.element_eq", "algebra", "Element.__eq__"),
    ("grading.degree_of", "grading", "DegreeMap.degree_of"),
)
# Span results whose length is counted, per span name.
RESULT_COUNTS = {
    "graph.enumerate_paths": "graph.enumerate_paths.paths",
    "grading.enumerate_Xg": "grading.enumerate_Xg.monomials",
}
# Module-level helpers traced although leavitt.__all__ does not export them.
HELPERS = frozenset({"_mono_product", "_expand_normal", "realized_degrees"})

# The layer of a span is the first part of its name; reports count as cli.
LAYERS = ("graph", "algebra", "grading", "epsilon", "frobenius", "sampling", "cli")


def layer_of(name):
    prefix = name.partition(".")[0]
    return "cli" if prefix == "reports" else prefix

# An element equality made directly inside an epsilon() span is one identity
# check of a candidate local identity.
IDENTITY_SPAN = "epsilon.epsilon"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.inclusive_s = defaultdict(float)
        self.absent = []
        self._stack = []
        self._layer_depth = Counter()
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts
        inclusive_s, depth = self.inclusive_s, self._layer_depth
        clock = time.perf_counter
        result_count = RESULT_COUNTS.get(name)
        layer = layer_of(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    inclusive_s[layer] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if result_count:
                counts[result_count] += len(result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts, stack = self.counts, self._stack
        if name == "algebra.mono_product":

            def wrapper(*args):
                result = fn(*args)
                counts["algebra.mono_product.attempts"] += 1
                if result is not None:
                    counts["algebra.mono_product.nonzero"] += 1
                return result

        elif name == "algebra.rewrite":

            def wrapper(*args):
                result = fn(*args)
                counts["algebra.rewrite.terms"] += len(result)
                return result

        elif name == "algebra.element_eq":

            def wrapper(*args):
                counts["algebra.element_eq.calls"] += 1
                if stack and stack[-1][0] == IDENTITY_SPAN:
                    counts["epsilon.identity_checks"] += 1
                return fn(*args)

        else:
            key = name + (".count" if name == "graph.path_new" else ".calls")

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    # -- installing -------------------------------------------------------

    def install(self):
        for name, module, qualname in SPANS:
            self._patch(name, module, qualname, self._span)
        for name, module, qualname in COUNTERS:
            self._patch(name, module, qualname, self._counter)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, name, module, qualname, make):
        target = f"leavitt.{module}.{qualname}"
        mod = sys.modules.get(f"leavitt.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        exported = owner_name or attr
        if mod is None or (exported not in leavitt.__all__ and exported not in HELPERS):
            self.absent.append(target)
            return
        if owner_name:
            owner = getattr(mod, owner_name, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                self.absent.append(target)
                return
            if isinstance(raw, classmethod):
                new = classmethod(make(name, raw.__func__))
            else:
                new = make(name, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        original = getattr(mod, attr, None)
        if not callable(original):
            self.absent.append(target)
            return
        wrapper = make(name, original)
        for site_name, site in list(sys.modules.items()):
            if site is None or not (site_name == "leavitt" or site_name.startswith("leavitt.")):
                continue
            for key, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, key, original))
                    setattr(site, key, wrapper)

    # -- metrics ----------------------------------------------------------

    def metrics(self, ops, traced_s):
        """Per-op values of every per-layer metric, and each layer's self and
        inclusive time as shares of the traced op time."""
        per_op = 1.0 / ops
        calls, self_s, counts = self.calls, self.self_s, self.counts
        attempts = counts["algebra.mono_product.attempts"]
        values = {
            "graph.enumerate_paths.calls": calls["graph.enumerate_paths"] * per_op,
            "graph.enumerate_paths.paths": counts["graph.enumerate_paths.paths"] * per_op,
            "graph.enumerate_paths.self_s": self_s["graph.enumerate_paths"] * per_op,
            "graph.path_new.count": counts["graph.path_new.count"] * per_op,
            "algebra.mul.calls": calls["algebra.mul"] * per_op,
            "algebra.mul.self_s": self_s["algebra.mul"] * per_op,
            "algebra.mono_product.attempts": attempts * per_op,
            "algebra.mono_product.nonzero_ratio": counts["algebra.mono_product.nonzero"] / attempts if attempts else 0.0,
            "algebra.from_terms.calls": calls["algebra.from_terms"] * per_op,
            "algebra.from_terms.self_s": self_s["algebra.from_terms"] * per_op,
            "algebra.rewrite.terms": counts["algebra.rewrite.terms"] * per_op,
            "algebra.element_eq.calls": counts["algebra.element_eq.calls"] * per_op,
            "algebra.enumerate_monomials.calls": calls["algebra.enumerate_monomials"] * per_op,
            "algebra.parse_element.self_s": self_s["algebra.parse_element"] * per_op,
            "grading.enumerate_Xg.calls": calls["grading.enumerate_Xg"] * per_op,
            "grading.enumerate_Xg.monomials": counts["grading.enumerate_Xg.monomials"] * per_op,
            "grading.enumerate_Xg.self_s": self_s["grading.enumerate_Xg"] * per_op,
            "grading.decompose.calls": calls["grading.decompose"] * per_op,
            "grading.decompose.self_s": self_s["grading.decompose"] * per_op,
            "grading.degree_of.calls": counts["grading.degree_of.calls"] * per_op,
            "epsilon.minimal_classes.calls": calls["epsilon.minimal_classes"] * per_op,
            "epsilon.minimal_classes.self_s": self_s["epsilon.minimal_classes"] * per_op,
            "epsilon.epsilon.calls": calls["epsilon.epsilon"] * per_op,
            "epsilon.epsilon.self_s": self_s["epsilon.epsilon"] * per_op,
            "epsilon.identity_checks": counts["epsilon.identity_checks"] * per_op,
            "epsilon.local_units.calls": calls["epsilon.local_units"] * per_op,
            "epsilon.local_units.self_s": self_s["epsilon.local_units"] * per_op,
            "frobenius.build.self_s": self_s["frobenius.build"] * per_op,
            "frobenius.verify.self_s": self_s["frobenius.verify"] * per_op,
            "frobenius.projection_e.calls": calls["frobenius.projection_e"] * per_op,
            "sampling.random_homogeneous.calls": calls["sampling.random_homogeneous"] * per_op,
            "sampling.random_homogeneous.self_s": self_s["sampling.random_homogeneous"] * per_op,
            "sampling.realized_degrees.self_s": self_s["sampling.realized_degrees"] * per_op,
            "sampling.random_element.self_s": self_s["sampling.random_element"] * per_op,
            "cli.parse_inputs.self_s": self_s["cli.parse_inputs"] * per_op,
            "reports.render.self_s": self_s["reports.render"] * per_op,
        }
        share = 1.0 / traced_s if traced_s else 0.0
        for layer in LAYERS:
            busy = sum(s for name, s in self_s.items() if layer_of(name) == layer)
            values[f"layer.{layer}.share"] = busy * share
            values[f"layer.{layer}.inclusive_share"] = self.inclusive_s[layer] * share
        return values
