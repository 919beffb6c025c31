"""Spans around the public functions of each twistcert layer.

A traced pass replaces, for its duration, the module attributes through
which the package and the benchmark reach a layer's public function with
a wrapper that records a span: (name, start, end, parent span, op id).
Spans stay in memory until the benchmark aggregates them.  No file under
``src/`` changes; the wrappers are removed when the pass ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (function name, the modules whose attribute of that name is
# wrapped, an optional exact count taken from the call's arguments and result)
LAYER_FUNCTIONS = {
    "words.word": ("word", ("presentation", "cli", "certificates"), None),
    "presentation.verify_script": (
        "verify_script", ("presentation", "certificates"),
        lambda args, result: len(args[0].steps)),
    "presentation.format_script": ("format_script", ("presentation", "cli"), None),
    "presentation.parse_script": ("parse_script", ("presentation", "cli"), None),
    "presentation.equal_modulo_rules": ("equal_modulo_rules", ("presentation",), None),
    "certificates.build_certificate": ("build_certificate", ("certificates",), None),
    "certificates.build_rel1": (
        "build_rel1", ("certificates",), lambda args, result: len(result.script.steps)),
    "certificates.verify_certificate": ("verify_certificate", ("certificates",), None),
    "homology.evaluate_rep": (
        "evaluate_rep", ("homology", "certificates", "cli"), lambda args, result: len(args[0])),
    "homology.det_hom": ("det_hom", ("homology", "certificates", "cli"), None),
    "surfaces.classify": ("classify", ("surfaces", "cli"), None),
    "surfaces.select_case": ("select_case", ("surfaces", "certificates", "cli"), None),
    "cli.format_certificate": ("format_certificate", ("cli",), None),
    "cli.parse_certificate": ("parse_certificate", ("cli",), None),
}


class Tracer:
    """In-memory span recorder.  ``op_id`` is set by the caller before each
    benchmark op, so every span of one op shares it."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if count is not None:
                counts[name] += count(args, result)
            return result

        return traced

    @contextmanager
    def patched(self, package):
        """Wrap every LAYER_FUNCTIONS entry in the imported package."""
        saved = []
        try:
            for name, (attr, modules, count) in LAYER_FUNCTIONS.items():
                layer = getattr(package, name.split(".")[0])
                wrapper = self.wrap(name, getattr(layer, attr), count)
                for module_name in modules:
                    module = getattr(package, module_name)
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span is not None:
                out[span[0]] += span[2] - span[1]
        return out
