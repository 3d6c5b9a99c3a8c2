"""In-memory spans around geomfo's public functions, and self time per layer.

Tracing replaces each traced function by a wrapper at every place a geomfo
module binds it (module attributes, including names imported with ``from
... import``), so calls made inside the library are traced too; no file of
the library is edited, and ``restore`` puts the originals back.  A span is
``[name, start, end, parent, op]`` with times from ``perf_counter``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) -> span name; a span name is a layer, its metric is
# "<span name>_s".  eval_structure is named by the structure it runs on.
TRACED = {
    ("geomfo.formula", "rewrite_under_interpretation"): "formula.rewrite",
    ("geomfo.formula", "complement_edges"): "formula.rewrite",
    ("geomfo.formula", "parse_formula"): "formula.parse",
    ("geomfo.checker", "eval_structure"): None,
    ("geomfo.interpret", "make_instance"): "interpret.make_instance",
    ("geomfo.poset", "transitive_closure"): "poset.closure",
    ("geomfo.poset", "validate_poset"): "poset.validate",
    ("geomfo.checker", "build_graph"): "geometry.graph",
    ("geomfo.geometry", "visibility_graph"): "geometry.graph",
    ("geomfo.geometry", "build_intersection_graph"): "geometry.graph",
    ("geomfo.geometry", "polygon_report"): "geometry.polygon_report",
    ("geomfo.geometry", "cliquewidth_certificate_check"): "geometry.cert_check",
    ("geomfo.generators", "terfan_polygon"): "generators.terfan",
    ("geomfo.generators", "cliquewidth_family"): "generators.cliquewidth_family",
    ("geomfo.generators", "graph_interpretation"): "generators.graph_interpretation",
    ("geomfo.fileio", "read_representation"): "fileio.read",
}

# methods traced on their class
TRACED_METHODS = {
    ("geomfo.geometry", "PolygonReport", "is_convex_fan_at"): "geometry.polygon_report",
}

LAYERS = tuple(sorted(set(TRACED.values()) - {None}
                      | set(TRACED_METHODS.values())
                      | {"checker.graph_eval", "checker.poset_eval"}))
BENCH = ("bench.pass", "bench.op")


def _eval_name(structure) -> str:
    return ("checker.graph_eval" if type(structure).__name__ == "LabeledGraph"
            else "checker.poset_eval")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name if name is not None else _eval_name(args[0]))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a geomfo module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "geomfo" or n.startswith("geomfo."))]
        for (modname, attr), name in TRACED.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for (modname, cls, attr), name in TRACED_METHODS.items():
            klass = getattr(sys.modules[modname], cls)
            orig = vars(klass)[attr]
            self._saved.append((klass, attr, orig))
            setattr(klass, attr, self._wrap(orig, name))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its child spans cover, summed by name."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        out: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            out[s[0]] = out.get(s[0], 0.0) + t
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
