"""Span tracing of the icfhi layers without editing the package.

``install`` wraps every public function of each package module (the
layers) and rebinds every reference to it: module globals, dicts held in
module globals (``cli._COMMANDS``) and the names re-exported by the
package.  A wrapped call records a span ``(function, parent span, start,
end)`` when it crosses into a layer from outside, that is when the
innermost open span belongs to another layer.  Calls inside one layer are
part of the entry span, except for the functions in ``ALWAYS``, whose
metrics the benchmark names.  Spans stay in memory; ``Tracer.dump``
writes them once, at exit.

``summarize`` turns a dump into per-function and per-layer self times
(a span's duration minus the spans it caused) and the per-evaluation
latency samples.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "cohort", "linkage", "codes", "weighting", "engine", "analysis")

# private or method entry points that the benchmark reports on by name
EXTRA = {
    "cli": ("_write_csv",),
    "analysis": ("CohortEvaluator.__init__", "CohortEvaluator.hi", "CohortEvaluator.precompute"),
}

# functions that get a span even when called from inside their own layer
ALWAYS = {"analysis.pearson", "analysis.CohortEvaluator.hi", "cli._write_csv"}

# the roll-up entry points of the engine; nested calls among them are one span
EVALUATE_FAMILY = ("engine.evaluate", "engine.evaluate_report", "engine.evaluate_profile",
                   "engine.evaluate_trajectory")


def _count_answers(store):
    return sum(len(person.answers) for person in store)


# function -> (argument whose items are counted, counter)
_ARG_COUNTS = {
    "engine.attach": ("records", "engine.attached_records"),
    "cli._write_csv": ("rows", "cli.write_csv_rows"),
}
# function -> (counter, size of the result)
_RESULT_COUNTS = {
    "codes.build_tree": ("codes.tree_nodes", len),
    "linkage.apply_rules": ("linkage.records", len),
    "cohort.ingest": ("cohort.answers", _count_answers),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.stack: list[tuple[int, str]] = []
        self.enabled = True

    def wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        always = name in ALWAYS
        spans, stack, counts = self.spans, self.stack, self.counts
        arg_count = _ARG_COUNTS.get(name)
        result_count = _RESULT_COUNTS.get(name)
        signature = inspect.signature(fn) if arg_count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or (stack and stack[-1][1] == layer and not always):
                return fn(*args, **kwargs)
            if arg_count:
                bound = signature.bind(*args, **kwargs)
                items = list(bound.arguments[arg_count[0]])
                bound.arguments[arg_count[0]] = items
                counts[arg_count[1]] += len(items)
                args, kwargs = bound.args, bound.kwargs
            index = len(spans)
            spans.append(None)
            stack.append((index, layer))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (fid, stack[-1][0] if stack else -1, start, end)
            if result_count:
                counts[result_count[0]] += result_count[1](result)
            return result

        return traced

    def dump(self, path) -> None:
        """Write names, spans and counts; called at exit, when no span is open."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": dict(self.counts)}, fh)


def _public_functions(module):
    for attr, value in vars(module).items():
        if (inspect.isfunction(value) and not attr.startswith("_")
                and value.__module__ == module.__name__):
            yield attr, value


def install(out_path) -> Tracer:
    """Wrap the package's layer functions and dump the spans to ``out_path`` at exit."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"icfhi.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            replaced[id(fn)] = (fn, tracer.wrap(fn, f"{layer}.{attr}"))
        for path in EXTRA.get(layer, ()):
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = vars(owner)[attr]
            wrapped = tracer.wrap(fn, f"{layer}.{path}")
            replaced[id(fn)] = (fn, wrapped)
            if owner is not module:  # a method: rebind on its class
                setattr(owner, attr, wrapped)
    namespaces = [importlib.import_module("icfhi"), *modules.values()]
    for namespace in namespaces:
        for attr, value in list(vars(namespace).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(namespace, attr, hit[1])
            elif isinstance(value, dict):
                for key, item in value.items():
                    hit = replaced.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
    atexit.register(tracer.dump, out_path)
    return tracer


def summarize(dump: dict) -> dict:
    """Per-function calls and self time, per-layer self time, and the
    attach+evaluate latency of each evaluation."""
    names, spans = dump["names"], dump["spans"]
    duration = [end - start for _, _, start, end in spans]
    children_time = [0.0] * len(spans)
    children = [0] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children_time[parent] += duration[i]
            children[parent] += 1
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self_s: dict[str, float] = defaultdict(float)
    hi_hits = 0
    attach_ms, evaluate_ms = [], []
    for i, (fid, _, _, _) in enumerate(spans):
        name = names[fid]
        own = duration[i] - children_time[i]
        calls[name] += 1
        self_s[name] += own
        layer_self_s[name.split(".", 1)[0]] += own
        if name == "analysis.CohortEvaluator.hi" and children[i] == 0:
            hi_hits += 1
        if name == "engine.attach":
            attach_ms.append(duration[i] * 1e3)
        elif name in EVALUATE_FAMILY:
            evaluate_ms.append(duration[i] * 1e3)
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "layer_self_s": dict(layer_self_s),
        "hi_hits": hi_hits,
        "eval_ms": [a + e for a, e in zip(attach_ms, evaluate_ms)],
        "counts": dump["counts"],
        "spans": len(spans),
    }
