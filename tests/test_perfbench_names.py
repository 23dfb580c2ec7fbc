"""What the benchmark in ``perfbench/`` needs from the package still exists.

The benchmark calls package functions by module attribute, reads fields of
what they return, and its tracer finds functions by name.  A rename or a
deletion in the package would crash the benchmark's ``sweep`` child or its
traced run, so the names are checked here, from the benchmark's source read
with ``ast`` and without importing it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

import pytest

import icfhi

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# traced names that no function has had since the engine was rewritten; their
# per-layer metrics read 0 (ROADMAP, item 7)
STALE_TRACED = {"engine.attach"}


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _literal(name, target):
    """The literal value assigned to ``target`` at the top of ``perfbench/name``."""
    for node in _tree(name).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == target
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} assigns no {target}")


def _dotted(node):
    """``a.b.c`` of an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _module_uses(name):
    """The local names bound to package modules in ``perfbench/name``, and
    every (module, attribute chain) read through them or imported by name."""
    tree = _tree(name)
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "icfhi":
                    local = alias.asname or alias.name.split(".")[0]
                    modules[local] = alias.name if alias.asname else "icfhi"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "icfhi":
            for alias in node.names:
                if node.module == "icfhi" and alias.name in icfhi._SUBMODULES:
                    modules[alias.asname or alias.name] = f"icfhi.{alias.name}"
                else:
                    uses.add((node.module, alias.name))
    for node in ast.walk(tree):
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            if head in modules:
                uses.add((modules[head], rest))
    return modules, uses


def _resolve(module, chain):
    value = importlib.import_module(module)
    for part in chain.split("."):
        # a submodule of the package, such as cli, is imported, not exported
        submodule = f"{value.__name__}.{part}" if hasattr(value, "__path__") else None
        if submodule and importlib.util.find_spec(submodule) is not None:
            value = importlib.import_module(submodule)
        else:
            value = getattr(value, part)
    return value


@pytest.mark.parametrize("name", ["child.py", "run.py"])
def test_every_package_attribute_the_benchmark_reads_exists(name):
    _, uses = _module_uses(name)
    assert uses
    missing = []
    for module, chain in sorted(uses):
        try:
            _resolve(module, chain)
        except AttributeError:
            missing.append(f"{module}.{chain}")
    assert missing == []


def _instance_attributes(cls):
    """What an instance of ``cls`` has: class attributes, dataclass and named
    tuple fields, and the ``self.x`` its methods assign."""
    names = set(dir(cls)) | set(getattr(cls, "_fields", ()))
    if dataclasses.is_dataclass(cls):
        names |= {field.name for field in dataclasses.fields(cls)}
    for node in ast.walk(ast.parse(inspect.getsource(cls))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and getattr(node.value, "id", None) == "self"):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("name", ["child.py", "run.py"])
def test_the_fields_the_benchmark_reads_of_a_result_exist(name):
    # a name assigned from a package call, and each attribute read on it
    modules, _ = _module_uses(name)
    results, missing = {}, []
    for node in ast.walk(_tree(name)):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Call)):
            dotted = _dotted(node.value.func)
            head, _, rest = (dotted or "").partition(".")
            if head in modules:
                function = _resolve(modules[head], rest)
                returned = (function if inspect.isclass(function)
                            else typing.get_type_hints(function).get("return"))
                if inspect.isclass(returned):
                    results[node.targets[0].id] = returned
    assert results
    for node in ast.walk(_tree(name)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in results
                and node.attr not in _instance_attributes(results[node.value.id])):
            missing.append(f"{results[node.value.id].__name__}.{node.attr}")
    assert missing == []


def test_every_extra_traced_entry_exists():
    # tracer.install looks each one up as vars(owner)[attr]
    for layer, paths in _literal("tracer.py", "EXTRA").items():
        for path in paths:
            owner = importlib.import_module(f"icfhi.{layer}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            assert inspect.isfunction(vars(owner).get(attr)), f"{layer}.{path}"


def _traced(name, extra):
    """Whether the tracer wraps a function called ``name`` (``layer.path``):
    a public function the layer defines, or one of its EXTRA entries."""
    layer, _, path = name.partition(".")
    module = importlib.import_module(f"icfhi.{layer}")
    if path in extra.get(layer, ()):
        return True
    value = vars(module).get(path)
    return (inspect.isfunction(value) and not path.startswith("_")
            and value.__module__ == module.__name__)


def test_every_traced_per_layer_metric_names_a_traced_function():
    extra = _literal("tracer.py", "EXTRA")
    names = {*_literal("run.py", "_TRACED").values(), *_literal("tracer.py", "ALWAYS")}
    assert "analysis.pearson" in names
    unresolved = {name for name in names if not _traced(name, extra)}
    assert unresolved <= STALE_TRACED
