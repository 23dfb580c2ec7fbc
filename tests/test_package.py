"""The package namespace: ``import icfhi`` loads no submodule, and each
exported name is imported from its module on first use."""

import re
import sys
from pathlib import Path

import pytest

import icfhi

from conftest import run_python


def test_a_bare_import_loads_no_submodule_until_one_is_used():
    proc = run_python("-c", "import sys, icfhi; "
                            "loaded = lambda: sorted(m for m in sys.modules if 'icfhi.' in m); "
                            "print(loaded()); "
                            "print(icfhi.engine.__name__, loaded())")
    assert proc.returncode == 0, proc.stderr
    # the engine brings the modules it imports itself, and no others
    assert proc.stdout.splitlines() == [
        "[]", "icfhi.engine ['icfhi.codes', 'icfhi.engine', 'icfhi.errors', 'icfhi.formatting', "
              "'icfhi.linkage', 'icfhi.weighting']"]


def test_every_exported_name_is_the_object_of_its_module():
    for name in icfhi.__all__:
        value = getattr(icfhi, name)
        module = sys.modules[f"icfhi.{icfhi._MODULE_OF[name]}"]
        assert value is getattr(module, name), name
        # a class or function is exported from the module that defines it
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def _readme_exports():
    """(module, name) of each name in the export list of README.md's
    "Library use" section: its lines "- `icfhi.MODULE`: `name`, ..."."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `icfhi\.(\w+)`: (.*(?:\n  .*)*)", section, re.M)
    return [(module, name) for module, names in items for name in re.findall(r"`(\w+)`", names)]


def test_the_exports_are_the_names_the_readme_lists():
    exports = _readme_exports()
    assert len(exports) == len(set(exports))
    assert sorted(icfhi.__all__) == sorted(name for _, name in exports)
    assert {name: module for module, name in exports} == icfhi._MODULE_OF


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from icfhi import *", namespace)
    unbound = [name for name in icfhi.__all__ if namespace.get(name) is not getattr(icfhi, name)]
    assert unbound == []
    assert set(icfhi.__all__) <= set(dir(icfhi))


def test_submodules_resolve_and_an_unknown_name_raises_attribute_error():
    assert icfhi.engine is sys.modules["icfhi.engine"]
    assert icfhi.formatting.format_cell(2.0) == "2"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        icfhi.no_such_name
