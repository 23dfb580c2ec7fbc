"""The package namespace: ``import icfhi`` loads no submodule, and each
exported name is imported from its module on first use."""

import sys

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
