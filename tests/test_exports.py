"""The public names of the package and of each of its modules: every name
a module lists in `__all__` resolves, and none is listed twice."""

import importlib
import pkgutil

import pytest

import athena

MODULES = ["athena"] + sorted(
    info.name for info in pkgutil.walk_packages(athena.__path__, "athena.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves_once(name):
    module = importlib.import_module(name)
    listed = list(module.__all__)
    assert sorted({n for n in listed if listed.count(n) > 1}) == []
    assert [n for n in listed if not hasattr(module, n)] == []


def test_submodules_are_found():
    assert "athena.models" in MODULES and "athena.stl.semantics" in MODULES
