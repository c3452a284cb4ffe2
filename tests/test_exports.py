"""The package's export lists name only what exists.

A name left in an ``__all__`` after its definition is deleted breaks
``from powerops.<module> import *`` at run time; a stale name in the
package's own imports breaks ``import powerops``.  No linter runs on this
code, so these tests are the check.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import powerops

MODULES = sorted(info.name for info in pkgutil.iter_modules(powerops.__path__))


def test_modules_are_found():
    assert {"fgl", "powerop", "scalar", "series"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_star_import_succeeds(name):
    module = importlib.import_module(f"powerops.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from powerops.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_star_import_succeeds():
    namespace = {}
    exec("from powerops import *", namespace)
    assert "FormalGroupLaw" in namespace and "run_pipeline" in namespace


def test_package_imports_name_existing_objects():
    tree = ast.parse(Path(powerops.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"powerops.{module}")
        assert hasattr(source, name), f"powerops.{module} has no {name}"
        assert getattr(powerops, name) is getattr(source, name)
