"""The package's export lists name only what exists.

A name left in an ``__all__`` after its definition is deleted breaks
``from powerops.<module> import *`` at run time; a stale name in the
package's own imports breaks ``import powerops``.  No linter runs on this
code, so these tests are the check.  They also pin which modules each half
of the engine may import.
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


def _package_imports(name):
    """The package modules that module `name` imports, anywhere in its body.
    The package imports itself only relatively, so an absolute import of it
    fails here rather than go uncounted."""
    tree = ast.parse((Path(powerops.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            # `from .m import x` names m; `from . import m` names m itself
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert not any(n.split(".")[0] == "powerops" for n in names), (name, names)
    return found


@pytest.mark.parametrize(
    "modules, allowed",
    [
        (("arith",), set()),
        (("dl", "mu_homology", "finite_field"), {"arith", "finite_field"}),
        (("scalar", "series", "fgl", "powerop"), {"arith", "scalar", "series", "fgl"}),
    ],
    ids=["shared", "modp", "padic"],
)
def test_halves_import_only_their_own_modules(modules, allowed):
    # the mod-p half (Dyer-Lashof algebra, Newton classes) and the p-adic half
    # (scalars, series, formal group law) share only `arith`
    for name in modules:
        assert _package_imports(name) <= allowed, name


SOURCES = {
    path.stem: path.read_text()
    for path in sorted(Path(powerops.__file__).parent.glob("*.py"))
    if path.name != "__init__.py"
}


def _unused_imports(source):
    """The names a module imports but neither uses nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    return sorted(imported - used - exported)


def test_unused_import_check_sees_a_stale_import():
    # scalar.py takes its powers in closed form and needs neither
    source = "import operator\nfrom .arith import binary_power\n" + SOURCES["scalar"]
    assert _unused_imports(source) == ["binary_power", "operator"]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_import_is_used(name):
    assert _unused_imports(SOURCES[name]) == []


def test_every_private_definition_is_referenced():
    # a private module-level function or class that nothing in the package
    # names is dead code: nothing outside the package should reach for it
    package = [ast.parse(path.read_text()) for path in Path(powerops.__file__).parent.glob("*.py")]
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in package
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    dead = [
        (name, node.name)
        for name, source in SOURCES.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and node.name not in referenced
    ]
    assert dead == []


# a class whose constructor only copies its parameters into same-named
# attributes is a `Record`; DLPolynomial keeps its own, as it is built per
# product and sum on the mod-p hot path, where a generic setter loop costs
# about twice as much per construction
COPYING_INIT_ALLOWED = {("dl", "DLPolynomial")}


def _copies_parameters(stmt, params):
    """Whether `stmt` is ``self.a = a`` or ``self.a, self.b = a, b`` over
    parameters of the enclosing function."""
    if isinstance(stmt, ast.AnnAssign):
        target, value = stmt.target, stmt.value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    else:
        return False
    if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(target.elts) == len(value.elts):
        pairs = zip(target.elts, value.elts)
    else:
        pairs = [(target, value)]
    return all(
        isinstance(t, ast.Attribute)
        and isinstance(t.value, ast.Name)
        and t.value.id == "self"
        and isinstance(v, ast.Name)
        and v.id == t.attr
        and v.id in params
        for t, v in pairs
    )


def _copying_inits(source):
    """The classes whose ``__init__`` only copies its parameters into
    same-named attributes of self."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
                body = [s for s in fn.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
                if body and all(_copies_parameters(s, params) for s in body):
                    found.append(cls.name)
    return found


def test_copying_init_check_sees_a_hand_written_record():
    source = (
        "class Report:\n"
        "    __slots__ = ('p', 'residual')\n\n"
        "    def __init__(self, p, residual):\n"
        "        '''A report.'''\n"
        "        self.p, self.residual = p, residual\n\n"
        "class Kept:\n"
        "    def __init__(self, p):\n"
        "        self.p = p\n"
        "        self.q = None\n"
    )
    assert _copying_inits(source) == ["Report"]


def test_no_constructor_only_copies_its_parameters():
    found = {(name, cls) for name, source in SOURCES.items() for cls in _copying_inits(source)}
    assert found == COPYING_INIT_ALLOWED


def _named_records(source):
    """The classes that subclass `Record` and have a ``name`` slot."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if not any(getattr(b, "id", getattr(b, "attr", None)) == "Record" for b in cls.bases):
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets):
                if "name" in ast.literal_eval(stmt.value):
                    found.append(cls.name)
    return found


def test_named_record_check_sees_a_second_row_shape():
    source = (
        "class IdentityCheck(Record):\n"
        "    __slots__ = ('name', 'passed', 'method', 'elapsed_ms')\n\n"
        "class Trace(arith.Record):\n"
        "    __slots__ = ('p', 'names')\n"
    )
    assert _named_records(source) == ["IdentityCheck"]


def test_check_is_the_one_report_row():
    # a report row has one shape, `arith.Check`, which every verifier adds
    # through `CheckList.add`; a second record with a name slot would be a
    # second row shape that something must copy into a Check
    found = {(name, cls) for name, source in SOURCES.items() for cls in _named_records(source)}
    assert found == {("arith", "Check")}
