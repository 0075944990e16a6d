"""Every imported name is used, no package module imports another's
private names, and every public function, class and method of the
package has a user outside the tests: `ast` scans of the package, its
tests, its demos and its benchmark.  The CLI loads scipy's optimiser and
sparse stacks only where they are used."""

import ast
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the package namespace imports its public API to re-export it
REEXPORTS = os.path.join("src", "biharmlab", "__init__.py")
PACKAGE = os.path.dirname(REEXPORTS)

# public functions, classes and methods that nothing outside the tests
# names, each kept for the reason given
KEPT = {
    "extrapolation_check": "ROADMAP direction 3 makes it a suite gate",
    "orthonormality_residual": "ROADMAP direction 5 records it in the "
                               "manifest",
    "coords": "the test reference for BoxGrid.radii_sq and BoxGrid.dot",
    "apply_A": "a test reference until ROADMAP direction 16",
}


def _sources() -> list:
    paths = []
    for top in ("src", "tests", "demos"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.relpath(os.path.join(dirpath, f), ROOT)
                      for f in files if f.endswith(".py")]
    return sorted(p for p in paths if p != REEXPORTS)


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds and nothing reads;
    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_scan_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport xml.etree.ElementTree as ET\n"
              "import scipy.linalg\nfrom math import inf, pi\n"
              "ET.parse(scipy.linalg.__name__ + str(pi))\n")
    assert unused_imports(source) == [(2, "os"), (5, "inf")]


@pytest.mark.parametrize("path", _sources())
def test_every_import_is_used(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def private_imports(source: str) -> list:
    """(line, name) of every underscore name, dunders aside, that `source`
    imports from a module of the package."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "biharmlab"):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name.startswith("_")
                    and not alias.name.startswith("__")]
    return sorted(out)


def test_private_import_scan_flags_only_package_privates():
    source = ("from __future__ import annotations\n"
              "from .grids import sphere_area, _private\n"
              "from biharmlab.estimates import _power_fit\n"
              "from . import __version__\n"
              "from os.path import _joinrealpath\n")
    assert private_imports(source) == [(2, "_private"), (3, "_power_fit")]


@pytest.mark.parametrize("path", [p for p in _sources()
                                  if p.startswith(PACKAGE)])
def test_no_module_imports_another_modules_private_names(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert private_imports(fh.read()) == []


def test_only_norms_binds_the_blas_thread_count():
    # one module finds OpenBLAS and reads or sets its thread count, so the
    # CLI's pin and the kernel workers' rule cannot disagree
    package = _read(glob.glob(os.path.join(ROOT, PACKAGE, "*.py")))
    assert [os.path.basename(path) for path, source in sorted(package.items())
            if "num_threads" in source] == ["norms.py"]


def test_cli_import_defers_the_optimiser_and_sparse_stacks():
    code = ("import sys, biharmlab.cli\n"
            "print(sorted({'scipy.optimize', 'scipy.sparse',\n"
            "              'scipy.sparse.linalg'} & set(sys.modules)))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=ROOT,
                         env={**os.environ,
                              "PYTHONPATH": os.path.join(ROOT, "src")})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def named(tree) -> set:
    """Names a tree reads or imports: Name ids, Attribute attrs and import
    aliases."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= {node.name.split(".")[0], node.asname} - {None}
    return out


def _public(node) -> set:
    """The public name a function or class definition binds, as a set."""
    if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")):
        return {node.name}
    return set()


def unnamed_definitions(package: dict, others) -> list:
    """Public module-level functions and classes, and public methods of
    those classes, of `package` (path -> source) that nothing names
    outside their own definition: neither another top-level statement or
    method of the package nor a source in `others`.  A method is matched
    by its attribute name."""
    used = set().union(*(named(ast.parse(src)) for src in others))
    defined = set()
    for source in package.values():
        for stmt in ast.parse(source).body:
            own = _public(stmt)
            defined |= own
            if not isinstance(stmt, ast.ClassDef):
                used |= named(stmt) - own
                continue
            # the class header, then each statement of its body, which may
            # name the class and its other methods
            for node in (*stmt.bases, *stmt.keywords, *stmt.decorator_list):
                used |= named(node) - own
            for node in stmt.body:
                method = _public(node)
                defined |= method
                used |= named(node) - own - method
    return sorted(defined - used)


def test_definition_scan_flags_only_unnamed_ones():
    package = {"a.py": "def f(n):\n    return f(n - 1)\n\n"
                       "def g():\n    pass\n\n"
                       "class C:\n    pass\n\n"
                       "def h():\n    pass\n\n"
                       "def _k():\n    return g\n",
               "b.py": "from a import C\n",
               "c.py": "class D:\n"
                       "    def m(self):\n        return self.m()\n\n"
                       "    def n(self):\n        return self.p()\n\n"
                       "    def p(self):\n        pass\n\n"
                       "    def q(self):\n        pass\n\n"
                       "    def _r(self):\n        pass\n"}
    others = ["import a\na.h()\nc.D().n()\nx.q\n"]
    assert unnamed_definitions(package, others) == ["f", "m"]


def _read(paths) -> dict:
    out = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            out[path] = fh.read()
    return out


def test_every_public_definition_has_a_user():
    package = _read(p for p in glob.glob(os.path.join(ROOT, PACKAGE, "*.py"))
                    if not p.endswith(REEXPORTS))
    others = _read([os.path.join(ROOT, p) for p in _sources()
                    if p.startswith("demos")]
                   + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    assert unnamed_definitions(package, others.values()) == sorted(KEPT)
