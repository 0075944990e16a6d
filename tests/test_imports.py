"""Every imported name is used: an `ast` scan of the package, its tests
and its demos.  The CLI loads scipy's optimiser and sparse stacks only
where they are used."""

import ast
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the package namespace imports its public API to re-export it
REEXPORTS = os.path.join("src", "biharmlab", "__init__.py")


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
