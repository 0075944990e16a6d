"""Every imported name is used, no package module or demo imports a
package module's private names, every public function, class and method
of the package has a user outside the tests, and every test or fixture
that starts a child process says why: `ast` scans of the package, its
tests, its demos and its benchmark.  No demo imports the CLI, and the
CLI imports no box builder.  The CLI loads scipy's optimiser and sparse
stacks only where they are used."""

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
    "coords": "the test reference for BoxGrid.radii_sq and BoxGrid.dot",
    "apply_A": "a test reference until ROADMAP direction 16",
    "parse_known_args": "argparse calls it on a subcommand's parser",
}

# test functions and fixtures under tests/ that start a child process,
# each kept for the reason given: what only a fresh process shows.  Every
# other test calls `cli.main` in-process.
CHILD_PROCESS = {
    "conftest.py::suite_run": "import order: the optimiser-stack probe "
                              "needs a fresh interpreter",
    "test_acceptance.py::test_criterion_11_determinism":
        "thread environment: reruns the suite at 1 and 8 BLAS threads",
    "test_cli.py::TestExitCodes::test_solve_passes":
        "python -m: the module entry point",
    "test_cli.py::TestTrace::test_traced_offdiag_keeps_one_nested_span_tree":
        "tracer: it rebinds the package's functions for its whole process",
    "test_cli.py::TestDeterminism::test_repeat_run_bit_identical":
        "python -m: two fresh interpreters write the same table",
    "test_cli.py::TestDeterminism::"
    "test_csv_identical_across_blas_thread_counts":
        "thread environment: OPENBLAS_NUM_THREADS is read at start-up",
    "test_imports.py::test_cli_import_defers_the_optimiser_and_sparse_stacks":
        "import order: what importing the CLI loads",
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


def imported_names(source: str) -> list:
    """(line, dotted name) of everything `source` imports: `import a.b`
    and `from a import b` give a.b, and `from .a import b` gives .a.b."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level + (node.module or "")).rstrip(".")
            out += [(node.lineno, f"{module}.{alias.name}")
                    for alias in node.names]
    return out


def private_imports(source: str) -> list:
    """(line, name) of every underscore name, dunders aside, that `source`
    imports from a module of the package."""
    out = []
    for line, dotted in imported_names(source):
        name = dotted.rsplit(".", 1)[-1]
        if (dotted.startswith((".", "biharmlab.")) and name.startswith("_")
                and not name.startswith("__")):
            out.append((line, name))
    return sorted(out)


def test_private_import_scan_flags_only_package_privates():
    source = ("from __future__ import annotations\n"
              "from .grids import sphere_area, _private\n"
              "from biharmlab.estimates import _power_fit\n"
              "from . import __version__\n"
              "from os.path import _joinrealpath\n"
              "from biharmlab import make_phi, _demo_helper\n")
    assert private_imports(source) == [(2, "_private"), (3, "_power_fit"),
                                       (6, "_demo_helper")]


@pytest.mark.parametrize("path", [p for p in _sources()
                                  if p.startswith((PACKAGE, "demos"))])
def test_no_module_imports_another_modules_private_names(path):
    # a demo uses the package as a reader would, through public names
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert private_imports(fh.read()) == []


def test_only_norms_binds_the_blas_thread_count():
    # one module finds OpenBLAS and reads or sets its thread count, so the
    # CLI's pin and the kernel workers' rule cannot disagree
    package = _read(glob.glob(os.path.join(ROOT, PACKAGE, "*.py")))
    assert [os.path.basename(path) for path, source in sorted(package.items())
            if "num_threads" in source] == ["norms.py"]


# the SVDs of formed kernels
SVD_NAMES = {"l2_norm", "_sigma_max"}


def svd_imports(source: str) -> list:
    """(line, dotted name) of each import of `source` that binds one of
    SVD_NAMES."""
    return [(line, name) for line, name in imported_names(source)
            if name.rsplit(".", 1)[-1] in SVD_NAMES]


def test_svd_scan_flags_only_the_svd_names():
    source = ("from .norms import corner_norm, l2_norm\n"
              "from biharmlab.norms import _sigma_max as s\n"
              "from .norms import l2_norms\nimport numpy.linalg\n")
    assert svd_imports(source) == [(1, ".norms.l2_norm"),
                                   (2, "biharmlab.norms._sigma_max")]


def test_only_norms_takes_svds_of_formed_kernels():
    # every other module reads norms off the spectrum or r x r factors
    package = _read(glob.glob(os.path.join(ROOT, PACKAGE, "*.py")))
    assert {os.path.basename(path): found for path, source in package.items()
            if (found := svd_imports(source))
            and os.path.basename(path) != "norms.py"} == {}


# what the CLI leaves to `operators.twisted_expansion_study`
BOX_BUILDERS = {"build_box_grid", "BoxGrid", "box_probe", "box_stencil",
                "twisted_form_terms"}


def driver_crossings(source: str, is_cli: bool) -> list:
    """(line, dotted name) of each import of `source` that crosses the
    driver's bounds: a box builder if `source` is the CLI, else the CLI
    module `biharmlab.cli` or a name from it."""
    return [(line, name) for line, name in imported_names(source)
            if (name.rsplit(".", 1)[-1] in BOX_BUILDERS if is_cli
                else (name + ".").startswith("biharmlab.cli."))]


def test_driver_scan_flags_cli_imports_and_box_builders():
    source = ("import biharmlab.cli as c\nfrom biharmlab import cli, grids\n"
              "from biharmlab.cli import main\nimport biharmlab.clinic\n"
              "from .operators import box_stencil, assemble_sector\n"
              "from .grids import BoxGrid as G\n")
    assert driver_crossings(source, is_cli=False) == [
        (1, "biharmlab.cli"), (2, "biharmlab.cli"), (3, "biharmlab.cli.main")]
    assert driver_crossings(source, is_cli=True) == [
        (5, ".operators.box_stencil"), (6, ".grids.BoxGrid")]
    for name in BOX_BUILDERS:
        source = f"from .operators import assemble_sector, {name}\n"
        assert driver_crossings(source, is_cli=True) == [
            (1, f".operators.{name}")], name


def test_no_demo_imports_the_cli_and_the_cli_builds_no_box():
    # the CLI drives: its twisted box study is one call into `operators`
    cli_py = os.path.join(PACKAGE, "cli.py")
    found = {}
    for path in _sources():
        if path.startswith("demos") or path == cli_py:
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                found[path] = driver_crossings(fh.read(), path == cli_py)
    assert {path: names for path, names in found.items() if names} == {}


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


def _starts_child(call) -> bool:
    """Whether a call is subprocess.run, subprocess.Popen, run_cli or
    start_cli."""
    fn = call.func
    if isinstance(fn, ast.Name):
        return fn.id in ("run_cli", "start_cli")
    return (isinstance(fn, ast.Attribute) and fn.attr in ("run", "Popen")
            and isinstance(fn.value, ast.Name) and fn.value.id == "subprocess")


def _is_fixture(fn) -> bool:
    for dec in fn.decorator_list:
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(dec, ast.Attribute) and dec.attr == "fixture"
                or isinstance(dec, ast.Name) and dec.id == "fixture"):
            return True
    return False


def child_process_starters(source: str) -> list:
    """`name` or `Class::name` of each test function or fixture, module
    level or in a class, whose body, nested functions included, calls
    subprocess.run, subprocess.Popen or run_cli."""
    out = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}::")
            elif (isinstance(node, ast.FunctionDef)
                  and (node.name.startswith("test") or _is_fixture(node))
                  and any(isinstance(call, ast.Call) and _starts_child(call)
                          for call in ast.walk(node))):
                out.append(prefix + node.name)

    visit(ast.parse(source).body, "")
    return out


def test_child_process_scan_flags_only_tests_and_fixtures():
    source = ("import subprocess\nimport pytest\n"
              "def run_cli(*args):\n    return subprocess.run(args)\n"
              "@pytest.fixture(scope='session')\n"
              "def shared():\n    return subprocess.Popen(['x'])\n"
              "@pytest.fixture\ndef quiet():\n    return other.run()\n"
              "def test_a():\n    run_cli('solve')\n"
              "def test_b():\n"
              "    def run():\n        subprocess.run(['y'])\n"
              "    run()\n"
              "def test_c():\n    cli.main([])\n"
              "class TestD:\n"
              "    def test_e(self):\n        assert run_cli('x')\n"
              "    def test_f(self):\n        start_cli('x').wait()\n"
              "    def helper(self):\n        subprocess.run([])\n")
    assert child_process_starters(source) == ["shared", "test_a", "test_b",
                                              "TestD::test_e", "TestD::test_f"]


def test_every_child_process_is_listed():
    found = []
    for path in _sources():
        if path.startswith("tests" + os.sep):
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                found += [f"{os.path.basename(path)}::{name}"
                          for name in child_process_starters(fh.read())]
    assert sorted(found) == sorted(CHILD_PROCESS)


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


def _args_option(node, dests) -> bool:
    """Whether `node` is `args.<dest>` for one of `dests`."""
    return (isinstance(node, ast.Attribute) and node.attr in dests
            and isinstance(node.value, ast.Name) and node.value.id == "args")


def _functions(source: str, names) -> list:
    return [fn for fn in ast.parse(source).body
            if isinstance(fn, ast.FunctionDef) and fn.name in names]


def option_fallbacks(source: str, names, dests) -> list:
    """(function, line) of each place one of the functions `names` falls
    back on an option: a boolean operator with a bare `args.<dest>`
    operand, or a comparison of `args.<dest>` by `is` or `is not`."""
    out = []
    for fn in _functions(source, names):
        for node in ast.walk(fn):
            if isinstance(node, ast.BoolOp):
                operands = node.values
            elif isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                operands = [node.left, *node.comparators]
            else:
                continue
            if any(_args_option(x, dests) for x in operands):
                out.append((fn.name, node.lineno))
    return sorted(out)


def options_read(source: str, names, dests) -> dict:
    """Function name -> the `args.<dest>` options its body reads."""
    return {fn.name: {node.attr for node in ast.walk(fn)
                      if _args_option(node, dests)}
            for fn in _functions(source, names)}


def sweep_mismatches(source: str, defaults: dict, sweep) -> list:
    """(runner, option, why) for each sweep option a runner reads whose
    entry gives it no default ("no default"), and each one its entry gives
    a default that the runner does not read ("unread"); `defaults` maps a
    runner's name to its entry's defaults."""
    read = options_read(source, defaults, sweep)
    out = []
    for name, own in defaults.items():
        given, used = own.keys() & sweep, read.get(name, set())
        out += [(name, dest, "no default") for dest in used - given]
        out += [(name, dest, "unread") for dest in given - used]
    return sorted(out)


def test_sweep_scan_flags_unread_and_undefaulted_options():
    source = ("def run_a(args, man):\n"
              "    return args.t, args.c, args.n\n"
              "def run_b(args, man):\n"
              "    return args.p\n")
    defaults = {"run_a": {"t": [1.0], "d": [2.0], "n": 64}, "run_b": {}}
    assert sweep_mismatches(source, defaults, {"t", "p", "d"}) == [
        ("run_a", "d", "unread"), ("run_b", "p", "no default")]


def test_fallback_scan_flags_only_option_fallbacks():
    source = ("def run_a(args, man):\n"
              "    ts = args.t or [1.0]\n"
              "    p = 1.5 if args.p is None else args.p\n"
              "    ok = args.c > 0 and args.d\n"
              "    return x.t or y, args.seed is not None\n"
              "def helper(args):\n"
              "    return args.t or [2.0]\n")
    dests = {"t", "p", "d", "seed"}
    assert option_fallbacks(source, {"run_a"}, dests) == [
        ("run_a", 2), ("run_a", 3), ("run_a", 4), ("run_a", 5)]
    assert options_read(source, {"run_a"}, dests) == {
        "run_a": {"t", "p", "d", "seed"}}


def test_experiments_read_resolved_options_from_one_table():
    # every option has its value before an experiment runs: no runner
    # falls back on one, the table names only options, and the sweep
    # options a runner reads are those its entry gives a default, so its
    # manifest echoes every sweep value it used and its subcommand takes
    # no sweep option that it ignores
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from biharmlab import cli
    finally:
        sys.path.pop(0)
    dests = {key.split(".")[1] for _, key, *_ in cli.OPTIONS}
    runners = {run.__name__: run for run in cli.EXPERIMENTS.values()}
    with open(os.path.join(ROOT, PACKAGE, "cli.py"), encoding="utf-8") as fh:
        source = fh.read()
    assert option_fallbacks(source, runners, dests) == []
    assert options_read(source, runners, cli.SWEEP).keys() == runners.keys()
    for name, run in runners.items():
        assert run.defaults.keys() <= dests, name
    assert sweep_mismatches(source, {name: run.defaults for name, run
                                     in runners.items()}, cli.SWEEP) == []
