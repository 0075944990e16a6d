import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from biharmlab import (assemble_sector, build_box_grid, build_radial_grid,
                       cli, norms)
from biharmlab.spectral import KernelMatrix

ACCEPTANCE_LINES = []


def record(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}: {detail}" if detail else f"[{tag}] {name}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="session")
def criterion_10_blocks():
    """Acceptance criterion 10's random kernels, each with its (p, q)
    pairs, the seed of its dual ascent and its one `opnorms` block, the
    brackets of all its pairs."""
    pairs = [(1.5, 3.0), (10.0 / 9.0, 2.0), (2.0, 10.0)]
    cases = []
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        kern = KernelMatrix(K=rng.standard_normal((20, 20)),
                            w=rng.uniform(0.5, 2.0, 20))
        cases.append((kern, pairs, i, norms.opnorms(kern, pairs, seed=i)))
    return cases


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid128():
    return build_radial_grid(5, 20.0, 128, "uniform")


@pytest.fixture(scope="session")
def op_c0(grid128):
    return assemble_sector(grid128, 0, 0.0)


@pytest.fixture(scope="session")
def op_c1(grid128):
    return assemble_sector(grid128, 0, 1.0)


@pytest.fixture(scope="session")
def dec_c0(op_c0):
    return op_c0.decomposition


@pytest.fixture(scope="session")
def dec_c1(op_c1):
    return op_c1.decomposition


@pytest.fixture(scope="session")
def box_grid_small():
    return build_box_grid(5, 4, 2.5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def one_blas_thread():
    """Every mapped BLAS pinned to one thread, as the CLI runs it."""
    restore, _ = norms.pin_blas_threads()
    yield
    restore()


@pytest.fixture
def traced_peak():
    """measure(fn, *args, **kwargs) -> (peak, result): the most bytes the
    call held at once above what was traced when it started, as
    tracemalloc counts them (numpy's arrays; not memory a library
    allocates with its own malloc)."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak, result
    return measure


# runs `suite --seed 7` into argv[2] with each experiment wrapped to
# record whether scipy's optimiser stack is loaded when it starts, writes
# that, in run order, with the state at the end to argv[1], and exits
# with the suite's code
OPTIMIZER_PROBE_RUN = """
import functools, json, sys
import biharmlab.cli as cli
seen = {}


def probed(name, run):
    @functools.wraps(run)          # keeps the runner's defaults
    def wrapped(args, man):
        seen[name] = "scipy.optimize" in sys.modules
        return run(args, man)
    return wrapped


for name, run in list(cli.EXPERIMENTS.items()):
    cli.EXPERIMENTS[name] = probed(name, run)
rc = cli.main(["suite", "--seed", "7", "--out", sys.argv[2]])
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "at_start": list(seen.items()),
               "at_end": "scipy.optimize" in sys.modules}, fh)
sys.exit(rc)
"""


@pytest.fixture(scope="session")
def suite_run(tmp_path_factory):
    """The default `suite --seed 7`, run once per session at one BLAS
    thread in a fresh interpreter under the optimiser-stack probe: (the
    probe's record, the output directory).  Its two known failures,
    `rellich_within_10pct` and `riesz_l2_bound`, make it exit 1; no
    experiment may stop on an error."""
    tmp = tmp_path_factory.mktemp("suite_run")
    result = tmp / "probe.json"
    res = subprocess.run(
        [sys.executable, "-c", OPTIMIZER_PROBE_RUN, str(result),
         str(tmp / "out")],
        capture_output=True, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1",
             "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))})
    assert res.returncode == cli.EXIT_ASSERT, res.stderr
    assert "error in" not in res.stderr, res.stderr
    return json.loads(result.read_text()), tmp / "out"
