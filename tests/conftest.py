import numpy as np
import pytest

from biharmlab import (assemble_sector, build_box_grid, build_radial_grid,
                       assemble_box)

ACCEPTANCE_LINES = []


def record(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}: {detail}" if detail else f"[{tag}] {name}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


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
def box_op_small(box_grid_small):
    return assemble_box(box_grid_small, 1.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
