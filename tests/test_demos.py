import os
import subprocess
import sys

import pytest

import biharmlab

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")


@pytest.mark.parametrize("demo, marker", [
    ("demo_twisted.py", "sector half-angle"),
    ("demo_distance.py", "bracket top"),
], ids=["twisted", "distance"])
def test_demo_runs(tmp_path, demo, marker):
    # the child imports this biharmlab from any working directory
    src = os.path.dirname(os.path.dirname(os.path.abspath(biharmlab.__file__)))
    res = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert marker in res.stdout
