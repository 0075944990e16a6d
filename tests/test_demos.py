import os
import subprocess
import sys

import biharmlab

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")


def test_demo_twisted_runs(tmp_path):
    # the child imports this biharmlab from any working directory
    src = os.path.dirname(os.path.dirname(os.path.abspath(biharmlab.__file__)))
    res = subprocess.run(
        [sys.executable, os.path.join(DEMOS, "demo_twisted.py")],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert "sector half-angle" in res.stdout
