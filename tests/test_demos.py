import glob
import os
import subprocess
import sys

import pytest

import biharmlab

DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "demos")


# the last line each demo prints
MARKERS = {
    "demo_decay.py": "wrote decay.svg",
    "demo_distance.py": "rel err",
    "demo_offdiag.py": "noise floor were excluded",
    "demo_rellich.py": "not discretization error",
    "demo_riesz.py": "stability",
    "demo_twisted.py": "sector half-angle",
}
DEMO_FILES = sorted(os.path.basename(p)
                    for p in glob.glob(os.path.join(DEMOS, "*.py")))


@pytest.mark.parametrize("demo", DEMO_FILES,
                         ids=[d[len("demo_"):-len(".py")] for d in DEMO_FILES])
def test_demo_runs(tmp_path, demo):
    # the child imports this biharmlab from any working directory
    src = os.path.dirname(os.path.dirname(os.path.abspath(biharmlab.__file__)))
    res = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert MARKERS[demo] in res.stdout.splitlines()[-1]
