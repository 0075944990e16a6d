import glob
import os
import runpy

import pytest

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
def test_demo_runs(tmp_path, monkeypatch, capsys, demo):
    # as a script, in this interpreter, writing its files into tmp_path
    monkeypatch.chdir(tmp_path)
    runpy.run_path(os.path.join(DEMOS, demo), run_name="__main__")
    assert MARKERS[demo] in capsys.readouterr().out.splitlines()[-1]
