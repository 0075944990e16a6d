"""Tests of the benchmark's own tracing, metric arithmetic and output check.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import tracer  # noqa: E402


def span(i, parent, name, t0, t1, **attrs):
    return {"id": i, "parent": parent, "name": name, "t0": t0, "t1": t1,
            **attrs}


# ------------------------------------------------------------ self times

def test_self_time_subtracts_direct_children_only():
    spans = [span(0, None, "cli.main", 0.0, 10.0),
             span(1, 0, "estimates.decay_fit", 1.0, 6.0),
             span(2, 1, "norms.opnorm", 2.0, 3.0),
             span(3, 1, "spectral.kernel", 4.0, 5.0, gflop=0.5),
             span(4, 0, "report.write_csv", 7.0, 9.0, bytes=10)]
    own = tracer.self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 1.0, 4: 2.0}
    m = tracer.layer_metrics(spans, untraced_wall_s=9.5)
    assert m["cli.self_s"] == 3.0
    assert m["estimates.self_s"] == 3.0
    assert m["norms.self_s"] == m["spectral.self_s"] == 1.0
    assert m["report.self_s"] == 2.0
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == \
        tracer.traced_wall(spans) == 10.0
    assert m["trace.overhead_s"] == 0.5


def test_recursive_spans_are_counted_once_in_totals():
    spans = [span(0, None, "cli.main", 0.0, 4.0),
             span(1, 0, "spectral.eigendecompose", 0.0, 3.0),
             span(2, 1, "spectral.eigendecompose", 1.0, 2.0)]
    m = tracer.layer_metrics(spans, 4.0)
    assert m["spectral.eigendecompose.calls"] == 2
    assert m["spectral.eigendecompose.s"] == 3.0
    assert m["spectral.self_s"] == 3.0


# -------------------------------------------------- parent attribution

def test_read_frac_follows_the_calling_estimate():
    spans = [span(0, None, "cli.main", 0.0, 10.0),
             span(1, 0, "estimates.decay_fit", 0.0, 4.0),
             span(2, 1, "norms.opnorm", 0.0, 4.0),
             span(3, 2, "norms.boyd_lower", 1.0, 4.0),
             span(4, 0, "estimates.riesz_pnorm_sweep", 5.0, 8.0),
             span(5, 4, "norms.opnorm", 5.0, 7.0),
             span(6, 5, "norms.boyd_lower", 6.0, 7.0)]
    m = tracer.layer_metrics(spans, 10.0)
    assert m["norms.boyd_lower.calls"] == 2
    assert m["norms.boyd_lower.s"] == 4.0
    assert m["norms.boyd_lower.read_frac"] == 0.25


def test_corners_per_interpolated_upper_bound():
    spans = [span(0, None, "cli.main", 0.0, 20.0),
             span(1, 0, "norms.interpolation_upper", 0.0, 7.0,
                  p=1.5, q=1.5, interpolated=True)]
    spans += [span(2 + k, 1, "norms.corner_norm", k, k + 1.0, p=p, q=q)
              for k, (p, q) in enumerate([(1.0, 1.0), (2.0, 2.0),
                                          (math.inf, math.inf), (1.0, 2.0),
                                          (2.0, math.inf),
                                          (1.0, math.inf)])]
    spans += [span(8, 0, "norms.interpolation_upper", 10.0, 12.0,
                   p=2.0, q=math.inf, interpolated=False),
              span(9, 8, "norms.corner_norm", 10.0, 11.0, p=2.0, q=math.inf)]
    m = tracer.layer_metrics(spans, 20.0)
    assert m["norms.corner_norm.per_upper"] == 6.0
    assert m["norms.corner_norm.calls"] == 7
    assert m["norms.corner_norm.svd.calls"] == 1
    assert m["norms.corner_norm.svd.s"] == 1.0


@pytest.mark.parametrize("p, q, interpolated", [
    (1.5, 1.5, True), (2.0, 4.0, True), (2.0, math.inf, False),
    (2.0, 2.0, False), (1.0, 3.0, False)])
def test_interpolation_upper_span_marks_interpolated_targets(p, q,
                                                             interpolated):
    pytest.importorskip("numpy")
    sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
    attrs = tracer.ATTRS["norms.interpolation_upper"]((None, p, q), {}, 0.0)
    assert attrs == {"p": p, "q": q, "interpolated": interpolated}


def test_root_span_must_be_one_cli_main_of_the_child_wall_time():
    spans = [span(0, None, "cli.main", 1.0, 11.0),
             span(1, 0, "norms.opnorm", 2.0, 3.0)]
    assert tracer.root_problems(spans, 10.0004, 1e-3) == []
    assert tracer.root_problems(spans, 10.5, 1e-3)
    assert tracer.root_problems(spans, None, 1e-3)
    assert tracer.root_problems(spans + [span(2, None, "cli.main", 12.0,
                                              13.0)], 10.0, 1e-3)
    assert tracer.root_problems([span(0, None, "cli.run_decay", 1.0, 11.0)],
                                10.0, 1e-3)
    assert tracer.root_problems([], 10.0, 1e-3)


# ------------------------------------------------------------- wrapping

def test_install_rebinds_imported_names_and_dict_entries():
    a = types.ModuleType("fake_a")
    exec("def f(x):\n    return g(x) + 1\n"
         "def g(x):\n    return 2 * x\n"
         "def _private(x):\n    return x\n", a.__dict__)
    b = types.ModuleType("fake_b")
    b.f = a.f
    b.TABLE = {"f": a.f}

    class Evaluator:
        def kernel(self, t):
            return b.f(t)

    tr = tracer.Tracer(clock=iter(range(100)).__next__)
    tr.install({"grids": a}, {"spectral.ev": (Evaluator, "kernel")},
               extra_modules=(b,))
    assert b.TABLE["f"](1) == 3 and b.f(1) == 3
    assert Evaluator().kernel(2) == 5
    names = [(s["name"], s["parent"]) for s in tr.spans]
    assert names == [("grids.f", None), ("grids.g", 0),
                     ("grids.f", None), ("grids.g", 2),
                     ("spectral.ev", None), ("grids.f", 4),
                     ("grids.g", 5)]
    assert a._private(4) == 4 and len(tr.spans) == 7


def test_span_closes_when_the_call_raises():
    tr = tracer.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("operators.boom", boom)()
    assert tr.spans[0]["t1"] >= tr.spans[0]["t0"]
    assert tr.wrap("cli.ok", lambda: 1)() == 1
    assert tr.spans[1]["parent"] is None


# --------------------------------------------------------- output check

def write_run(out_dir, rows, passes=(True, False)):
    exp = os.path.join(out_dir, "decay")
    os.makedirs(exp, exist_ok=True)
    path = os.path.join(exp, "decay.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")
    checks = [{"name": f"c{i}", "pass": ok, "detail": ""}
              for i, ok in enumerate(passes)]
    with open(os.path.join(exp, "manifest.json"), "w") as fh:
        json.dump({"checks": checks, "files": [path]}, fh)


REF_ROWS = [["q", "slope", "seeded"], ["inf", "-0.62165", "*"],
            ["10.0", "-0.49733", "*"]]
RUN_ROWS = [["q", "slope", "seeded"], ["inf", "-0.62165", "0.25"],
            ["10.0", "-0.49733", "7"]]


@pytest.fixture
def reference(tmp_path):
    ref = tmp_path / "reference"
    write_run(str(ref / "w"), REF_ROWS)
    os.remove(ref / "w" / "decay" / "manifest.json")
    return str(ref)


def test_output_check_accepts_a_matching_run(tmp_path, reference):
    write_run(str(tmp_path / "out"), RUN_ROWS)
    v = check.check_run("w", 1, str(tmp_path / "out"), reference)
    assert v == {"checks": 2, "failed_checks": 1, "problems": []}


def test_missing_checks_count_as_failed(tmp_path, reference):
    # the manifest makes 2 checks (1 failing) where the workload expects 3
    write_run(str(tmp_path / "out"), RUN_ROWS)
    v = check.check_run("w", 1, str(tmp_path / "out"), reference,
                        expected_checks=3)
    assert v == {"checks": 3, "failed_checks": 2, "problems": []}
    # dropping the failing check does not raise the pass ratio
    write_run(str(tmp_path / "out2"), RUN_ROWS, passes=(True,))
    v = check.check_run("w", 0, str(tmp_path / "out2"), reference,
                        expected_checks=2)
    assert v == {"checks": 2, "failed_checks": 1, "problems": []}
    # a run that makes more checks than expected is counted as it is
    write_run(str(tmp_path / "out3"), RUN_ROWS, passes=(True, True, False))
    v = check.check_run("w", 1, str(tmp_path / "out3"), reference,
                        expected_checks=2)
    assert v == {"checks": 3, "failed_checks": 1, "problems": []}


def test_output_check_flags_exit_code_2(tmp_path, reference):
    write_run(str(tmp_path / "out"), RUN_ROWS)
    v = check.check_run("w", 2, str(tmp_path / "out"), reference)
    assert v["problems"] == ["exit code 2"]
    v = check.check_run("w", 2, str(tmp_path / "missing"), reference)
    assert "exit code 2" in v["problems"]
    assert "decay/decay.csv: missing from the run" in v["problems"]


def test_output_check_flags_a_perturbed_csv(tmp_path, reference):
    rows = [list(r) for r in RUN_ROWS]
    rows[2][1] = repr(-0.49733 * (1 + 1e-9))
    write_run(str(tmp_path / "out"), rows)
    v = check.check_run("w", 0, str(tmp_path / "out"), reference)
    assert len(v["problems"]) == 1
    assert v["problems"][0].startswith("decay/decay.csv: row 2 slope")


@pytest.mark.parametrize("row, col, value", [
    (1, 2, "nan"), (1, 2, "inf"), (1, 0, "10.0"), (2, 0, "inf")])
def test_output_check_flags_non_finite_and_changed_tokens(
        tmp_path, reference, row, col, value):
    rows = [list(r) for r in RUN_ROWS]
    rows[row][col] = value
    write_run(str(tmp_path / "out"), rows)
    v = check.check_run("w", 0, str(tmp_path / "out"), reference)
    assert len(v["problems"]) == 1


def test_output_check_admits_the_file_tolerance():
    ref = (["constant"], [["1.757030"]])
    assert check.compare_table((["constant"], [["1.757031"]]), ref, 1e-6) == []
    assert check.compare_table((["constant"], [["1.757031"]]), ref, 1e-7)


def test_unreferenced_csv_must_be_finite(tmp_path):
    write_run(str(tmp_path / "out"), [["a"], ["nan"]])
    v = check.check_run("w", 0, str(tmp_path / "out"), str(tmp_path / "ref"))
    assert "decay/decay.csv row 1 a: nan" in v["problems"]
    assert "no reference CSVs for workload 'w'" in v["problems"]


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
