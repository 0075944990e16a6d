"""biharmlab benchmark: run one workload as fresh child processes, check
their outputs and print the metrics that BENCHMARK.json names.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Each workload is one `biharmlab` CLI invocation plus `--seed <seed>`, run
in a new `python` process with BLAS pinned to one thread.  A run repeats
the invocation the workload's number of times and until `--seconds` have
passed.  SETUP_PROBES import-only children (set-up probes) run in the gaps
before, between and after the invocations.  `--trace 1` adds one traced
invocation and reports the per-layer metrics instead of the end-to-end
ones.  Every line but the last is for people; the last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import check  # noqa: E402
import tracer  # noqa: E402

# name -> (CLI arguments, invocations per run, manifest checks a complete
# run makes).  The invocation counts trade run-to-run spread against the
# benchmark's total time budget (see README.md).
WORKLOADS = {
    "suite": (["suite"], 2, 21),
    "offdiag-n2048": (["offdiag", "--n", "2048", "--R", "80"], 1, 2),
}

# set-up probes per run; single probes vary by about 25% (see README.md)
SETUP_PROBES = 15
# largest gap allowed between the traced child's own wall time and the
# duration of its root span
ROOT_SPAN_TOL_S = 1e-3
CHILD_TIMEOUT_S = 160.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


def spawn(run_dir: str, cli_argv=(), spans: bool = False) -> dict:
    """Start one child, wait for it and return its measurements.

    Peak memory comes from this child's own rusage (os.wait4), not from
    RUSAGE_CHILDREN, which keeps the maximum over every child so far.
    """
    os.makedirs(run_dir)
    result_path = os.path.join(run_dir, "result.json")
    spans_path = os.path.join(run_dir, "spans.json")
    cmd = [sys.executable, CHILD, result_path]
    if spans:
        cmd += ["--spans", spans_path]
    if cli_argv:
        cmd += ["--", *cli_argv, "--out", os.path.join(run_dir, "out")]
    with open(os.path.join(run_dir, "log.txt"), "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - started > CHILD_TIMEOUT_S and not killed:
                proc.kill()
                killed = True
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0,
           "setup_s": None, "wall_s": None, "problems": []}
    if killed:
        out["problems"].append(f"killed after {CHILD_TIMEOUT_S:g} s")
    try:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        out["problems"].append("child wrote no result")
        return out
    out["setup_s"] = res["imported"] - started
    out["wall_s"] = res["wall_s"]
    out["versions"] = res.get("versions")
    if not os.path.realpath(res["package"]).startswith(
            os.path.realpath(SRC) + os.sep):
        out["problems"].append(f"imported biharmlab from {res['package']}")
    if spans and os.path.isfile(spans_path):
        with open(spans_path, encoding="utf-8") as fh:
            out["spans"] = json.load(fh)
    return out


def invoke(workload: str, seed: int, run_dir: str, spans: bool = False):
    argv, _, expected_checks = WORKLOADS[workload]
    r = spawn(run_dir, [*argv, "--seed", str(seed)], spans=spans)
    verdict = check.check_run(workload, r["rc"], os.path.join(run_dir, "out"),
                              expected_checks=expected_checks)
    r["problems"] += verdict["problems"]
    r["checks"] = verdict["checks"]
    # a run that failed its output check counts every check as failed
    r["failed_checks"] = (r["checks"] if r["problems"]
                          else verdict["failed_checks"])
    return r


def median(values) -> float:
    """Median of the samples that were measured (0.0 if none were)."""
    vals = [v for v in values if v is not None]
    return statistics.median(vals) if vals else 0.0


def summary(values) -> str:
    vals = sorted(v for v in values if v is not None)
    if not vals:
        return "no samples"
    return (f"median {statistics.median(vals):.6g}, max {vals[-1]:.6g}, "
            f"n={len(vals)}")


def environment(probe: dict, loadavg) -> list:
    versions = probe.get("versions") or {}
    return [f"python {platform.python_version()}",
            f"numpy {versions.get('numpy')}",
            f"scipy {versions.get('scipy')}",
            f"blas {versions.get('blas')}", f"nproc {os.cpu_count()}",
            "loadavg at start " + " ".join(f"{x:.2f}" for x in loadavg),
            "env " + " ".join(f"{k}={v}" for k, v in sorted(BLAS_ENV.items()))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "biharmlab", "cli.py")):
        print(f"biharmlab sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_root = os.path.join(WORK, f"{args.workload}-seed{args.seed}-"
                                  f"trace{args.trace}")
    shutil.rmtree(run_root, ignore_errors=True)

    def probe():
        probes.append(spawn(os.path.join(run_root, f"probe{len(probes)}")))

    loadavg = os.getloadavg()
    probes, runs = [], []
    repeats = WORKLOADS[args.workload][1]
    # spread the probes over the run, so that they sample its slow and
    # fast phases alike
    per_gap = -(-SETUP_PROBES // (repeats + 1))
    started = time.monotonic()
    while len(runs) < repeats or time.monotonic() - started < args.seconds:
        for _ in range(per_gap):
            probe()
        runs.append(invoke(args.workload, args.seed,
                           os.path.join(run_root, f"run{len(runs)}")))
    while len(probes) < SETUP_PROBES:
        probe()
    for line in environment(probes[0], loadavg):
        print(line)
    traced = None
    if args.trace:
        traced = invoke(args.workload, args.seed,
                        os.path.join(run_root, "traced"), spans=True)

    for i, r in enumerate(runs + ([traced] if traced else [])):
        tag = "traced" if r is traced else f"run{i}"
        print(f"{tag}: rc={r['rc']} wall_s={r['wall_s']} "
              f"rss_mb={r['rss_mb']:.1f} checks={r['checks']} "
              f"failed_checks={r['failed_checks']}")
        for p in r["problems"]:
            print(f"{tag}: output check: {p}")

    problems = [p for r in probes for p in r["problems"]]
    problems += [f"probe exit code {r['rc']}" for r in probes if r["rc"]]
    walls = [r["wall_s"] for r in runs]
    setups = [r["setup_s"] for r in probes + runs]
    rss = [r["rss_mb"] for r in runs]
    checks = sum(r["checks"] for r in runs)
    failed_checks = sum(r["failed_checks"] for r in runs)
    print(f"wall_s [s]: {summary(walls)}")
    print(f"setup_s [s]: {summary(setups)}")
    print(f"peak_rss_mb [MB]: {summary(rss)}")
    print(f"pass_ratio [ratio]: {checks - failed_checks}/{checks} = "
          f"{(checks - failed_checks) / checks:.6g}")
    print(f"fail_ratio [ratio]: {failed_checks}/{checks} = "
          f"{failed_checks / checks:.6g}")
    values = {"wall_s": median(walls), "setup_s": median(setups),
              "peak_rss_mb": median(rss),
              "pass_ratio": (checks - failed_checks) / checks}
    attempted = runs

    if args.trace:
        attempted = runs + [traced]
        spans = traced.get("spans")
        if not spans:
            problems.append("traced run wrote no spans")
            spans = []
        print(f"traced wall_s [s]: {traced['wall_s']}")
        problems += tracer.root_problems(spans, traced["wall_s"],
                                         ROOT_SPAN_TOL_S)
        values = tracer.layer_metrics(spans, values["wall_s"])

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']} [{m['unit']}]: {values[m['name']]:.6g}")
    for p in problems:
        print(f"problem: {p}")
    failed = sum(1 for r in attempted if r["problems"])
    print(json.dumps({"correct": not failed and not problems,
                      "attempted": len(attempted), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
