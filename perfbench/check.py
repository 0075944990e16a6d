"""Output check of one biharmlab CLI run.

A run passes when
  - its exit code is 0 (all checks pass) or 1 (a check failed);
  - every CSV that a manifest lists exists, parses and holds only finite
    numbers;
  - every CSV stored under the workload's reference directory matches the
    run's CSV of the same path: same header, same row count, and each cell
    equal as text or, for numbers, within the tolerance below.  A
    reference cell `*` marks a value that depends on the seed; it must be
    a finite number.  A non-finite number (such as `inf` for q = infinity)
    is accepted only where the reference holds the same token.

The manifest checks of a run (the scientific verdicts) are counted, not
judged: a failing verdict is a result, a failing output check is not.  A
run that makes fewer checks than the workload's expected count has each
missing one counted as failed, so dropping a verdict cannot raise the
pass ratio.
"""

from __future__ import annotations

import csv
import json
import math
import os

# |a - b| <= RTOL * max(|a|, |b|) + ATOL, per reference file.  Every file is
# byte-identical across reruns at one BLAS thread except rellich.csv, whose
# shift-invert eigsh starts from ARPACK's random vector (see README.md for
# the measured jitter behind these values).
RTOL = 1e-10
ATOL = 1e-12
RTOL_FILE = {
    ("suite", "rellich/rellich.csv"): 5e-8,
}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def read_table(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty file")
    width = len(rows[0])
    for i, row in enumerate(rows[1:], 2):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} cells, header {width}")
    return rows[0], rows[1:]


def compare_table(got, ref, rtol: float) -> list:
    """Problems found comparing a run's table with its reference table."""
    (ghead, grows), (rhead, rrows) = got, ref
    if ghead != rhead:
        return [f"header {ghead} != reference {rhead}"]
    if len(grows) != len(rrows):
        return [f"{len(grows)} rows != reference {len(rrows)}"]
    problems = []
    for i, (grow, rrow) in enumerate(zip(grows, rrows), 1):
        for col, g, r in zip(ghead, grow, rrow):
            gv, rv = _number(g), _number(r)
            if r == "*":
                ok = gv is not None and math.isfinite(gv)
            elif gv is not None and rv is not None and math.isfinite(rv):
                ok = (math.isfinite(gv) and
                      abs(gv - rv) <= rtol * max(abs(gv), abs(rv)) + ATOL)
            else:
                ok = g == r
            if not ok:
                problems.append(f"row {i} {col}: {g} vs reference {r}")
    return problems


def check_run(workload: str, rc, out_dir: str,
              reference_dir: str = REFERENCE_DIR,
              expected_checks: int = 0) -> dict:
    """Output check of one run; returns its verdict counts and problems."""
    problems = []
    if rc not in (0, 1):
        problems.append(f"exit code {rc}")
    checks = failed = 0
    tables = {}
    for exp in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        man_path = os.path.join(out_dir, exp, "manifest.json")
        if not os.path.isfile(man_path):
            continue
        with open(man_path, encoding="utf-8") as fh:
            man = json.load(fh)
        checks += len(man["checks"])
        failed += sum(1 for c in man["checks"] if not c["pass"])
        for path in man["files"]:
            rel = f"{exp}/{os.path.basename(path)}"
            try:
                tables[rel] = read_table(os.path.join(out_dir, exp,
                                                      os.path.basename(path)))
            except (OSError, ValueError) as exc:
                problems.append(f"{rel}: {exc}")
    ref_root = os.path.join(reference_dir, workload)
    refs = sorted(f"{exp}/{name}"
                  for exp in (os.listdir(ref_root)
                              if os.path.isdir(ref_root) else ())
                  for name in os.listdir(os.path.join(ref_root, exp)))
    if not refs:
        problems.append(f"no reference CSVs for workload {workload!r}")
    for rel in refs:
        if rel not in tables:
            problems.append(f"{rel}: missing from the run")
            continue
        ref = read_table(os.path.join(ref_root, rel))
        rtol = RTOL_FILE.get((workload, rel), RTOL)
        problems += [f"{rel}: {p}" for p in compare_table(tables[rel], ref,
                                                          rtol)]
    for rel, (head, rows) in sorted(tables.items()):
        if rel in refs:
            continue
        for i, row in enumerate(rows, 1):
            for col, cell in zip(head, row):
                v = _number(cell)
                if v is not None and not math.isfinite(v):
                    problems.append(f"{rel} row {i} {col}: {cell}")
    missing = max(expected_checks - checks, 0)
    return {"checks": checks + missing, "failed_checks": failed + missing,
            "problems": problems}
