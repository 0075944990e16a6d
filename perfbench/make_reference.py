"""Write the reference CSVs of a workload from runs with several seeds.

    python3 perfbench/make_reference.py WORKLOAD SEED SEED [SEED ...]

Each seed runs the workload once.  A cell that differs between the seeds
by more than the file's tolerance in check.py depends on the seed and is
stored as `*`; every other cell keeps the first run's text.  Review the
`*` cells before committing: a cell that should not depend on the seed
must not become one.
"""

import os
import shutil
import sys

import check
import run


def main(argv) -> int:
    workload, seeds = argv[0], [int(s) for s in argv[1:]]
    if len(seeds) < 2:
        print("give at least two seeds", file=sys.stderr)
        return 2
    runs_dir = os.path.join(run.WORK, f"reference-{workload}")
    shutil.rmtree(runs_dir, ignore_errors=True)
    outs = []
    for seed in seeds:
        run_dir = os.path.join(runs_dir, f"seed{seed}")
        r = run.spawn(run_dir, [*run.WORKLOADS[workload][0], "--seed",
                                str(seed)])
        if r["rc"] not in (0, 1) or r["problems"]:
            print(f"seed {seed}: rc {r['rc']} {r['problems']}",
                  file=sys.stderr)
            return 1
        outs.append(os.path.join(run_dir, "out"))
    ref_root = os.path.join(check.REFERENCE_DIR, workload)
    shutil.rmtree(ref_root, ignore_errors=True)
    for exp in sorted(os.listdir(outs[0])):
        for name in sorted(os.listdir(os.path.join(outs[0], exp))):
            if not name.endswith(".csv"):
                continue
            rel = f"{exp}/{name}"
            rtol = check.RTOL_FILE.get((workload, rel), check.RTOL)
            head, rows = check.read_table(os.path.join(outs[0], rel))
            for other in outs[1:]:
                got = check.read_table(os.path.join(other, rel))
                for i, col, _ in list(_differences(got, (head, rows), rtol)):
                    rows[i][col] = "*"
            os.makedirs(os.path.join(ref_root, exp), exist_ok=True)
            with open(os.path.join(ref_root, rel), "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write("\n".join(",".join(r) for r in [head] + rows) + "\n")
            stars = sum(row.count("*") for row in rows)
            print(f"{rel}: {len(rows)} rows, {stars} seed-dependent cells")
    return 0


def _differences(got, ref, rtol):
    """(row, column, text) of each cell where `got` and `ref` disagree."""
    (ghead, grows), (rhead, rrows) = got, ref
    if ghead != rhead or len(grows) != len(rrows):
        raise SystemExit("runs with different seeds differ in shape")
    for i, (grow, rrow) in enumerate(zip(grows, rrows)):
        for j, (g, r) in enumerate(zip(grow, rrow)):
            if r != "*" and check.compare_table(([ghead[j]], [[g]]),
                                                ([ghead[j]], [[r]]), rtol):
                yield i, j, g


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
