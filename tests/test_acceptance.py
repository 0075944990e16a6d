"""End-to-end acceptance suite: one test per quantitative claim, each
emitting a single pass/fail line in the terminal summary."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from biharmlab import (assemble_box, assemble_sector, boyd_lower,
                       build_box_grid, build_radial_grid, corner_norm,
                       davies_distance, forme_inequality_check,
                       lambda_optimizer_check, laplacian_decay_fit,
                       make_phi, paper_rellich_constant,
                       probe_functions, rellich_constant,
                       remark_ball_inequality, report, riesz_apply,
                       riesz_kernel, riesz_pnorm_sweep, twisted_decay_suite,
                       twisted_expansion_study)
from biharmlab.grids import TANH_HESS_MAX, weighted_lp
from biharmlab.norms import _lp_unit

from conftest import record


def test_criterion_01_rellich_constant():
    target = paper_rellich_constant(5)
    t0 = time.monotonic()
    g = build_radial_grid(5, 1000.0, 2000, "log")
    res = rellich_constant(g, ell_max=8)
    elapsed = time.monotonic() - t0
    rel = abs(res["min"] - target) / target
    g2 = build_radial_grid(5, 1000.0, 4000, "log")
    res2 = rellich_constant(g2, ell_max=0)
    rel2 = abs(res2["min"] - target) / target
    ok = rel <= 0.10 and rel2 < rel and elapsed <= 60.0
    record("criterion 1 (Rellich constant)", ok,
           f"min {res['min']:.6f} vs {target}, rel err {rel:.4f} "
           f"(tol 0.10), refined rel err {rel2:.4f}, {elapsed:.1f}s")
    assert rel2 < rel, "error must shrink under refinement"
    assert elapsed <= 60.0
    assert rel <= 0.10


def _suite_manifest(out, name: str, n: int, R: float, **sweep) -> dict:
    """The shared suite run's manifest of experiment `name`, once its
    config echo shows that it ran these inputs."""
    man = json.loads((out / name / "manifest.json").read_text())
    config = man["config"]
    assert (config["N"], config["c"], config["grid"]) == (
        5, 1.0, {"n": n, "R": R, "mode": "uniform"})
    for dest, values in sweep.items():
        assert config["sweep"][dest] == values
    return man


def test_criterion_02_coercivity_contraction(suite_run):
    # the suite's coercivity: mu_1 and ||e^{-tA}||_{2->2} at these t
    _, out = suite_run
    man = _suite_manifest(out, "coercivity", 512, 30.0,
                          t=list(np.geomspace(1e-3, 10.0, 12)))
    [mu_1] = [check["value"] for check in man["checks"]
              if check["name"] == "positive_definite"]
    _, rows = report.read_csv(str(out / "coercivity" / "contraction.csv"))
    positive = mu_1 > 0
    worst = max(float(row[1]) for row in rows)
    ok = positive and worst <= 1.0 + 1e-12
    record("criterion 2 (coercivity/contraction)", ok,
           f"mu_1 {mu_1:.4f} > 0, sup_t ||e^-tA||_2->2 = {worst:.12f}")
    assert positive
    assert worst <= 1.0 + 1e-12


def test_criterion_03_decay_exponents(suite_run):
    # the suite's decay fits, at c = 0 and 1 and q = inf and 10
    _, out = suite_run
    man = _suite_manifest(out, "decay", 512, 30.0,
                          t=list(np.geomspace(0.01, 0.1, 9)))
    _, rows = report.read_csv(str(out / "decay" / "decay.csv"))
    slopes = {tuple(map(float, row[:3])): float(row[3]) for row in rows}
    details = []
    ok = len(rows) == len(slopes) == 4
    for c in (0.0, 1.0):
        for q, tgt in ((math.inf, -0.625), (10.0, -0.5)):
            slope = slopes[c, 2.0, q]
            rel = abs(slope - tgt) / abs(tgt)
            ok = ok and rel <= 0.15
            details.append(f"c={c} q={q:g}: {slope:.4f} vs {tgt}")
    elapsed = man["wall_clock_s"]
    ok = ok and elapsed <= 300.0
    record("criterion 3 (decay exponents)", ok,
           "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok


def test_criterion_04_offdiag_exponents(suite_run):
    # the fits of the shared suite run, whose offdiag ran these inputs
    _, out = suite_run
    _suite_manifest(out, "offdiag", 1024, 40.0, d=[3.0, 5.0, 8.0, 12.0],
                    t=list(np.geomspace(1e-3, 1e-2, 8)))
    _, rows = report.read_csv(str(out / "offdiag" / "offdiag.csv"))
    distance = [float(row[2]) for row in rows if row[0] == "distance"]
    [time_exp] = [float(row[2]) for row in rows if row[0] == "time"]
    best = min(distance, key=lambda e: abs(e - 4.0 / 3.0))
    rel_d = abs(best - 4.0 / 3.0) / (4.0 / 3.0)
    rel_t = abs(time_exp - 1.0 / 3.0) / (1.0 / 3.0)
    ok = rel_d <= 0.15 and rel_t <= 0.15
    record("criterion 4 (off-diagonal exponents)", ok,
           f"distance exp {best:.4f} vs 4/3 (rel {rel_d:.3f}), "
           f"time exp {time_exp:.4f} vs 1/3 (rel {rel_t:.3f})")
    assert rel_d <= 0.15
    assert rel_t <= 0.15


def test_criterion_05_twisted_form_suite():
    # refinement order of the nine-term expansion identity
    _, orders = twisted_expansion_study(
        5, 1.0, make_phi(np.array([0.8, 0.6, 0, 0, 0]), 2.0, 0.2))
    order_ok = min(orders) >= 1.5

    # the form inequality on 200 sampled (u, lam <= 2, phi)
    g = build_box_grid(5, 8, 2.5)
    op = assemble_box(g, 1.0)
    rng = np.random.default_rng(11)
    samples = []
    for i in range(200):
        u = probe_functions(g, 1, seed=i)[0]
        u = u * (1.0 + 0.3j * rng.standard_normal(u.shape))
        lam_i = float(rng.uniform(0.05, 2.0))
        e = rng.standard_normal(5)
        e /= np.linalg.norm(e)
        phi = make_phi(e, float(rng.uniform(TANH_HESS_MAX, 4.0)),
                       float(rng.uniform(-1.0, 1.0)))
        samples.append((u, lam_i, phi))
    chk = forme_inequality_check(op, samples)
    ok = order_ok and chk["ok"]
    record("criterion 5 (twisted-form suite)", ok,
           f"expansion orders {orders[0]:.2f}/{orders[1]:.2f} (>= 1.5), "
           f"inequality 200/200 with k {chk['k']:.3e}, "
           f"empirical k {chk['k_empirical']:.3e}")
    assert order_ok
    assert chk["ok"] and len(chk["rows"]) == 200


def test_criterion_06_twisted_semigroup_bounds():
    g = build_radial_grid(5, 20.0, 256)
    op = assemble_sector(g, 0, 1.0)
    phis = [make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=g),
            make_phi(np.zeros(5), 3.0, b=-10.0, kind="radial", grid=g)]
    ts = list(np.geomspace(0.05, 0.5, 6))
    res = twisted_decay_suite(op, [0.5, 1.0, 2.0], phis, ts,
                              n_probes=10, seed=3)
    g0 = build_radial_grid(5, 30.0, 512)
    op0 = assemble_sector(g0, 0, 0.0)
    fit = laplacian_decay_fit(op0, list(np.geomspace(0.01, 0.1, 9)))
    rel = abs(fit.exponent - (-0.5)) / 0.5
    bounds_ok = all(r["norm"] <= r["bound"] * (1.0 + 1e-12)
                    and r["lap_norm"] <= r["lap_bound"] for r in res["rows"])
    ok = bounds_ok and rel <= 0.10
    record("criterion 6 (twisted semigroup bounds)", ok,
           f"all bounds hold, empirical k_h {res['k_h']:.3f}, "
           f"||Le^-tA|| slope {fit.exponent:.4f} vs -0.5 (rel {rel:.4f})")
    assert bounds_ok
    assert rel <= 0.10


def test_criterion_07_riesz_transform():
    ops = {n: assemble_sector(build_radial_grid(5, 30.0, n), 0, 1.0)
           for n in (512, 1024)}
    op = ops[512]
    u = np.random.default_rng(0).standard_normal(512)
    rs = riesz_apply(op, u, "spectral")
    rq = riesz_apply(op, u, "quadrature")
    route_rel = float(np.linalg.norm(rs - rq) / np.linalg.norm(rs))

    kern = riesz_kernel(op)
    n22 = corner_norm(kern, 2.0, 2.0)
    from biharmlab import eta_h
    bound = eta_h(op) ** -0.5
    l2_ok = n22 <= bound + 1e-8

    g0 = build_radial_grid(5, 30.0, 512)
    op0 = assemble_sector(g0, 0, 0.0)
    n22_free = corner_norm(riesz_kernel(op0), 2.0, 2.0)
    free_ok = abs(n22_free - 1.0) <= 1e-8

    sweep, _ = riesz_pnorm_sweep(op, [1.3, 1.5, 1.8], refined_op=ops[1024])
    stable = all(sweep[p]["stability"] <= 0.25 for p in (1.3, 1.5, 1.8))
    ok = route_rel <= 1e-6 and l2_ok and free_ok and stable
    record("criterion 7 (Riesz transform)", ok,
           f"routes rel {route_rel:.2e}, ||R||_2 {n22:.6f} <= {bound:.6f}, "
           f"c=0 norm {n22_free:.10f}, p-sweep stable {stable}")
    assert route_rel <= 1e-6
    assert l2_ok and free_ok and stable


def test_criterion_08_davies_distance():
    rng = np.random.default_rng(8)
    in_bracket = 0
    remark_ok = 0
    for i in range(50):
        r = float(rng.uniform(0.3, 1.5))
        x = rng.uniform(-5.0, 5.0, 5)
        e = rng.standard_normal(5)
        e /= np.linalg.norm(e)
        sep = 2.0 * r + float(rng.uniform(0.5, 8.0))
        y = x + sep * e
        est = davies_distance(x, r, y, r)
        d_e = est.d_e
        if 0.95 * d_e <= est.d_lb <= math.sqrt(5) * d_e + 1e-9:
            in_bracket += 1
        if remark_ball_inequality(x, y, r)["ok"]:
            remark_ok += 1
    ok = in_bracket == 50 and remark_ok == 50
    record("criterion 8 (Davies distance)", ok,
           f"{in_bracket}/50 in [0.95 d_e, sqrt(5) d_e], "
           f"{remark_ok}/50 satisfy the two-ball inequality")
    assert ok


def test_criterion_09_lambda_optimizer():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        res = lambda_optimizer_check(float(rng.uniform(0.05, 10.0)),
                                     float(rng.uniform(0.05, 20.0)),
                                     complex(rng.uniform(0.1, 10.0),
                                             rng.uniform(-5.0, 5.0)))
        worst = max(worst, res["rel_err_lam"], res["rel_err_value"])
    ok = worst <= 1e-6
    record("criterion 9 (lambda optimizer)", ok,
           f"worst relative error over 100 instances {worst:.2e}")
    assert ok


def _oracle(kern, pairs, seed):
    """Brute-force lower estimates, one per (p, q) in `pairs`: a strictly
    larger witness search than the one behind the reported brackets, plus
    random p-sphere sampling."""
    best = np.zeros(len(pairs))
    for s in (seed, seed + 13):
        best = np.maximum(best, [v for v, _ in boyd_lower(
            kern, pairs, restarts=40, seed=s)])
    # 2000 random points of the unit p-sphere, as the columns of one block
    rng = np.random.default_rng(seed + 101)
    X = rng.standard_normal((2000, kern.K.shape[0])).T
    for j, (p, q) in enumerate(pairs):
        Xn = _lp_unit(X, kern.w, p)
        values = weighted_lp(kern.K @ (kern.w[:, None] * Xn), kern.w, q)
        best[j] = max(best[j], float(values.max()))
    return best


def test_criterion_10_norm_bracket_soundness(criterion_10_blocks):
    violations = 0
    for kern, pairs, seed, brackets in criterion_10_blocks:
        for est, orc in zip(brackets, _oracle(kern, pairs, seed=seed)):
            if not (est.lower * (1.0 - 1e-6) - 1e-12 <= orc
                    <= est.upper * (1.0 + 1e-12)):
                violations += 1
    ok = violations == 0
    record("criterion 10 (norm-bracket soundness)", ok,
           f"{300 - violations}/300 oracle values inside "
           "[lower - 1e-6, upper]")
    assert ok


def test_criterion_11_determinism(tmp_path, suite_run):
    def start(out, threads):
        env = {"OMP_NUM_THREADS": str(threads),
               "OPENBLAS_NUM_THREADS": str(threads),
               "PATH": "/usr/bin:/bin",
               "PYTHONPATH": os.environ.get("PYTHONPATH", "")}
        return subprocess.Popen(
            [sys.executable, "-m", "biharmlab.cli", "suite", "--seed", "7",
             "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)

    # the shared run at one BLAS thread, then a rerun at one and a run at 8
    # side by side
    outs = [suite_run[1], tmp_path / "b", tmp_path / "c"]
    for proc in [start(out, threads)
                 for out, threads in zip(outs[1:], (1, 8))]:
        proc.wait()
    identical = True
    csvs = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.csv"))
    assert csvs, "suite produced no CSV output"
    for rel in csvs:
        ref = (outs[0] / rel).read_bytes()
        for other in outs[1:]:
            if (other / rel).read_bytes() != ref:
                identical = False
    record("criterion 11 (determinism)", identical,
           f"{len(csvs)} CSVs bit-identical across reruns and 1 vs 8 threads")
    assert identical
