"""Command-line driver: reproducible experiment runs with CSV artifacts,
a JSON run manifest, and optional SVG plots.

Each experiment in `EXPERIMENTS` has a subcommand of its name; `suite`
runs them all, in table order, each writing its tables and manifest under
`<out>/<name>` through a `report.RunManifest`.  A report-only run (c >=
C* with --allow-supercritical) records no checks.  Exit codes: 0 all
recorded checks pass, 1 a check failed, 2 configuration error, or an
experiment stopped by an error (a grid, operator, spectral or arithmetic
error, such as an indefinite operator or an overflow); that experiment's
manifest records the error, and `suite` still runs the experiments after
it.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys

import numpy as np

from . import report
from .estimates import (davies_distance, decay_fit, laplacian_decay_fit,
                        lambda_optimizer_check, offdiag_fit, rellich_constant,
                        remark_ball_inequality, riesz_pnorm_sweep,
                        solve_parabolic, twisted_decay_suite)
from .grids import (GridError, Region, build_box_grid, build_radial_grid,
                    make_phi, probe_functions)
from .norms import corner_norm, pin_blas_threads
from .operators import (TWISTED_PLANES, OperatorError, assemble_box,
                        assemble_sector, paper_rellich_constant,
                        twisted_form_terms)
from .spectral import SemigroupEvaluator, SpectralError, riesz_apply

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


def _grid_mode(text: str) -> str:
    if text not in ("uniform", "log"):
        raise argparse.ArgumentTypeError(
            f"mode must be 'uniform' or 'log' (got {text!r})")
    return text


def _float_list(text: str) -> list:
    """A comma list of one or more finite floats, each kept once in
    first-seen order; empty items are skipped."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values or not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(
            f"need one or more finite values (got {text!r})")
    return list(dict.fromkeys(values))


# Every experiment option, once: command-line flag, config key, type,
# default, help.  The name after the config section is the argparse dest;
# a bool option is a switch that is off unless given.
OPTIONS = (
    ("--N", "run.N", int, 5, "space dimension, N >= 5"),
    ("--c", "run.c", float, 1.0, "coupling constant c"),
    ("--seed", "run.seed", int, 0, "random seed"),
    ("--out", "run.out", str, "out", "output directory"),
    ("--allow-supercritical", "run.allow_supercritical", bool, False,
     "allow c >= C* for exploratory (report-only) runs"),
    ("--n", "grid.n", int, None, "radial node count"),
    ("--R", "grid.R", float, None, "outer radius"),
    ("--mode", "grid.mode", _grid_mode, None, "radial spacing: uniform or log"),
    ("--t", "sweep.t", _float_list, None, "comma list of times"),
    ("--p", "sweep.p", _float_list, None,
     "comma list of p values (one for solve)"),
    ("--d", "sweep.d", _float_list, None, "comma list of distances"),
    ("--lam", "sweep.lam", _float_list, None, "comma list of lambda values"),
    ("--ell-max", "sweep.ell_max", int, 8, "largest angular index ell"),
)


def read_config(path: str) -> dict:
    """Typed option values (dest -> value) from a line-oriented
    `key = value` file with [section] headers; an unknown section or key,
    or a value its option cannot parse, is a hard error."""
    types = {key: typ for _, key, typ, _, _ in OPTIONS}
    sections = {key.split(".")[0] for key in types}
    values = {}
    section = "run"
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in sections:
                    raise ConfigError(f"{where}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"{where}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            typ = types.get(f"{section}.{key}")
            if typ is None:
                raise ConfigError(f"{where}: unknown key {key!r} in "
                                  f"[{section}]")
            try:
                if typ is bool and val.lower() not in ("true", "false"):
                    raise ValueError("expected true or false")
                values[key] = val.lower() == "true" if typ is bool else typ(val)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"{where}: bad value {val!r} for "
                                  f"{section}.{key}: {exc}") from None
    return values


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """Argument parser; `defaults` (dest -> value) replace the built-in
    defaults of the experiment options, so explicit flags still win."""
    defaults = defaults or {}
    ap = argparse.ArgumentParser(
        prog="biharmlab",
        description="numerical laboratory for Delta^2 - c|x|^-4 on R^N")
    sub = ap.add_subparsers(dest="cmd", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="key = value config file")
    for flag, key, typ, default, help_text in OPTIONS:
        dest = key.split(".")[1]
        default = defaults.get(dest, default)
        if typ is bool:
            common.add_argument(flag, dest=dest, action="store_true",
                                default=default, help=help_text)
        else:
            common.add_argument(flag, dest=dest, type=typ, default=default,
                                help=help_text)
    for name in (*EXPERIMENTS, "suite"):
        sub.add_parser(name, parents=[common])
    pp = sub.add_parser("plot")
    pp.add_argument("csv")
    pp.add_argument("--x", required=True, help="x column name")
    pp.add_argument("--y", required=True, help="y column name(s), comma list")
    pp.add_argument("--logx", action="store_true")
    pp.add_argument("--logy", action="store_true")
    pp.add_argument("--guide", default=None,
                    help="comma list of reference slopes")
    pp.add_argument("--out", default=None, help="output SVG path")
    return ap


def validate(args) -> bool:
    """Reject a bad run configuration; returns whether the run is
    report-only (c >= C*, admitted by --allow-supercritical)."""
    if args.N < 5:
        raise ConfigError("N >= 5 required")
    if args.ell_max < 0:
        raise ConfigError(f"--ell-max >= 0 required (got {args.ell_max})")
    if args.seed < 0:
        raise ConfigError(f"--seed >= 0 required (got {args.seed})")
    for flag, value in (("--c", args.c), ("--R", args.R)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite (got {value})")
    cstar = paper_rellich_constant(args.N)
    report_only = args.c >= cstar
    if report_only and not args.allow_supercritical:
        raise ConfigError(
            f"c = {args.c} >= C* = {cstar}; pass --allow-supercritical "
            "for exploratory (report-only) runs")
    return report_only


def _radial_grid(args, man: report.RunManifest, n: int, R: float = 30.0,
                 mode: str = "uniform"):
    """The experiment's radial grid: `--n/--R/--mode` override the given
    defaults, and the manifest records the grid's hash."""
    grid = build_radial_grid(args.N, R if args.R is None else args.R,
                             n if args.n is None else args.n,
                             args.mode or mode)
    man.add_hash("grid", grid.content_hash())
    return grid


def run_coercivity(args, man: report.RunManifest) -> None:
    """Positivity of A and 2->2 contractivity of its semigroup."""
    grid = _radial_grid(args, man, 512)
    op = assemble_sector(grid, 0, args.c)
    ts = args.t or list(np.geomspace(1e-3, 10.0, 12))
    ev = SemigroupEvaluator(op)
    norms = [corner_norm(ev.kernel(t), 2.0, 2.0) for t in ts]
    man.table("contraction.csv", ("t", "norm_2_2"), list(zip(ts, norms)))
    mu_1 = op.decomposition.mu[0]
    man.add_check("positive_definite", mu_1, ">", 0.0,
                  f"mu_1 = {report.fmt(mu_1)}")
    gram = op.decomposition.gram_norm
    man.add_check("semigroup_contractive", np.max(norms), "<=", 1.0 + 1e-12,
                  f"gram_norm - 1 = {report.fmt(gram - 1.0)}")


def run_rellich(args, man: report.RunManifest) -> None:
    grid = _radial_grid(args, man, 2000, R=1e3, mode="log")
    res = rellich_constant(grid, ell_max=args.ell_max)
    target = res["target"]
    rows = [(ell, val, target) for ell, val in res["per_sector"].items()]
    man.table("rellich.csv", ("ell", "constant", "target"), rows)
    rel = abs(res["min"] - target) / target
    man.add_check("rellich_within_10pct", rel, "<=", 0.10,
                  f"C*_h = {report.fmt(res['min'])}, target "
                  f"{report.fmt(target)}, rel err {report.fmt(rel)}")
    man.add_check("rellich_min_at_ell0", res["argmin_ell"], "<=", 0,
                  f"argmin ell = {res['argmin_ell']}")


def run_decay(args, man: report.RunManifest) -> None:
    grid = _radial_grid(args, man, 512)
    ts = args.t or list(np.geomspace(0.01, 0.1, 9))
    rows = []
    curve_rows = []
    for c in dict.fromkeys((0.0, args.c)):      # distinct, in order
        op = assemble_sector(grid, 0, c)
        ev = SemigroupEvaluator(op)
        for q in (math.inf, 10.0):
            fit = decay_fit(ev, 2.0, q, ts)
            rows.append((c, 2.0, q, fit.exponent, fit.target, fit.residual))
            for tv, nv in zip(fit.params["t_values"], fit.params["norm_values"]):
                curve_rows.append((c, q, tv, nv))
            man.add_check(f"decay_slope_c{c}_q{q}", fit.relative_error(),
                          "<=", 0.15, f"slope {report.fmt(fit.exponent)} "
                          f"target {report.fmt(fit.target)}")
    man.table("decay.csv", ("c", "p", "q", "slope", "target", "residual"), rows)
    man.table("decay_curve.csv", ("c", "q", "t", "norm_upper"), curve_rows)


def run_offdiag(args, man: report.RunManifest) -> None:
    grid = _radial_grid(args, man, 1024, R=40.0)
    op = assemble_sector(grid, 0, args.c)
    ev = SemigroupEvaluator(op)
    ds = args.d or [3.0, 5.0, 8.0, 12.0]
    ts = args.t or list(np.geomspace(1e-3, 1e-2, 8))
    E = Region.annulus(0.0, 1.0)
    Fs = [Region.annulus(d, math.inf) for d in ds]
    res = offdiag_fit(ev, E, Fs, ts)
    man.runtime.update(res["runtime"])
    rows = []
    for fit in res["distance_fits"]:
        rows.append(("distance", fit.params["t"], fit.exponent, fit.target,
                     fit.residual))
    tf = res["time_fit"]
    if tf is not None:
        rows.append(("time", tf.params["d"], tf.exponent, tf.target,
                     tf.residual))
    jf = res["joint_fit"]
    if jf is not None:
        rows.append(("joint_c1_c2", 0.0, jf.params["c1"], jf.params["c2"],
                     jf.residual))
    man.table("offdiag.csv", ("fit", "fixed", "value", "target", "residual"),
              rows)
    best = min((e for e in (f.relative_error() for f in res["distance_fits"])
                if math.isfinite(e)), default=math.inf)
    man.add_check("offdiag_distance_exponent", best, "<=", 0.15,
                  "best distance-exponent fit vs 4/3")
    man.add_check("offdiag_time_exponent",
                  math.nan if tf is None else tf.relative_error(), "<=", 0.15,
                  "time-exponent fit vs 1/3")


def run_riesz(args, man: report.RunManifest) -> None:
    grid = _radial_grid(args, man, 512)
    op = assemble_sector(grid, 0, args.c)
    grid2 = build_radial_grid(grid.N, grid.R, 2 * grid.n, grid.mode)
    man.add_hash("grid_refined", grid2.content_hash())
    ps = args.p or [1.3, 1.5, 1.8]
    # the sweep decomposes the refined operator before op, and nothing
    # holds it after the sweep; the route check reuses op's decomposition
    sweep = riesz_pnorm_sweep(op, ps,
                              refined_op=assemble_sector(grid2, 0, args.c))
    rng = np.random.default_rng(args.seed)
    u = rng.standard_normal(grid.n)
    rs = riesz_apply(op, u, "spectral")
    rq = riesz_apply(op, u, "quadrature")
    route_rel = float(np.linalg.norm(rs - rq) / np.linalg.norm(rs))
    rows = [("route_rel_err", route_rel, "", "")]
    for p, entry in sorted(sweep.items()):
        est = entry["estimate"]
        rows.append((f"p={p}", est.lower, est.upper,
                     entry.get("stability", "")))
    man.table("riesz.csv", ("quantity", "lower", "upper", "stability"), rows)
    man.add_check("riesz_routes_agree", route_rel, "<=", 1e-6,
                  f"rel err {report.fmt(route_rel)}")
    n22, eta_bound = sweep[2.0]["estimate"].upper, sweep[2.0]["eta_bound"]
    man.add_check("riesz_l2_bound", n22, "<=", eta_bound + 1e-8,
                  f"||R||_2 = {report.fmt(n22)} vs "
                  f"eta_h^-1/2 = {report.fmt(eta_bound)}")
    for p in ps:
        man.add_check(f"riesz_stability_p{p}", sweep[p]["stability"], "<=",
                      0.25, f"change {report.fmt(sweep[p]['stability'])}")


BOX_LADDER = (8, 12, 16)       # per-axis counts of the twisted box study
BOX_BUDGET_BYTES = 1 << 30     # memory the study may take on its largest box


def box_study_bytes(N: int, m: int) -> int:
    """Bytes the box study holds on an m^N box at its peak: the complex
    probe u with its real Gaussian factor while u is built, then u with
    the planes twisted_form_terms holds."""
    plane = m ** (N - 1)
    return max(24 * m * plane, 16 * (m + TWISTED_PLANES) * plane)


def run_twisted(args, man: report.RunManifest) -> None:
    # box refinement study of the twisted-form expansion
    need = box_study_bytes(args.N, BOX_LADDER[-1])
    if need > BOX_BUDGET_BYTES:
        raise GridError(
            f"the m = {BOX_LADDER[-1]} box at N = {args.N} needs about "
            f"{need >> 20} MiB, over the box budget of "
            f"{BOX_BUDGET_BYTES >> 20} MiB")
    e = np.zeros(args.N)
    e[0], e[1] = 0.8, 0.6
    phi_box = make_phi(e, 1.0, 0.2)
    lam = 0.7
    discs, hs = [], []
    for m in BOX_LADDER:
        box = build_box_grid(args.N, m, 2.5)
        opb = assemble_box(box, args.c)
        # u = e^{-|x|^2} (1 + 0.3i x_0), the x_0 factor broadcast per plane
        gauss = box.radii_sq()
        np.exp(np.negative(gauss, out=gauss), out=gauss)
        u = (gauss.reshape(m, -1) * (1.0 + 0.3j * box.axis)[:, None]).ravel()
        del gauss
        res = twisted_form_terms(opb, u, lam, phi_box)
        discs.append(res["discrepancy"])
        hs.append(box.h)
    orders = [math.log(discs[i] / discs[i + 1]) / math.log(hs[i] / hs[i + 1])
              for i in range(len(discs) - 1)]
    rows = list(zip(BOX_LADDER, hs, discs))
    man.table("twisted_expansion.csv", ("m", "h", "discrepancy"), rows)
    man.add_check("twisted_expansion_order", np.min(orders), ">=", 1.5,
                  f"orders {', '.join(map(report.fmt, orders))}")

    # sector twisted semigroup suite
    grid = _radial_grid(args, man, 256)
    op = assemble_sector(grid, 0, args.c)
    lams = args.lam or [0.5, 1.0, 2.0]
    R = grid.R
    phis = [make_phi(np.zeros(args.N), 1.0, -R / 3.0, kind="radial", grid=grid),
            make_phi(np.zeros(args.N), 2.0, -R / 2.0, kind="radial", grid=grid)]
    ts = args.t or list(np.geomspace(0.05, 0.5, 6))
    rep = twisted_decay_suite(op, lams, phis, ts, seed=args.seed)
    rows = [(r["lam"], r["t"], r["norm"], r["bound"], r["lap_norm"],
             r["lap_bound"]) for r in rep["rows"]]
    man.table("twisted_semigroup.csv", ("lam", "t", "norm", "bound",
                                        "lap_norm", "lap_bound"), rows)
    # the largest ratio of a norm to its bound; a NaN propagates
    _, _, nrm, bound, lap, lap_bound = np.array(rows).T
    worst = np.max(np.maximum(nrm / (bound * (1.0 + 1e-12)), lap / lap_bound))
    man.add_check("twisted_semigroup_bounds", worst, "<=", 1.0,
                  f"k_h {report.fmt(rep['k_h'])} "
                  f"M-hat {report.fmt(rep['m_hat'])}")
    # t^{-1/2} fit at c=0
    op0 = assemble_sector(grid, 0, 0.0)
    fit = laplacian_decay_fit(op0, ts)
    man.add_check("laplacian_decay_half", fit.relative_error(), "<=", 0.10,
                  f"slope {report.fmt(fit.exponent)}")


def run_distance(args, man: report.RunManifest) -> None:
    rng = np.random.default_rng(args.seed)
    count = 50
    rows = []
    bad = 0
    for i in range(count):
        c1 = rng.uniform(-5, 5, args.N)
        c2 = rng.uniform(-5, 5, args.N)
        r1, r2 = rng.uniform(0.2, 1.5, 2)
        sep = np.linalg.norm(c1 - c2)
        if sep <= r1 + r2 + 0.1:
            gap = r1 + r2 + rng.uniform(0.5, 3.0)
            direction = (c2 - c1 + 1e-9) / max(np.linalg.norm(c2 - c1), 1e-9)
            c2 = c1 + direction * gap
        E = Region.ball(c1, r1)
        F = Region.ball(c2, r2)
        est = davies_distance(E, F, args.N)
        # DistanceEstimate enforces the sqrt(N) d_e side
        ok = 0.95 * est.d_e <= est.d_lb
        rem = remark_ball_inequality(c1, c2, min(r1, r2))
        bad += not (ok and rem["ok"])
        rows.append((i, est.d_e, est.d_lb, est.bracket[1], ok, rem["ok"]))
    man.table("distance.csv", ("pair", "d_e", "d_lb", "bracket_top",
                               "in_bracket", "remark_ok"), rows)
    man.add_check("davies_distance_bracket", bad, "<=", 0,
                  f"{count} random pairs")
    res = lambda_optimizer_check(0.25, 1.0, 1.0)
    man.add_check("lambda_optimizer", res["rel_err_lam"], "<=", 1e-6,
                  f"rel err {report.fmt(res['rel_err_lam'])}")


def run_solve(args, man: report.RunManifest) -> None:
    if args.p and len(args.p) > 1:
        raise ConfigError("solve takes one --p value (got "
                          f"{', '.join(map(report.fmt, args.p))})")
    grid = _radial_grid(args, man, 256)
    op = assemble_sector(grid, 0, args.c)
    f = probe_functions(grid, 1, seed=args.seed)[0]
    ts = args.t or list(np.geomspace(0.01, 1.0, 10))
    p = args.p[0] if args.p else 1.5
    traj = solve_parabolic(op, f, ts, p)
    rows = [(r["t"], r["norm_p"], r["seminorm_p"]) for r in traj["rows"]]
    man.table("solve.csv", ("t", "norm_p", "seminorm_p"), rows)
    bad = sum(not math.isfinite(r["seminorm_p"]) for r in traj["rows"])
    man.add_check("solution_seminorm_finite", bad, "<=", 0, f"p = {p}")


# Every experiment, once, in suite order: each has a subcommand of its
# name and writes its files under `<out>/<name>`.  offdiag and distance,
# whose fits import scipy's optimiser stack (about 16.5 MB resident that
# is never released), run after riesz, twisted and solve, so that stack
# is not held under the peaks of riesz's and twisted's largest arrays.
EXPERIMENTS = {
    "coercivity": run_coercivity,
    "rellich": run_rellich,
    "decay": run_decay,
    "riesz": run_riesz,
    "twisted": run_twisted,
    "solve": run_solve,
    "offdiag": run_offdiag,
    "distance": run_distance,
}


def run_plot(args) -> int:
    try:
        header, rows = report.read_csv(args.csv)
    except (OSError, ValueError) as exc:
        print(f"cannot read {args.csv}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    ycols = args.y.split(",")
    for name in (args.x, *ycols):
        if name not in header:
            print(f"column {name!r} missing from {args.csv}", file=sys.stderr)
            return EXIT_CONFIG
    xi = header.index(args.x)

    def col(rows, i):
        out = []
        for r in rows:
            try:
                out.append(float(r[i]))
            except ValueError:
                out.append(math.nan)
        return out

    xs = col(rows, xi)
    series = []
    for yc in ycols:
        ys = col(rows, header.index(yc))
        pts = [(x, y) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)]
        series.append((yc, [p[0] for p in pts], [p[1] for p in pts]))
    try:
        slopes = _float_list(args.guide) if args.guide else []
    except argparse.ArgumentTypeError as exc:
        print(f"bad --guide {args.guide!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    guides = [(s, f"slope {s:g}") for s in slopes]
    svg = report.svg_plot(series, xlabel=args.x, ylabel=",".join(ycols),
                          logx=args.logx, logy=args.logy, guides=guides,
                          title=os.path.basename(args.csv))
    out = args.out or os.path.splitext(args.csv)[0] + ".svg"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(out)
    return EXIT_OK


M_MMAP_THRESHOLD = -3          # glibc's mallopt parameter number


def _fix_mmap_threshold() -> None:
    """Serve every allocation of 4 MiB or more from its own mapping.
    glibc's default threshold rises as large blocks are freed, so the
    peak RSS would follow the heap's history (a 16 MiB step in the
    suite's peak).  Skipped where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 4 << 20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.cmd == "plot":
        return run_plot(args)
    try:
        if args.config is not None:
            args = build_parser(read_config(args.config)).parse_args(argv)
        report_only = validate(args)
    except (ConfigError, GridError, OperatorError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _fix_mmap_threshold()
    restore, pinned = pin_blas_threads()
    if not pinned:
        print("warning: BLAS threads are not pinned; CSVs may differ "
              "between thread counts", file=sys.stderr)
    try:
        manifests = []
        for name in EXPERIMENTS if args.cmd == "suite" else [args.cmd]:
            man = report.RunManifest({"experiment": name, "N": args.N,
                                      "c": args.c, "seed": args.seed},
                                     os.path.join(args.out, name), report_only)
            man.runtime["blas_pinned"] = pinned
            try:
                EXPERIMENTS[name](args, man)
            except (GridError, OperatorError, SpectralError, ValueError,
                    ArithmeticError) as exc:
                man.error = f"{type(exc).__name__}: {exc}"
            man.write()
            for check in man.checks:
                status = "PASS" if check["pass"] else "FAIL"
                print(f"[{status}] {name}:{check['name']} {check['detail']}")
            if man.error is not None:
                print(f"error in {name}: {man.error}", file=sys.stderr)
            manifests.append(man)
        if any(man.error is not None for man in manifests):
            return EXIT_CONFIG
        ok = all(man.all_pass for man in manifests)
        return EXIT_OK if ok else EXIT_ASSERT
    finally:
        restore()


if __name__ == "__main__":
    sys.exit(main())
