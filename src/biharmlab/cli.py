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
import scipy

from . import __version__, report
from .estimates import (davies_distance, decay_fit, laplacian_decay_fit,
                        lambda_optimizer_check, offdiag_fit, rellich_constant,
                        remark_ball_inequality, riesz_pnorm_sweep,
                        solve_parabolic, twisted_decay_suite)
from .grids import GridError, build_radial_grid, make_phi, probe_functions
from .norms import blas_libraries, corner_norm, pin_blas_threads
from .operators import (OperatorError, assemble_sector, paper_rellich_constant,
                        twisted_expansion_study)
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
# run-wide default (None where each experiment that reads the option has
# its own, in EXPERIMENTS), help.  The name after the config section is
# the argparse dest; a bool option is a switch that is off unless given.
OPTIONS = (
    ("--N", "run.N", int, 5, "space dimension, N >= 5"),
    ("--c", "run.c", float, 1.0, "coupling constant c"),
    ("--seed", "run.seed", int, 0, "random seed"),
    ("--out", "run.out", str, "out", "output directory"),
    ("--allow-supercritical", "run.allow_supercritical", bool, False,
     "allow c >= C* for exploratory (report-only) runs"),
    ("--n", "grid.n", int, None, "radial node count"),
    ("--R", "grid.R", float, 30.0, "outer radius"),
    ("--mode", "grid.mode", _grid_mode, "uniform",
     "radial spacing: uniform or log"),
    ("--t", "sweep.t", _float_list, None, "comma list of times"),
    ("--p", "sweep.p", _float_list, None,
     "comma list of p values (one for solve)"),
    ("--d", "sweep.d", _float_list, None,
     "comma list of radii d of F = {|x| >= d}, fit in ascending order"),
    ("--lam", "sweep.lam", _float_list, None, "comma list of lambda values"),
    ("--ell-max", "sweep.ell_max", int, None, "largest angular index ell"),
)
# the options a manifest echoes, where its experiment has a default
SWEEP = {key.split(".")[1] for _, key, *_ in OPTIONS
         if key.startswith("sweep.")}
RUN_WIDE = {key.split(".")[1]: default for _, key, _, default, _ in OPTIONS}


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


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an argument it does not take with
    its own usage, which lists the options it does take; argparse would
    leave that to the top-level parser and its usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    """Argument parser; its namespace holds only the experiment options
    given on the command line, and `resolve` gives the others.  An
    experiment's subcommand takes the [run] options, the [grid] options if
    its entry in EXPERIMENTS gives n, and each [sweep] option its entry
    gives a default, each shown with the default that experiment uses;
    `suite` takes every option, with the run-wide defaults."""
    ap = argparse.ArgumentParser(
        prog="biharmlab",
        description="numerical laboratory for Delta^2 - c|x|^-4 on R^N")
    sub = ap.add_subparsers(dest="cmd", required=True,
                            parser_class=_Subcommand)
    owns = {name: run.defaults for name, run in EXPERIMENTS.items()}
    for name, own in {**owns, "suite": RUN_WIDE}.items():
        sp = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        sp.add_argument("--config", default=None,
                        help="key = value config file")
        for flag, key, typ, default, help_text in OPTIONS:
            section, dest = key.split(".")
            if section != "run" and (
                    "n" if section == "grid" else dest) not in own:
                continue
            default = own.get(dest, default)
            if default is not None:
                shown = ", ".join(map(report.fmt, np.atleast_1d(default)))
                help_text += f" (default {shown})"
            kind = {"action": "store_true"} if typ is bool else {"type": typ}
            sp.add_argument(flag, dest=dest, help=help_text, **kind)
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
    if args.ell_max is not None and args.ell_max < 0:
        raise ConfigError(f"--ell-max >= 0 required (got {args.ell_max})")
    if args.seed < 0:
        raise ConfigError(f"--seed >= 0 required (got {args.seed})")
    for flag, value in (("--c", args.c), ("--R", args.R)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite (got {value})")
    cstar = paper_rellich_constant(args.N)
    report_only = args.c >= cstar
    if report_only and not args.allow_supercritical:
        raise ConfigError(
            f"c = {args.c} >= C* = {cstar}; pass --allow-supercritical "
            "for exploratory (report-only) runs")
    return report_only


def resolve(name: str, flags: argparse.Namespace,
            config: dict) -> argparse.Namespace:
    """Experiment `name`'s option values: for each option, its flag if
    given, else its config-file value, else the experiment's default,
    else the run-wide default in OPTIONS (None if it has none)."""
    return argparse.Namespace(**{**RUN_WIDE, **EXPERIMENTS[name].defaults,
                                 **config, **vars(flags)})


def _radial_grid(args, man: report.RunManifest):
    """The experiment's radial grid, recorded in the manifest."""
    grid = build_radial_grid(args.N, args.R, args.n, args.mode)
    _record_grid(man, "grid", grid)
    return grid


def _record_grid(man: report.RunManifest, name: str, grid) -> None:
    """Record a radial grid the experiment built under `name`: its content
    hash, and its n, R and mode in the config."""
    man.hashes[name] = grid.content_hash()
    man.config[name] = {"n": grid.n, "R": grid.R, "mode": grid.mode}


def run_coercivity(args, man: report.RunManifest) -> None:
    """Positivity of A and 2->2 contractivity of its semigroup."""
    grid = _radial_grid(args, man)
    op = assemble_sector(grid, 0, args.c)
    ev = SemigroupEvaluator(op)
    norms = [corner_norm(ev.kernel(t), 2.0, 2.0) for t in args.t]
    man.table("contraction.csv", ("t", "norm_2_2"), list(zip(args.t, norms)))
    dec = op.decomposition
    man.add_check("positive_definite", dec.mu[0], ">", 0.0,
                  f"mu_1 = {report.fmt(dec.mu[0])}")
    man.numerics["orthonormality_residual"] = dec.orthonormality_residual()
    man.numerics["gram_norm"] = dec.gram_norm
    man.add_check("semigroup_contractive", np.max(norms), "<=", 1.0 + 1e-12,
                  f"gram_norm - 1 = {report.fmt(dec.gram_norm - 1.0)}")


def run_rellich(args, man: report.RunManifest) -> None:
    grid = _radial_grid(args, man)
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
    grid = _radial_grid(args, man)
    rows = []
    curve_rows = []
    kept = man.numerics["kept_modes"] = []
    for c in dict.fromkeys((0.0, args.c)):      # distinct, in order
        op = assemble_sector(grid, 0, c)
        for q in (math.inf, 10.0):
            fit = decay_fit(op, 2.0, q, args.t)
            rows.append((c, 2.0, q, fit.exponent, fit.target, fit.residual))
            for tv, nv in zip(fit.params["t_values"], fit.params["norm_values"]):
                curve_rows.append((c, q, tv, nv))
            man.add_check(f"decay_slope_c{c}_q{q}", fit.relative_error(),
                          "<=", 0.15, f"slope {report.fmt(fit.exponent)} "
                          f"target {report.fmt(fit.target)}")
        t = min(fit.params["t_values"])
        kept.append({"c": c, "t": t, "of": grid.n, "kept": int(
            np.count_nonzero(SemigroupEvaluator(op).values(t)))})
    man.table("decay.csv", ("c", "p", "q", "slope", "target", "residual"), rows)
    man.table("decay_curve.csv", ("c", "q", "t", "norm_upper"), curve_rows)


def run_offdiag(args, man: report.RunManifest) -> None:
    grid = _radial_grid(args, man)
    res = offdiag_fit(assemble_sector(grid, 0, args.c), args.d, args.t)
    man.runtime.update(res["runtime"])
    man.numerics.update(excluded_below_floor=res["excluded_below_floor"],
                        floor=res["floor"])
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
    grid = _radial_grid(args, man)
    op = assemble_sector(grid, 0, args.c)
    grid2 = build_radial_grid(grid.N, grid.R, 2 * grid.n, grid.mode)
    _record_grid(man, "grid_refined", grid2)
    # the sweep decomposes the refined operator before op, and nothing
    # holds it after the sweep; the route check reuses op's decomposition
    sweep, products = riesz_pnorm_sweep(
        op, args.p, refined_op=assemble_sector(grid2, 0, args.c))
    rng = np.random.default_rng(args.seed)
    u = rng.standard_normal(grid.n)
    rs = riesz_apply(op, u, "spectral")
    rq = riesz_apply(op, u, "quadrature")
    route_rel = float(np.linalg.norm(rs - rq) / np.linalg.norm(rs))
    man.numerics["ascent_products"] = products
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
    for p in args.p:
        man.add_check(f"riesz_stability_p{p}", sweep[p]["stability"], "<=",
                      0.25, f"change {report.fmt(sweep[p]['stability'])}")


def run_twisted(args, man: report.RunManifest) -> None:
    # box refinement study of the twisted-form expansion
    e = np.zeros(args.N)
    e[0], e[1] = 0.8, 0.6
    rows, orders = twisted_expansion_study(args.N, args.c,
                                           make_phi(e, 1.0, 0.2))
    man.table("twisted_expansion.csv", ("m", "h", "discrepancy"), rows)
    man.add_check("twisted_expansion_order", np.min(orders), ">=", 1.5,
                  f"orders {', '.join(map(report.fmt, orders))}")

    # sector twisted semigroup suite
    grid = _radial_grid(args, man)
    op = assemble_sector(grid, 0, args.c)
    R = grid.R
    phis = [make_phi(np.zeros(args.N), 1.0, -R / 3.0, kind="radial", grid=grid),
            make_phi(np.zeros(args.N), 2.0, -R / 2.0, kind="radial", grid=grid)]
    rep = twisted_decay_suite(op, args.lam, phis, args.t, seed=args.seed)
    man.numerics["kept_modes"] = [{"c": args.c, "t": min(args.t),
                                   "of": grid.n, "kept": rep["kept_modes"]}]
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
    fit = laplacian_decay_fit(op0, args.t)
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
        est = davies_distance(c1, r1, c2, r2)
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
    if len(args.p) > 1:
        raise ConfigError("solve takes one --p value (got "
                          f"{', '.join(map(report.fmt, args.p))})")
    grid = _radial_grid(args, man)
    op = assemble_sector(grid, 0, args.c)
    f = probe_functions(grid, 1, seed=args.seed)[0]
    p = args.p[0]
    traj = solve_parabolic(op, f, args.t, p)
    rows = [(r["t"], r["norm_p"], r["seminorm_p"]) for r in traj["rows"]]
    man.table("solve.csv", ("t", "norm_p", "seminorm_p"), rows)
    bad = sum(not math.isfinite(r["seminorm_p"]) for r in traj["rows"])
    man.add_check("solution_seminorm_finite", bad, "<=", 0, f"p = {p}")


def with_defaults(run, **defaults):
    """`run`, given its experiment's own option defaults (dest -> value)."""
    run.defaults = defaults
    return run


# Every experiment, once, in suite order, with its own option defaults:
# each has a subcommand of its name and writes its files under
# `<out>/<name>`.  A value is the runner itself, so perfbench's tracer,
# which rebinds the module's functions in its dicts, times each run.
# offdiag and distance, whose fits import scipy's optimiser stack (about
# 16.5 MB resident that is never released), run after riesz, twisted and
# solve, so that stack is not held under riesz's n = 1024 eigensolve or
# twisted's m = 16 box.  The suite's peak is offdiag's two-worker kernel
# phase at n = 1024, before its fits load the stack.
EXPERIMENTS = {
    "coercivity": with_defaults(run_coercivity, n=512,
                                t=list(np.geomspace(1e-3, 10.0, 12))),
    "rellich": with_defaults(run_rellich, n=2000, R=1e3, mode="log",
                             ell_max=8),
    "decay": with_defaults(run_decay, n=512,
                           t=list(np.geomspace(0.01, 0.1, 9))),
    "riesz": with_defaults(run_riesz, n=512, p=[1.3, 1.5, 1.8]),
    "twisted": with_defaults(run_twisted, n=256, lam=[0.5, 1.0, 2.0],
                             t=list(np.geomspace(0.05, 0.5, 6))),
    "solve": with_defaults(run_solve, n=256, p=[1.5],
                           t=list(np.geomspace(0.01, 1.0, 10))),
    "offdiag": with_defaults(run_offdiag, n=1024, R=40.0,
                             d=[3.0, 5.0, 8.0, 12.0],
                             t=list(np.geomspace(1e-3, 1e-2, 8))),
    "distance": with_defaults(run_distance),
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
    flags = build_parser().parse_args(argv)
    if flags.cmd == "plot":
        return run_plot(flags)
    names = list(EXPERIMENTS) if flags.cmd == "suite" else [flags.cmd]
    try:
        config = {} if flags.config is None else read_config(flags.config)
        runs = {name: resolve(name, flags, config) for name in names}
        report_only = {name: validate(args) for name, args in runs.items()}
    except (ConfigError, GridError, OperatorError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    _fix_mmap_threshold()
    restore, pinned = pin_blas_threads()
    runtime = {"blas_pinned": pinned, "biharmlab_version": __version__,
               "numpy_version": np.__version__,
               "scipy_version": scipy.__version__,
               "blas_libraries": [os.path.basename(path)
                                  for path in blas_libraries()]}
    if not pinned:
        print("warning: BLAS threads are not pinned; CSVs may differ "
              "between thread counts", file=sys.stderr)
    try:
        manifests = []
        for name, args in runs.items():
            run = EXPERIMENTS[name]
            sweep = {dest: getattr(args, dest)
                     for dest in run.defaults.keys() & SWEEP}
            man = report.RunManifest({"experiment": name, "N": args.N,
                                      "c": args.c, "seed": args.seed,
                                      "sweep": sweep},
                                     os.path.join(args.out, name),
                                     report_only[name])
            man.runtime.update(runtime)
            try:
                run(args, man)
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
