"""Span tracer for the biharmlab benchmark's traced run.

The tracer wraps the public functions of each biharmlab module from the
outside and rebinds every module-level reference to them, so calls made
through `from ... import` names are recorded too.  Spans stay in memory
and are written once, when the run ends.  The analysis half turns a span
list into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

LAYERS = ("cli", "grids", "operators", "spectral", "norms", "estimates",
          "report")

EXPERIMENTS = ("coercivity", "rellich", "decay", "offdiag", "riesz", "twisted",
               "distance", "solve")

# callers that read the dual-ascent lower bound of the estimate they request
LOWER_READERS = ("estimates.riesz_pnorm_sweep",
                 "estimates.extrapolation_check")


# ------------------------------------------------------------- recording

def _pq(args, kwargs, result):
    return {"p": args[1], "q": args[2]}


def _interpolation_target(args, kwargs, result):
    from biharmlab.norms import _has_exact
    p, q = args[1], args[2]
    return {"p": p, "q": q, "interpolated": not _has_exact(p, q)}


def _operator_mbytes(args, kwargs, result):
    return {"mbytes": (result.S.nbytes + result.F.nbytes) / 1e6}


def _kernel_gflop(args, kwargs, result):
    n = result.K.shape[0]
    return {"gflop": 2.0 * n**3 / 1e9}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# span name -> attributes recorded from the call's arguments and result
ATTRS = {
    "operators.assemble_sector": _operator_mbytes,
    "spectral.kernel": _kernel_gflop,
    "norms.corner_norm": _pq,
    "norms.interpolation_upper": _interpolation_target,
    "report.write_csv": _csv_bytes,
}


class Tracer:
    """Records one span per call of a wrapped function: id, parent id,
    name, start and end (perf_counter seconds) and optional attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "name": name}
            spans.append(span)
            stack.append(span["id"])
            span["t0"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = clock()
                stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self, modules: dict, methods: dict = None,
                extra_modules=()) -> None:
        """Wrap every public function defined in `modules` (layer name ->
        module) and the given methods (span name -> (class, attribute)).

        Every module-level name bound to a wrapped function, and every
        module-level dict value holding one, is rebound to the wrapper in
        all of `modules` and `extra_modules`.
        """
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, (cls, attr) in (methods or {}).items():
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        for mod in list(modules.values()) + list(extra_modules):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if inspect.isfunction(val) and val in wrapped:
                            obj[key] = wrapped[val]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install_biharmlab(tracer: Tracer) -> None:
    """Wrap the biharmlab package's seven modules for a traced run."""
    import biharmlab
    from biharmlab import (cli, estimates, grids, norms, operators, report,
                           spectral)
    modules = {"cli": cli, "grids": grids, "operators": operators,
               "spectral": spectral, "norms": norms, "estimates": estimates,
               "report": report}
    methods = {"spectral.kernel": (spectral.SemigroupEvaluator, "kernel"),
               "report.RunManifest.write": (report.RunManifest, "write")}
    tracer.install(modules, methods, extra_modules=(biharmlab,))


# -------------------------------------------------------------- analysis

def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    do not overlap each other.
    """
    own = {s["id"]: s["t1"] - s["t0"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["t1"] - s["t0"]
    return own


def _ancestors(span, by_id):
    p = span["parent"]
    while p is not None:
        yield by_id[p]
        p = by_id[p]["parent"]


def layer_metrics(spans, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced run (name -> value)."""
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def total(name):
        # outermost spans only, so recursion is not counted twice
        return sum(dur(s) for s in by_name.get(name, ())
                   if all(a["name"] != name for a in _ancestors(s, by_id)))

    def calls(name):
        return len(by_name.get(name, ()))

    m = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer_self[s["name"].split(".", 1)[0]] += own[s["id"]]

    for exp in EXPERIMENTS:
        m[f"cli.run_{exp}.s"] = total(f"cli.run_{exp}")

    m["grids.calls"] = sum(len(v) for k, v in by_name.items()
                           if k.startswith("grids."))

    m["operators.assemble_sector.calls"] = calls("operators.assemble_sector")
    m["operators.assemble_sector.s"] = total("operators.assemble_sector")
    m["operators.assemble_sector.mbytes"] = sum(
        s["mbytes"] for s in by_name.get("operators.assemble_sector", ()))
    for fn in ("twisted_form_terms", "forme_inequality_check"):
        m[f"operators.{fn}.s"] = total(f"operators.{fn}")

    for fn in ("eigendecompose", "kernel"):
        m[f"spectral.{fn}.calls"] = calls(f"spectral.{fn}")
        m[f"spectral.{fn}.s"] = total(f"spectral.{fn}")
    m["spectral.kernel.gflop"] = sum(
        s["gflop"] for s in by_name.get("spectral.kernel", ()))
    for fn in ("riesz_kernel", "riesz_apply", "sector_angle"):
        m[f"spectral.{fn}.s"] = total(f"spectral.{fn}")

    for fn in ("opnorm", "interpolation_upper", "corner_norm", "boyd_lower"):
        m[f"norms.{fn}.calls"] = calls(f"norms.{fn}")
        m[f"norms.{fn}.s"] = total(f"norms.{fn}")
    svd = [s for s in by_name.get("norms.corner_norm", ())
           if s["p"] == 2.0 and s["q"] == 2.0]
    m["norms.corner_norm.svd.calls"] = len(svd)
    m["norms.corner_norm.svd.s"] = sum(dur(s) for s in svd)
    interpolated = {s["id"]
                    for s in by_name.get("norms.interpolation_upper", ())
                    if s["interpolated"]}
    corners = sum(1 for s in by_name.get("norms.corner_norm", ())
                  if s["parent"] in interpolated)
    m["norms.corner_norm.per_upper"] = (corners / len(interpolated)
                                        if interpolated else 0.0)
    read_s = 0.0
    for s in by_name.get("norms.boyd_lower", ()):
        caller = next((a["name"] for a in _ancestors(s, by_id)
                       if a["name"].startswith(("estimates.", "cli."))), None)
        if caller in LOWER_READERS:
            read_s += dur(s)
    boyd_s = m["norms.boyd_lower.s"]
    m["norms.boyd_lower.read_frac"] = read_s / boyd_s if boyd_s > 0 else 0.0

    for fn in ("rellich_constant", "decay_fit", "offdiag_fit",
               "twisted_decay_suite", "laplacian_decay_fit",
               "riesz_pnorm_sweep", "eta_h", "solve_parabolic"):
        m[f"estimates.{fn}.s"] = total(f"estimates.{fn}")
    m["estimates.davies_distance.calls"] = calls("estimates.davies_distance")
    m["estimates.davies_distance.s"] = total("estimates.davies_distance")
    m["estimates.offdiag_fit.self_s"] = sum(
        own[s["id"]] for s in by_name.get("estimates.offdiag_fit", ()))

    m["report.write_csv.calls"] = calls("report.write_csv")
    m["report.write_csv.s"] = total("report.write_csv")
    m["report.csv_bytes"] = sum(
        s["bytes"] for s in by_name.get("report.write_csv", ()))
    m["report.RunManifest.write.s"] = total("report.RunManifest.write")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.overhead_s"] = traced_wall(spans) - untraced_wall_s
    return m


def traced_wall(spans) -> float:
    """Duration of the root spans, i.e. of the traced `cli.main` call."""
    return sum(s["t1"] - s["t0"] for s in spans if s["parent"] is None)


def root_problems(spans, wall_s: float, tol_s: float) -> list:
    """Problems with the root of a traced run: there must be exactly one
    root span, `cli.main`, lasting the child's own measured `wall_s` to
    within `tol_s` seconds."""
    roots = [s for s in spans if s["parent"] is None]
    if [s["name"] for s in roots] != ["cli.main"]:
        return [f"root spans {[s['name'] for s in roots]}, expected "
                "['cli.main']"]
    dur = roots[0]["t1"] - roots[0]["t0"]
    if wall_s is None or abs(dur - wall_s) > tol_s:
        return [f"root span lasts {dur:.6f} s, the traced child measured "
                f"wall_s {wall_s}"]
    return []

