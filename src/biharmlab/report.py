"""Reproducible run artifacts: CSV tables (shortest round-trip numbers),
run manifests written atomically, and static SVG polyline plots.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
import time

try:
    import resource
except ImportError:         # not on Windows
    resource = None

CHECK_OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def fmt(x) -> str:
    """Shortest round-trip decimal representation, locale independent."""
    if hasattr(x, "item"):
        x = x.item()
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    try:
        return repr(float(x))
    except (TypeError, ValueError):
        return str(x)


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)] + [",".join(map(fmt, row)) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> tuple:
    """The header and rows of a CSV table, skipping blank lines; a line
    whose cell count differs from the header's raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        lines = [(i, ln.rstrip("\n").split(","))
                 for i, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError("no header line")
    header = lines[0][1]
    for i, row in lines[1:]:
        if len(row) != len(header):
            raise ValueError(f"line {i} has {len(row)} cells, the header "
                             f"{len(header)}")
    return header, [row for _, row in lines[1:]]


STATUS = "/proc/self/status"


def _status_mb(key: str) -> float | None:
    """The `key` line of /proc/self/status (a size in kB) in MB, or None
    where that file or line cannot be read."""
    try:
        with open(STATUS, encoding="ascii") as fh:
            for line in fh:
                name, _, value = line.partition(":")
                if name == key:
                    return round(int(value.split()[0]) / (1 << 10), 1)
    except (OSError, IndexError, ValueError):
        return None
    return None


def peak_rss_mb() -> float | None:
    """The process's peak resident memory so far in MB: the kernel's
    high-water mark VmHWM, the counter rss_mb's VmRSS rises to, so a
    start never reads above a later peak.  Where /proc/self/status cannot
    be read, ru_maxrss (in KiB on Linux, bytes on macOS); None where the
    `resource` module is missing too.  The mark is never reset."""
    peak = _status_mb("VmHWM")
    if peak is not None or resource is None:
        return peak
    unit = 1 if sys.platform == "darwin" else 1 << 10
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit
                 / (1 << 20), 1)


def rss_mb() -> float | None:
    """The process's resident memory now in MB: VmRSS of
    /proc/self/status, or None where that cannot be read."""
    return _status_mb("VmRSS")


class RunManifest:
    """One experiment's output directory `out`: its CSV tables and a
    manifest of config echo, content hashes, per-check records, the
    table list, the runtime it ran under, the process's resident memory
    when the manifest is made (`rss_start_mb`, what the experiment
    inherits) and its peak memory so far, written atomically at the end
    of the run.  A report-only run records no checks.  `runtime` holds
    facts of the run that do not change its numbers (BLAS pinning,
    thread counts, the numpy and scipy versions and the BLAS libraries
    mapped); `numerics` holds the numerical health the experiment
    computed (offdiag's ratio floor and the ratios excluded below it);
    `error` holds the error that stopped the experiment, if one did."""

    def __init__(self, config: dict, out: str, report_only: bool):
        self.config = {**config, "report_only": report_only}
        self.out = out
        self.report_only = report_only
        self.hashes = {}
        self.checks = []
        self.files = []
        self.runtime = {}
        self.numerics = {}
        self.error = None
        self._t0 = time.monotonic()
        self.rss_start_mb = rss_mb()
        os.makedirs(out, exist_ok=True)

    def add_check(self, name: str, value: float, op: str, bound: float,
                  detail: str = "") -> None:
        """Record whether `value op bound` holds (a NaN value fails) and
        its slack: bound - value for `<=`, else value - bound."""
        if not self.report_only:
            value, bound = float(value), float(bound)
            self.checks.append({
                "name": name, "pass": CHECK_OPS[op](value, bound),
                "value": value, "op": op, "bound": bound,
                "slack": bound - value if op == "<=" else value - bound,
                "detail": detail})

    def table(self, name: str, header, rows) -> None:
        """Write the CSV table `<out>/<name>` and list it."""
        path = os.path.join(self.out, name)
        write_csv(path, header, rows)
        self.files.append(path)

    @property
    def all_pass(self) -> bool:
        return self.error is None and all(c["pass"] for c in self.checks)

    def write(self) -> None:
        """Write `<out>/manifest.json`."""
        body = {
            "config": self.config,
            "hashes": self.hashes,
            "checks": self.checks,
            "files": sorted(self.files),
            "runtime": self.runtime,
            "numerics": self.numerics,
            "wall_clock_s": round(time.monotonic() - self._t0, 3),
            "peak_rss_mb": peak_rss_mb(),
            "rss_start_mb": self.rss_start_mb,
            "all_pass": self.all_pass,
            "error": self.error,
        }
        path = os.path.join(self.out, "manifest.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(body, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)


def _xml_escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def svg_plot(series, xlabel: str = "x", ylabel: str = "y",
             logx: bool = False, logy: bool = False, guides=(),
             width: int = 640, height: int = 480, title: str = "") -> str:
    """Polyline plot as a standalone SVG string.

    series: list of (label, xs, ys); guides: list of (slope, label) pairs
    drawn as dashed reference lines through the first data point of the
    first series (slopes act in the transformed coordinates).
    """
    pad = 60
    pw, ph = width - 2 * pad, height - 2 * pad

    def tx(v):
        return math.log10(v) if logx else v

    def ty(v):
        return math.log10(v) if logy else v

    pts = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if (logx and x <= 0) or (logy and y <= 0):
                continue
            pts.append((tx(x), ty(y)))
    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" '
               'fill="white"/>')
    out.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
               f'y2="{height - pad}" stroke="black"/>')
    out.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" '
               f'y2="{height - pad}" stroke="black"/>')
    if title:
        out.append(f'<text x="{width / 2}" y="20" text-anchor="middle">'
                   f'{_xml_escape(title)}</text>')
    out.append(f'<text x="{width / 2}" y="{height - 15}" '
               f'text-anchor="middle">{_xml_escape(xlabel)}</text>')
    out.append(f'<text x="15" y="{height / 2}" text-anchor="middle" '
               f'transform="rotate(-90 15 {height / 2})">'
               f'{_xml_escape(ylabel)}</text>')
    if pts:
        x0 = min(p[0] for p in pts)
        x1 = max(p[0] for p in pts)
        y0 = min(p[1] for p in pts)
        y1 = max(p[1] for p in pts)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0

        def px(v):
            return pad + (v - x0) / (x1 - x0) * pw

        def py(v):
            return height - pad - (v - y0) / (y1 - y0) * ph

        colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
                  "#e377c2")
        for i, (label, xs, ys) in enumerate(series):
            col = colors[i % len(colors)]
            path = []
            for x, y in zip(xs, ys):
                if (logx and x <= 0) or (logy and y <= 0):
                    continue
                path.append(f"{px(tx(x)):.2f},{py(ty(y)):.2f}")
            if path:
                out.append(f'<polyline fill="none" stroke="{col}" '
                           f'stroke-width="1.5" points="{" ".join(path)}"/>')
                out.append(f'<text x="{width - pad + 4}" '
                           f'y="{pad + 16 * i + 12}" fill="{col}" '
                           f'font-size="12">{_xml_escape(label)}</text>')
        gx0, gy0 = pts[0]
        for slope, label in guides:
            gy1 = gy0 + slope * (x1 - gx0)
            out.append(f'<line x1="{px(gx0):.2f}" y1="{py(gy0):.2f}" '
                       f'x2="{px(x1):.2f}" y2="{py(gy1):.2f}" '
                       'stroke="gray" stroke-dasharray="6,4"/>')
            out.append(f'<text x="{px(x1) - 4:.2f}" y="{py(gy1) - 4:.2f}" '
                       f'fill="gray" font-size="12" text-anchor="end">'
                       f'{_xml_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
