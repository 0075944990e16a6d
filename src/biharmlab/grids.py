"""Discretizations of R^N: radial and box grids, the weighted L^p norm,
regions, and the admissible weight-function family used for twisting.

All grids are staggered so that no node sits at the origin: the potential
|x|^{-4} is finite at every node and the singularity is controlled by the
quadratic form, never by mollification.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

TANH_HESS_MAX = 4.0 / (3.0 * math.sqrt(3.0))  # max of |d/dt sech^2(t)|
TAPER_START = 0.8  # probe functions are untapered for r <= TAPER_START * R


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere S^{N-1} in R^N."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class RadialGrid:
    """Staggered radial grid for R^N carrying the measure sigma_{N-1} r^{N-1} dr.

    Nodes sit inside the cells, never on a face, so r_1 > 0.  Weights are
    w_i = sigma_{N-1} r_i^{N-1} delta_i; their sum matches the volume of
    the covered ball (annulus) to second order in the spacing.
    """

    N: int
    R: float
    n: int
    mode: str                      # "uniform" | "log"
    r: np.ndarray = field(repr=False)
    faces: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    LOG_INNER_FACTOR = 1e-6

    @property
    def delta(self) -> np.ndarray:
        return np.diff(self.faces)

    def manifest(self) -> dict:
        return {
            "kind": "radial",
            "dimension": self.N,
            "outer_radius": self.R,
            "n": self.n,
            "mode": self.mode,
            "nodes": self.r.tolist(),
            "weights": self.w.tolist(),
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.manifest(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def build_radial_grid(N: int, R: float, n: int, mode: str = "uniform") -> RadialGrid:
    """Build a staggered radial grid.

    Uniform mode: faces at i*R/n, nodes at cell midpoints.
    Log mode: faces geometric on [R*1e-6, R], nodes at geometric means.
    """
    if N < 5:
        raise GridError(f"N >= 5 required (got N={N})")
    if R <= 0:
        raise GridError("outer radius must be positive")
    if n < 16:
        raise GridError(f"n >= 16 required (got n={n})")
    if mode == "uniform":
        faces = np.linspace(0.0, R, n + 1)
        r = 0.5 * (faces[:-1] + faces[1:])
    elif mode == "log":
        faces = np.geomspace(R * RadialGrid.LOG_INNER_FACTOR, R, n + 1)
        r = np.sqrt(faces[:-1] * faces[1:])
    else:
        raise GridError(f"unknown mode {mode!r}")
    # midpoint weights: exact for the singular moment int u^2 r^{-4} dx
    # with u constant, and within O(n^{-2}) of cell volumes elsewhere
    w = sphere_area(N) * r ** (N - 1) * np.diff(faces)
    return RadialGrid(N=N, R=float(R), n=n, mode=mode, r=r, faces=faces, w=w)


@dataclass(frozen=True)
class BoxGrid:
    """Cartesian grid on [-B, B]^N, nodes offset by h/2 so min|x_i| = h/2.

    Values outside the box are treated as zero (Dirichlet truncation).
    Requires even per-axis count m so that no node hits a coordinate zero.
    """

    N: int
    m: int
    B: float

    @property
    def h(self) -> float:
        return 2.0 * self.B / self.m

    @property
    def axis(self) -> np.ndarray:
        return -self.B + (np.arange(self.m) + 0.5) * self.h

    @property
    def size(self) -> int:
        return self.m**self.N

    @property
    def shape(self) -> tuple:
        return (self.m,) * self.N

    def coords(self) -> np.ndarray:
        """(size, N) array of node coordinates."""
        grids = np.meshgrid(*([self.axis] * self.N), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def _axis_sum(self, per_axis: dict, rows: slice) -> np.ndarray:
        """Flat sum over k of the 1-D array per_axis[k] laid along axis k,
        on the axis-0 planes `rows`."""
        out = np.zeros((len(range(self.m)[rows]),) + self.shape[1:])
        for k, v in per_axis.items():
            sh = [1] * self.N
            sh[k] = -1
            out += (v[rows] if k == 0 else v).reshape(sh)
        return out.ravel()

    def radii_sq(self, rows: slice = slice(None)) -> np.ndarray:
        """|x|^2 at the nodes of the axis-0 planes `rows` (all by default)."""
        ax2 = self.axis**2
        return self._axis_sum({k: ax2 for k in range(self.N)}, rows)

    def dot(self, e: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """e.x at the nodes of the axis-0 planes `rows`, summed over the
        axes where e_k != 0."""
        return self._axis_sum({k: e[k] * self.axis for k in np.flatnonzero(e)},
                              rows)

    @property
    def w(self) -> np.ndarray:
        """Uniform weights h^N as a read-only broadcast view."""
        return np.broadcast_to(self.h**self.N, (self.size,))


def build_box_grid(N: int, m: int, B: float) -> BoxGrid:
    if N < 5:
        raise GridError(f"N >= 5 required (got N={N})")
    if m < 4 or m % 2:
        raise GridError("per-axis count m must be even and >= 4")
    if B <= 0:
        raise GridError("half-width must be positive")
    return BoxGrid(N=N, m=m, B=float(B))


def weighted_lp(values: np.ndarray, w: np.ndarray,
                p: float) -> float | np.ndarray:
    """(sum_i w_i |v_i|^p)^{1/p}; p = inf gives the sup over nodes.

    A 2-D `values` (nodes x columns) gives the array of column norms.
    """
    if p < 1:
        raise GridError(f"p >= 1 required (got {p})")
    a = np.abs(values)
    if math.isinf(p):
        out = a.max(axis=0, initial=0.0)
    else:
        out = (w @ a**p) ** (1.0 / p)
    return float(out) if a.ndim == 1 else out


@dataclass(frozen=True)
class Region:
    """Subset of R^N: a ball, or an origin-centred annulus with a per-node
    indicator on radial grids."""

    kind: str                      # "ball" | "annulus"
    params: tuple

    @staticmethod
    def ball(center, radius) -> "Region":
        return Region("ball", (np.atleast_1d(np.asarray(center, dtype=float)), float(radius)))

    @staticmethod
    def annulus(a: float, b: float) -> "Region":
        """Origin-centred annulus {a <= |x| <= b}; b may be inf."""
        return Region("annulus", (float(a), float(b)))

    def indicator(self, grid) -> np.ndarray:
        if self.kind != "annulus" or not isinstance(grid, RadialGrid):
            raise GridError("region indicators need an annulus on a radial grid")
        r = grid.r
        a, b = self.params
        return ((r >= a) & (r <= b)).astype(float)


def euclidean_distance(E: Region, F: Region) -> float:
    """Euclidean distance between two balls or between two annuli."""
    if E.kind == "ball" and F.kind == "ball":
        (c1, r1), (c2, r2) = E.params, F.params
        if c1.shape != c2.shape:
            raise GridError(f"ball centres differ in shape: {c1.shape}, {c2.shape}")
        d = float(np.linalg.norm(c1 - c2))
        return max(0.0, d - r1 - r2)
    if E.kind == "annulus" and F.kind == "annulus":
        (lo1, hi1), (lo2, hi2) = E.params, F.params
        return max(0.0, lo2 - hi1, lo1 - hi2)
    raise GridError(f"distance not implemented for {E.kind}/{F.kind}")


@dataclass(frozen=True)
class PhiFamily:
    """Admissible twisting weight phi with |D^a phi| <= 1 for 1 <= |a| <= 2.

    Linear kind: phi(x) = s tanh((e.x + b)/s) with |e| = 1, on box grids.
    Radial kind: phi(x) = s tanh((|x| + b)/s) on radial grids; its Hessian
    carries a tanh'(.)/|x| curvature term, so admissibility near the origin
    is certified numerically on the grid at hand.  Evaluating a kind on the
    other grid type raises GridError.
    """

    kind: str                      # "linear" | "radial"
    e: np.ndarray                  # direction (linear) or unused
    s: float
    b: float

    GRID = {"linear": BoxGrid, "radial": RadialGrid}   # the grid of each kind

    def __post_init__(self):
        if self.kind not in self.GRID:
            raise GridError(f"unknown phi kind {self.kind!r}")
        if self.s < TANH_HESS_MAX - 1e-12:
            raise GridError(
                f"steepness s >= 4/(3*sqrt(3)) ~ {TANH_HESS_MAX:.4f} required")
        if self.kind == "linear" and abs(np.linalg.norm(self.e) - 1.0) > 1e-10:
            raise GridError("direction must be a unit vector")

    def _arg(self, grid, rows: slice) -> np.ndarray:
        """(xi + b)/s with xi = e.x on a box grid and xi = r on a radial
        grid, at the nodes of the axis-0 rows `rows`."""
        if not isinstance(grid, self.GRID[self.kind]):
            raise GridError(f"a {self.kind} phi is evaluated on "
                            f"{self.GRID[self.kind].__name__}s only")
        xi = grid.dot(self.e, rows) if self.kind == "linear" else grid.r[rows]
        return (xi + self.b) / self.s

    def values(self, grid, rows: slice = slice(None)) -> np.ndarray:
        return self.s * np.tanh(self._arg(grid, rows))

    def sech2(self, grid, rows: slice = slice(None)) -> np.ndarray:
        """sech^2(t): grad phi is sech2 * e (linear) or sech2 * x/|x| (radial)."""
        return 1.0 / np.cosh(self._arg(grid, rows)) ** 2

    def laplacian(self, grid: BoxGrid, rows: slice = slice(None)) -> np.ndarray:
        """Laplacian phi''(e.x) = -2 tanh sech^2 / s of a linear phi."""
        if self.kind != "linear":   # a radial phi adds (N-1) phi'/r
            raise GridError("the Laplacian is evaluated for a linear phi only")
        t = self._arg(grid, rows)
        return -2.0 * np.tanh(t) / np.cosh(t) ** 2 / self.s

    def certify(self, grid=None) -> None:
        """Check the class bounds |grad| <= 1, |hess| <= 1, |phi| <= s.

        The linear kind meets them by construction (|e| = 1, s >= 4/(3 sqrt 3));
        the radial kind's 1/r Hessian term is checked on its radial grid.
        """
        if self.kind == "linear":
            return
        sech2 = self.sech2(grid)
        hess_max = float(np.max(TANH_HESS_MAX / self.s * sech2 + sech2 / grid.r))
        if not hess_max <= 1.0 + 1e-12:
            raise GridError(
                f"radial phi violates the Hessian bound on this grid "
                f"(max {hess_max:.3f} > 1)")


def make_phi(e, s: float, b: float = 0.0, kind: str = "linear",
             grid=None) -> PhiFamily:
    """Construct and certify an admissible twisting weight."""
    e = np.atleast_1d(np.asarray(e, dtype=float))
    phi = PhiFamily(kind=kind, e=e, s=float(s), b=float(b))
    phi.certify(grid=grid)
    return phi


def boundary_taper(rr: np.ndarray, R: float) -> np.ndarray:
    """Smooth cutoff equal to 1 for r <= TAPER_START*R, 0 at r = R."""
    t = np.clip((rr - TAPER_START * R) / ((1.0 - TAPER_START) * R), 0.0, 1.0)
    return np.cos(0.5 * math.pi * t) ** 2


def probe_functions(grid, count: int, seed: int = 0) -> list:
    """Deterministic H^2-style probe family: Gaussians, polynomial bumps,
    and oscillatory radial profiles, all vanishing at the outer boundary.
    """
    if count < 1:
        raise GridError("count >= 1 required")
    rng = np.random.default_rng(seed)
    if isinstance(grid, RadialGrid):
        rr = grid.r
        R = grid.R
    else:
        rr = np.sqrt(grid.radii_sq())
        R = grid.B
    taper = boundary_taper(rr, R)
    out = []
    for i in range(count):
        fam = i % 3
        if fam == 0:
            a = 1.0 if i == 0 else float(rng.uniform(0.5, 3.0))
            v = np.exp(-a * rr**2)
        elif fam == 1:
            b = float(rng.uniform(0.3, 0.8)) * R
            v = np.clip(1.0 - (rr / b) ** 2, 0.0, None) ** 3
        else:
            k = float(rng.uniform(1.0, 4.0))
            a = float(rng.uniform(0.5, 2.0))
            v = rr**2 * np.exp(-a * rr**2) * np.cos(k * rr)
        out.append(v * taper)
    return out
