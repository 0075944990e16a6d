import math

import numpy as np
import pytest

from biharmlab import (PhiFamily, build_box_grid, build_radial_grid, make_phi,
                       probe_functions, twist)
from biharmlab.grids import (GridError, TANH_HESS_MAX, boundary_taper,
                             sphere_area, weighted_lp)


class TestRadialGrid:
    def test_nodes_staggered_off_singularity(self):
        g = build_radial_grid(5, 10.0, 64, "uniform")
        assert np.all(g.r > 0)
        assert np.all(np.diff(g.r) > 0)
        assert np.all(g.w > 0)

    def test_uniform_weights_sum_to_ball_volume(self):
        for n in (16, 64, 256):
            g = build_radial_grid(5, 10.0, n, "uniform")
            vol = sphere_area(5) * 10.0**5 / 5
            assert abs(g.w.sum() - vol) / vol < 0.01

    def test_log_mode_spans_six_decades(self):
        g = build_radial_grid(5, 1000.0, 200, "log")
        assert g.faces[0] == pytest.approx(1000.0 * 1e-6)
        assert g.faces[-1] == pytest.approx(1000.0)
        ratios = g.faces[1:] / g.faces[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)

    def test_rejects_small_dimension(self):
        with pytest.raises(GridError):
            build_radial_grid(4, 10.0, 64)

    def test_rejects_tiny_grid(self):
        with pytest.raises(GridError):
            build_radial_grid(5, 10.0, 8)

    def test_content_hash_stable_and_discriminating(self):
        a = build_radial_grid(5, 10.0, 64)
        b = build_radial_grid(5, 10.0, 64)
        c = build_radial_grid(5, 10.0, 128)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()


class TestBoxGrid:
    def test_nodes_avoid_origin(self):
        g = build_box_grid(5, 4, 2.0)
        assert math.sqrt(g.radii_sq().min()) >= g.h / 2 - 1e-12

    def test_rejects_odd_subdivision(self):
        with pytest.raises(GridError):
            build_box_grid(5, 5, 2.0)

    def test_cell_measure(self):
        g = build_box_grid(5, 4, 2.0)
        assert g.h**g.N * g.m**g.N == pytest.approx(4.0**5)

    @pytest.mark.parametrize("e", [[0.8, 0.6, 0, 0, 0],
                                   [0.1, -0.3, 0.5, 0.7, -0.2]])
    def test_dot_matches_coordinates(self, e):
        g = build_box_grid(5, 6, 2.0)
        e = np.asarray(e)
        assert np.allclose(g.dot(e), g.coords() @ e, rtol=0, atol=1e-14)
        assert np.array_equal(np.repeat(g.axis, g.m**4), g.coords()[:, 0])
        # one axis-0 plane at a time gives the same values, bit for bit
        planes = [slice(i, i + 1) for i in range(g.m)]
        assert np.array_equal(np.concatenate([g.dot(e, r) for r in planes]),
                              g.dot(e))
        assert np.array_equal(np.concatenate([g.radii_sq(r) for r in planes]),
                              g.radii_sq())


class TestNorms:
    def test_gaussian_l2_norm(self):
        # int exp(-2r^2) over R^5 equals (pi/2)^(5/2)
        g = build_radial_grid(5, 20.0, 512, "uniform")
        exact = (math.pi / 2.0) ** 2.5
        assert weighted_lp(np.exp(-g.r**2), g.w, 2.0) ** 2 == \
            pytest.approx(exact, rel=0.01)

    def test_sup_norm(self, grid128):
        u = np.sin(grid128.r)
        assert weighted_lp(u, grid128.w, math.inf) == np.abs(u).max()

    def test_p_below_one_rejected(self, grid128):
        with pytest.raises(GridError, match="p >= 1 required"):
            weighted_lp(np.ones(grid128.n), grid128.w, 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, math.inf])
    def test_weighted_lp_columns(self, grid128, p):
        rng = np.random.default_rng(3)
        V = rng.standard_normal((grid128.n, 4))
        w = grid128.w
        cols = weighted_lp(V, w, p)
        assert cols.shape == (4,)
        for j in range(4):
            one = weighted_lp(V[:, j], w, p)
            assert isinstance(one, float)
            assert cols[j] == pytest.approx(one, rel=1e-14)
        # the 1-D case is the plain formula, bit for bit
        v = V[:, 0]
        plain = (np.abs(v).max() if math.isinf(p)
                 else (w @ np.abs(v) ** p) ** (1.0 / p))
        assert weighted_lp(v, w, p) == float(plain)

    @pytest.mark.parametrize("p", [1.0, 1.3, math.inf])
    def test_columns_do_not_depend_on_the_layout(self, p):
        # kernels come Fortran-ordered, as the transposed view an (inf, inf)
        # corner reads, as column slices and C-ordered; each gives the
        # column norms of its contiguous copy, and |v|^p in place leaves
        # the input as it was
        rng = np.random.default_rng(5)
        n = 300
        w = rng.uniform(0.1, 3.0, n)
        K = np.asfortranarray(rng.standard_normal((n, n)))
        before = K.copy()
        for V in (K, K.T, K[:, :129], np.ascontiguousarray(K[:, :200])):
            cols = weighted_lp(V, w, p)
            assert cols.shape == (V.shape[1],)
            ref = weighted_lp(np.ascontiguousarray(V), w, p)
            assert np.allclose(cols, ref, rtol=1e-14, atol=0.0)
        assert np.array_equal(K, before)


class TestPhiFamily:
    def test_certification_100_random(self):
        g = build_box_grid(5, 4, 2.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            e = rng.standard_normal(5)
            e /= np.linalg.norm(e)
            s = float(rng.uniform(TANH_HESS_MAX, 10.0))
            b = float(rng.uniform(-3.0, 3.0))
            phi = make_phi(e, s, b, grid=g)
            assert np.max(np.abs(phi.values(g))) <= s + 1e-12

    def test_rejects_steepness_below_class_bound(self):
        with pytest.raises(GridError):
            PhiFamily(kind="linear", e=np.array([1.0, 0, 0, 0, 0]), s=0.5,
                      b=0.0)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(GridError):
            make_phi(np.array([2.0, 0, 0, 0, 0]), 2.0)

    def test_radial_kind_certified_on_grid(self, grid128):
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        phi.certify(grid128)

    def test_each_kind_lives_on_its_own_grid(self, grid128, op_c1):
        box = build_box_grid(5, 4, 2.0)
        linear = make_phi(np.array([1.0, 0, 0, 0, 0]), 2.0)
        radial = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        with pytest.raises(GridError, match="RadialGrids only"):
            radial.values(box)
        with pytest.raises(GridError, match="BoxGrids only"):
            linear.values(grid128)
        with pytest.raises(GridError, match="BoxGrids only"):
            twist(op_c1, 1.0, linear)
        with pytest.raises(GridError, match="unknown phi kind"):
            make_phi(np.zeros(5), 2.0, kind="planar")

    def test_radial_kind_raises_near_origin(self, grid128):
        # r0 far inside with minimal steepness puts the 1/r Hessian term
        # above 1 at the first node
        with pytest.raises(GridError):
            make_phi(np.zeros(5), TANH_HESS_MAX, b=-0.05, kind="radial",
                     grid=grid128)

    def test_gradient_laplacian_match_finite_differences(self):
        g = build_box_grid(5, 4, 2.0)
        phi = make_phi(np.array([1.0, 0, 0, 0, 0]) , 2.0, 0.3)
        X = g.coords()
        h = 1e-5
        vals = phi.values(g)
        grad = phi.sech2(g)[:, None] * phi.e        # rank-one gradient
        fd = (2.0 * np.tanh((X @ phi.e + phi.b + h) / phi.s)
              - 2.0 * np.tanh((X @ phi.e + phi.b - h) / phi.s)) * phi.s / 2.0
        # directional derivative along e
        num = (fd / (2 * h))
        assert np.allclose(grad @ phi.e, num, atol=1e-6)
        # second difference along e: the Laplacian of phi(e.x)
        xi, k = X @ phi.e + phi.b, 1e-4
        f = lambda z: phi.s * np.tanh(z / phi.s)
        lap = (f(xi + k) - 2.0 * f(xi) + f(xi - k)) / k**2
        assert np.allclose(phi.laplacian(g), lap, atol=1e-6)
        assert np.max(np.abs(vals)) <= phi.s

    def test_laplacian_rejects_the_radial_kind(self, grid128):
        # phi''(r) alone misses the radial Laplacian's (N-1) phi'/r term
        phi = make_phi(np.zeros(5), 2.0, b=5.0, kind="radial", grid=grid128)
        with pytest.raises(GridError, match="linear phi only"):
            phi.laplacian(grid128)


class TestProbes:
    def test_deterministic(self, grid128):
        a = probe_functions(grid128, 6, seed=3)
        b = probe_functions(grid128, 6, seed=3)
        for ua, ub in zip(a, b):
            assert np.array_equal(ua, ub)

    def test_first_probe_is_unit_gaussian(self, grid128):
        u = probe_functions(grid128, 1)[0]
        interior = grid128.r <= 0.8 * grid128.R
        assert np.allclose(u[interior],
                           np.exp(-grid128.r[interior] ** 2))

    def test_vanish_at_outer_boundary(self, grid128):
        for u in probe_functions(grid128, 5, seed=2):
            assert abs(u[-1]) < 1e-3

    def test_taper_profile(self):
        rr = np.array([0.0, 7.9, 8.0, 9.0, 10.0])
        t = boundary_taper(rr, 10.0)
        assert t[0] == 1.0 and t[1] == 1.0
        assert t[-1] == pytest.approx(0.0, abs=1e-30)
        assert np.all(np.diff(t) <= 0)
