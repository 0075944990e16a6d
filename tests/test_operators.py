import math

import numpy as np
import pytest

from biharmlab import (assemble_box, assemble_sector, build_box_grid,
                       build_radial_grid, forme_inequality_check, make_phi,
                       paper_rellich_constant, probe_functions, twist,
                       twisted_form_terms)
from biharmlab.grids import TANH_HESS_MAX, sphere_area
from biharmlab.operators import (OperatorError, sector_stiffness,
                                 stiffness_bands)


class TestConstants:
    def test_rellich_constant_n5(self):
        assert paper_rellich_constant(5) == pytest.approx(25.0 / 16.0)

    def test_rellich_constant_n6(self):
        assert paper_rellich_constant(6) == pytest.approx(9.0)


class TestSectorOperator:
    def test_w_self_adjoint_exactly(self, op_c1):
        # flux form: the stored stiffness S = W L and form matrix F = W A
        # are symmetric by construction, so the defect is exactly 0
        assert np.array_equal(op_c1.S, op_c1.S.T)
        assert np.array_equal(op_c1.F, op_c1.F.T)

    def test_form_operator_consistency(self, op_c1, rng):
        u = rng.standard_normal(op_c1.n)
        v = rng.standard_normal(op_c1.n)
        form = op_c1.form_a(u, v)
        pair = op_c1.inner(op_c1.apply_A(u), v)
        scale = max(abs(form), 1.0)
        assert abs(form - pair) / scale < 1e-12

    def test_form_real_on_complex_inputs(self, op_c1, rng):
        u = rng.standard_normal(op_c1.n) + 1j * rng.standard_normal(op_c1.n)
        val = op_c1.form_a(u, u)
        assert abs(val.imag) < 1e-10 * max(abs(val.real), 1.0)

    def test_positive_definite_subcritical(self, op_c1):
        import scipy.linalg as sla
        W = np.diag(op_c1.w)
        F = W @ op_c1.dense_A()
        mu = sla.eigh(0.5 * (F + F.T), W, eigvals_only=True)
        assert mu.min() > 0

    def test_coercivity_slack(self, op_c1, grid128):
        # a(u,u) >= eta ||Lu||^2 with eta = 1 - c/C*
        eta = 1.0 - 1.0 / paper_rellich_constant(5)
        for u in probe_functions(grid128, 6, seed=5):
            lhs = op_c1.form_a(u, u).real
            lu = op_c1.apply_L(u)
            rhs = eta * float(op_c1.w @ lu**2)
            assert lhs - rhs >= -1e-12 * max(abs(lhs), 1.0)

    def test_angular_sector_raises_energy(self, grid128, rng):
        u = rng.standard_normal(grid128.n)
        e0 = assemble_sector(grid128, 0, 0.0).form_a(u, u).real
        e2 = assemble_sector(grid128, 2, 0.0).form_a(u, u).real
        assert e2 > e0

    def test_supercritical_warns_and_flags(self, grid128):
        from biharmlab import eigendecompose
        with pytest.warns(UserWarning):
            op = assemble_sector(grid128, 0, 10.0)
        assert eigendecompose(op).mu[0] <= 0

    @pytest.mark.parametrize("mode", ["uniform", "log"])
    def test_stiffness_bands_match_per_node_stencil(self, mode):
        # reference: the per-node flux stencil assembled one face at a time
        g = build_radial_grid(5, 1000.0, 300, mode)
        a_ref = sphere_area(5) * g.faces[1:-1] ** 4 / np.diff(g.r)
        ref = np.zeros((g.n, g.n))
        for i in range(g.n - 1):
            ref[i, i + 1] += a_ref[i]
            ref[i + 1, i] += a_ref[i]
            ref[i, i] -= a_ref[i]
            ref[i + 1, i + 1] -= a_ref[i]
        a, d = stiffness_bands(g)
        assert np.array_equal(a, np.diag(ref, 1))
        assert np.array_equal(d, np.diag(ref))
        S = sector_stiffness(g, 0)
        assert np.array_equal(S[:, :-1], ref[:, :-1])
        assert np.array_equal(S[:-1, -1], ref[:-1, -1])
        assert S[-1, -1] < ref[-1, -1]      # outer Dirichlet closure


class TestBoxOperator:
    def test_laplacian_symmetric(self, box_op_small, rng):
        n = box_op_small.n
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = box_op_small.inner(box_op_small.apply_L(u), v)
        rhs = box_op_small.inner(u, box_op_small.apply_L(v))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_laplacian_exact_on_quadratic(self):
        g = build_box_grid(5, 8, 2.0)
        op = assemble_box(g, 0.0)
        X = g.coords()
        interior = np.all(np.abs(X) < 2.0 - 1.5 * g.h, axis=1)
        u = (X**2).sum(axis=1)
        lu = op.apply_L(u)
        assert np.allclose(lu[interior], 2.0 * 5, atol=1e-9)

    def test_form_energy_nonnegative_subcritical(self, box_op_small, rng):
        u = rng.standard_normal(box_op_small.n)
        assert box_op_small.form_a(u, u).real > 0

    def test_gradient_exact_on_linear(self):
        g = build_box_grid(5, 8, 2.0)
        op = assemble_box(g, 0.0)
        X = g.coords()
        u = X @ np.arange(1.0, 6.0)
        gr = op.gradient(u)
        interior = np.all(np.abs(X) < 2.0 - 1.5 * g.h, axis=1)
        assert np.allclose(gr[interior], np.arange(1.0, 6.0), atol=1e-9)


class TestTwistedOperator:
    def test_similarity_spectrum(self, grid128, op_c1):
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        tw = twist(op_c1, 0.7, phi)
        a = np.sort(np.linalg.eigvals(op_c1.dense_A()).real)
        b = np.sort(np.linalg.eigvals(tw.dense()).real)
        assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-8

    def test_lambda_zero_is_identity_conjugation(self, grid128, op_c1, rng):
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        tw = twist(op_c1, 0.0, phi)
        u = rng.standard_normal(op_c1.n)
        assert tw.form(u) == op_c1.form_a(u, u)

    def test_overflow_guard(self, grid128, op_c1):
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        with pytest.raises(OperatorError):
            twist(op_c1, 200.0, phi)


class TestTwistedFormExpansion:
    def test_nine_term_identity_small_discrepancy(self):
        g = build_box_grid(5, 12, 2.5)
        op = assemble_box(g, 1.0)
        X = g.coords()
        rr2 = g.radii_sq()
        u = np.exp(-rr2) * (1.0 + 0.3j * X[:, 0])
        phi = make_phi(np.array([0.8, 0.6, 0, 0, 0]), 2.0, 0.2)
        res = twisted_form_terms(op, u, 0.7, phi)
        assert res["discrepancy"] < 0.1 * max(abs(res["direct"]), 1.0)
        assert set(res["terms"]) == {
            "lam4_gradphi4", "lam2_lapphi2", "lam3_im_gradphi2",
            "lam2_re_gradphi2_lap", "lam2_re_lapphi_grad",
            "lam_im_lapphi_lap", "lam2_gradphigrad2", "lam_im_grad_lap"}

    def test_lambda_zero_has_no_correction(self, box_op_small, rng):
        u = rng.standard_normal(box_op_small.n)
        phi = make_phi(np.array([1.0, 0, 0, 0, 0]), 2.0)
        res = twisted_form_terms(box_op_small, u, 0.0, phi)
        assert abs(res["sum"]) == 0.0
        assert abs(res["direct"]) < 1e-10
        assert all(abs(v) == 0.0 for v in res["terms"].values())


class TestFormEInequality:
    def test_holds_on_probe_batch(self, box_op_small):
        g = box_op_small.grid
        rng = np.random.default_rng(7)
        samples = []
        for i in range(20):
            u = probe_functions(g, 1, seed=i)[0]
            u = u + 0.2j * rng.standard_normal(u.shape) * u
            lam = float(rng.uniform(0.1, 2.0))
            phi = make_phi(_unit(rng), float(rng.uniform(TANH_HESS_MAX, 4.0)),
                           float(rng.uniform(-1, 1)))
            samples.append((u, lam, phi))
        res = forme_inequality_check(box_op_small, samples, gamma=0.5)
        assert res["ok"]
        assert len(res["violations"]) == 0
        assert res["k"] == pytest.approx(18 * 25 * res["eps"] ** -6)
        assert res["k_empirical"] <= res["k"]


def _unit(rng):
    v = rng.standard_normal(5)
    return v / np.linalg.norm(v)
