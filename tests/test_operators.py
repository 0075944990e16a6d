import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from biharmlab import (assemble_box, assemble_sector, build_box_grid,
                       build_radial_grid, forme_inequality_check, make_phi,
                       paper_rellich_constant, probe_functions, twist,
                       twisted_form_terms)
from biharmlab.estimates import _sym_part_minimizer
from biharmlab.grids import TANH_HESS_MAX, sphere_area
from biharmlab.operators import (TWISTED_PLANES, OperatorError,
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
        mu = sla.eigh(op_c1.F, np.diag(op_c1.w), eigvals_only=True)
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
        # sector ell = 2 adds the angular term to the diagonal only
        a2, d2 = stiffness_bands(g, 2)
        assert np.array_equal(a2, a)
        assert np.array_equal(d2, d - 2 * (2 + 5 - 2) / g.r**2 * g.w)
        S = assemble_sector(g, 0).S
        assert np.array_equal(S[:, :-1], ref[:, :-1])
        assert np.array_equal(S[:-1, -1], ref[:-1, -1])
        assert S[-1, -1] < ref[-1, -1]      # outer Dirichlet closure


def _dense_sector(g, ell, c):
    """S and F assembled densely, as the operator stored them before it
    kept only the bands of S."""
    a, main = stiffness_bands(g)
    main[-1] -= sphere_area(g.N) * g.faces[-1] ** (g.N - 1) / (
        g.faces[-1] - g.r[-1])
    if ell:
        main -= ell * (ell + g.N - 2) / g.r**2 * g.w
    S = np.diag(main)
    idx = np.arange(g.n - 1)
    S[idx, idx + 1] = a
    S[idx + 1, idx] = a
    F = S @ (S / g.w[:, None])
    F = 0.5 * (F + F.T)
    if c:
        F = F - np.diag(c * g.w * g.r**-4.0)
    return S, F


class TestBandedSector:
    def test_holds_no_dense_matrix(self):
        n = 512
        op = assemble_sector(build_radial_grid(5, 30.0, n), 2, 1.0)
        held = sum(v.nbytes for v in vars(op).values()
                   if isinstance(v, np.ndarray))
        assert held <= 4 * n * 8

    @pytest.mark.parametrize("mode", ["uniform", "log"])
    @pytest.mark.parametrize("ell", [0, 2])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_dense_matrices_match_the_dense_construction(self, mode, ell, c):
        g = build_radial_grid(5, 30.0, 200, mode)
        op = assemble_sector(g, ell, c)
        S, F = _dense_sector(g, ell, c)
        assert np.array_equal(op.S, S)
        assert np.array_equal(op.F, F)

    @pytest.mark.parametrize("mode", ["uniform", "log"])
    def test_banded_apply_L_matches_dense(self, mode, rng):
        g = build_radial_grid(5, 30.0, 200, mode)
        op = assemble_sector(g, 2, 1.0)
        for u in (rng.standard_normal(g.n),
                  rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)):
            ref = (op.S @ u) / g.w
            err = np.max(np.abs(op.apply_L(u) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref))

    def test_apply_L_on_columns_matches_one_column_at_a_time(self, rng):
        g = build_radial_grid(5, 30.0, 200, "log")
        op = assemble_sector(g, 2, 1.0)
        U = rng.standard_normal((g.n, 7))
        cols = np.column_stack([op.apply_L(U[:, j]) for j in range(7)])
        assert np.array_equal(op.apply_L(U), cols)

    @pytest.mark.parametrize("mode", ["uniform", "log"])
    def test_apply_L_on_columns_matches_dense(self, mode, rng):
        g = build_radial_grid(5, 30.0, 200, mode)
        op = assemble_sector(g, 2, 1.0)
        U = rng.standard_normal((g.n, 5))
        ref = (op.S @ U) / g.w[:, None]
        err = np.max(np.abs(op.apply_L(U) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))


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

    def test_apply_L_matches_padded_stencil(self, rng):
        g = build_box_grid(5, 6, 2.0)
        op = assemble_box(g, 1.0)
        u = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
        ref = _stencil_L(g, u)
        err = np.max(np.abs(op.apply_L(u) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))


class TestTwistedOperator:
    @pytest.mark.parametrize("lam", [0.0, 0.7, 2.0])
    def test_sym_part_minimizer_minimizes_the_form(
            self, grid128, op_c1, rng, lam):
        # Re a_{lam phi}(u) / ||u||_W^2 is least at the minimiser, and its
        # value there is the least W-eigenvalue of the symmetric part
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        tw = twist(op_c1, lam, phi)

        def quotient(u):
            return tw.form(u).real / float(op_c1.w @ np.abs(u) ** 2)

        u_star = _sym_part_minimizer(tw)
        q_star = quotient(u_star)
        d = np.exp(lam * tw.phi_values)
        H = op_c1.F * d[:, None] / d[None, :]      # W A_{lam phi}
        mu = sla.eigvalsh(0.5 * (H + H.T), np.diag(op_c1.w))
        assert q_star == pytest.approx(mu[0], rel=1e-8)
        for _ in range(200):
            u = rng.standard_normal(op_c1.n)
            assert q_star <= quotient(u)
        for scale in (1e-3, 1e-1):
            du = scale * rng.standard_normal(op_c1.n) * np.max(np.abs(u_star))
            assert q_star <= quotient(u_star + du) + 1e-12 * abs(q_star)

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
        u = _probe(g)
        phi = make_phi(np.array([0.8, 0.6, 0, 0, 0]), 2.0, 0.2)
        res = twisted_form_terms(op, u, 0.7, phi)
        assert res["discrepancy"] < 0.1 * max(abs(res["direct"]), 1.0)
        assert set(res["terms"]) == {
            "lam4_gradphi4", "lam2_lapphi2", "lam3_im_gradphi2",
            "lam2_re_gradphi2_lap", "lam2_re_lapphi_grad",
            "lam_im_lapphi_lap", "lam2_gradphigrad2", "lam_im_grad_lap"}

    @pytest.mark.parametrize("lam", [0.3, 0.7])
    @pytest.mark.parametrize("e", [[0.8, 0.6, 0, 0, 0],
                                   [0.1, -0.3, 0.5, 0.7, -0.2],
                                   [0, 1, 0, 0, 0],
                                   [1, 0, 0, 0, 0],
                                   [0.1, -0.3, 0.5, 0.7, -0.2, 0.3]])
    def test_matches_the_rank_n_formula(self, lam, e):
        # reference: the expansion with (size, N) gradients of phi and u
        # and a padded 2N+1 stencil for L; e without an axis-0 part, e
        # along axis 0 only, and N = 6 probe the plane pass's faces
        N = len(e)
        g = build_box_grid(N, 8 if N == 5 else 6, 2.5)
        op = assemble_box(g, 1.0)
        X = g.coords()
        u = _probe(g)
        e = np.asarray(e, dtype=float) / np.linalg.norm(e)
        phi = make_phi(e, 1.0, 0.2)
        w = g.h**N
        t = (X @ e + phi.b) / phi.s
        gphi = (1.0 / np.cosh(t) ** 2)[:, None] * e[None, :]
        lphi = -2.0 * np.tanh(t) / np.cosh(t) ** 2 / phi.s
        gu = _rank_n_gradient(g, u)
        Lu = _stencil_L(g, u)
        gp2 = (gphi**2).sum(1)
        dot_gubar = (gphi * np.conj(gu)).sum(1)
        dot_gu = (gphi * gu).sum(1)
        au2 = np.abs(u) ** 2
        ref = {
            "lam4_gradphi4": lam**4 * w * np.sum(gp2**2 * au2),
            "lam2_lapphi2": -(lam**2) * w * np.sum(lphi**2 * au2),
            "lam3_im_gradphi2": 4 * lam**3 * 1j * (w * np.sum(gp2 * dot_gubar * u)).imag,
            "lam2_re_gradphi2_lap": 2 * lam**2 * (w * np.sum(gp2 * u * np.conj(Lu))).real,
            "lam2_re_lapphi_grad": -4 * lam**2 * (w * np.sum(lphi * dot_gubar * u)).real,
            "lam_im_lapphi_lap": 2 * lam * 1j * (w * np.sum(lphi * np.conj(u) * Lu)).imag,
            "lam2_gradphigrad2": -4 * lam**2 * w * np.sum(np.abs(dot_gu) ** 2),
            "lam_im_grad_lap": 4 * lam * 1j * (w * np.sum(dot_gubar * Lu)).imag,
        }
        V = g.radii_sq() ** -2.0

        def form(v1, v2):
            return (w * np.sum(_stencil_L(g, v1) * np.conj(_stencil_L(g, v2)))
                    - op.c * w * np.sum(V * v1 * np.conj(v2)))

        d = np.exp(lam * phi.values(g))
        direct = form(u / d, d * u) - form(u, u)
        res = twisted_form_terms(op, u, lam, phi)
        assert res["terms"].keys() == ref.keys()
        scale = max(abs(val) for val in ref.values())
        for key, val in ref.items():
            # at e = e_1 two terms cancel by symmetry in x_0: the reference
            # leaves round-off of the term scale, as does any other order
            # of summation
            cancels = abs(val) <= 1e-14 * scale
            tol = 1e-15 * scale if cancels else 1e-12 * abs(val)
            assert abs(res["terms"][key] - val) <= tol, key
        assert abs(res["direct"] - direct) <= 1e-12 * abs(direct)

    def test_holds_few_node_arrays(self):
        # peak above u, in complex axis-0 planes: the same bound at m = 12
        # and m = 16, where whole node arrays would be 12 and 16 planes each
        phi = make_phi(np.array([0.8, 0.6, 0, 0, 0]), 1.0, 0.2)
        for m in (12, 16):
            g = build_box_grid(5, m, 2.5)
            op = assemble_box(g, 1.0)
            u = _probe(g)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                twisted_form_terms(op, u, 0.7, phi)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= TWISTED_PLANES * (u.nbytes // m), m

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
        res = forme_inequality_check(box_op_small, samples)
        assert res["ok"]
        assert len(res["violations"]) == 0
        assert res["k"] == pytest.approx(18 * 25 * res["eps"] ** -6)
        assert res["k_empirical"] <= res["k"]

    def test_supercritical_c_is_an_operator_error(self, box_grid_small):
        # eta = 1 - c/C* must be positive for eps and k to exist
        cstar = paper_rellich_constant(5)
        with pytest.warns(UserWarning, match="may be indefinite"):
            op = assemble_box(box_grid_small, cstar)
        with pytest.raises(OperatorError, match=r"needs c < C\* "
                           r"\(c = 1.5625, C\* = 1.5625\)"):
            forme_inequality_check(op, [])


def _unit(rng):
    v = rng.standard_normal(5)
    return v / np.linalg.norm(v)


def _probe(g):
    """u = e^{-|x|^2} (1 + 0.3i x_0), the x_0 factor broadcast per plane."""
    return (np.exp(-g.radii_sq()).reshape(g.m, -1)
            * (1.0 + 0.3j * g.axis)[:, None]).ravel()


def _rank_n_gradient(g, u):
    """(size, N) centred-difference gradient, one-sided at the boundary."""
    U = u.reshape(g.shape)
    return np.stack([np.gradient(U, g.h, axis=k).ravel()
                     for k in range(g.N)], axis=1)


def _stencil_L(g, u):
    """2N+1 Laplacian with a zero layer padded around the box."""
    P = np.pad(u.reshape(g.shape), 1)
    inner = (slice(1, -1),) * g.N
    out = -2.0 * g.N * P[inner]
    for k in range(g.N):
        for s in (0, 2):
            idx = list(inner)
            idx[k] = slice(s, s + g.m)
            out = out + P[tuple(idx)]
    return (out / g.h**2).ravel()
