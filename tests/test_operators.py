import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from biharmlab import (assemble_sector, build_box_grid, build_radial_grid,
                       forme_inequality_check, make_phi,
                       paper_rellich_constant, probe_functions, twist,
                       twisted_form_terms)
from biharmlab.grids import box_probe, sphere_area
from biharmlab.operators import (TWISTED_PLANES, OperatorError, box_stencil,
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

    def test_subcritical_assembles_without_warning(self, grid128):
        # the indefiniteness warning starts at c = C*, not below it
        cstar = paper_rellich_constant(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = assemble_sector(grid128, 0, 0.999 * cstar)
        assert op.c == pytest.approx(0.999 * cstar)

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

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_apply_L_is_the_one_shot_form_bit_for_bit(self, order, rng):
        g = build_radial_grid(5, 30.0, 300, "log")
        op = assemble_sector(g, 2, 1.0)
        for U in (rng.standard_normal((g.n, g.n)),
                  rng.standard_normal((g.n, 7)), rng.standard_normal(g.n),
                  rng.standard_normal((g.n, 7))
                  + 1j * rng.standard_normal((g.n, 7))):
            U = np.asarray(U, order=order)
            ref = _apply_L_one_shot(op, U)
            assert np.array_equal(op.apply_L(U), ref)
            V = U.copy(order="K")
            assert op.apply_L(V, out=V) is V
            assert np.array_equal(V, ref)

    def test_in_place_apply_L_holds_a_few_columns(self, traced_peak, rng):
        # an F-ordered n x n array, the layout of every kernel L maps:
        # each column needs only its image and one band product
        n = 1024
        op = assemble_sector(build_radial_grid(5, 30.0, n), 0, 1.0)
        K = np.asfortranarray(rng.standard_normal((n, n)))
        peak, out = traced_peak(op.apply_L, K, out=K)
        assert out is K
        assert peak <= 4 * n * 8

    @pytest.mark.parametrize("mode", ["uniform", "log"])
    def test_apply_L_on_columns_matches_dense(self, mode, rng):
        g = build_radial_grid(5, 30.0, 200, mode)
        op = assemble_sector(g, 2, 1.0)
        U = rng.standard_normal((g.n, 5))
        ref = (op.S @ U) / g.w[:, None]
        err = np.max(np.abs(op.apply_L(U) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))


class TestBoxOperator:
    """The box's one operator: its 2N+1 stencil L, on whole arrays."""

    def test_laplacian_symmetric(self, box_grid_small, rng):
        # (L u, v) = (u, L v) in the box weight h^N
        g = box_grid_small
        u = rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape)
        lhs = g.h**g.N * np.sum(box_stencil(g, u) * v)
        rhs = g.h**g.N * np.sum(u * box_stencil(g, v))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)

    def test_laplacian_exact_on_quadratic(self):
        g = build_box_grid(5, 8, 2.0)
        X = g.coords()
        interior = np.all(np.abs(X) < 2.0 - 1.5 * g.h, axis=1)
        u = (X**2).sum(axis=1)
        lu = box_stencil(g, u.reshape(g.shape)).ravel()
        assert np.allclose(lu[interior], 2.0 * 5, atol=1e-9)

    def test_form_energy_nonnegative_subcritical(self, box_grid_small, rng):
        # a(u, u) = h^N (|L u|^2 - c |x|^{-4} |u|^2) at c = 1 < C*
        g = box_grid_small
        u = rng.standard_normal(g.shape)
        V = g.radii_sq().reshape(g.shape) ** -2.0
        energy = g.h**g.N * np.sum(box_stencil(g, u) ** 2 - 1.0 * V * u**2)
        assert energy > 0

    def test_plane_walk_matches_whole_array(self, rng):
        # plane i with its neighbour planes (None off the box) is plane i
        # of the whole-array stencil, bit for bit
        g = build_box_grid(5, 6, 2.0)
        U = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        whole = box_stencil(g, U)
        for i in range(g.m):
            below = U[i - 1] if i > 0 else None
            above = U[i + 1] if i < g.m - 1 else None
            assert np.array_equal(box_stencil(g, U[i], below, above),
                                  whole[i]), i

    def test_apply_L_matches_padded_stencil(self, rng):
        g = build_box_grid(5, 6, 2.0)
        size = g.m**g.N
        u = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        ref = _stencil_L(g, u)
        err = np.max(np.abs(box_stencil(g, u.reshape(g.shape)).ravel() - ref))
        assert err <= 1e-13 * np.max(np.abs(ref))


class TestTwistedOperator:
    @pytest.mark.parametrize("lam", [0.0, 0.7, 2.0])
    def test_minimizer_minimizes_the_form(
            self, grid128, op_c1, rng, lam):
        # Re a_{lam phi}(u) / ||u||_W^2 is least at the minimiser, and its
        # value there is the least W-eigenvalue of the symmetric part
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        tw = twist(op_c1, lam, phi)

        def quotient(u):
            return tw.form(u).real / float(op_c1.w @ np.abs(u) ** 2)

        u_star = tw.minimizer()
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

    @pytest.mark.parametrize("c", [0.0, 1.0])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
    def test_banded_minimizer_matches_the_dense_pencil(self, c, lam):
        # the minimiser's Rayleigh quotient is the lowest eigenvalue of
        # (F o cosh, W) to 1e-10 relative, or to round-off in the pencil's
        # scale: at lam = 0 that eigenvalue is 3e-10 of the scale
        grid = build_radial_grid(5, 30.0, 256, "uniform")
        op = assemble_sector(grid, 0, c)
        phi = make_phi(np.zeros(5), 2.0, b=-15.0, kind="radial", grid=grid)
        tw = twist(op, lam, phi)
        lp = tw.lam * tw.phi_values
        H = op.F * np.cosh(lp[:, None] - lp[None, :])
        mu = sla.eigh(H, np.diag(op.w), eigvals_only=True)
        u = tw.minimizer()
        assert (u @ H @ u) / (op.w @ u**2) == pytest.approx(
            mu[0], rel=1e-10, abs=1e-16 * np.max(np.abs(mu)))

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
        phi = make_phi(np.array([0.8, 0.6, 0, 0, 0]), 2.0, 0.2)
        res = twisted_form_terms(g, 1.0, box_probe(g), 0.7, phi)
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
        c = 1.0
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
                    - c * w * np.sum(V * v1 * np.conj(v2)))

        d = np.exp(lam * phi.values(g))
        direct = form(u / d, d * u) - form(u, u)
        res = twisted_form_terms(g, c, u.reshape(g.shape).__getitem__, lam,
                                 phi)
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

    def test_holds_few_node_arrays(self, traced_peak):
        # peak in complex axis-0 planes, the probe's own planes included:
        # the same bound at m = 12 and m = 16; at m = 16 it is under one
        # complex m^N array, the probe the box study once formed
        phi = make_phi(np.array([0.8, 0.6, 0, 0, 0]), 1.0, 0.2)
        for m in (12, 16):
            g = build_box_grid(5, m, 2.5)
            peak, _ = traced_peak(
                lambda: twisted_form_terms(g, 1.0, box_probe(g), 0.7, phi))
            assert peak <= TWISTED_PLANES * 16 * m ** 4, m
        assert peak < 16 * g.m ** g.N

    @pytest.mark.parametrize("N, m", [(5, 8), (5, 16), (6, 6)])
    def test_probe_planes_are_the_formed_probe_bit_for_bit(self, N, m):
        g = build_box_grid(N, m, 2.5)
        e = np.zeros(N)
        e[:2] = 0.8, 0.6
        phi = make_phi(e, 1.0, 0.2)
        U = _probe(g).reshape(g.shape)
        probe = box_probe(g)
        for i in range(m):
            assert np.array_equal(probe(i), U[i].ravel()), i
        assert (twisted_form_terms(g, 1.0, probe, 0.7, phi)
                == twisted_form_terms(g, 1.0, U.__getitem__, 0.7, phi))

    def test_potential_cancels_from_the_difference(self, box_grid_small,
                                                   rng):
        # (V e^{-lam phi} u, e^{lam phi} u) = (V u, u): c weights only
        # terms that cancel, so no term and no difference depends on it
        g = box_grid_small
        u = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        phi = make_phi(np.array([0.8, 0.6, 0, 0, 0]), 2.0, 0.2)
        r0, r1, r2 = (twisted_form_terms(g, c, u.__getitem__, 0.7, phi)
                      for c in (0.0, 1.0, 2.0))
        assert r0["terms"] == r1["terms"] == r2["terms"]
        assert abs(r0["direct"]) > 0.0
        for res in (r1, r2):
            assert abs(res["direct"] - r0["direct"]) <= (
                1e-12 * abs(r0["direct"]))

    def test_lambda_zero_has_no_correction(self, box_grid_small, rng):
        g = box_grid_small
        u = rng.standard_normal(g.shape)
        phi = make_phi(np.array([1.0, 0, 0, 0, 0]), 2.0)
        res = twisted_form_terms(g, 1.0, u.__getitem__, 0.0, phi)
        assert abs(res["sum"]) == 0.0
        assert abs(res["direct"]) < 1e-10
        assert all(abs(v) == 0.0 for v in res["terms"].values())


class TestFormEInequality:
    def test_holds_on_probe_batch(self, grid128, op_c1):
        # each u minimises the symmetric part of its twisted form, as in
        # twisted_decay_suite: these samples need k > 0
        R = grid128.R
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(20):
            lam = float(rng.uniform(0.1, 2.0))
            phi = make_phi(np.zeros(5), float(rng.uniform(1.0, 2.0)),
                           float(rng.uniform(-R / 2.0, -R / 3.0)),
                           kind="radial", grid=grid128)
            tw = twist(op_c1, lam, phi)
            samples.append(
                (tw.minimizer() * (1.0 + 0.2j * rng.standard_normal()), tw))
        res = forme_inequality_check(op_c1, samples)
        assert res["samples"] == 20
        assert res["k"] == pytest.approx(18 * 25 * res["eps"] ** -6)
        assert 0.0 < res["k_empirical"] <= res["k"]

    def test_supercritical_c_is_an_operator_error(self, grid128):
        # eta = 1 - c/C* must be positive for eps and k to exist
        cstar = paper_rellich_constant(5)
        with pytest.warns(UserWarning, match="may be indefinite"):
            op = assemble_sector(grid128, 0, cstar)
        with pytest.raises(OperatorError, match=r"needs c < C\* "
                           r"\(c = 1.5625, C\* = 1.5625\)"):
            forme_inequality_check(op, [])


def _apply_L_one_shot(op, u):
    """L u as the banded one-shot product: three whole-size temporaries."""
    col = (slice(None),) + (None,) * (u.ndim - 1)
    a = op.a[col]
    Su = op.diag[col] * u
    Su[:-1] += a * u[1:]
    Su[1:] += a * u[:-1]
    return Su / op.w[col]


def _probe(g):
    """u = e^{-|x|^2} (1 + 0.3i x_0), the x_0 factor broadcast per plane."""
    return (np.exp(-g.radii_sq()).reshape(g.m, -1)
            * (1.0 + 0.3j * g.axis)[:, None]).ravel()


def _rank_n_gradient(g, u):
    """(m^N, N) centred-difference gradient, one-sided at the boundary."""
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
