import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

from biharmlab import (assemble_sector, build_radial_grid, cli,
                       davies_distance, decay_fit, discrete_rellich,
                       estimates, eta_h, extrapolation_check,
                       lambda_optimizer_check, laplacian_decay_fit,
                       make_phi, norms, operators,
                       offdiag_fit, rellich_constant, remark_ball_inequality,
                       report, riesz_pnorm_sweep, solve_parabolic, twist,
                       twisted_decay_suite)
from biharmlab.estimates import (DistanceEstimate, EstimateError, gamma_pq,
                                 reliable_window)
from biharmlab.grids import sphere_area
from biharmlab.norms import (corner_norm, interpolation_upper,
                             kernel_block_norms, l2_norm)
from biharmlab.spectral import (KernelMatrix, SemigroupEvaluator,
                                SpectralDecomposition, riesz_kernel)


class TestWindowAndTargets:
    def test_reliable_window_scales_like_h4(self):
        g1 = build_radial_grid(5, 20.0, 128)
        g2 = build_radial_grid(5, 20.0, 256)
        lo1, hi1 = reliable_window(g1)
        lo2, hi2 = reliable_window(g2)
        assert lo2 == pytest.approx(lo1 / 16.0)
        assert hi1 == hi2

    def test_log_grid_window_starts_at_the_innermost_cell(self):
        g = build_radial_grid(5, 30.0, 512, "log")
        lo, hi = reliable_window(g)
        h = g.faces[1] - g.faces[0]
        assert lo == pytest.approx((3.0 * h) ** 4, rel=1e-12)
        # decay's default times 0.01 ... 0.1 all lie inside
        assert lo < 0.01 and hi > 0.1

    def test_gamma_pq_values(self):
        assert gamma_pq(5, 2.0, math.inf) == pytest.approx(5.0 / 8.0)
        assert gamma_pq(5, 2.0, 10.0) == pytest.approx(0.5)
        assert gamma_pq(5, 2.0, 2.0) == pytest.approx(0.0)


class TestRellich:
    def test_dirichlet_method_overestimates(self):
        # hard truncation keeps the quotient above the matched-tail value
        g = build_radial_grid(5, 1000.0, 400, "log")
        m = rellich_constant(g, ell_max=0)
        assert discrete_rellich(assemble_sector(g, 0, 0.0)) > m["min"]

    def test_sector_monotone_in_ell(self):
        g = build_radial_grid(5, 1000.0, 300, "log")
        res = rellich_constant(g, ell_max=2)
        per = res["per_sector"]
        assert per[0] < per[1] < per[2]
        assert res["argmin_ell"] == 0
        assert "higher_sector_wins" not in res

    def test_uniform_grid_is_rejected(self):
        # the matched inner tail is scaled by the inner face, 0 on a
        # uniform grid
        g = build_radial_grid(5, 30.0, 64, "uniform")
        with pytest.raises(EstimateError, match="--mode log"):
            rellich_constant(g, ell_max=0)

    @pytest.mark.parametrize("N", [5, 6])
    @pytest.mark.parametrize("ell", [0, 1, 3])
    def test_tail_blocks_match_quadrature(self, ell, N):
        # each face's flux row and blocks, entry (i, j) for the tails with
        # node values e_i and e_j, against adaptive quadrature of the
        # radial Laplacian psi'' + (N-1) psi'/r - ell(ell+N-2) psi/r^2
        g = build_radial_grid(N, 1000.0, 200, "log")
        rng = np.random.default_rng(10 * N + ell)
        f_in, f_out = rng.uniform(0.1, 10.0, 2)
        faces = [(g.faces[0], g.r[:2], 1), (g.faces[-1], g.r[-2:], -1),
                 (f_in, np.sort(f_in * rng.uniform(1.05, 2.0, 2)), 1),
                 (f_out, np.sort(f_out * rng.uniform(0.5, 0.95, 2)), -1)]
        sig = sphere_area(N)
        for f, nodes, side in faces:
            powers = np.array((ell, ell + 2) if side == 1
                              else (2 - N - ell, 4 - N - ell))
            flux, F, M = estimates._biharmonic_tail(N, f, nodes,
                                                    tuple(powers), side)
            # coefficients of (r/f)^p for the node values e_0 and e_1
            C = np.linalg.solve((nodes[:, None] / f) ** powers, np.eye(2))

            def psi(i, r, d=0):
                # d-th derivative: p (p-1) ... (p-d+1) r^{p-d} / f^p
                fall = np.prod([powers - k for k in range(d)], axis=0)
                return C[:, i] @ (fall * r ** (powers - d) / f**powers)

            def lap(i, r):
                return (psi(i, r, 2) + (N - 1) * psi(i, r, 1) / r
                        - ell * (ell + N - 2) * psi(i, r) / r**2)

            span = (0.0, f) if side == 1 else (f, np.inf)

            def integral(fn):
                return sig * quad(fn, *span, epsabs=0.0, epsrel=1e-13,
                                  limit=200)[0]

            F_ref = np.array([[integral(
                lambda r: lap(i, r) * lap(j, r) * r ** (N - 1))
                for j in range(2)] for i in range(2)])
            M_ref = np.array([[integral(
                lambda r: psi(i, r) * psi(j, r) * r ** (N - 5))
                for j in range(2)] for i in range(2)])
            flux_ref = sig * f ** (N - 1) * np.array([psi(i, f, 1)
                                                      for i in range(2)])
            for got, ref in ((flux, flux_ref), (F, F_ref), (M, M_ref)):
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @staticmethod
    def captured_pencils(monkeypatch) -> list:
        """The (F, M) of every Rellich pencil eigsh solves from now on."""
        pencils = []
        solve = spla.eigsh

        def capture(F, *args, M=None, **kwargs):
            pencils.append((F.toarray(), M.toarray()))
            return solve(F, *args, M=M, **kwargs)

        monkeypatch.setattr(spla, "eigsh", capture)
        return pencils

    @staticmethod
    def dense_stiffness(g, ell) -> np.ndarray:
        """The sector's flux-form stiffness, node by node: face coupling
        sigma f^{N-1}/(r_{i+1} - r_i) and the angular term on the
        diagonal, with no flux closure at either end."""
        N, r, f, w = g.N, g.r, g.faces, g.w
        S = np.zeros((g.n, g.n))
        for i in range(g.n - 1):
            a = sphere_area(N) * f[i + 1] ** (N - 1) / (r[i + 1] - r[i])
            S[i, i + 1] = S[i + 1, i] = a
            S[i, i] -= a
            S[i + 1, i + 1] -= a
        for i in range(g.n):
            S[i, i] -= ell * (ell + N - 2) * w[i] / r[i] ** 2
        return S

    @staticmethod
    def assert_pencil(got, ref):
        # each entry to 1e-13 of sqrt(|X_ii X_jj|) of the reference, which
        # implies 1e-13 of its largest entry; the inner tail is far below
        # the largest entry of a log grid's F
        scale = np.sqrt(np.abs(np.diag(ref)))
        assert np.all(np.abs(got - ref) <= 1e-13 * np.outer(scale, scale))

    @pytest.mark.parametrize("ell", [0, 3])
    def test_matched_pencil_is_the_closed_stiffness_plus_tails(
            self, ell, monkeypatch):
        g = build_radial_grid(5, 1000.0, 200, "log")
        n, N, w = g.n, g.N, g.w
        pencils = self.captured_pencils(monkeypatch)
        estimates._sector_rellich_matched(g, ell)
        (F, M), = pencils
        assert np.array_equal(F, F.T)
        tails = [estimates._biharmonic_tail(N, g.faces[0], g.r[:2],
                                            (ell, ell + 2), 1),
                 estimates._biharmonic_tail(N, g.faces[-1], g.r[-2:],
                                            (2 - N - ell, 4 - N - ell), -1)]
        S = self.dense_stiffness(g, ell)
        # the tail fluxes close rows 0 and n-1
        S[0, :2] += tails[0][0]
        S[-1, -2:] -= tails[1][0]
        F_ref = S.T @ np.diag(1.0 / w) @ S
        M_ref = np.diag(w * g.r**-4.0)
        for (_, F_t, M_t), block in zip(tails, (slice(0, 2),
                                                slice(n - 2, n))):
            F_ref[block, block] += F_t
            M_ref[block, block] += M_t
        self.assert_pencil(F, F_ref)
        self.assert_pencil(M, M_ref)

    def test_dirichlet_pencil_has_no_tails(self, monkeypatch):
        g = build_radial_grid(5, 30.0, 128, "uniform")
        pencils = self.captured_pencils(monkeypatch)
        discrete_rellich(assemble_sector(g, 2, 1.0))
        (F, M), = pencils
        assert np.array_equal(F, F.T)
        S = self.dense_stiffness(g, 2)
        # the Dirichlet ghost node beyond the outer face
        S[-1, -1] -= sphere_area(g.N) * g.R ** (g.N - 1) / (g.R - g.r[-1])
        self.assert_pencil(F, S.T @ np.diag(1.0 / g.w) @ S)
        self.assert_pencil(M, np.diag(g.w * g.r**-4.0))

    def test_repeat_calls_identical(self):
        g = build_radial_grid(5, 1000.0, 400, "log")
        a = rellich_constant(g, ell_max=2)["per_sector"]
        b = rellich_constant(g, ell_max=2)["per_sector"]
        assert a == b
        for ell in (0, 1):
            op = assemble_sector(g, ell, 0.0)
            assert discrete_rellich(op) == discrete_rellich(op)

    @pytest.mark.parametrize("mode", ["uniform", "log"])
    @pytest.mark.parametrize("ell", [0, 2])
    def test_discrete_rellich_matches_the_dense_route(self, mode, ell):
        g = build_radial_grid(5, 30.0, 256, mode)
        op = assemble_sector(g, ell, 1.0)
        # the route before the sparse build: the dense c = 0 form matrix
        F = sp.csc_matrix(assemble_sector(g, ell, 0.0).F)
        M = sp.diags(g.w * g.r**-4.0).tocsc()
        ref = spla.eigsh(F, k=1, M=M, sigma=0, which="LM", v0=np.ones(g.n),
                         return_eigenvectors=False)[0]
        # round-off in F moves the shift-invert answer: the dense route
        # itself moves by up to 3.3e-11 relative when only v0 changes
        assert discrete_rellich(op) == pytest.approx(ref, rel=1e-9)

    def test_discrete_rellich_forms_no_dense_matrix(self, traced_peak):
        n = 2048
        op = assemble_sector(build_radial_grid(5, 30.0, n), 0, 1.0)
        peak, _ = traced_peak(discrete_rellich, op)
        assert peak < 5e6       # one n x n matrix is 33.6 MB

    def test_discrete_rellich_bounds_eta(self):
        g = build_radial_grid(5, 30.0, 256)
        op = assemble_sector(g, 0, 1.0)
        cstar = discrete_rellich(op)
        assert cstar > 1.0
        assert eta_h(op) == pytest.approx(1.0 - 1.0 / cstar)


class TestDecayFit:
    def test_needs_five_points(self, op_c1):
        with pytest.raises(EstimateError):
            decay_fit(op_c1, 2.0, math.inf, [0.1, 0.2])

    def test_two_two_slope_near_zero(self, op_c0):
        fit = decay_fit(op_c0, 2.0, 2.0, list(np.geomspace(0.06, 0.6, 8)))
        assert abs(fit.exponent) < 0.05

    def test_fits_upper_bounds_without_dual_ascent(self, op_c1, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decay_fit ran the dual-ascent lower bound")

        monkeypatch.setattr(norms, "boyd_lower", refuse)
        ev = SemigroupEvaluator(op_c1)
        ts = list(np.geomspace(0.06, 0.6, 6))
        fit = decay_fit(op_c1, 2.0, 10.0, ts)
        assert fit.params["norm_values"] == [
            interpolation_upper(ev.kernel(t), 2.0, 10.0) for t in ts]

    def test_laplacian_decay_half(self, op_c0):
        fit = laplacian_decay_fit(op_c0, list(np.geomspace(0.06, 0.6, 8)))
        assert fit.target == pytest.approx(-0.5)
        assert abs(fit.exponent - (-0.5)) <= 0.05

    def test_laplacian_norms_at_c_zero_match_the_formed_kernel(
            self, op_c0, monkeypatch):
        ts = list(np.geomspace(0.06, 0.6, 6))
        ev = SemigroupEvaluator(op_c0)
        ref = [l2_norm(op_c0.apply_L(ev.kernel(t).K), op_c0.w, op_c0.w)
               for t in ts]
        kernels = collect_kernels(monkeypatch)
        fit = laplacian_decay_fit(op_c0, ts)
        assert kernels == []                  # read off the spectrum
        assert fit.params["norm_values"] == pytest.approx(ref, rel=1e-13,
                                                      abs=0.0)

    def test_laplacian_norms_at_c_one_are_the_formed_kernels(
            self, op_c1, one_blas_thread):
        ts = list(np.geomspace(0.06, 0.6, 6))
        ev = SemigroupEvaluator(op_c1)
        ref = [l2_norm(op_c1.apply_L(ev.kernel(t).K), op_c1.w, op_c1.w)
               for t in ts]
        fit = laplacian_decay_fit(op_c1, ts)
        # the r x r factors round differently from the formed kernel's SVD
        assert fit.params["norm_values"] == pytest.approx(ref, rel=1e-12,
                                                          abs=0.0)

    @pytest.mark.parametrize("name", ["op_c0", "op_c1"])
    def test_laplacian_fit_forms_no_kernel_and_takes_no_svd(
            self, name, request, monkeypatch):
        # one route at every c: r x r factors of the kept modes
        op = request.getfixturevalue(name)

        def refuse(*args, **kwargs):
            raise AssertionError("an n x n kernel or SVD was formed")

        monkeypatch.setattr(SpectralDecomposition, "synth_kernel", refuse)
        monkeypatch.setattr(KernelMatrix, "K", property(refuse))
        monkeypatch.setattr(norms, "l2_norm", refuse)
        monkeypatch.setattr(norms, "_sigma_max", refuse)
        fit = laplacian_decay_fit(op, list(np.geomspace(0.06, 0.6, 6)))
        assert len(fit.params["norm_values"]) == 6

    def test_laplacian_fit_keeps_the_reliable_window(self, op_c0):
        # decay_fit's window and its rule of at least 5 points
        lo, hi = reliable_window(op_c0.grid)
        below = [lo / 4.0, lo / 2.0]
        ts = below + list(np.geomspace(1.5 * lo, 20.0 * lo, 6))
        fit = laplacian_decay_fit(op_c0, ts)
        assert fit.params["t_values"] == ts[2:]
        with pytest.raises(EstimateError, match="fewer than 5"):
            laplacian_decay_fit(op_c0, below + list(
                np.geomspace(1.5 * lo, 3.0 * lo, 4)))

    def test_both_fits_share_one_body(self, op_c0):
        ts = list(np.geomspace(0.06, 0.6, 6))
        fits = [decay_fit(op_c0, 2.0, 10.0, ts),
                laplacian_decay_fit(op_c0, ts)]
        assert fits[0].params.keys() == fits[1].params.keys() == {
            "exponent", "prefactor", "t_values", "norm_values"}
        for fit in fits:
            lt = np.log(fit.params["t_values"])
            lv = np.log(fit.params["norm_values"])
            slope, intercept = np.polyfit(lt, lv, 1)
            assert fit.exponent == slope
            assert fit.params["prefactor"] == math.exp(intercept)
            assert fit.residual == np.max(np.abs(lv - (slope * lt
                                                       + intercept)))


def collect_kernels(monkeypatch) -> list:
    """Every kernel SemigroupEvaluator.kernel returns from now on."""
    kernels = []
    build = SemigroupEvaluator.kernel

    def collected(self, t):
        kernels.append(build(self, t))
        return kernels[-1]

    monkeypatch.setattr(SemigroupEvaluator, "kernel", collected)
    return kernels


class TestSpectralRoute:
    def test_contraction_and_sup_decay_form_no_kernel(self, op_c1, tmp_path,
                                                      monkeypatch):
        def refuse(*args):
            raise AssertionError("an SVD was taken")

        monkeypatch.setattr(norms, "l2_norm", refuse)
        kernels = collect_kernels(monkeypatch)
        flags = cli.build_parser().parse_args(["coercivity", "--n", "128"])
        cli.run_coercivity(cli.resolve("coercivity", flags, {}),
                           report.RunManifest({}, str(tmp_path), False))
        decay_fit(op_c1, 2.0, math.inf, list(np.geomspace(0.06, 0.6, 6)))
        assert len(kernels) == 12 + 6
        assert not any("K" in kern.__dict__ for kern in kernels)

    def test_offdiag_normalises_by_the_formed_kernel(self):
        # each ratio is numpy's SVD of the weighted block chi_F K chi_E,
        # E = {|x| <= 1} and F_d = {|x| >= d}, over that of the weighted
        # kernel K = (Q f) Q^T, bit for bit
        op = assemble_sector(build_radial_grid(5, 40.0, 256), 0, 1.0)
        ds = (3.0, 5.0, 8.0, 12.0)
        ts = np.geomspace(1e-3, 1e-2, 4)
        res = offdiag_fit(op, ds, ts)
        dec = op.decomposition
        assert "_gram_health" not in vars(dec)
        mE = op.grid.r <= 1.0
        sw = np.sqrt(op.w)
        ref = []
        for t in ts:
            K = (dec.Q * np.exp(-t * dec.mu)) @ dec.Q.T
            full = np.linalg.norm(sw[:, None] * K * sw, 2)
            ref.append([])
            for d in ds:
                mF = op.grid.r >= d
                block = sw[mF][:, None] * K[np.ix_(mF, mE)] * sw[mE]
                ref[-1].append(np.linalg.norm(block, 2) / full)
        assert np.array_equal(res["ratios"], np.array(ref))


    def test_offdiag_kernels_sum_every_mode_through_sigma_max(
            self, monkeypatch):
        # offdiag.csv is pinned bit for bit to the benchmark reference, and
        # summing only the kept modes moves its kernels (by up to 1.1e-26
        # relative at n = 2048): every kernel sums all n modes, and every
        # ratio is a quotient of two of _sigma_max's values
        op = assemble_sector(build_radial_grid(5, 40.0, 256), 0, 1.0)
        dec = op.decomposition
        ds, ts = (3.0, 5.0, 8.0, 12.0), np.geomspace(1e-3, 0.1, 4)
        # the largest time drops modes, so a kept-mode sum would show
        assert np.count_nonzero(np.exp(-ts[-1] * dec.mu)) < op.n
        sums, sigmas = [], []
        synth, sigma = SpectralDecomposition.synth_kernel, norms._sigma_max

        def counted_synth(self, fmu, modes=None):
            sums.append(self.n if modes is None else len(modes))
            return synth(self, fmu, modes)

        def counted_sigma(A):
            sigmas.append(sigma(A))
            return sigmas[-1]

        monkeypatch.setattr(SpectralDecomposition, "synth_kernel",
                            counted_synth)
        monkeypatch.setattr(norms, "_sigma_max", counted_sigma)
        monkeypatch.setattr(norms, "_norm_workers", lambda tasks: 1)
        res = offdiag_fit(op, ds, ts)
        assert sums == [op.n] * len(ts)
        table = np.array(sigmas).reshape(len(ts), len(ds) + 1)
        assert np.array_equal(res["ratios"], table[:, :-1] / table[:, -1:])


class TestOffdiag:
    def test_zero_distance_reduces_to_plain_norm(self, op_c1):
        kern = SemigroupEvaluator(op_c1).kernel(0.1)
        full = np.ones(op_c1.n, dtype=bool)
        plain = corner_norm(kern, 2.0, 2.0)
        # a proper, non-square sub-block against the explicit SVD of
        # W_F^{1/2} K_FE W_E^{1/2}
        r, w = op_c1.grid.r, kern.w
        mF, mE = (r > 0.5) & (r < 3.0), r < 1.5
        assert 0 < mE.sum() < mF.sum() < op_c1.n
        (whole, block, kernel), = kernel_block_norms(
            op_c1.decomposition, [kern.f], [(full, full), (mF, mE)])[0]
        assert whole == kernel == pytest.approx(plain)
        ref = np.linalg.svd(np.diag(np.sqrt(w[mF])) @ kern.K[mF][:, mE]
                            @ np.diag(np.sqrt(w[mE])), compute_uv=False)[0]
        assert block == pytest.approx(ref, rel=1e-12)
        assert 0 < block < plain

    @pytest.mark.parametrize("d", [-1.0, 1.0, 0.5])
    def test_region_at_zero_distance_is_rejected(self, op_c1, d):
        with pytest.raises(EstimateError, match=f"at --d {d:g}$"):
            offdiag_fit(op_c1, [3.0, d, 6.0], [0.05, 0.1])

    def test_distances_are_taken_in_ascending_order(self, op_c1):
        # F_d = {|x| >= d} lies at distance d - 1 from E = {|x| <= 1}, and
        # the time fit fixes the second-smallest d
        ts = list(np.geomspace(0.05, 0.2, 5))
        up = offdiag_fit(op_c1, [3.0, 6.0, 9.0], ts)
        mixed = offdiag_fit(op_c1, [9.0, 3.0, 6.0], ts)
        assert np.array_equal(up["ratios"], mixed["ratios"])
        assert up["time_fit"].params == mixed["time_fit"].params
        assert up["time_fit"].params["d"] == 5.0
        assert [f.params for f in up["distance_fits"]] == \
            [f.params for f in mixed["distance_fits"]]

    def test_repeated_radii_count_once(self, op_c1):
        # the guard counts distinct radii, and a repeated smallest d does
        # not become the time fit's second-smallest
        with pytest.raises(EstimateError,
                           match=r"at least 2 distinct --d values \(got 1\)"):
            offdiag_fit(op_c1, [3.0, 3.0], [0.05, 0.1])
        ts = list(np.geomspace(0.05, 0.2, 5))
        repeated = offdiag_fit(op_c1, [3.0, 3.0, 6.0, 9.0], ts)
        distinct = offdiag_fit(op_c1, [3.0, 6.0, 9.0], ts)
        assert np.array_equal(repeated["ratios"], distinct["ratios"])
        assert repeated["time_fit"].params == distinct["time_fit"].params
        assert repeated["time_fit"].params["d"] == 5.0

    def test_ratios_decay_with_distance(self, op_c1):
        ds = (3.0, 6.0, 9.0)
        ts = list(np.geomspace(0.05, 0.2, 5))
        res = offdiag_fit(op_c1, ds, ts)
        r = res["ratios"]
        assert r.shape == (len(ts), len(ds))
        assert np.all((r >= 0) & (r <= 1.0 + 1e-9))
        for row in r:
            usable = row[row > res["floor"]]
            assert np.all(np.diff(usable) <= 1e-12)


class TestDavies:
    def test_bracket_on_known_pair(self):
        est = davies_distance(np.zeros(5), 1.0, np.r_[5.0, 0, 0, 0, 0], 1.0)
        assert est.d_e == pytest.approx(3.0)
        assert 0.95 * 3.0 <= est.d_lb <= math.sqrt(5) * 3.0 + 1e-9

    def test_dimension_is_the_number_of_coordinates(self):
        est = davies_distance(np.zeros(7), 0.5, np.r_[4.0, 0, 0, 0, 0, 0, 0],
                              1.5)
        assert est.d_e == 2.0
        assert est.bracket == (2.0, math.sqrt(7) * 2.0)

    def test_closed_form_on_known_pair(self):
        # u = 3/2, s = 20u = 30: d_lb = 2s tanh(u/s) = 60 tanh(1/20)
        est = davies_distance(np.zeros(5), 1.0, np.r_[5.0, 0, 0, 0, 0], 1.0)
        assert est.d_lb == pytest.approx(60.0 * math.tanh(1.0 / 20.0),
                                         rel=1e-15, abs=0.0)

    def test_lower_bound_below_euclidean_distance(self):
        # tanh x <= x keeps d_lb <= d_e, so no clamp to the bracket is needed
        rng = np.random.default_rng(3)
        for _ in range(100):
            c1, c2 = rng.uniform(-5, 5, (2, 5))
            r1, r2 = rng.uniform(0.0, 2.0, 2)
            est = davies_distance(c1, r1, c2, r2)
            assert 0.0 <= est.d_lb <= est.d_e

    def test_estimate_outside_the_bracket_is_rejected(self):
        # the one place the sqrt(N) d_e side is enforced, for the CLI too
        top = math.sqrt(5) * 3.0
        DistanceEstimate(d_e=3.0, d_lb=top, bracket=(3.0, top))
        for d_lb in (top + 1e-8, -1e-12):
            with pytest.raises(EstimateError):
                DistanceEstimate(d_e=3.0, d_lb=d_lb, bracket=(3.0, top))

    def test_touching_regions_zero(self):
        est = davies_distance(np.zeros(5), 2.0, np.r_[3.0, 0, 0, 0, 0], 1.0)
        assert est.d_e == 0.0
        assert est.d_lb == 0.0

    def test_ball_centres_of_different_shape_raise(self):
        # a size-1 centre is not broadcast to (2, ..., 2)
        with pytest.raises(EstimateError, match=r"differ in shape: \(1,\), "
                                                r"\(5,\)"):
            davies_distance(2.0, 1.0, np.full(5, 5.0), 1.0)

    def test_remark_inequality_disjoint_pair(self):
        rep = remark_ball_inequality(np.zeros(5), np.r_[8.0, 0, 0, 0, 0], 1.0)
        assert rep["ok"]
        assert rep["d_e"] == pytest.approx(6.0)


class TestTwistedSuite:
    def test_bounds_hold_on_samples(self, op_c1, grid128):
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        ts = list(np.geomspace(0.06, 0.3, 4))
        res = twisted_decay_suite(op_c1, [0.5, 1.0], [phi], ts)
        assert "ok" not in res
        for row in res["rows"]:
            assert row["norm"] <= row["bound"] * (1.0 + 1e-12)
            assert row["lap_norm"] <= row["lap_bound"]
        assert res["k_h"] >= 0
        assert res["m_hat"] > 0

    def test_unrepresentable_bound_reads_inf(self, op_c1, grid128):
        # e^{2 k_h (1 + lam^4) t} overflows at t = 1e3: that bound and its
        # Laplacian bound read inf, not NaN, even where M-hat underflows to 0
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=grid128)
        for ts in ([0.1, 1e3], [1e3]):
            res = twisted_decay_suite(op_c1, [2.0], [phi], ts)
            last = res["rows"][-1]
            assert math.isinf(last["bound"]) and math.isinf(last["lap_bound"])
            assert math.isfinite(last["norm"])
            assert math.isfinite(last["lap_norm"])
        assert res["m_hat"] == 0.0

    def test_norms_match_dense_expm(self):
        # reference: e^{-tA} = W^{-1/2} expm(-tB) W^{1/2} with the symmetric
        # B = W^{-1/2} F W^{-1/2}, independent of the eigendecomposition
        g = build_radial_grid(5, 20.0, 64, "uniform")
        op = assemble_sector(g, 0, 1.0)
        sw = np.sqrt(op.w)
        B = op.F / sw[:, None] / sw[None, :]
        Lw = op.S / sw[:, None] / sw[None, :]      # W^{1/2} L W^{-1/2}
        phi = make_phi(np.zeros(5), 2.0, b=-8.0, kind="radial", grid=g)
        ts = [0.06, 0.15, 0.4]
        res = twisted_decay_suite(op, [0.5, 2.0], [phi], ts)
        assert len(res["rows"]) == 6
        for row in res["rows"]:
            d = np.exp(row["lam"] * twist(op, row["lam"], phi).phi_values)
            T = d[:, None] * sla.expm(-row["t"] * B) / d[None, :]
            assert row["norm"] == pytest.approx(np.linalg.norm(T, 2),
                                                rel=1e-9)
            assert row["lap_norm"] == pytest.approx(
                np.linalg.norm(Lw @ T, 2), rel=1e-9)

        # inside the reliable window [0.77, 39] of this grid
        ts = np.geomspace(0.8, 8.0, 6)
        vals = [np.linalg.norm(Lw @ sla.expm(-t * B), 2) for t in ts]
        slope, intercept = np.polyfit(np.log(ts), np.log(vals), 1)
        fit = laplacian_decay_fit(op, ts)
        assert fit.exponent == pytest.approx(slope, rel=1e-9)
        assert fit.params["prefactor"] == pytest.approx(math.exp(intercept),
                                                        rel=1e-9)


    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_suite_grid_matches_the_formed_kernels(self, c, monkeypatch):
        # twisted's own grid, lambdas, phis and times: every row within
        # 1e-12 of l2_norm of the formed D K D^{-1} and L D K D^{-1}, with
        # no kernel formed and no n x n SVD taken
        args = cli.resolve("twisted", cli.build_parser().parse_args(
            ["twisted"]), {})
        g = build_radial_grid(args.N, args.R, args.n, args.mode)
        op = assemble_sector(g, 0, c)
        dec = op.decomposition
        phis = [make_phi(np.zeros(args.N), 1.0, -g.R / 3.0, kind="radial",
                         grid=g),
                make_phi(np.zeros(args.N), 2.0, -g.R / 2.0, kind="radial",
                         grid=g)]
        ref = []
        for lam in args.lam:
            for phi in phis:
                d = np.exp(lam * twist(op, lam, phi).phi_values)
                for t in args.t:
                    K = (dec.Q * np.exp(-t * dec.mu)) @ dec.Q.T
                    Kt = d[:, None] * K / d[None, :]
                    ref.append((l2_norm(Kt, op.w, op.w),
                                l2_norm(op.apply_L(Kt), op.w, op.w)))

        def refuse(*args):
            raise AssertionError("an n x n SVD was taken")

        kernels = collect_kernels(monkeypatch)
        monkeypatch.setattr(norms, "_sigma_max", refuse)
        res = twisted_decay_suite(op, args.lam, phis, args.t)
        assert len(kernels) == len(args.t)
        assert not any("K" in kern.__dict__ for kern in kernels)
        kept = np.count_nonzero(np.exp(-min(args.t) * dec.mu) > 0)
        assert res["kept_modes"] == kept < op.n
        assert len(res["rows"]) == len(ref)
        for row, (nrm, lap) in zip(res["rows"], ref):
            assert row["norm"] == pytest.approx(nrm, rel=1e-12, abs=0.0)
            assert row["lap_norm"] == pytest.approx(lap, rel=1e-12, abs=0.0)

    def test_twists_each_pair_once(self, monkeypatch):
        # twisted's own grid, c, lambdas and phis: one twist per (lam, phi),
        # none of them inside the form inequality, which takes the twisted
        # operators with their samples
        args = cli.resolve("twisted", cli.build_parser().parse_args(
            ["twisted"]), {})
        g = build_radial_grid(args.N, args.R, args.n, args.mode)
        op = assemble_sector(g, 0, args.c)
        phis = [make_phi(np.zeros(args.N), 1.0, -g.R / 3.0, kind="radial",
                         grid=g),
                make_phi(np.zeros(args.N), 2.0, -g.R / 2.0, kind="radial",
                         grid=g)]
        calls, inside = [], []
        real_twist = operators.twist
        real_check = operators.forme_inequality_check

        def counted_twist(op, lam, phi):
            calls.append((lam, id(phi)))
            return real_twist(op, lam, phi)

        def counted_check(op, samples):
            before = len(calls)
            out = real_check(op, samples)
            inside.append(len(calls) - before)
            return out

        for module in (operators, estimates):
            monkeypatch.setattr(module, "twist", counted_twist)
        monkeypatch.setattr(estimates, "forme_inequality_check",
                            counted_check)
        twisted_decay_suite(op, args.lam, phis, args.t)
        assert sorted(calls) == sorted((lam, id(phi)) for lam in args.lam
                                       for phi in phis)
        assert inside == [0]


class TestExtrapolation:
    def test_no_growth_trend(self, op_c1):
        out = extrapolation_check(op_c1, [4.0, 10.0],
                                  list(np.geomspace(0.06, 0.6, 6)))
        for p in (4.0, 10.0):
            assert out[p]["max_over_first"] <= 2.0

    def test_one_block_per_kernel_over_the_p_list(self, op_c1, monkeypatch):
        blocks = []
        real = norms.boyd_lower

        def counting(kernel, pairs, **kwargs):
            blocks.append(list(pairs))
            return real(kernel, pairs, **kwargs)

        monkeypatch.setattr(norms, "boyd_lower", counting)
        ev = SemigroupEvaluator(op_c1)
        ts = list(np.geomspace(0.06, 0.6, 4))
        out = extrapolation_check(op_c1, [1.5, 4.0], ts)
        assert blocks == [[(1.5, 1.5), (4.0, 4.0)]] * len(ts)
        for p in (1.5, 4.0):
            for t, lo, up in zip(ts, out[p]["lower"], out[p]["upper"]):
                one = norms.opnorms(ev.kernel(t), [(p, p)])[0]
                assert up == one.upper
                assert lo == pytest.approx(one.lower, rel=1e-13)


@pytest.fixture(scope="module")
def op_c1_refined(grid128):
    # op_c1 at twice the nodes of the same grid
    g = build_radial_grid(grid128.N, grid128.R, 2 * grid128.n, grid128.mode)
    return assemble_sector(g, 0, 1.0)


class TestRieszSweep:
    def test_p2_entry_certified(self, op_c1, op_c1_refined):
        res, _ = riesz_pnorm_sweep(op_c1, [1.5], op_c1_refined)
        ent = res[2.0]
        assert "ok" not in ent
        assert ent["estimate"].upper <= ent["eta_bound"] + 1e-8

    def test_bracket_per_p(self, op_c1, op_c1_refined):
        res, _ = riesz_pnorm_sweep(op_c1, [1.3, 1.8], op_c1_refined)
        for p in (1.3, 1.8):
            est = res[p]["estimate"]
            assert est.lower <= est.upper * (1 + 1e-12)

    def test_six_corner_norms_per_kernel(self, monkeypatch):
        calls = []
        real = norms.corner_norm

        def counting(kernel, p, q):
            calls.append((id(kernel), len(kernel.w), p, q))
            return real(kernel, p, q)

        # over estimates' own imported name too, which the p = 2 entry
        # could call directly
        monkeypatch.setattr(norms, "corner_norm", counting)
        monkeypatch.setattr(estimates, "corner_norm", counting, raising=False)
        ops = [assemble_sector(build_radial_grid(5, 20.0, n, "uniform"), 0, 1.0)
               for n in (32, 48)]
        res, _ = riesz_pnorm_sweep(ops[0], [1.3, 1.5, 1.8],
                                   refined_op=ops[1])
        # the refined kernel gets a lower bound only: no corner norm
        assert len(calls) == 6
        assert {(p, q) for _, _, p, q in calls} == set(norms.CORNERS)
        assert {n for _, n, _, _ in calls} == {32}
        assert len({k for k, _, _, _ in calls}) == 1
        assert res[2.0]["estimate"].upper == real(riesz_kernel(ops[0]), 2.0, 2.0)

    def test_one_dual_ascent_block_per_kernel(self, monkeypatch):
        blocks = []
        real = norms.boyd_lower

        def counting(kernel, pairs, **kwargs):
            blocks.append((len(kernel.w), list(pairs)))
            return real(kernel, pairs, **kwargs)

        monkeypatch.setattr(norms, "boyd_lower", counting)
        monkeypatch.setattr(estimates, "boyd_lower", counting)
        ops = [assemble_sector(build_radial_grid(5, 20.0, n, "uniform"), 0, 1.0)
               for n in (32, 48)]
        ps = [1.3, 1.5, 1.8]
        res, _ = riesz_pnorm_sweep(ops[0], ps, refined_op=ops[1])
        # the refined kernel first, before the base operator is decomposed
        assert blocks == [(48, [(p, p) for p in ps]), (32, [(p, p) for p in ps])]
        # the refined lower bounds are the ones the stability reads
        kern2 = riesz_kernel(ops[1])
        for p, (lo2, _) in zip(ps, real(kern2, [(p, p) for p in ps])):
            base = res[p]["estimate"].lower
            assert res[p]["stability"] == abs(lo2 - base) / base
            assert "stable" not in res[p]

    def test_peak_memory_is_one_refined_eigensolve(self, traced_peak):
        # the refined operator's eigensolve (F, W and LAPACK's workspace)
        # is the peak; nothing of the base operator is held during it
        n = 256
        ops = [assemble_sector(build_radial_grid(5, 30.0, m, "uniform"), 0,
                               1.0) for m in (n, 2 * n)]
        peak, _ = traced_peak(riesz_pnorm_sweep, ops[0], [1.3, 1.5, 1.8],
                              refined_op=ops[1])
        assert peak <= 4.25 * (2 * n) ** 2 * 8


class TestSolveParabolic:
    def test_norm_decreases_along_trajectory(self, op_c1, grid128):
        from biharmlab import probe_functions
        f = probe_functions(grid128, 1)[0]
        out = solve_parabolic(op_c1, f, list(np.geomspace(0.05, 1.0, 6)), 2.0)
        norms = [row["norm_p"] for row in out]
        assert all(np.diff(norms) <= 1e-12)
        assert all(np.isfinite(row["seminorm_p"]) for row in out)


class TestLambdaOptimizer:
    def test_closed_form_examples(self):
        res = lambda_optimizer_check(2.0, 1.0, 1.0)
        assert res["c_omega"] == pytest.approx(0.375)
        assert "ok" not in res
        assert res["rel_err_lam"] <= 1e-6

    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            res = lambda_optimizer_check(float(rng.uniform(0.1, 5.0)),
                                         float(rng.uniform(0.1, 10.0)),
                                         complex(rng.uniform(0.1, 5.0),
                                                 rng.uniform(-2.0, 2.0)))
            assert res["rel_err_lam"] <= 1e-6
            assert res["rel_err_value"] <= 1e-6

    def test_invalid_inputs_rejected(self):
        with pytest.raises(EstimateError):
            lambda_optimizer_check(-1.0, 1.0, 1.0)


class TestDilateScalingCompatibility:
    def test_free_semigroup_commutes_under_refinement(self):
        # D_s e^{-s^4 t A0} = e^{-t A0} D_s up to interpolation error that
        # vanishes under grid refinement; (D_s u)(r) = u(s r) by linear
        # interpolation of the radial profile
        s, t = 0.5, 0.05
        errs = []
        for n in (256, 1024):
            g = build_radial_grid(5, 20.0, n)
            ev = SemigroupEvaluator(assemble_sector(g, 0, 0.0))

            def dilate(v):
                return np.interp(s * g.r, g.r, v, left=v[0])

            u = np.exp(-g.r**2)
            a = dilate(ev.apply(s**4 * t, u))
            b = ev.apply(t, dilate(u))
            errs.append(np.linalg.norm(a - b) / np.linalg.norm(b))
        assert errs[1] < 0.25 * errs[0]
        assert errs[1] < 1e-3
