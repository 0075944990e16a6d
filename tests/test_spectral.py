import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla

from biharmlab import (SemigroupEvaluator, assemble_sector,
                       build_radial_grid, eigendecompose, inv_sqrt_apply,
                       laplacian_decay_fit, make_phi, riesz_apply,
                       riesz_kernel, spectral, twisted_decay_suite)
from biharmlab.norms import corner_norm
from biharmlab.spectral import SpectralError, quadrature_nodes


class TestEigendecompose:
    def test_orthonormality_residual(self, dec_c1):
        assert dec_c1.orthonormality_residual() <= 1e-10

    def test_eigenpair_residuals(self, op_c1, dec_c1):
        top = abs(dec_c1.mu[-1])
        for j in (0, 1, op_c1.n // 2, op_c1.n - 1):
            q = dec_c1.Q[:, j]
            res = op_c1.apply_A(q) - dec_c1.mu[j] * q
            assert math.sqrt(float(op_c1.w @ res**2)) <= 1e-8 * top

    def test_positive_spectrum_subcritical(self):
        g = build_radial_grid(5, 30.0, 512)
        d = eigendecompose(assemble_sector(g, 0, 1.0))
        assert d.mu[0] > 0

    def test_c0_square_structure(self, op_c0, dec_c0):
        # at c = 0 the operator is exactly the square of -L
        q = dec_c0.Q[:, 0]
        lq = -op_c0.apply_L(q)
        mu = float(op_c0.w @ (lq * q))
        assert mu**2 == pytest.approx(dec_c0.mu[0], rel=1e-8)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_working_memory(self, c, traced_peak):
        # c > 0: F and dsyevd's 2 n^2 workspace, with the eigenvectors
        # written over F and no n x n diag(w) (the generalized eigh held
        # 4 n^2); c = 0: the eigenvectors of the tridiagonal T and
        # LAPACK's n^2 workspace, no n x n input
        n = 1024
        op = assemble_sector(build_radial_grid(5, 30.0, n), 0, c)
        peak, _ = traced_peak(eigendecompose, op)
        assert peak <= (3.25 if c else 2.25) * n * n * 8

    @pytest.mark.parametrize("mode", ["uniform", "log"])
    @pytest.mark.parametrize("ell", [0, 2])
    def test_c0_matches_the_dense_generalized_route(self, mode, ell):
        op = assemble_sector(build_radial_grid(5, 30.0, 256, mode), ell, 0.0)
        dec = eigendecompose(op)
        # reference: the dense route -S q = nu W q, with mu = nu^2 sorted
        nu, Q = sla.eigh(-op.S, np.diag(op.w))
        order = np.argsort(nu**2)
        ref = spectral.SpectralDecomposition(mu=nu[order] ** 2,
                                             Q=Q[:, order], w=op.w)
        assert np.all(np.diff(dec.mu) > 0)
        assert np.allclose(dec.mu, ref.mu, rtol=1e-10, atol=0.0)
        got, want = (spectral.KernelMatrix(dec=d, f=np.exp(-0.05 * d.mu))
                     for d in (dec, ref))
        for p, q in [(2.0, math.inf), (1.0, 1.0)]:
            assert corner_norm(got, p, q) == pytest.approx(
                corner_norm(want, p, q), rel=1e-12)

    @pytest.mark.parametrize("mode", ["uniform", "log"])
    def test_c1_is_the_generalized_eigh_bit_for_bit(self, mode):
        # eigendecompose works on F in place, yet must return what scipy
        # returns on copies, bit for bit: offdiag.csv is compared with a
        # stored reference at 1e-10
        op = assemble_sector(build_radial_grid(5, 30.0, 128, mode), 0, 1.0)
        dec = eigendecompose(op)
        mu, Q = sla.eigh(op.F, np.diag(op.w))
        assert np.array_equal(dec.mu, mu)
        assert np.array_equal(dec.Q, Q)

    @pytest.mark.parametrize("c", [1.0, -2.0])
    @pytest.mark.parametrize("mode", ["uniform", "log"])
    @pytest.mark.parametrize("n", [40, 64, 65, 128, 300, 1000])
    def test_standard_form_is_the_generalized_eigh_bit_for_bit(self, n,
                                                                mode, c):
        # the standard form must return what scipy's generalized eigh
        # returns, bit for bit (offdiag.csv is compared with a stored
        # reference at 1e-10).  n runs below, at and across dsygst's
        # 64-row blocks, whose edges decide how each band entry is scaled
        op = assemble_sector(build_radial_grid(5, 30.0, n, mode), 0, c)
        dec = eigendecompose(op)
        mu, Q = sla.eigh(op.F, np.diag(op.w))
        assert np.array_equal(dec.mu, mu)
        assert np.array_equal(dec.Q, Q)

    def test_c1_solves_no_generalized_problem(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a generalized eigensolver was called")

        monkeypatch.setattr(sla, "eigh", refuse)
        for name in ("dsygvd", "dsygv", "dpotrf"):
            monkeypatch.setattr(sla.lapack, name, refuse)
        eigendecompose(assemble_sector(build_radial_grid(5, 30.0, 64), 0,
                                       1.0))

    @staticmethod
    def _op_with_sixth_weight(value):
        grid = build_radial_grid(5, 30.0, 64)
        w = grid.w.copy()
        w[5] = value
        return assemble_sector(dataclasses.replace(grid, w=w), 0, 1.0)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_input_is_a_value_error(self, bad):
        op = assemble_sector(build_radial_grid(5, 30.0, 64), 0, 1.0)
        op.a[10] = bad
        for op in (op, self._op_with_sixth_weight(bad)):
            with pytest.raises(ValueError, match="infs or NaNs"):
                eigendecompose(op)

    def test_non_positive_weight_is_a_linalg_error(self):
        # as the Cholesky factorisation of diag(w) in the generalized eigh
        op = self._op_with_sixth_weight(-1.0)
        with pytest.raises(np.linalg.LinAlgError, match="order 6 of B"):
            sla.eigh(op.F, np.diag(op.w))
        with pytest.raises(np.linalg.LinAlgError, match="order 6 of B"):
            eigendecompose(op)

    def test_eigensolver_failure_is_a_linalg_error(self, monkeypatch):
        dsyevd = sla.lapack.dsyevd

        def failing(*args, **kwargs):
            w, v, _ = dsyevd(*args, **kwargs)
            return w, v, 3

        monkeypatch.setattr(sla.lapack, "dsyevd", failing)
        with pytest.raises(np.linalg.LinAlgError, match="info = 3"):
            eigendecompose(assemble_sector(build_radial_grid(5, 30.0, 64),
                                           0, 1.0))


class TestSynthKernel:
    @pytest.mark.parametrize("t", [0.05, 0.05 + 0.02j])
    def test_row_blocks_are_the_one_product_bit_for_bit(self, t):
        dec = assemble_sector(build_radial_grid(5, 30.0, 200), 0,
                              1.0).decomposition
        rows = -(-dec.n // spectral.SYNTH_BLOCKS)
        assert dec.n % rows != 0
        f = np.exp(-t * dec.mu)
        K = dec.synth_kernel(f)
        assert K.flags.f_contiguous and K.dtype == f.dtype
        assert np.array_equal(K, (dec.Q * f[None, :]) @ dec.Q.T)

    def test_working_memory(self, traced_peak):
        # the kernel, one row block's product and numpy's small ufunc
        # buffers: no n x n Q f temporary
        n = 1024
        rng = np.random.default_rng(0)
        dec = spectral.SpectralDecomposition(
            mu=np.sort(rng.uniform(0.0, 1e4, n)),
            Q=rng.standard_normal((n, n)), w=np.ones(n))
        f = np.exp(-1e-3 * dec.mu)
        peak, _ = traced_peak(dec.synth_kernel, f)
        assert peak <= 1.1 * n * n * 8


class TestKeptModes:
    @pytest.mark.parametrize("t", [0.01, 0.05, 0.5, 0.05 + 0.02j])
    def test_kernel_sums_only_the_modes_with_nonzero_values(self, monkeypatch,
                                                           t):
        op = assemble_sector(build_radial_grid(5, 30.0, 256), 0, 1.0)
        dec = op.decomposition
        sums = []
        synth = spectral.SpectralDecomposition.synth_kernel

        def counted(self, fmu, modes=None):
            sums.append(self.n if modes is None else len(modes))
            return synth(self, fmu, modes)

        monkeypatch.setattr(spectral.SpectralDecomposition, "synth_kernel",
                            counted)
        kern = SemigroupEvaluator(op).kernel(t)
        kept = int(np.count_nonzero(np.abs(kern.f) > 0))
        assert kern.kept.size == kept
        K = kern.K
        assert sums == [kept]
        # the dropped values are exact zeros, so only round-off moves K
        full = (dec.Q * kern.f) @ dec.Q.T
        assert np.max(np.abs(K - full)) <= 1e-15 * np.max(np.abs(full))
        assert kept < dec.n

    def test_values_that_never_underflow_keep_every_mode(self, op_c1):
        dec = op_c1.decomposition
        kern = spectral.KernelMatrix(dec=dec, f=dec.mu**-0.5)
        assert np.array_equal(kern.kept, np.arange(dec.n))


class TestSemigroup:
    def test_semigroup_law(self, op_c1, rng):
        ev = SemigroupEvaluator(op_c1)
        u = rng.standard_normal(op_c1.n)
        a = ev.apply(0.3, ev.apply(0.2, u))
        b = ev.apply(0.5, u)
        assert np.linalg.norm(a - b) / np.linalg.norm(b) <= 1e-9

    def test_contractivity(self, op_c1, dec_c1, rng):
        ev = SemigroupEvaluator(op_c1)
        u = rng.standard_normal(op_c1.n)
        n0 = math.sqrt(float(op_c1.w @ u**2))
        for t in np.geomspace(1e-3, 10.0, 8):
            ut = ev.apply(t, u)
            nt = math.sqrt(float(op_c1.w @ ut**2))
            assert nt <= math.exp(-t * dec_c1.mu[0]) * n0 * (1 + 1e-12)

    def test_rejects_negative_time(self, op_c1, rng):
        ev = SemigroupEvaluator(op_c1)
        with pytest.raises(SpectralError, match="Re t >= 0"):
            ev.apply(-0.1, rng.standard_normal(op_c1.n))

    def test_kernel_rejects_negative_time(self, op_c1):
        with pytest.raises(SpectralError, match="Re t >= 0"):
            SemigroupEvaluator(op_c1).kernel(-0.1)

    def test_complex_time_on_sector(self, op_c1, rng):
        ev = SemigroupEvaluator(op_c1)
        u = rng.standard_normal(op_c1.n)
        out = ev.apply(0.01 + 0.01j, u)
        assert np.all(np.isfinite(out.real)) and np.all(np.isfinite(out.imag))

    def test_kernel_property(self, op_c1, rng):
        ev = SemigroupEvaluator(op_c1)
        u = rng.standard_normal(op_c1.n)
        kern = ev.kernel(0.05)
        direct = ev.apply(0.05, u)
        assert (np.linalg.norm(kern.apply(u) - direct)
                / np.linalg.norm(direct)) <= 1e-9

    def test_kernel_symmetry(self, op_c1):
        K = SemigroupEvaluator(op_c1).kernel(0.05).K
        assert np.max(np.abs(K - K.T)) <= 1e-8 * np.max(np.abs(K))

    def test_kernel_diagonal_short_time_trend(self):
        # on-diagonal heat kernel decays like t^{-N/4} for small t
        g = build_radial_grid(5, 20.0, 512)
        ev = SemigroupEvaluator(assemble_sector(g, 0, 0.0))
        ts = np.geomspace(2e-4, 2e-3, 6)
        vals = [ev.kernel(t).K[0, 0] for t in ts]
        slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
        assert abs(slope - (-1.25)) / 1.25 <= 0.15


class TestInvSqrt:
    def test_routes_agree(self, op_c1, rng):
        u = rng.standard_normal(op_c1.n)
        a = inv_sqrt_apply(op_c1, u, "spectral")
        b = inv_sqrt_apply(op_c1, u, "quadrature")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-6

    def test_solve_check(self):
        # (A^{-1/2})^2 through the quadrature route inverts A
        g = build_radial_grid(5, 10.0, 64)
        op = assemble_sector(g, 0, 1.0)
        u = np.random.default_rng(0).standard_normal(64)
        x = inv_sqrt_apply(op, inv_sqrt_apply(op, u, "quadrature"),
                           "quadrature")
        rel = np.linalg.norm(op.apply_A(x) - u) / np.linalg.norm(u)
        assert rel <= 1e-8

    def test_indefinite_rejected(self, grid128, rng):
        with pytest.warns(UserWarning):
            op = assemble_sector(grid128, 0, 10.0)
        with pytest.raises(SpectralError):
            inv_sqrt_apply(op, rng.standard_normal(grid128.n), "spectral")

    def test_quadrature_range(self):
        ts, wts = quadrature_nodes(1.0, 1e6)
        assert ts[0] <= 2.5e-17 / 1e6 * (1 + 1e-12)
        assert ts[-1] >= 40.0 - 1e-9
        # weights integrate t^{-1/2} e^{-t mu} to mu^{-1/2} for scalar mu
        val = float(np.sum(wts * np.exp(-ts * 2.0)))
        assert val == pytest.approx(2.0**-0.5, rel=1e-8)


class TestRiesz:
    def test_c0_norm_is_one(self, op_c0):
        kern = riesz_kernel(op_c0)
        assert corner_norm(kern, 2.0, 2.0) == pytest.approx(1.0, abs=1e-8)

    def test_routes_agree(self, op_c1, rng):
        u = rng.standard_normal(op_c1.n)
        a = riesz_apply(op_c1, u, "spectral")
        b = riesz_apply(op_c1, u, "quadrature")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 1e-6

    def test_matrix_matches_apply(self, op_c1, rng):
        u = rng.standard_normal(op_c1.n)
        R = riesz_kernel(op_c1)
        a = riesz_apply(op_c1, u, "spectral")
        assert np.allclose(R.apply(u), a, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_kernel_is_the_one_n_by_n_array(self, c, traced_peak):
        # with the decomposition cached: the kernel and synth_kernel's
        # row block, then a column of apply_L's temporaries
        n = 1024
        op = assemble_sector(build_radial_grid(5, 30.0, n), 0, c)
        dec = op.decomposition
        peak, kern = traced_peak(riesz_kernel, op)
        assert peak <= 1.1 * n * n * 8
        if c:
            K = dec.synth_kernel(dec.mu**-0.5)
            assert np.array_equal(kern.K, op.apply_L(K))


def radial_phi(op):
    g = op.grid
    return make_phi(np.zeros(g.N), 2.0, -g.R / 2.0, kind="radial", grid=g)


class TestOneDecomposition:
    def test_every_sector_route_shares_one_eigensolve(self, monkeypatch):
        calls = []
        solve = spectral.eigendecompose

        def counted(op):
            calls.append(op)
            return solve(op)

        monkeypatch.setattr(spectral, "eigendecompose", counted)
        op = assemble_sector(build_radial_grid(5, 10.0, 64), 0, 1.0)
        u = np.random.default_rng(0).standard_normal(op.n)
        SemigroupEvaluator(op).kernel(0.05)
        riesz_kernel(op)
        riesz_apply(op, u, "quadrature")
        laplacian_decay_fit(op, np.geomspace(0.05, 0.5, 5))
        twisted_decay_suite(op, [0.5], [radial_phi(op)], [0.05, 0.1])
        assert len(calls) == 1 and calls[0] is op

    def test_every_semigroup_kernel_is_built_by_the_evaluator(self,
                                                              monkeypatch):
        calls = []
        kernel = spectral.SemigroupEvaluator.kernel

        def counted(self, t):
            calls.append(t)
            return kernel(self, t)

        monkeypatch.setattr(spectral.SemigroupEvaluator, "kernel", counted)
        op = assemble_sector(build_radial_grid(5, 10.0, 64), 0, 1.0)
        twisted_decay_suite(op, [0.5], [radial_phi(op)], [0.05, 0.1, 0.2])
        # the Laplacian fit reads its factors from the values alone
        laplacian_decay_fit(op, np.geomspace(0.05, 0.5, 5))
        assert len(calls) == 3
