import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from biharmlab import (SemigroupEvaluator, assemble_sector,
                       boyd_lower, build_radial_grid, cli, corner_norm,
                       interpolation_upper, norms, opnorms)
from biharmlab.grids import weighted_lp
from biharmlab.norms import (BOYD_MAX_ITER, BOYD_RESTARTS, NormError,
                             NormEstimate, _dual, _duality_map, _lp_unit)
from biharmlab.spectral import (KernelMatrix, SpectralDecomposition,
                                riesz_kernel)


# the dual-ascent pairs under test; (2, inf) and (1, inf) run the q = inf
# branch, (1, 2) and (1, inf) the p = 1 branch
BOYD_PAIRS = [(1.5, 3.0), (10.0 / 9.0, 2.0), (2.0, 10.0), (1.0, 2.0),
              (2.0, math.inf), (1.0, math.inf)]


def random_kernel(n, seed, symmetric=True):
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((n, n))
    if symmetric:
        K = 0.5 * (K + K.T)
    w = rng.uniform(0.5, 2.0, n)
    return KernelMatrix(K=K, w=w)


def identity_kernel(n, w=None):
    w = np.ones(n) if w is None else w
    return KernelMatrix(K=np.diag(1.0 / w), w=w)


class TestCornerNorms:
    def test_identity_all_corners(self):
        kern = identity_kernel(8)
        for p, q in [(1.0, 1.0), (2.0, 2.0), (1.0, math.inf),
                     (1.0, 2.0), (2.0, math.inf)]:
            assert corner_norm(kern, p, q) == pytest.approx(1.0)

    def test_diagonal_kernel_11(self):
        w = np.ones(4)
        d = np.array([3.0, 1.0, 2.0, 0.5])
        kern = KernelMatrix(K=np.diag(d), w=w)
        assert corner_norm(kern, 1.0, 1.0) == pytest.approx(3.0)
        assert corner_norm(kern, 2.0, 2.0) == pytest.approx(3.0)
        assert corner_norm(kern, 1.0, math.inf) == pytest.approx(3.0)

    def test_weighted_22_is_svd(self):
        kern = random_kernel(12, 0)
        sw = np.sqrt(kern.w)
        ref = np.linalg.norm(sw[:, None] * kern.K * sw[None, :], 2)
        assert corner_norm(kern, 2.0, 2.0) == pytest.approx(ref)

    def test_l2_norm_matches_the_two_sided_scaling(self):
        kern = random_kernel(40, 3, symmetric=False)
        w_out = np.random.default_rng(4).uniform(0.1, 3.0, 40)
        sw_out, sw_in = np.sqrt(w_out), np.sqrt(kern.w)
        ref = float(np.linalg.norm(
            sw_out[:, None] * kern.K * sw_in[None, :], 2))
        assert norms.l2_norm(kern.K, w_out, kern.w) == ref

    def test_non_corner_rejected(self):
        with pytest.raises(NormError):
            corner_norm(random_kernel(5, 1), 1.5, 3.0)


class TestInterpolation:
    def test_upper_dominates_boyd_lower(self):
        for seed in range(5):
            kern = random_kernel(10, seed)
            pairs = [(1.5, 3.0), (10.0 / 9.0, 2.0), (2.0, 10.0)]
            for (p, q), (lo, _) in zip(pairs,
                                       boyd_lower(kern, pairs, seed=seed)):
                up = interpolation_upper(kern, p, q)
                assert lo <= up * (1 + 1e-12)

    def test_log_convex_along_segment(self):
        # log ||T||_{p_th -> q_th} is convex in th along a Riesz-Thorin
        # segment; check the midpoint against the endpoints
        kern = random_kernel(10, 3)
        def inv(th, a, b):
            den = (1 - th) / a + (th / b if not math.isinf(b) else 0.0)
            return math.inf if den == 0.0 else 1.0 / den
        ends = ((1.0, 2.0), (2.0, math.inf))
        vals = []
        for th in (0.0, 0.5, 1.0):
            p = inv(th, ends[0][0], ends[1][0])
            q = inv(th, ends[0][1], ends[1][1])
            vals.append(interpolation_upper(kern, p, q))
        assert vals[1] <= math.sqrt(vals[0] * vals[2]) * (1 + 1e-10)

    def test_exact_at_corners(self):
        kern = random_kernel(9, 4)
        for p, q in [(1.0, 1.0), (2.0, 2.0), (1.0, math.inf)]:
            assert interpolation_upper(kern, p, q) == pytest.approx(
                corner_norm(kern, p, q))

    def test_equals_the_linear_program_over_the_six_corners(self):
        # the least exp(sum_i theta_i log m_i) over convex weights theta on
        # all six corners that hit (1/p, 1/q): an LP with no triangle in it
        rng = np.random.default_rng(11)
        xy = [[0.0 if math.isinf(c) else 1.0 / c for c in corner]
              for corner in norms.CORNERS]
        A_eq = np.vstack([np.ones(len(xy)), np.transpose(xy)])
        for seed in range(200):
            kern = random_kernel(6, seed, symmetric=bool(seed % 2))
            x = rng.uniform(0.0, 1.0)
            p, q = 1.0 / x, 1.0 / rng.uniform(0.0, x)
            logm = np.log([corner_norm(kern, *c) for c in norms.CORNERS])
            res = linprog(logm, A_eq=A_eq, b_eq=[1.0, 1.0 / p, 1.0 / q],
                          bounds=(0.0, None), method="highs")
            assert res.status == 0
            assert interpolation_upper(kern, p, q) == pytest.approx(
                math.exp(res.fun), rel=1e-12)


def _boyd_one_start_at_a_time(kernel, p, q, restarts=BOYD_RESTARTS, seed=0):
    """The dual ascent with each start run to convergence on its own:
    the reference the column-block `boyd_lower` must reproduce."""
    K, w = kernel.K, kernel.w
    n = K.shape[1]
    rng = np.random.default_rng(seed)
    pd = _dual(p)
    best_val, best_u = 0.0, None

    starts = [np.ones(n)]
    col_str = np.array([weighted_lp(K[:, j], w, q) for j in range(n)])
    e = np.zeros(n)
    e[int(np.argmax(col_str))] = 1.0
    starts.append(e)
    while len(starts) < restarts:
        starts.append(np.abs(rng.standard_normal(n)) * rng.choice([-1.0, 1.0], n))

    for u0 in starts:
        u = _lp_unit(u0.astype(float), w, p)
        val = 0.0
        for _ in range(BOYD_MAX_ITER):
            v = K @ (w * u)
            nv = weighted_lp(v, w, q)
            if nv == 0.0:
                break
            if math.isinf(q):
                psi = np.zeros_like(v)
                i = int(np.argmax(np.abs(v)))
                psi[i] = np.sign(v[i]) / w[i]
            else:
                psi = np.sign(v) * (np.abs(v) / nv) ** (q - 1.0)
            z = K.T @ (w * psi)
            sgn = np.where(z != 0, np.sign(z), np.sign(u) + (u == 0))
            if p == 1.0:
                unew = np.zeros_like(u)
                i = int(np.argmax(np.abs(z)))
                unew[i] = sgn[i] / w[i]
            elif math.isinf(p):
                unew = sgn
            else:
                unew = sgn * np.abs(z) ** (pd - 1.0)
            unew = _lp_unit(unew, w, p)
            new_val = weighted_lp(K @ (w * unew), w, q)
            if new_val <= val * (1.0 + 1e-13):
                break
            u, val = unew, new_val
        if val > best_val:
            best_val, best_u = val, u
    return best_val, best_u


def _reproduced(kernel, witness, p, q):
    """||K x||_q of the witness x scaled to unit L^p norm."""
    x = _lp_unit(witness, kernel.w, p)
    return weighted_lp(kernel.apply(x), kernel.w, q)


class TestBoydLower:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_matches_one_start_at_a_time(self, symmetric):
        # every pair in one block, against each start run on its own
        for seed in range(6):
            kern = random_kernel(12, seed + 40, symmetric=symmetric)
            block = boyd_lower(kern, BOYD_PAIRS, seed=seed)
            assert len(block) == len(BOYD_PAIRS)
            for (p, q), (lo, witness) in zip(BOYD_PAIRS, block):
                ref, ref_witness = _boyd_one_start_at_a_time(kern, p, q,
                                                             seed=seed)
                assert lo == pytest.approx(ref, rel=1e-12)
                assert witness.shape == ref_witness.shape
                assert _reproduced(kern, witness, p, q) == pytest.approx(
                    lo, rel=1e-10)

    def test_value_does_not_depend_on_the_block(self):
        kern = random_kernel(16, 90, symmetric=False)
        block = boyd_lower(kern, BOYD_PAIRS, seed=3)
        for i, pair in enumerate(BOYD_PAIRS):
            alone = boyd_lower(kern, [pair], seed=3)[0][0]
            shared = boyd_lower(kern, [BOYD_PAIRS[-1 - i], pair],
                                seed=3)[1][0]
            assert alone == pytest.approx(block[i][0], rel=1e-13)
            assert shared == pytest.approx(block[i][0], rel=1e-13)

    @given(data=st.data(), r=st.sampled_from([1.0, 1.5, 3.0, math.inf]))
    @settings(max_examples=60, deadline=None)
    def test_duality_map_attains_the_norm(self, data, r):
        # both half-steps of the ascent: psi of V in L^{q'} with q = r, and
        # U of Z in L^p with p = r, each of unit norm and attaining the
        # norm of its argument in the dual exponent
        n = data.draw(st.integers(1, 12))
        cols = data.draw(st.integers(1, 4))
        entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e2),
                          st.floats(-1e2, -1e-3))
        X = data.draw(hnp.arrays(float, (n, cols), elements=entry))
        assume(np.all(np.any(X != 0, axis=0)))
        w = data.draw(hnp.arrays(float, n, elements=st.floats(0.1, 10.0)))
        # the ascent keeps a previous iterate's sign where Z is zero
        prev = data.draw(hnp.arrays(float, (n, cols),
                                    elements=st.sampled_from([-1.0, 1.0])))
        sgn = np.where(X != 0, np.sign(X), prev)
        rd = _dual(r)
        psi = _duality_map(X, weighted_lp(X, w, r), np.sign(X), w, r)
        U = _lp_unit(_duality_map(X, 1.0, sgn, w, rd), w, r)
        for Y, s, t in ((psi, rd, r), (U, r, rd)):
            norm = weighted_lp(X, w, t)
            np.testing.assert_allclose(weighted_lp(Y, w, s), 1.0, rtol=1e-12)
            np.testing.assert_allclose(np.sum(w[:, None] * Y * X, axis=0),
                                       norm, rtol=1e-12)

    def test_zero_kernel_has_no_witness(self):
        kern = KernelMatrix(K=np.zeros((6, 6)), w=np.ones(6))
        assert boyd_lower(kern, BOYD_PAIRS) == [(0.0, None)] * len(BOYD_PAIRS)

    def test_witness_reproduces_lower_bound(self):
        for seed in range(5):
            kern = random_kernel(10, seed + 20)
            block = boyd_lower(kern, BOYD_PAIRS, seed=seed)
            for (p, q), (lo, witness) in zip(BOYD_PAIRS, block):
                assert _reproduced(kern, witness, p, q) == pytest.approx(
                    lo, rel=1e-10)

    def test_deterministic(self):
        kern = random_kernel(10, 7)
        a = boyd_lower(kern, BOYD_PAIRS, seed=5)
        b = boyd_lower(kern, BOYD_PAIRS, seed=5)
        for (va, wa), (vb, wb) in zip(a, b):
            assert va == vb
            assert np.array_equal(wa, wb)

    def test_exact_on_identity(self):
        kern = identity_kernel(6)
        [(lo, _)] = boyd_lower(kern, [(1.5, 1.5)])
        assert lo == pytest.approx(1.0, rel=1e-9)

    def test_opnorm_is_a_one_pair_block(self):
        kern = random_kernel(12, 11, symmetric=False)
        [est] = opnorms(kern, [(1.5, 3.0)], seed=2)
        [(lo, witness)] = boyd_lower(kern, [(1.5, 3.0)], seed=2)
        assert est.lower == lo
        assert np.array_equal(est.witness, witness)


def _boyd_plain(kernel, pairs, restarts=BOYD_RESTARTS, seed=0):
    """The plain block dual ascent, without extrapolated steps: the
    reference whose values boyd_lower must reach and whose products with
    K it must undercut."""
    K, w = kernel.K, kernel.w
    n = K.shape[1]
    m = max(restarts, 2)
    blocks = []
    for p, q in pairs:
        rng = np.random.default_rng(seed)
        e = np.zeros(n)
        e[int(np.argmax(weighted_lp(K, w, q)))] = 1.0
        starts = [np.ones(n), e]
        while len(starts) < m:
            starts.append(np.abs(rng.standard_normal(n))
                          * rng.choice([-1.0, 1.0], n))
        blocks.append(_lp_unit(np.column_stack(starts), w, p))
    U = np.hstack(blocks)
    owner = np.repeat(np.arange(len(pairs)), m)
    V = K @ (w[:, None] * U)
    nv = np.concatenate([weighted_lp(V[:, j * m:(j + 1) * m], w, q)
                         for j, (_, q) in enumerate(pairs)])
    val = np.zeros(U.shape[1])
    live = np.flatnonzero(nv > 0)
    for _ in range(BOYD_MAX_ITER):
        if live.size == 0:
            break
        groups = [(p, q, np.flatnonzero(owner[live] == j))
                  for j, (p, q) in enumerate(pairs)]
        Psi = np.empty((n, live.size))
        for p, q, g in groups:
            Vg = V[:, live[g]]
            Psi[:, g] = _duality_map(Vg, nv[live[g]], np.sign(Vg), w, q)
        Z = ((w[:, None] * Psi).T @ K).T
        Unew = np.empty_like(Psi)
        for p, q, g in groups:
            Zg, Ug = Z[:, g], U[:, live[g]]
            sgn = np.where(Zg != 0, np.sign(Zg), np.sign(Ug) + (Ug == 0))
            Unew[:, g] = _lp_unit(_duality_map(Zg, 1.0, sgn, w, _dual(p)),
                                  w, p)
        Vnew = K @ (w[:, None] * Unew)
        new_val = np.empty(live.size)
        for p, q, g in groups:
            new_val[g] = weighted_lp(Vnew[:, g], w, q)
        gain = new_val > val[live] * (1.0 + 1e-13)
        live = live[gain]
        U[:, live], V[:, live] = Unew[:, gain], Vnew[:, gain]
        val[live] = nv[live] = new_val[gain]
    return [float(val[j * m:(j + 1) * m].max()) for j in range(len(pairs))]


class Counting(np.ndarray):
    """A kernel's entries that count the kernel-vector products taken
    with them, through `@` or np.matmul, in `Counting.products`."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            a, b = inputs
            Counting.products += (a.shape[0] if isinstance(b, Counting)
                                  else b.shape[1] if b.ndim == 2 else 1)
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.fixture(scope="module")
def suite_riesz():
    """riesz's default n = 512 kernel and its p sweep, as pairs."""
    defaults = cli.EXPERIMENTS["riesz"].defaults
    op = assemble_sector(build_radial_grid(5, 30.0, defaults["n"]), 0, 1.0)
    return riesz_kernel(op), [(p, p) for p in defaults["p"]]


class TestExtrapolatedAscent:
    def test_reaches_the_plain_ascent_on_the_suite_kernel(self, suite_riesz):
        kern, pairs = suite_riesz
        for (lo, witness), ref, (p, q) in zip(boyd_lower(kern, pairs),
                                              _boyd_plain(kern, pairs), pairs):
            assert lo >= ref * (1.0 - 1e-12)
            assert _reproduced(kern, witness, p, q) == pytest.approx(
                lo, rel=1e-10)

    def test_reaches_the_plain_ascent_on_criterion_10_kernels(
            self, criterion_10_blocks):
        # each kernel's one boyd_lower block, as its opnorms block took it
        for kern, pairs, seed, brackets in criterion_10_blocks:
            refs = _boyd_plain(kern, pairs, seed=seed)
            for est, ref, (p, q) in zip(brackets, refs, pairs):
                assert est.lower >= ref * (1.0 - 1e-12)
                assert _reproduced(kern, est.witness, p, q) == pytest.approx(
                    est.lower, rel=1e-10)

    def test_reaches_the_plain_ascent_on_extrapolation_check_kernels(
            self, op_c1):
        # extrapolation_check's flat semigroup kernels, at the times of
        # TestExtrapolation, where the p = 4 ascents have many local maxima
        ev = SemigroupEvaluator(op_c1)
        pairs = [(p, p) for p in (1.2, 1.5, 3.0, 4.0)]
        for t in np.geomspace(0.06, 0.6, 4):
            kern = ev.kernel(t)
            for (lo, witness), ref, (p, q) in zip(
                    boyd_lower(kern, pairs), _boyd_plain(kern, pairs), pairs):
                assert lo >= ref * (1.0 - 1e-12)
                assert _reproduced(kern, witness, p, q) == pytest.approx(
                    lo, rel=1e-10)

    def test_takes_at_most_sixty_percent_of_the_plain_products(
            self, suite_riesz):
        kern, pairs = suite_riesz
        counted = KernelMatrix(K=kern.K.view(Counting), w=kern.w)
        Counting.products = 0
        _boyd_plain(counted, pairs)
        plain = Counting.products
        Counting.products = 0
        boyd_lower(counted, pairs)
        assert Counting.products <= 0.6 * plain
        # the ascent's own count, which riesz's manifest records
        assert counted.products == Counting.products

    def test_products_add_up_over_calls(self):
        kern = random_kernel(10, 3)
        Counting.products = 0
        counted = KernelMatrix(K=kern.K.view(Counting), w=kern.w)
        boyd_lower(counted, BOYD_PAIRS[:2])
        first = counted.products
        boyd_lower(counted, BOYD_PAIRS[2:])
        assert 0 < first < counted.products == Counting.products


class TestCornerCache:
    def test_second_upper_bound_evaluates_no_corner(self, monkeypatch):
        calls = []
        real = norms.corner_norm

        def counting(kernel, p, q):
            calls.append((p, q))
            return real(kernel, p, q)

        monkeypatch.setattr(norms, "corner_norm", counting)
        kern = random_kernel(10, 80)
        first = interpolation_upper(kern, 1.5, 3.0)
        assert sorted(calls) == sorted(norms.CORNERS)
        assert interpolation_upper(kern, 1.5, 3.0) == first
        interpolation_upper(kern, 2.0, 10.0)
        interpolation_upper(kern, 2.0, 2.0)
        assert len(calls) == len(norms.CORNERS)


class TestNonFiniteCorners:
    def test_formed_kernel_with_an_inf_entry(self):
        kern = random_kernel(6, 0)
        kern.K[2, 3] = math.inf
        with pytest.raises(NormError, match=r"corner \(1\.0, 1\.0\) norm "
                                            r"is not finite: inf"):
            interpolation_upper(kern, 2.0, 10.0)

    def test_spectral_kernel_with_an_inf_value(self):
        op = assemble_sector(build_radial_grid(5, 30.0, 64), 0, 0.0)
        f = np.exp(-1e-3 * op.decomposition.mu)
        f[0] = math.inf
        kern = KernelMatrix(dec=op.decomposition, f=f)
        with pytest.raises(NormError, match=r"corner \(2\.0, 2\.0\) norm "
                                            r"is not finite: inf"):
            interpolation_upper(kern, 2.0, 2.0)
        assert "K" not in kern.__dict__


@pytest.fixture(scope="module", params=[0.0, 1.0])
def op512(request):
    return assemble_sector(build_radial_grid(5, 30.0, 512), 0, request.param)


class TestSpectralCorners:
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 0.05, 1.0, 0.01 + 0.01j])
    def test_bound_the_formed_kernel_tightly(self, op512, t):
        kern = SemigroupEvaluator(op512).kernel(t)
        n22 = corner_norm(kern, 2.0, 2.0)
        n2inf = corner_norm(kern, 2.0, math.inf)
        assert "K" not in kern.__dict__
        # the same corners through the entries: weighted SVD and |K|^2 w
        formed = KernelMatrix(K=kern.K, w=kern.w)
        svd22 = corner_norm(formed, 2.0, 2.0)
        rows2inf = float(np.max(np.sqrt(np.abs(kern.K) ** 2 @ kern.w)))
        for spec, ref in ((n22, svd22), (n2inf, rows2inf)):
            assert ref <= spec <= ref * (1.0 + 1e-13)

    def test_basis_that_is_not_orthonormal_is_bounded(self, op512):
        # the Gram factor keeps the bound above the formed kernel's norm
        dec = op512.decomposition
        off = SpectralDecomposition(mu=dec.mu, Q=1.001 * dec.Q, w=dec.w)
        assert off.gram_norm == pytest.approx(1.001**2, rel=1e-12)
        kern = KernelMatrix(dec=off, f=np.exp(-1e-3 * off.mu))
        svd22 = corner_norm(KernelMatrix(K=kern.K, w=kern.w), 2.0, 2.0)
        n22 = corner_norm(kern, 2.0, 2.0)
        assert svd22 <= n22 <= svd22 * (1.0 + 1e-13)
        assert n22 > 1.0 + 1e-12

    def test_kernel_formed_once_on_demand(self, op512):
        kern = SemigroupEvaluator(op512).kernel(0.05)
        assert "K" not in kern.__dict__
        K = kern.K
        assert kern.K is K
        assert np.array_equal(
            K, op512.decomposition.synth_kernel(
                np.exp(-0.05 * op512.decomposition.mu)))


@pytest.fixture(scope="module", params=[0.0, 1.0])
def op256(request):
    return assemble_sector(build_radial_grid(5, 30.0, 256), 0, request.param)


def entries(kern: KernelMatrix) -> KernelMatrix:
    """The same kernel, built from its entries."""
    return KernelMatrix(K=kern.K, w=kern.w)


class TestEntryCorners:
    @pytest.mark.parametrize("t", [1e-3, 0.05, 1.0, 0.01 + 0.01j])
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (math.inf, math.inf),
                                      (1.0, 2.0), (1.0, math.inf)])
    def test_spectral_kernel_reads_the_entries(self, op256, t, p, q):
        # only (2,2) and (2,inf) come from the spectrum
        kern = SemigroupEvaluator(op256).kernel(t)
        assert corner_norm(kern, p, q) == corner_norm(entries(kern), p, q)
        assert kern.corner_norms == {}

    def test_sign_changing_f_reads_its_largest_entry(self, op256):
        dec = op256.decomposition
        f = -np.sqrt(dec.mu) * np.exp(-0.05 * dec.mu)
        kern = KernelMatrix(dec=dec, f=f)
        assert corner_norm(kern, 1.0, math.inf) == float(
            np.max(np.abs(kern.K)))

    def test_kernel_from_entries_is_not_taken_as_symmetric(self):
        kern = random_kernel(12, 5, symmetric=False)
        w = kern.w
        rows = float(np.max(np.abs(kern.K) @ w))
        cols = float(np.max(w @ np.abs(kern.K)))
        assert corner_norm(kern, math.inf, math.inf) == pytest.approx(rows)
        assert corner_norm(kern, 1.0, 1.0) == pytest.approx(cols)
        assert rows != pytest.approx(cols)
        assert corner_norm(kern, 1.0, math.inf) == float(
            np.max(np.abs(kern.K)))


needs_dgesdd = pytest.mark.skipif(norms._dgesdd() is None,
                                  reason="numpy's dgesdd is not bound")


def cores(monkeypatch, count):
    """Let this process see `count` cores."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


class TestSigmaMax:
    @pytest.mark.parametrize("shape", ["square", "tall", "wide"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_is_numpys_2_norm_bit_for_bit(self, shape, data):
        m = data.draw(st.integers(1, 40))
        n = {"square": m, "tall": max(1, m // 3),
             "wide": m + data.draw(st.integers(1, 40))}[shape]
        A = data.draw(hnp.arrays(np.float64, (m, n), elements=st.floats(
            -1e3, 1e3, allow_nan=False)))
        ref = np.linalg.norm(A, 2)
        kept = A.copy()
        if not A.flags.f_contiguous:
            # C-ordered: a copy is taken, A is left as it is
            assert norms._sigma_max(A) == ref
            assert np.array_equal(A, kept)
        assert norms._sigma_max(np.array(kept, order="F")) == ref

    def test_offdiag_kernels_bit_for_bit(self):
        op = assemble_sector(build_radial_grid(5, 40.0, 256), 0, 1.0)
        dec, sw = op.decomposition, np.sqrt(op.w)
        for t in np.geomspace(1e-3, 1e-2, 8):
            K = (dec.Q * np.exp(-t * dec.mu)) @ dec.Q.T
            Kw = sw[:, None] * K * sw
            assert norms._sigma_max(np.asfortranarray(Kw)) == \
                np.linalg.norm(Kw, 2)

    @needs_dgesdd
    def test_works_in_place_on_a_fortran_array(self):
        A = np.asfortranarray(np.random.default_rng(5).standard_normal((9, 7)))
        kept = A.copy()
        assert norms._sigma_max(A) == np.linalg.norm(kept, 2)
        assert not np.array_equal(A, kept)

    def test_unbound_routine_copies_and_runs_one_worker(self, monkeypatch):
        monkeypatch.setattr(norms, "_dgesdd", lambda: None)
        cores(monkeypatch, 4)
        A = np.asfortranarray(np.random.default_rng(6).standard_normal((30, 20)))
        kept = A.copy()
        assert norms._sigma_max(A) == np.linalg.norm(kept, 2)
        assert np.array_equal(A, kept)
        assert norms._norm_workers(8) == 1

    def test_nan_entry_raises_like_numpy(self):
        A = np.ones((4, 3), order="F")
        A[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.norm(A, 2)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            norms._sigma_max(A)

    def test_empty_matrix_has_norm_zero(self):
        assert norms._sigma_max(np.zeros((0, 3), order="F")) == 0.0


@pytest.fixture(scope="module")
def offdiag1024():
    """The default offdiag operator (n = 1024, R = 40, c = 1), four of its
    times and its four (F, E) blocks."""
    op = assemble_sector(build_radial_grid(5, 40.0, 1024), 0, 1.0)
    ev = SemigroupEvaluator(op)
    r = op.grid.r
    blocks = [(r >= d, r <= 1.0) for d in (3.0, 5.0, 8.0, 12.0)]
    return op.decomposition, [ev.values(t) for t in
                              np.geomspace(1e-3, 1e-2, 4)], blocks


class TestKernelBlockNorms:
    @needs_dgesdd
    @pytest.mark.parametrize("count, workers", [(1, 1), (2, 2), (3, 2),
                                                (8, 2)])
    def test_workers_follow_cores_kernels_and_the_cap(self, monkeypatch,
                                                      one_blas_thread,
                                                      count, workers):
        cores(monkeypatch, count)
        assert norms._norm_workers(8) == workers
        assert norms._norm_workers(1) == 1

    @needs_dgesdd
    def test_threaded_or_unread_blas_runs_one_worker(self, monkeypatch):
        # one library at one thread runs two workers; one at two threads,
        # one that cannot be set, or none found runs one
        cores(monkeypatch, 4)
        one, two = (None, lambda: 1), (None, lambda: 2)
        for handles, workers in (([one], 2), ([one, two], 1),
                                 ([one, None], 1), ([], 1)):
            monkeypatch.setattr(norms, "_blas_thread_handles",
                                lambda h=handles: h)
            assert norms._norm_workers(8) == workers

    def test_table_does_not_depend_on_the_worker_count(self, monkeypatch,
                                                       one_blas_thread):
        op = assemble_sector(build_radial_grid(5, 40.0, 256), 0, 1.0)
        ev = SemigroupEvaluator(op)
        fs = [ev.values(t) for t in np.geomspace(1e-3, 1e-2, 5)]
        r = op.grid.r
        blocks = [(r > 3.0, r < 1.0), (r > 8.0, r <= 1.0), (r < 0.0, r < 1.0)]
        tables = []
        for count in (1, 2):
            cores(monkeypatch, count)
            table, runtime = norms.kernel_block_norms(op.decomposition, fs,
                                                      blocks)
            assert runtime["kernel_workers"] == (
                count if runtime["numpy_dgesdd"] else 1)
            tables.append(table)
        assert np.array_equal(tables[0], tables[1])
        w = op.w
        for row, f in zip(tables[0], fs):
            K = (op.decomposition.Q * f) @ op.decomposition.Q.T
            ref = [norms.l2_norm(K[np.ix_(mF, mE)], w[mF], w[mE])
                   for mF, mE in blocks] + [norms.l2_norm(K, w, w)]
            assert row.tolist() == ref
        assert np.all(tables[0][:, 2] == 0.0)     # the empty block

    @needs_dgesdd
    @pytest.mark.parametrize("count", [2, 3])
    def test_two_workers_hold_one_kernel_each(self, monkeypatch,
                                              one_blas_thread, offdiag1024,
                                              count, traced_peak):
        # each worker: its kernel, synth_kernel's row block, the small
        # (F, E) block copies and dgesdd's workspace, about 1.09 n^2 (37
        # MB at n = 2048, where Q and two workers peak 10 MB above the
        # 3 n^2 eigensolve); one unthreaded time held a kernel, its
        # weighted copy and numpy's SVD copy of that (whose malloc
        # tracemalloc does not see)
        dec, fs, blocks = offdiag1024
        n = dec.n
        cores(monkeypatch, count)
        peak, (_, runtime) = traced_peak(norms.kernel_block_norms, dec, fs,
                                         blocks)
        assert runtime["kernel_workers"] == 2
        assert peak <= 2.5 * n * n * 8

    @needs_dgesdd
    def test_svds_copy_nothing(self, monkeypatch):
        # numpy's SVD copies its input with a malloc that tracemalloc
        # does not see, so the in-place route is checked by refusing it
        def refuse(*args, **kwargs):
            raise AssertionError("numpy's copying SVD was called")

        op = assemble_sector(build_radial_grid(5, 40.0, 64), 0, 1.0)
        f = SemigroupEvaluator(op).values(0.01)
        r = op.grid.r
        monkeypatch.setattr(np.linalg, "norm", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        table, _ = norms.kernel_block_norms(op.decomposition, [f],
                                            [(r > 3.0, r < 1.0)])
        assert norms.l2_norm(op.decomposition.synth_kernel(f), op.w,
                             op.w) == table[0, -1]


class TestOpnorm:
    def test_bracket_ordering(self):
        for seed in range(10):
            kern = random_kernel(10, seed + 50)
            for p, q in [(1.5, 3.0), (10.0 / 9.0, 2.0), (2.0, 10.0),
                         (2.0, 2.0), (1.0, 2.0)]:
                est = opnorms(kern, [(p, q)])[0]
                assert est.lower <= est.upper * (1 + 1e-12)

    def test_inverted_bracket_raises(self):
        # round-off above the upper bound passes; a real inversion raises
        NormEstimate(p=2.0, q=math.inf, lower=1.0 + 5e-11, upper=1.0)
        with pytest.raises(NormError):
            NormEstimate(p=2.0, q=math.inf, lower=1.0 + 2e-10, upper=1.0)

    def test_rejects_norm_decreasing_pairs(self):
        with pytest.raises(NormError):
            opnorms(random_kernel(5, 2), [(3.0, 1.5)])
        with pytest.raises(NormError):
            opnorms(random_kernel(5, 2), [(1.5, 3.0), (3.0, 1.5)])

    def test_opnorms_matches_one_pair_calls(self):
        kern = random_kernel(10, 61, symmetric=False)
        pairs = [(1.5, 3.0), (2.0, 2.0), (1.0, 2.0), (2.0, 10.0)]
        for (p, q), est in zip(pairs, opnorms(kern, pairs, seed=4)):
            one = opnorms(kern, [(p, q)], seed=4)[0]
            assert (est.p, est.q) == (p, q)
            assert est.upper == one.upper
            assert est.exact == one.exact
            assert est.lower == pytest.approx(one.lower, rel=1e-13)

    def test_exact_pairs_tight(self):
        kern = random_kernel(10, 60)
        [est] = opnorms(kern, [(2.0, 2.0)])
        assert est.exact
        assert est.upper == pytest.approx(corner_norm(kern, 2.0, 2.0))

    def test_random_sampling_within_bracket(self):
        # random feasible ratios never exceed the certified upper bound
        rng = np.random.default_rng(9)
        kern = random_kernel(10, 70)
        for p, q in [(1.5, 3.0), (2.0, 10.0)]:
            est = opnorms(kern, [(p, q)])[0]
            for _ in range(200):
                x = _lp_unit(rng.standard_normal(10), kern.w, p)
                val = weighted_lp(kern.apply(x), kern.w, q)
                assert val <= est.upper * (1 + 1e-12)
