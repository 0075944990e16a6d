import math

import numpy as np
import pytest

from biharmlab import boyd_lower, corner_norm, interpolation_upper, opnorm
from biharmlab.grids import weighted_lp
from biharmlab.norms import NormError, NormEstimate, _lp_normalize
from biharmlab.spectral import KernelMatrix


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

    def test_non_corner_rejected(self):
        with pytest.raises(NormError):
            corner_norm(random_kernel(5, 1), 1.5, 3.0)


class TestInterpolation:
    def test_upper_dominates_boyd_lower(self):
        for seed in range(5):
            kern = random_kernel(10, seed)
            for p, q in [(1.5, 3.0), (10.0 / 9.0, 2.0), (2.0, 10.0)]:
                up = interpolation_upper(kern, p, q)
                lo, _ = boyd_lower(kern, p, q, seed=seed)
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


class TestBoydLower:
    def test_witness_reproduces_lower_bound(self):
        for seed in range(5):
            kern = random_kernel(10, seed + 20)
            for p, q in [(1.5, 3.0), (10.0 / 9.0, 2.0), (2.0, 10.0)]:
                lo, witness = boyd_lower(kern, p, q, seed=seed)
                x = _lp_normalize(witness, kern.w, p)
                val = weighted_lp(kern.apply(x), kern.w, q)
                assert val == pytest.approx(lo, rel=1e-10)

    def test_deterministic(self):
        kern = random_kernel(10, 7)
        a, wa = boyd_lower(kern, 1.5, 3.0, seed=5)
        b, wb = boyd_lower(kern, 1.5, 3.0, seed=5)
        assert a == b
        assert np.array_equal(wa, wb)

    def test_exact_on_identity(self):
        kern = identity_kernel(6)
        lo, _ = boyd_lower(kern, 1.5, 1.5)
        assert lo == pytest.approx(1.0, rel=1e-9)


class TestOpnorm:
    def test_bracket_ordering(self):
        for seed in range(10):
            kern = random_kernel(10, seed + 50)
            for p, q in [(1.5, 3.0), (10.0 / 9.0, 2.0), (2.0, 10.0),
                         (2.0, 2.0), (1.0, 2.0)]:
                est = opnorm(kern, p, q)
                assert est.lower <= est.upper * (1 + 1e-12)

    def test_inverted_bracket_raises(self):
        # round-off above the upper bound passes; a real inversion raises
        NormEstimate(p=2.0, q=math.inf, lower=1.0 + 5e-11, upper=1.0)
        with pytest.raises(NormError):
            NormEstimate(p=2.0, q=math.inf, lower=1.0 + 2e-10, upper=1.0)

    def test_rejects_norm_decreasing_pairs(self):
        with pytest.raises(NormError):
            opnorm(random_kernel(5, 2), 3.0, 1.5)

    def test_exact_pairs_tight(self):
        kern = random_kernel(10, 60)
        est = opnorm(kern, 2.0, 2.0)
        assert est.exact
        assert est.upper == pytest.approx(corner_norm(kern, 2.0, 2.0))

    def test_random_sampling_within_bracket(self):
        # random feasible ratios never exceed the certified upper bound
        rng = np.random.default_rng(9)
        kern = random_kernel(10, 70)
        for p, q in [(1.5, 3.0), (2.0, 10.0)]:
            est = opnorm(kern, p, q)
            for _ in range(200):
                x = _lp_normalize(rng.standard_normal(10), kern.w, p)
                val = weighted_lp(kern.apply(x), kern.w, q)
                assert val <= est.upper * (1 + 1e-12)
