import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailfit import special_functions as sf

from conftest import digamma, trigamma

mp.mp.dps = 30


class TestLogGamma:
    """The package takes ln Gamma from math.lgamma directly (in log_beta and
    regularized_gamma_upper); these pin the platform's lgamma to the 1e-12
    target, and log_beta to the x > 0 domain."""

    def test_known_values(self):
        assert math.lgamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert math.lgamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
        assert math.lgamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_domain(self):
        # math.lgamma itself is finite at -0.5, so log_beta checks the domain
        for p, q in ((0.0, 1.0), (1.0, -3.0), (-0.5, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                sf.log_beta(p, q)

    @pytest.mark.parametrize("x", [1e-3, 0.01, 0.3, 1.5, 7.0, 20.0])
    def test_absolute_accuracy_moderate(self, x):
        assert abs(math.lgamma(x) - float(mp.loggamma(x))) < 1e-12

    @pytest.mark.parametrize("x", [1e2, 1e4, 1e6])
    def test_relative_accuracy_large(self, x):
        # absolute 1e-12 is below double ulp at these magnitudes
        ref = float(mp.loggamma(x))
        assert abs(math.lgamma(x) - ref) < 1e-13 * abs(ref)


def polygamma(x):
    """psi and psi' of each element of x, from polygamma_rows."""
    return sf.polygamma_rows(np.asarray(x, dtype=float))


class TestDigammaTrigamma:
    """psi and psi', which the package evaluates only in polygamma_rows."""

    EULER = 0.5772156649015329

    def test_digamma_values(self):
        psi, _ = polygamma([1.0, 2.0, 0.5])
        want = [-self.EULER, 1.0 - self.EULER, -self.EULER - 2.0 * math.log(2.0)]
        assert psi == pytest.approx(want, abs=1e-10)

    def test_trigamma_values(self):
        _, tri = polygamma([1.0, 2.0, 0.5])
        want = [math.pi**2 / 6.0, math.pi**2 / 6.0 - 1.0, math.pi**2 / 2.0]
        assert tri == pytest.approx(want, abs=1e-10)

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                sf.polygamma_rows(np.array([1.0, bad]))
            with pytest.raises(ValueError):
                sf.beta_polygamma_rows(np.array([bad]), np.array([1.0]))
            with pytest.raises(ValueError):
                sf.beta_polygamma_rows(np.array([1.0]), np.array([bad]))

    @pytest.mark.parametrize("x", [1e-3, 0.07, 0.9, 3.3, 12.0, 250.0, 1e4])
    def test_against_mpmath(self, x):
        # p = q = x, so the p + q slot is checked at 2x
        _, dp, dq, dpq, tp, tq, tpq = sf.beta_polygamma_rows(np.array([x]), np.array([x]))
        for u, psi, tri in ((x, dp, tp), (x, dq, tq), (2.0 * x, dpq, tpq)):
            assert abs(psi[0] - float(mp.digamma(u))) < 1e-10
            assert abs(tri[0] - float(mp.polygamma(1, u))) < 1e-10

    def test_huge_arguments(self):
        # above x ~ 1e154 x^2 overflows; the terms it enters go to 0 silently
        x = np.array([1e200, 1e306])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi, tri = sf.polygamma_rows(x)
        assert psi.tolist() == [math.log(v) for v in x.tolist()]
        assert tri.tolist() == (1.0 / x).tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_recurrences(self, x):
        psi, tri = polygamma([x, x + 1.0])
        assert psi[1] - psi[0] == pytest.approx(1.0 / x, abs=1e-9)
        assert tri[1] - tri[0] == pytest.approx(-1.0 / x**2, abs=1e-9)


class TestBetaPolygammaRows:
    def test_bit_identical_to_the_scalar_functions(self):
        # the scalar oracles, p and q from 1e-7 to 1e4
        rng = np.random.default_rng(5)
        p, q = np.exp(rng.uniform(math.log(1e-7), math.log(1e4), (2, 5000)))
        p[:4], q[:4] = (1e-7, 6.0, 5.999999999999999, 1e4), (1e4, 6.0, 1.0, 1e-7)
        got = sf.beta_polygamma_rows(p, q)
        want = np.array([(sf.log_beta(u, z), digamma(u), digamma(z), digamma(u + z),
                          trigamma(u), trigamma(z), trigamma(u + z))
                         for u, z in zip(p.tolist(), q.tolist())]).T
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.beta_polygamma_rows(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestIncompleteBeta:
    def test_boundaries(self):
        assert sf.regularized_incomplete_beta(0.0, 2.5, 0.3) == 0.0
        assert sf.regularized_incomplete_beta(1.0, 2.5, 0.3) == 1.0

    def test_uniform_case(self):
        for x in (0.1, 0.42, 0.9):
            assert sf.regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-12)

    def test_symmetry_at_half(self):
        for p in (0.3, 1.0, 4.7):
            assert sf.regularized_incomplete_beta(0.5, p, p) == pytest.approx(0.5, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.regularized_incomplete_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            sf.regularized_incomplete_beta(0.5, 0.0, 1.0)

    @pytest.mark.parametrize("x,p,q", [
        (0.3, 2.0, 5.0), (0.7, 0.5, 0.5), (0.01, 3.0, 0.2),
        (0.99, 0.2, 3.0), (0.5, 4.0, 4.0), (0.12, 1.184, 1.454),
    ])
    def test_against_mpmath(self, x, p, q):
        ref = float(mp.betainc(p, q, 0, x, regularized=True))
        assert abs(sf.regularized_incomplete_beta(x, p, q) - ref) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
           st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=0.05, max_value=20.0))
    def test_complement_identity(self, x, p, q):
        total = sf.regularized_incomplete_beta(x, p, q) \
            + sf.regularized_incomplete_beta(1.0 - x, q, p)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_x(self):
        vals = [sf.regularized_incomplete_beta(x / 100.0, 0.8, 2.3) for x in range(101)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_inverse_round_trip(self):
        for u in (1e-6, 0.025, 0.5, 0.975, 1 - 1e-6):
            for p, q in ((1.184, 1.454), (0.5, 3.0), (4.0, 0.7)):
                x = math.exp(sf.log_inverse_incomplete_beta(u, p, q))
                assert sf.regularized_incomplete_beta(x, p, q) == pytest.approx(u, abs=1e-9)


class TestGammaUpper:
    def test_boundary(self):
        assert sf.regularized_gamma_upper(0.0, 3.0) == 1.0

    def test_chi2_df2_is_exponential(self):
        for t in (0.5, 2.0, 7.0):
            assert sf.regularized_gamma_upper(t / 2.0, 1.0) == pytest.approx(
                math.exp(-t / 2.0), abs=1e-12)

    def test_chi2_df1_identity(self):
        # Q(1/2, 1/2) = P(chi2_1 > 1) = 2 (1 - Phi(1))
        expected = 2.0 * (1.0 - sf.std_normal_cdf(1.0))
        assert sf.regularized_gamma_upper(0.5, 0.5) == pytest.approx(expected, abs=1e-10)
        assert sf.regularized_gamma_upper(0.5, 0.5) == pytest.approx(0.3173105, abs=1e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.regularized_gamma_upper(-1.0, 1.0)
        with pytest.raises(ValueError):
            sf.regularized_gamma_upper(1.0, 0.0)

    @pytest.mark.parametrize("x,k", [
        (0.5, 0.5), (2.0, 1.0), (10.0, 3.0), (1.0, 5.0), (50.0, 5.0), (3.0, 0.1),
    ])
    def test_against_mpmath(self, x, k):
        ref = float(mp.gammainc(k, x, mp.inf, regularized=True))
        assert abs(sf.regularized_gamma_upper(x, k) - ref) < 1e-10


# The exact bits of the continued-fraction functions, so that a rewrite of
# the Lentz recurrence that reorders its arithmetic fails here; the mpmath
# tests above only bound the error.  I_x on both sides of the symmetry
# switch, Q(k, x) by its series (x < k + 1) and by its continued fraction.
PINNED_BITS = [
    (sf.regularized_incomplete_beta, (0.3, 2.0, 3.0), "0x1.64a8c154c985ap-2"),
    (sf.regularized_incomplete_beta, (0.9, 2.0, 3.0), "0x1.fe1b089a02752p-1"),
    (sf.regularized_incomplete_beta, (0.01, 0.5, 0.5), "0x1.05322eb667bebp-4"),
    (sf.regularized_incomplete_beta, (0.2, 0.5, 7.5), "0x1.db3298eef724ep-1"),
    (sf.regularized_incomplete_beta, (1e-5, 1.5, 40.0), "0x1.978a2b7169de4p-18"),
    (sf.regularized_incomplete_beta, (0.5, 200.0, 150.0), "0x1.e1e7dbd5d63b4p-9"),
    (sf.regularized_incomplete_beta, (0.6, 30.0, 20.0), "0x1.f81d705930d4cp-2"),
    (sf.regularized_incomplete_beta, (0.25, 1e-3, 2.0), "0x1.ffac96de6b05bp-1"),
    (sf.regularized_incomplete_beta, (0.75, 3.5, 1e-2), "0x1.698aa61218c3ap-9"),
    (sf.log_inverse_incomplete_beta, (0.5, 2.0, 3.0), "-0x1.e7be533db8f7cp-1"),
    (sf.log_inverse_incomplete_beta, (1e-12, 0.7, 4.0), "-0x1.47ac8ae1e0bfep+5"),
    (sf.log_inverse_incomplete_beta, (0.999, 5.0, 0.3), "-0x1.07566b6124d33p-36"),
    (sf.log_inverse_incomplete_beta, (1e-300, 3.0, 2.0), "-0x1.cd70f374aa66cp+7"),
    (sf.log_inverse_incomplete_beta, (0.25, 120.0, 80.0), "-0x1.19bab4070492dp-1"),
    (sf.log_inverse_incomplete_beta, (0.9, 0.05, 0.05), "-0x1.5cda6046ec662p-47"),
    (sf.regularized_gamma_upper, (0.5, 1.0), "0x1.368b2fc6f960ap-1"),
    (sf.regularized_gamma_upper, (2.0, 3.5), "0x1.8f3efc07202bap-1"),
    (sf.regularized_gamma_upper, (0.1, 0.5), "0x1.4f37921b5187fp-1"),
    (sf.regularized_gamma_upper, (1e-3, 1e-3), "0x1.9dafb6f23d100p-8"),
    (sf.regularized_gamma_upper, (700.0, 690.0), "0x1.640ac3332547ap-2"),
    (sf.regularized_gamma_upper, (3.0, 1.0), "0x1.97db0ccceb0b0p-5"),
    (sf.regularized_gamma_upper, (12.0, 2.5), "0x1.c7519fbbbdfe1p-13"),
    (sf.regularized_gamma_upper, (20.0, 10.0), "0x1.47611c7e8500ep-8"),
    (sf.regularized_gamma_upper, (150.0, 100.0), "0x1.8d96d3f3ce846p-18"),
]


@pytest.mark.parametrize("fn,args,bits", PINNED_BITS)
def test_continued_fraction_bits(fn, args, bits):
    assert fn(*args).hex() == bits


def _bisect_quantile(u, lo=-40.0, hi=40.0):
    """Independent oracle: bisection on the cdf."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sf.std_normal_cdf(mid) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormal:
    def test_cdf_center(self):
        assert sf.std_normal_cdf(0.0) == 0.5

    def test_cdf_against_mpmath(self):
        for x in (-8.0, -3.0, -0.5, 0.7, 2.0, 6.0):
            assert abs(sf.std_normal_cdf(x) - float(mp.ncdf(x))) < 1e-13

    def test_quantile_0975(self):
        oracle = _bisect_quantile(0.975)
        assert sf.std_normal_quantile(0.975) == pytest.approx(oracle, abs=1e-9)
        assert sf.std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_mutual_inverse(self):
        for u in (1e-12, 1e-6, 0.025, 0.31, 0.5, 0.77, 0.999999, 1.0 - 1e-12):
            x = sf.std_normal_quantile(u)
            assert sf.std_normal_quantile(sf.std_normal_cdf(x)) == pytest.approx(x, abs=1e-9)

    def test_quantile_of_cdf(self):
        for x in (-3.0, 0.7, 4.0):
            assert sf.std_normal_quantile(sf.std_normal_cdf(x)) == pytest.approx(x, abs=1e-9)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                sf.std_normal_quantile(bad)


# The scalar normal cdf and quantile that the array versions replaced, kept as
# the oracle they must match bit for bit.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def reference_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def reference_quantile(u):
    a, b, c, d = _A, _B, _C, _D
    p_low = 0.02425
    if u < p_low:
        s = math.sqrt(-2.0 * math.log(u))
        x = (((((c[0] * s + c[1]) * s + c[2]) * s + c[3]) * s + c[4]) * s + c[5]) / \
            ((((d[0] * s + d[1]) * s + d[2]) * s + d[3]) * s + 1.0)
    elif u <= 1.0 - p_low:
        s = u - 0.5
        r = s * s
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * s / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        s = math.sqrt(-2.0 * math.log1p(-u))
        x = -(((((c[0] * s + c[1]) * s + c[2]) * s + c[3]) * s + c[4]) * s + c[5]) / \
            ((((d[0] * s + d[1]) * s + d[2]) * s + d[3]) * s + 1.0)
    err = reference_cdf(x) - u
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        x -= err / pdf
    return x


# Acklam's branch edges from both sides, the far tails, and the centre.
EDGE_U = [0.02425, math.nextafter(0.02425, 0.0), math.nextafter(0.02425, 1.0),
          1.0 - 0.02425, math.nextafter(1.0 - 0.02425, 1.0), 1e-300, 5e-324,
          1.0 - 2.0**-53, 0.5]


class TestNormalArrays:
    """The array cdf and quantile against the scalar oracle, bit for bit."""

    @staticmethod
    def _u():
        rng = np.random.default_rng(20260823)
        return np.concatenate([rng.random(100_000), EDGE_U])

    def test_quantile_bit_identical(self):
        u = self._u()
        want = np.array([reference_quantile(v) for v in u.tolist()])
        assert sf.std_normal_quantile(u).tobytes() == want.tobytes()

    def test_cdf_bit_identical(self):
        x = np.concatenate([sf.std_normal_quantile(self._u()), [0.0, -0.0, -38.5, 40.0]])
        want = np.array([reference_cdf(v) for v in x.tolist()])
        assert sf.std_normal_cdf(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("u", EDGE_U)
    def test_edge_points_as_floats(self, u):
        got = sf.std_normal_quantile(u)
        assert type(got) is float
        assert got == reference_quantile(u)
        assert type(sf.std_normal_cdf(got)) is float
        assert sf.std_normal_cdf(got) == reference_cdf(got)

    def test_numpy_scalar_returns_float(self):
        assert type(sf.std_normal_quantile(np.float64(0.3))) is float
        assert type(sf.std_normal_cdf(np.array(0.3))) is float

    def test_shape_kept(self):
        u = self._u()[:12].reshape(3, 4)
        got = sf.std_normal_quantile(u)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), sf.std_normal_quantile(u.ravel()))
        assert sf.std_normal_cdf(got).shape == (3, 4)

    @pytest.mark.parametrize("bad,text", [(math.nan, "nan"), (0.0, "0.0"), (1.0, "1.0")])
    def test_domain_names_value(self, bad, text):
        with pytest.raises(ValueError, match=f"got {text}$"):
            sf.std_normal_quantile(bad)
        with pytest.raises(ValueError, match=f"got {text}$"):
            sf.std_normal_quantile(np.array([[0.5, 0.2], [bad, 0.7]]))


def test_log_beta_definition():
    # everything in the package derives B(p, q) from this identity
    for p, q in ((1.0, 1.0), (0.3, 2.2), (5.0, 7.5)):
        expected = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
        assert sf.log_beta(p, q) == expected
        assert sf.log_beta(p, q) == pytest.approx(float(mp.log(mp.beta(p, q))), abs=1e-12)
