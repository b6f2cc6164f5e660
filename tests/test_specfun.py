import math

import mpmath as mp
import numpy as np
import pytest

from oscbessel.errors import DomainError
from oscbessel.moments import power_moment
from oscbessel.specfun import (bessel_entire_jet, jet_compose, jet_mul,
                               jet_pow)


def besselj(nu, x):
    """mpmath's J_nu(x) rounded to double: the reference for the jets."""
    return float(mp.besselj(nu, x))


def entire_part(nu, s):
    """g(s) = (sqrt(s)/2)^-nu J_nu(sqrt(s)), the function the jet expands."""
    z = math.sqrt(s)
    return (z / 2) ** -nu * besselj(nu, z)


class TestBesselJet:
    def test_order_zero_and_first_derivative(self):
        jet0 = bessel_entire_jet(1.7, 3.0, 0)
        assert jet0[0] == pytest.approx(entire_part(1.7, 9.0))
        # g'(s) = -(1/4) (z/2)^-(nu+1) J_{nu+1}(z), s = z^2
        jet1 = bessel_entire_jet(0.0, 1.0, 1)
        assert jet1[1] == pytest.approx(-0.5 * besselj(1.0, 1.0), abs=1e-14)
        # at w = 0 the coefficient is 1/Gamma(nu+1), correctly rounded
        with mp.workdps(40):
            assert bessel_entire_jet(2.5, 0.0, 0)[0] == float(mp.rgamma(3.5))

    def test_against_finite_differences(self):
        jet = bessel_entire_jet(0.0, 2.0, 4)
        # Two step sizes in s about 4: the third difference wants a small
        # h (its error is truncation-bound), the fourth a larger one
        # (roundoff-bound).
        h = 2e-3
        f = np.array([entire_part(0.0, 4.0 + h * i) for i in range(-2, 3)])
        d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
        d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h**2)
        d3 = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h ** 3)
        h4 = 5e-3
        g = np.array([entire_part(0.0, 4.0 + h4 * i) for i in range(-2, 3)])
        d4 = (g[4] - 4 * g[3] + 6 * g[2] - 4 * g[1] + g[0]) / h4 ** 4
        for n, want in ((1, d1), (2, d2), (3, d3), (4, d4)):
            got = jet[n]
            fd = want / math.factorial(n)
            assert abs(got - fd) <= 1e-7 * (1.0 + abs(fd)), n

    def test_ladder_against_mpmath(self):
        # Two mpmath orders and the downward recurrence give all 13; the
        # reference is the independent route (-1/4)^k 0F1(; nu+1+k; -w^2/4)
        # / (k! Gamma(nu+1+k)), and w = 0 takes the series branch.  Each
        # coefficient is checked on its own scale.  nu = 10.726... is not
        # dyadic: there a power (w/2)^-(nu+k) with nu + k rounded to double
        # is 1.7e-14 off at w = 36185.7.
        for nu in (0.0, 0.5, 1.0, 2.5, 7.0, 10.72632902127828, 20.0):
            for w in (0.0, 0.01, 0.3, 1.0, 3.0, 20.0, 200.0, 1e3, 1e4,
                      36185.69511342976, 1e5):
                got = bessel_entire_jet(nu, w, 12)
                with mp.workdps(40):
                    b = [mp.mpf(nu) + 1 + k for k in range(13)]
                    want = [float((-mp.mpf(1) / 4) ** k
                                  * mp.hyp0f1(b[k], -mp.mpf(w) ** 2 / 4)
                                  / (mp.factorial(k) * mp.gamma(b[k])))
                            for k in range(13)]
                for g, c in zip(got, want):
                    assert abs(g - c) <= 1e-15 * abs(c), (nu, w)

    def test_bessel_ode_residual(self):
        # 4 s g'' + 4 (nu+1) g' + g = 0, Bessel's equation for the entire
        # part, in Taylor coefficients about s0 = w^2:
        # 4 s0 (k+1)(k+2) c_{k+2} + 4 (k+1)(k+nu+1) c_{k+1} + c_k = 0.
        for nu in (0.0, 1.0, 2.5, 7.0):
            for w in (0.0, 0.5, 1.0, 3.0, 10.0, 40.0, 150.0):
                c = bessel_entire_jet(nu, w, 12)
                for k in range(11):
                    terms = (4 * w * w * (k + 1) * (k + 2) * c[k + 2],
                             4 * (k + 1) * (k + nu + 1) * c[k + 1], c[k])
                    resid = abs(sum(terms))
                    assert resid <= 1e-12 * max(map(abs, terms)), (nu, w, k)


class TestJetArithmetic:
    def test_product_truncates_at_first_order(self):
        got = jet_mul(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
        assert got.tolist() == [4.0, 13.0, 28.0]

    def test_power_against_mpmath_taylor(self):
        cos = np.array([(1, 0, -1, 0)[n % 4] / math.factorial(n)
                        for n in range(9)])
        want = mp.taylor(lambda x: mp.cos(x) ** 0.7, 0, 8)
        assert np.allclose(jet_pow(cos, 0.7), [float(c) for c in want],
                           rtol=0, atol=1e-15)

    def test_compose_against_mpmath_taylor(self):
        # exp(sin u): the exp series composed with the sin jet.
        sin = np.array([(0, 1, 0, -1)[n % 4] / math.factorial(n)
                        for n in range(9)])
        exp = np.array([1.0 / math.factorial(n) for n in range(9)])
        want = mp.taylor(lambda x: mp.exp(mp.sin(x)), 0, 8)
        assert np.allclose(jet_compose(sin, exp), [float(c) for c in want],
                           rtol=0, atol=1e-15)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            jet_pow(np.array([-1.0, 1.0]), 0.5)
        with pytest.raises(DomainError):
            jet_compose(np.array([1.0, 1.0]), np.array([1.0, 1.0]))


def closed_form(a, b, nu, w):
    """I(a) = int_0^1 x^a (1-x)^b J_nu(w x) dx as its Gamma prefactor times
    its 2F3, at 600 bits, the 2F3 summed by mpmath as its defining series
    (force_series: mpmath raises its own precision past the cancellation),
    so no asymptotic branch of mpmath's judges the value."""
    with mp.workprec(600):
        a, b, nu, w = (mp.mpf(v) for v in (a, b, nu, w))
        pref = (mp.gamma(b + 1) * mp.gamma(a + nu + 1) * (w / 2) ** nu
                / (mp.gamma(nu + 1) * mp.gamma(a + b + nu + 2)))
        return pref * mp.hyp2f3((a + nu + 1) / 2, (a + nu + 2) / 2, nu + 1,
                                (a + b + nu + 2) / 2, (a + b + nu + 3) / 2,
                                -w * w / 4, force_series=True,
                                maxterms=10 ** 6)


class TestHyp2f3:
    """The 2F3 closed forms I(a+i) = K q_i(0) 2F3(...), i = 0..3, as
    power_moment evaluates them (the two-end expansion from w = 600 on,
    the exact integer pass elsewhere), against identities of the 2F3 and
    against its defining series.  Each value must lie within its err_est;
    I(a+i) is referred to a + i formed exactly, as power_moment forms it."""

    def test_z_zero(self):
        # At w = 0 the 2F3 is 1: I(a+i) is B(a+1+i, b+1) for nu = 0 and
        # 0 for nu > 0.
        for i, (value, err_est) in enumerate(power_moment(0.2, 0.4, 0.0,
                                                          0.0)):
            with mp.workprec(600):
                want = mp.beta(mp.mpf(0.2) + 1 + i, mp.mpf(0.4) + 1)
                assert abs(value - want) <= err_est, i
        assert all(value == 0 and err_est == 0.0 for value, err_est
                   in power_moment(0.2, 0.4, 0.7, 0.0))

    def test_parameter_cancellation_gives_1f2(self):
        # b = 0 cancels (a+nu+2)/2 between the upper and lower parameters:
        # I(a) = (w/2)^nu / ((a+nu+1) Gamma(nu+1)) 1F2((a+nu+1)/2; nu+1,
        # (a+nu+3)/2; -w^2/4), the term-by-term integral of J_nu's series.
        a, nu = 0.4, 1.3
        for w in (4.0, 1000.0):
            for i, (value, err_est) in enumerate(power_moment(a, 0.0, nu,
                                                              w)):
                with mp.workprec(600):
                    am, n, wm = mp.mpf(a) + i, mp.mpf(nu), mp.mpf(w)
                    want = ((wm / 2) ** n / ((am + n + 1) * mp.gamma(n + 1))
                            * mp.hyper([(am + n + 1) / 2],
                                       [n + 1, (am + n + 3) / 2],
                                       -wm * wm / 4, force_series=True,
                                       maxterms=10 ** 6))
                    assert abs(value - want) <= err_est, (w, i)

    def test_bessel_series_identity(self):
        # int_0^1 x^(nu+1) J_nu(w x) dx = J_(nu+1)(w) / w: the 2F3 of
        # I(nu+1) with b = 0 reduces to J_(nu+1)'s 0F1.
        for nu in (0.0, 2.5):
            for w in (3.0, 1000.0):
                value, err_est = power_moment(nu + 1, 0.0, nu, w)[0]
                with mp.workprec(600):
                    want = mp.besselj(nu + 1, w) / w
                    assert abs(value - want) <= err_est, (nu, w)
                assert err_est <= 1e-50 * abs(float(want))

    def test_cancellation_prone_argument(self):
        # (0.2, 0.4, 0) at w = 200, z = -(200/2)^2: the 2F3's terms reach
        # ~1e86 times the sum.
        a, b, nu, w = 0.2, 0.4, 0.0, 200.0
        value, err_est = power_moment(a, b, nu, w)[0]
        want = closed_form(a, b, nu, w)
        rel = abs(float(value) - float(want)) / abs(float(want))
        assert rel <= 1e-12
        assert err_est <= 1e-10 * abs(float(want))
        with mp.workprec(600):
            assert abs(value - want) <= err_est

    def test_large_argument_at_fixed_precision(self):
        # z = -(1e4/2)^2, past where a series summation at fixed precision
        # gives up; the value is still within err_est of the 2F3's series.
        a, b, nu, w = 0.2, 0.4, 0.0, 1e4
        value, err_est = power_moment(a, b, nu, w)[0]
        want = closed_form(a, b, nu, w)
        with mp.workprec(600):
            assert abs(value - want) <= err_est
        assert err_est <= 2.0 ** -150 * abs(float(want))

    @pytest.mark.parametrize("w", [700.0, 1000.0, 1200.0, 2000.0])
    def test_err_est_bounds_error_across_branch_switch(self, w):
        # mpmath's 2F3 moves from its convergent series to its asymptotic
        # expansion in this range of omega, and power_moment's expansion
        # meets its 2^19 cut in |z| (w ~ 1448); the bound must hold on both
        # sides, for every I(a+i).
        for nu in (0.0, 7.0, 20.0):
            for a, b in ((-0.9, -0.9), (1.5, 1.5)):
                for i, (value, err_est) in enumerate(power_moment(a, b, nu,
                                                                  w)):
                    with mp.workprec(600):
                        want = closed_form(mp.mpf(a) + i, b, nu, w)
                        err = abs(value - want)
                    assert err <= err_est, (w, nu, a, i, float(err))
