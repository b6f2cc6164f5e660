import math

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import NoConvergence

from oscbessel.errors import ConvergenceError, DomainError, PoleError
from oscbessel.specfun import (bessel_entire_jet, hyp2f3, jet_compose,
                               jet_mul, jet_pow)


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


class TestHyp2f3:
    def test_z_zero(self):
        assert float(hyp2f3(0.3, 1.2, 2.0, 0.7, 1.5, 0.0)) == 1.0

    def test_parameter_cancellation_gives_1f2(self):
        got = float(hyp2f3(0.7, 1.3, 0.7, 2.1, 0.9, -4.0))
        want = float(mp.hyper([1.3], [2.1, 0.9], -4.0))
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_bessel_series_identity(self):
        # J_0(3) = 0F1(; 1; -9/4) through the shared Pochhammer kernel.
        got = float(hyp2f3(1.0, 2.0, 1.0, 2.0, 1.0, -2.25))
        assert abs(got - besselj(0.0, 3.0)) <= 1e-13

    def test_cancellation_prone_argument(self):
        # Moment-shaped parameters at z = -(200/2)^2: heavy cancellation.
        args = (0.6, 1.1, 1.0, 1.3, 1.8, -10000.0)
        got = hyp2f3(*args)
        want = mp.hyper([args[0], args[1]], [args[2], args[3], args[4]],
                        args[5])
        rel = abs(float(got) - float(want)) / abs(float(want))
        assert rel <= 1e-12
        assert got.err_est <= 1e-10 * abs(float(want))

    def test_self_consistency(self):
        # A 192-bit evaluation lies within err_est of the 256-bit value.
        args = (0.6, 1.1, 1.0, 1.3, 1.8, -100.0)
        got = hyp2f3(*args)
        assert got.err_est == 2.0 ** -192 * abs(float(got.value))
        with mp.workprec(192):
            lower = mp.hyp2f3(*args)
        assert abs(got.value - lower) <= got.err_est

    def test_large_argument_at_fixed_precision(self):
        # z = -(1e4/2)^2, past where the series summation gave up.
        args = (0.6, 1.1, 1.0, 1.3, 1.8, -2.5e7)
        got = hyp2f3(*args)
        assert got.prec == 256
        with mp.workprec(400):
            want = mp.hyp2f3(*args)
            floor = mp.mpf(2) ** -250 * abs(want)
            assert abs(got.value - want) <= got.err_est + floor

    @pytest.mark.parametrize("w", [700.0, 1000.0, 1200.0, 2000.0])
    def test_err_est_bounds_error_across_branch_switch(self, w):
        # mpmath moves from the convergent series to its asymptotic
        # expansion in this range of omega; the bound must hold on both
        # sides.  Parameters are moment-shaped, as power_moment forms them.
        for nu in (0.0, 7.0, 20.0):
            for a, b in ((-0.9, -0.9), (1.5, 1.5)):
                with mp.workprec(192):
                    am, bm, n, wm = (mp.mpf(v) for v in (a, b, nu, w))
                    args = ((am + n + 1) / 2, (am + n + 2) / 2, n + 1,
                            (am + bm + n + 2) / 2, (am + bm + n + 3) / 2,
                            -(wm * wm) / 4)
                got = hyp2f3(*args)
                with mp.workprec(600):
                    err = abs(got.value - mp.hyp2f3(*args))
                assert err <= got.err_est, (w, nu, a, float(err))

    @pytest.mark.parametrize("failure", [
        NoConvergence("no convergence"),
        ValueError("hypsum() failed to converge to the requested 256 bits"),
    ], ids=["NoConvergence", "ValueError"])
    def test_mpmath_failure_raises_convergence_error(self, monkeypatch,
                                                     failure):
        def fail(*args):
            raise failure

        monkeypatch.setattr(mp, "hyp2f3", fail)
        with pytest.raises(ConvergenceError) as info:
            hyp2f3(0.6, 1.1, 1.0, 1.3, 1.8, -100.0)
        assert info.value.__cause__ is failure

    def test_pole_parameter(self):
        with pytest.raises(PoleError):
            hyp2f3(0.5, 0.5, -1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("b", [-1.0 + 1e-13, -1e-13, -2.0 + 2.0 ** -45])
    def test_near_pole_is_not_a_pole(self, b):
        # Only an exact integer <= 0 is a pole; mpmath sums these.
        args = (0.5, 0.5, b, 1.0, 1.0, 1.0)
        with mp.workprec(256):
            want = mp.hyp2f3(*(mp.mpf(v) for v in args))
        assert abs(want) > 1e11
        assert hyp2f3(*args).value == want

    @pytest.mark.parametrize("b", [0.0, -0.0, -2.0, mp.mpf(-7)])
    def test_every_nonpositive_integer_is_a_pole(self, b):
        for pos in range(3):
            lower = [1.0, 1.5, 2.0]
            lower[pos] = b
            with pytest.raises(PoleError):
                hyp2f3(0.5, 0.5, *lower, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("pos", range(6))
    def test_non_finite_input_raises_before_mpmath(self, monkeypatch, bad,
                                                   pos):
        def never(*args):
            raise AssertionError("mpmath was called")

        monkeypatch.setattr(mp, "hyp2f3", never)
        args = [0.6, 1.1, 1.0, 1.3, 1.8, -100.0]
        args[pos] = bad
        with pytest.raises(DomainError):
            hyp2f3(*args)

    @pytest.mark.parametrize("w", [0.01, 20.0, 200.0, 1000.0, 1448.0])
    @pytest.mark.parametrize("nu", [0.0, 2.5, 7.3])
    def test_same_bits_as_mpf_parameters(self, w, nu):
        # hyp2f3 hands mpmath its mpf parameters as they are, with no
        # conversion on the way: below the asymptotic switch too, the value
        # is mpmath's own 256-bit 2F3 to the bit.
        for a, b in ((0.2, 0.4), (-0.9, 1.5)):
            with mp.workprec(192):
                am, bm, n, wm = (mp.mpf(v) for v in (a, b, nu, w))
                args = ((am + n + 1) / 2, (am + n + 2) / 2, n + 1,
                        (am + bm + n + 2) / 2, (am + bm + n + 3) / 2,
                        -(wm * wm) / 4)
            assert abs(args[-1]) < 2 ** 19
            with mp.workprec(256):
                want = mp.hyp2f3(*args)
            assert hyp2f3(*args).value == want, (w, nu, a, b)
