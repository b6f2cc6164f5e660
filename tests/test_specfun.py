import math

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import NoConvergence

from oscbessel.errors import ConvergenceError, DomainError, PoleError
from oscbessel.specfun import (_bessel_j_ladder, bessel_j_jet,
                               gamma, hyp2f3, jet_compose, jet_mul, jet_pow,
                               shifted_cheb_power_coeffs)


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(5.0) == 24.0
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15

    def test_relative_error_grid(self):
        for x in np.linspace(0.05, 50.0, 401):
            want = float(mp.gamma(float(x)))
            assert abs(gamma(float(x)) - want) <= 1e-14 * abs(want)

    def test_pole_errors(self):
        for x in (0.0, -1.0, -2.0, -17.0):
            with pytest.raises(PoleError):
                gamma(x)


def besselj(nu, x):
    """mpmath's J_nu(x) rounded to double: the reference for the jets."""
    return float(mp.besselj(nu, x))


class TestBesselJet:
    def test_order_zero_and_first_derivative(self):
        jet0 = bessel_j_jet(1.7, 3.0, 0)
        assert jet0[0] == pytest.approx(besselj(1.7, 3.0))
        jet1 = bessel_j_jet(0.0, 1.0, 1)
        assert jet1[1] == pytest.approx(-besselj(1.0, 1.0),
                                     abs=1e-14)

    def test_against_finite_differences(self):
        jet = bessel_j_jet(0.0, 2.0, 4)
        # Two step sizes: the third difference wants a small h (its error
        # is truncation-bound), the fourth a larger one (roundoff-bound).
        h = 2e-3
        f = np.array([besselj(0.0, 2.0 + h * i) for i in range(-2, 3)])
        d1 = (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)
        d2 = (-f[4] + 16 * f[3] - 30 * f[2] + 16 * f[1] - f[0]) / (12 * h**2)
        d3 = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * h ** 3)
        h4 = 5e-3
        g = np.array([besselj(0.0, 2.0 + h4 * i) for i in range(-2, 3)])
        d4 = (g[4] - 4 * g[3] + 6 * g[2] - 4 * g[1] + g[0]) / h4 ** 4
        for n, want in ((1, d1), (2, d2), (3, d3), (4, d4)):
            got = jet[n]
            fd = want / math.factorial(n)
            assert abs(got - fd) <= 1e-7 * (1.0 + abs(fd)), n

    def test_ladder_against_mpmath(self):
        # Two mpmath orders and the downward recurrence give all 25.
        for nu in (0.0, 0.5, 1.0, 2.5, 7.0, 20.0):
            for x in (0.3, 1.0, 3.0, 20.0, 200.0, 1e3, 1e4, 1e5):
                got = _bessel_j_ladder(nu, x, 12)
                with mp.workprec(200):
                    want = [float(mp.besselj(mp.mpf(nu) - 12 + i, x))
                            for i in range(25)]
                scale = max(map(abs, want))
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-13 * scale, (nu, x)

    def test_bessel_ode_residual(self):
        # x^2 J'' + x J' + (x^2 - nu^2) J = 0 with jet derivatives.
        for nu in (0.0, 1.0, 2.5, 7.0):
            for x in (0.5, 1.0, 3.0, 10.0, 40.0, 150.0):
                jet = bessel_j_jet(nu, x, 2)
                j0 = jet[0]
                j1 = jet[1]
                j2 = 2.0 * jet[2]
                resid = x * x * j2 + x * j1 + (x * x - nu * nu) * j0
                assert abs(resid) <= 1e-9 * max(1.0, abs(x * x * j0))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j_jet(-0.5, 1.0, 2)
        with pytest.raises(DomainError):
            bessel_j_jet(1.0, -1.0, 2)
        with pytest.raises(DomainError):
            bessel_j_jet(1.0, 1.0, 13)


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


class TestShiftedChebPowerCoeffs:
    def test_low_orders(self):
        assert shifted_cheb_power_coeffs(0) == [1]
        assert shifted_cheb_power_coeffs(1) == [2, -1]
        assert shifted_cheb_power_coeffs(2) == [8, -8, 1]

    def test_leading_coefficient(self):
        for k in range(1, 30):
            assert shifted_cheb_power_coeffs(k)[0] == 2 ** (2 * k - 1)

    def test_matches_cosine_form_double(self):
        # Coefficients are exact integers, so evaluate the polynomial in
        # exact rational arithmetic (double Horner would lose digits to
        # the 4^k cancellation well before k = 25).
        from fractions import Fraction
        for k in range(26):
            c = shifted_cheb_power_coeffs(k)
            for x in (Fraction(0), Fraction(3, 10), Fraction(1)):
                horner = Fraction(0)
                for cj in c:
                    horner = horner * x + cj
                want = math.cos(2 * k * math.acos(math.sqrt(float(x))))
                assert abs(float(horner) - want) <= 1e-12, (k, x)

    def test_matches_cosine_form_extended(self):
        # Beyond k = 25 the power basis cancels past double precision.
        k = 40
        c = shifted_cheb_power_coeffs(k)
        with mp.workprec(300):
            x = mp.mpf(0.3)
            horner = mp.mpf(0)
            for cj in c:
                horner = horner * x + cj
            want = mp.cos(2 * k * mp.acos(mp.sqrt(x)))
            assert abs(horner - want) < mp.mpf(10) ** -40
