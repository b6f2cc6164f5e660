import numpy as np
import pytest

from oscbessel.chebfit import ChebyshevExpansion, cc_points, cheb_interp_coeffs
from oscbessel.errors import DomainError


class TestCCPoints:
    def test_small_cases(self):
        assert np.allclose(cc_points(2), [1.0, 0.5, 0.0])
        assert np.allclose(cc_points(1), [1.0, 0.0])

    def test_symmetry_and_order(self):
        pts = cc_points(4)
        assert pts[1] + pts[3] == pytest.approx(1.0)
        assert np.all(np.diff(pts) < 0)
        assert pts[0] == 1.0 and abs(pts[-1]) < 1e-16

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            cc_points(0)

    @pytest.mark.parametrize("N", [2.5, 4.0, np.float64(4)])
    def test_rejects_non_integral_n(self, N):
        # A size must be integral: N = 2.5 would put one node in twice.
        with pytest.raises(DomainError, match="N must be an integer"):
            cc_points(N)

    def test_numpy_integer_n_accepted(self):
        assert np.array_equal(cc_points(np.int64(4)), cc_points(4))

    def test_divisor_grids_nest_bitwise(self):
        # Every n | M: the nodes of n are every (M/n)-th node of M, bit for
        # bit (48/16, 81/9 and 432/12 failed when j pi was rounded first).
        pairs = 0
        for M in [*range(1, 400), 1000, 2187, 3000, 3072, 4095, 4096]:
            fine = cc_points(M)
            for n in range(1, M + 1):
                if M % n == 0:
                    assert fine[::M // n].tobytes() == cc_points(n).tobytes()
                    pairs += 1
        assert pairs == 2568

    @pytest.mark.parametrize("N", [1, 2, 16, 256, 4096])
    def test_power_of_two_nodes_unchanged(self, N):
        old = 0.5 + 0.5 * np.cos(np.arange(N + 1) * np.pi / N)
        assert cc_points(N).tobytes() == old.tobytes()


class TestInterpCoeffs:
    def test_constant(self):
        b = cheb_interp_coeffs(np.ones(9)).coefficients
        want = np.zeros(9)
        want[0] = 1.0
        assert np.allclose(b, want, atol=1e-15)

    def test_linear(self):
        # x = (T0* + T1*)/2
        b = cheb_interp_coeffs(cc_points(6)).coefficients
        want = np.zeros(7)
        want[0] = want[1] = 0.5
        assert np.allclose(b, want, atol=1e-15)

    def test_interpolation_property(self):
        for f in (lambda x: abs(x - 0.5), np.exp):
            for n in (16, 21):
                pts = cc_points(n)
                samples = np.array([f(x) for x in pts])
                exp = cheb_interp_coeffs(samples)
                recon = np.array([exp(x) for x in pts])
                scale = np.max(np.abs(samples))
                assert np.max(np.abs(recon - samples)) <= 1e-13 * scale

    def test_fft_and_direct_paths_agree(self):
        # O(N^2) reference: b_k = (2/N) sum''_j f_j cos(j k pi / N), then
        # b_0 and b_N halved, for N on and off the powers of two.
        rng = np.random.default_rng(3)
        for n in (1, 8, 21, 64, 256, 1000):
            samples = rng.standard_normal(n + 1)
            j = np.arange(n + 1)
            weights = np.ones(n + 1)
            weights[0] = weights[-1] = 0.5
            cosmat = np.cos(np.outer(j, j) * (np.pi / n))
            want = (2.0 / n) * (cosmat @ (weights * samples))
            want[0] *= 0.5
            want[-1] *= 0.5
            got = cheb_interp_coeffs(samples).coefficients
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, n

    def test_coefficient_decay_kink(self):
        # |b_j| for |x-0.5| decays like the 1/(j(j-1)) bound shape.
        n = 256
        b = cheb_interp_coeffs(
            np.abs(cc_points(n) - 0.5)).coefficients
        # |x - 0.5| is even about 0.5, so odd-index coefficients are zero
        # to rounding; fit the decay over the structural (even) ones.
        j = np.arange(8, n // 2 + 1, 2)
        mags = np.abs(b[j])
        slope = np.polyfit(np.log(j), np.log(mags), 1)[0]
        assert slope <= -1.8

    def test_length_validation(self):
        with pytest.raises(DomainError):
            cheb_interp_coeffs([1.0])
        with pytest.raises(DomainError):
            cheb_interp_coeffs(np.ones((3, 3)))


class TestChebEval:
    def test_constant_expansion(self):
        exp = ChebyshevExpansion([1.0, 0.0, 0.0])
        for x in (0.0, 0.25, 1.0):
            assert exp(x) == pytest.approx(1.0)

    def test_t1_endpoints(self):
        exp = ChebyshevExpansion([0.0, 1.0])
        assert exp(1.0) == pytest.approx(1.0)
        assert exp(0.0) == pytest.approx(-1.0)

    def test_domain_check(self):
        exp = ChebyshevExpansion([1.0, 1.0])
        with pytest.raises(DomainError):
            exp(1.5)
        with pytest.raises(DomainError):
            exp(-0.1)
