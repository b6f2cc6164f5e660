import dataclasses
import math
import pathlib
import time

import mpmath as mp
import numpy as np
import pytest

from oscbessel import oracle
from oscbessel.errors import AccuracyError, DomainError
from oscbessel.moments import _starting_mpf, moment_table, power_moment
from oscbessel.oracle import (_GK_NODES, _GK_WGAUSS, _GK_WK, OracleConfig,
                              reference_integral, reference_moment,
                              reference_moments)
from oscbessel.problem import ProblemSpec


class TestReferenceIntegral:
    def test_against_closed_form(self):
        spec = ProblemSpec(0.0, 0.0, 0.0, 1.0, integrand=lambda x: 1.0)
        got, _ = reference_integral(spec)
        want = float(power_moment(0.0, 0.0, 0.0, 1.0)[0][0])
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_degenerate_small_omega(self):
        spec = ProblemSpec(0.0, 0.0, 0.0, 1e-6, integrand=lambda x: 1.0)
        got, _ = reference_integral(spec)
        assert abs(got - 1.0) <= 1e-9

    def test_self_convergence_kink(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0,
                           integrand=lambda x: abs(x - 0.5))
        loose, est = reference_integral(spec, OracleConfig(rel_tol=1e-10),
                                        breakpoints=(0.5,))
        tight, _ = reference_integral(spec, OracleConfig(rel_tol=5e-11),
                                      breakpoints=(0.5,))
        assert abs(loose - tight) < max(est, 1e-15 * abs(tight))

    def test_self_convergence_singular_weights(self):
        spec = ProblemSpec(-0.8, -0.9, 1.0, 20.0,
                           integrand=lambda x: (1 - x * x) ** 0.8)
        loose, est = reference_integral(spec, OracleConfig(rel_tol=1e-10))
        tight, _ = reference_integral(spec, OracleConfig(rel_tol=1e-11))
        assert abs(loose - tight) < max(est, 1e-14 * abs(tight))

    def test_spent_budget_raises_accuracy_error(self, monkeypatch):
        # Without bisections the panel holding the unlisted kink at 0.37
        # keeps its GK15 error, far above 100 rel_tol of the scale.
        monkeypatch.setattr(oracle, "_MAX_PANELS", 0)
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        with pytest.raises(AccuracyError) as info:
            reference_integral(spec, OracleConfig(rel_tol=1e-13),
                               f=lambda x: abs(x - 0.37))
        assert info.value.err_est == pytest.approx(4.6e-6, rel=0.01)

    def test_jump_without_breakpoint(self):
        # The bisections find an unlisted jump within the default budget.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        cfg = OracleConfig(rel_tol=1e-13)
        step = lambda x: 1.0 if x > 0.37 else 0.0
        blind, e1 = reference_integral(spec, cfg, f=step)
        told, e2 = reference_integral(spec, cfg, f=step, breakpoints=(0.37,))
        assert abs(blind - told) <= e1 + e2

    def test_no_integrand(self):
        with pytest.raises(DomainError, match="no integrand"):
            reference_integral(ProblemSpec(0.2, 0.4, 0.0, 20.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_rejected(self, bad):
        # Both came back as (nan, nan), inf with a RuntimeWarning: NaN
        # passes the err_est gate, whose comparisons with it are all False.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        with pytest.raises(DomainError, match="integrand not finite"):
            reference_integral(spec, f=lambda x: bad if x > 0.7 else 1.0)

    def test_grid_beyond_memory_rejected_before_it_is_built(self):
        # At omega = 1e12 the edge array alone would take terabytes.
        with pytest.raises(DomainError, match="half-period panels"):
            reference_integral(ProblemSpec(0.2, 0.4, 0.0, 1e12), f=math.exp)

    def test_integrand_called_with_floats(self):
        seen = set()
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0,
                           integrand=lambda x: seen.add(type(x)) or 1.0)
        reference_integral(spec)
        assert seen == {float}


@pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), 1e-15])
def test_config_rejects_unusable_tolerance(rel_tol):
    # A NaN tolerance makes every err > tol test False, which would switch
    # off refinement, the tanh-sinh stop and the final AccuracyError gate.
    with pytest.raises(DomainError):
        OracleConfig(rel_tol=rel_tol)


def tstar(k):
    """T_k*(x) = cos(k arccos(2x - 1)), clamped so it is stable on [0, 1]."""
    return lambda x: math.cos(
        k * math.acos(min(1.0, max(-1.0, 2.0 * x - 1.0))))


def test_gauss_kronrod_rules_integrate_monomials():
    # K15 is exact through degree 22 and G7 through 13; with 15-digit
    # constants the K15 weights summed to 2 - 6.0e-15.
    for weights, degree in ((_GK_WK, 22), (_GK_WGAUSS, 13)):
        for k in range(degree + 1):
            got = math.fsum((weights * _GK_NODES ** k).tolist())
            assert abs(got - (1 + (-1) ** k) / (k + 1)) <= 4e-16, (degree, k)


class TestReferenceMoment:
    def test_k0_matches_integral(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        m0, _ = reference_moment(spec, 0)
        i0, _ = reference_integral(
            dataclasses.replace(spec, integrand=lambda x: 1.0))
        assert abs(m0 - i0) <= 1e-12 * abs(i0)

    @pytest.mark.parametrize("kernel, k", [
        ((0.2, 0.4, 0.0, 20.0), 17),
        ((0.2, 0.4, 12.0, 50.0), 17),
        ((-0.5, 0.3, 20.0, 500.0), 40),
        ((1.5, -0.9, 7.0, 200.0), 33),
        # Here the last panel edge (ceil(w/pi) - 1) pi/w rounds to 1.0,
        # which must not leave an empty end panel.
        ((0.2, 0.4, 0.0, 47.1238898038469), 17),
        ((0.2, 0.4, 2.5, 84.82300164692442), 9),
        # w < pi: no edge inside (0, 1), so the grid splits at 0.5.
        ((0.2, 0.4, 0.0, 0.5), 3)],
        ids=["w20-T17", "nu12-w50-T17", "nu20-w500-T40", "nu7-w200-T33",
             "w47.12-T17", "w84.82-T9", "w0.5-T3"])
    def test_x_and_theta_paths_agree(self, kernel, k):
        # The theta form against the x-domain integral of T_k*.
        spec = ProblemSpec(*kernel)
        vx, ex = reference_integral(spec, f=tstar(k))
        vt, et = reference_moment(spec, k)
        assert abs(vx - vt) <= 1e-10 * abs(vx)
        assert abs(vx - vt) <= ex + et

    def test_single_is_the_batch_entry(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        cfg = OracleConfig(rel_tol=1e-13)
        for k in (0, 3, 12, 180):
            assert reference_moment(spec, k, cfg) == reference_moments(
                spec, [k], cfg)[k], k

    def test_index_validation(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        with pytest.raises(DomainError):
            reference_moment(spec, -1)
        with pytest.raises(DomainError):
            reference_moments(spec, [])
        # A grid of q = max(k, w/2) half-periods is allocated whole.
        for k, w in ((1 << 20, 20.0), (0, 1e12)):
            with pytest.raises(DomainError, match="half-period panels"):
                reference_moment(ProblemSpec(0.2, 0.4, 0.0, w), k)

    def test_decay_exponent(self):
        # Lemma-consistent decay -2 - 2 min(alpha, beta) at fixed omega.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        ks = [100, 141, 200, 283, 400, 566, 800]
        vals = reference_moments(spec, ks, OracleConfig(rel_tol=1e-10))
        mags = [abs(vals[k][0]) for k in ks]
        slope = np.polyfit(np.log(ks), np.log(mags), 1)[0]
        assert abs(slope - (-2.4)) <= 0.25

    def test_batch_matches_single(self):
        spec = ProblemSpec(-0.5, -0.5, 1.0, 20.0)
        batch = reference_moments(spec, [30, 60])
        for k in (30, 60):
            single, err = reference_moment(spec, k)
            assert abs(batch[k][0] - single) <= 1e-11 * abs(single) + 3 * err

    def test_several_cos_blocks_agree_with_one(self, monkeypatch):
        # Blocks change only the BLAS summation order, so the values move
        # within err_est (7e-7 of it here), not bit for bit.
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
        cfg = OracleConfig(rel_tol=1e-13)
        ks = range(0, 295, 7)
        one = reference_moments(spec, ks, cfg)
        monkeypatch.setattr(oracle, "_COS_BLOCK", 5000)
        many = reference_moments(spec, ks, cfg)
        for k in ks:
            assert abs(many[k][0] - one[k][0]) <= one[k][1], k

    def test_nearly_cancelling_end_panels(self):
        # Some of these k have end-panel totals that nearly cancel.  The
        # bound is criterion-04's.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        table = moment_table(spec, 32)
        got = reference_moments(spec, range(10, 18),
                                OracleConfig(rel_tol=1e-13))
        for k in range(10, 18):
            ref, err = got[k]
            assert abs(table.values[k] - ref) <= 1e-8 * abs(ref) + err, k

    def test_x_path_end_panel_that_cancels(self):
        # In the x-domain integral of T_11*, an end panel nearly cancels;
        # stopping relative to its own total ran every tanh-sinh level
        # (0.36 s against 4-6 ms for k = 10 and 12), stopping relative to
        # its mass does not.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        cfg = OracleConfig(rel_tol=1e-13)
        reference_integral(spec, cfg, f=tstar(10))     # warm the node caches
        t0 = time.perf_counter()
        vx, ex = reference_integral(spec, cfg, f=tstar(11))
        elapsed = time.perf_counter() - t0
        vt, et = reference_moment(spec, 11, cfg)
        assert elapsed < 0.05
        assert abs(vx - vt) <= ex + et

    @pytest.mark.parametrize("omega", [2e3, 1e4])
    @pytest.mark.parametrize("kernel", [(0.2, 0.4, 0.0), (-0.8, -0.9, 2.5)])
    def test_large_omega_against_closed_form(self, kernel, omega):
        spec = ProblemSpec(*kernel, omega)
        want = moment_table(spec, 5).values
        got = reference_moments(spec, range(6), OracleConfig(rel_tol=1e-13))
        for k in range(6):
            ref, err = got[k]
            assert abs(ref - want[k]) <= err + 1e-12 * abs(want[k]), k


@pytest.mark.parametrize("kernel", [
    *((a, b, nu, 5.0) for a in (-0.98, -0.99, -0.999)
      for b in (-0.98, -0.99, -0.999) for nu in (0.0, 2.0)),
    (-0.9783833244778571, 2.4175521717885236, 0.01055964054423375,
     962.0839496895073),
    (-0.984375, 0.0, 0.0078125, 0.01)])
def test_exponents_near_minus_one_against_closed_forms(kernel):
    # With its t range cut at 6.8, tanh-sinh dropped ~e^(-1410 (gamma+1))
    # of int u^gamma psi du: at (0, -0.999, 0, 5) M(0) was 6% off with an
    # err_est of 1e-5, and the x form raised AccuracyError from -0.99.
    # The last two kernels have deep nodes at x = 0 whose Bessel argument
    # is below 1e-305, where jv reads 0, though at their small nu (z/2)^nu
    # is e^-7 there: both forms were off by 4.2e-9 and 3.3e-6, against
    # err_est 6.3e-12 and 3.3e-9.
    spec = ProblemSpec(*kernel)
    want = [value for value, _ in _starting_mpf(spec, 4)]
    theta = reference_moments(spec, range(4))
    for k in range(4):
        for form, (ref, err) in (("theta", theta[k]),
                                 ("x", reference_integral(spec, f=tstar(k)))):
            assert abs(mp.mpf(ref) - want[k]) <= err, (k, form)


def test_oracle_is_independent_of_the_modules_it_judges():
    src = (pathlib.Path(__file__).resolve().parents[1]
           / "src" / "oscbessel" / "oracle.py").read_text()
    for banned in ("moments", "ccf", "specfun"):
        assert f"from .{banned}" not in src
        assert f"from oscbessel.{banned}" not in src
        assert f"import {banned}" not in src
