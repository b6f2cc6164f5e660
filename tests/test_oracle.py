import pathlib
import time

import numpy as np
import pytest

from scipy.special import jn_zeros

from oscbessel.errors import DomainError
from oscbessel.moments import moment_table, power_moment, starting_moments
from oscbessel.oracle import (OracleConfig, _bessel_zeros, reference_integral,
                              reference_moment, reference_moments)
from oscbessel.problem import ProblemSpec


class TestReferenceIntegral:
    def test_against_closed_form(self):
        spec = ProblemSpec(0.0, 0.0, 0.0, 1.0, integrand=lambda x: 1.0)
        got, _ = reference_integral(spec)
        want = float(power_moment(0.0, 0.0, 0.0, 1.0))
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


def test_bessel_zeros_match_scipy():
    # 12 bisection steps on a bracket of width 0.8
    for nu in (0, 1, 5):
        got = _bessel_zeros(float(nu), 200.0)
        want = jn_zeros(nu, len(got))
        assert want[-1] < 200.0 < jn_zeros(nu, len(got) + 1)[-1]
        assert np.abs(got - want).max() <= 0.8 / 2**12


class TestReferenceMoment:
    def test_k0_matches_integral(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        m0, _ = reference_moment(spec, 0)
        i0, _ = reference_integral(spec.with_integrand(lambda x: 1.0))
        assert abs(m0 - i0) <= 1e-12 * abs(i0)

    def test_x_and_theta_paths_agree(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        vx, _ = reference_moment(spec, 17, force="x")
        vt, _ = reference_moment(spec, 17, force="theta")
        assert abs(vx - vt) <= 1e-10 * abs(vx)

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
        # An end panel of k = 11 nearly cancels; stopping relative to its
        # own total ran every tanh-sinh level (0.36 s against 4-6 ms for
        # k = 10 and 12), stopping relative to its mass does not.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        cfg = OracleConfig(rel_tol=1e-13)
        reference_moment(spec, 10, cfg, force="x")     # warm the node caches
        t0 = time.perf_counter()
        vx, ex = reference_moment(spec, 11, cfg, force="x")
        elapsed = time.perf_counter() - t0
        vt, et = reference_moment(spec, 11, cfg, force="theta")
        assert elapsed < 0.05
        assert abs(vx - vt) <= ex + et

    @pytest.mark.parametrize("omega", [2e3, 1e4])
    @pytest.mark.parametrize("kernel", [(0.2, 0.4, 0.0), (-0.8, -0.9, 2.5)])
    def test_large_omega_against_closed_form(self, kernel, omega):
        spec = ProblemSpec(*kernel, omega)
        want = starting_moments(spec)
        got = reference_moments(spec, range(6), OracleConfig(rel_tol=1e-13))
        for k in range(6):
            ref, err = got[k]
            assert abs(ref - want[k]) <= err + 1e-12 * abs(want[k]), k


def test_oracle_is_independent_of_the_modules_it_judges():
    src = (pathlib.Path(__file__).resolve().parents[1]
           / "src" / "oscbessel" / "oracle.py").read_text()
    for banned in ("moments", "ccf", "specfun"):
        assert f"from .{banned}" not in src
        assert f"from oscbessel.{banned}" not in src
        assert f"import {banned}" not in src
