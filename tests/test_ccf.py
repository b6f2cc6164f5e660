import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from oscbessel import ccf
from oscbessel.ccf import (ConvergenceRecord, ccf_integrate,
                           clear_moment_cache, convergence_study, fit_rate)
from oscbessel.chebfit import ChebyshevExpansion
from oscbessel.errors import DomainError
from oscbessel.moments import moment_table
from oscbessel.oracle import OracleConfig, reference_integral
from oscbessel.problem import ProblemSpec


def no_work(*args):
    raise AssertionError("work done before N was checked")


class TestCcfIntegrate:
    def test_basis_function_gives_single_moment(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                           integrand=ChebyshevExpansion([0, 0, 0, 1.0]))
        q = ccf_integrate(spec, 5)
        table = moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), 5)
        assert q.value == pytest.approx(table.values[3], rel=1e-13)

    def test_constant_gives_zeroth_moment(self):
        for n in (1, 7, 32):
            spec = ProblemSpec(0.2, 0.4, 1.0, 20.0, integrand=lambda x: 1.0)
            q = ccf_integrate(spec, n)
            table = moment_table(ProblemSpec(0.2, 0.4, 1.0, 20.0), max(n, 5))
            assert q.value == pytest.approx(table.values[0], rel=1e-13)

    def test_moment_err_est_covers_a_wrong_table(self):
        # ROADMAP item 1's large-alpha table is off by up to 4.2e-4, and
        # the quadrature by 5.3e-9; its moment_err_est read 1.8e-16 when a
        # flat estimate stood for every Oliver entry.
        spec = ProblemSpec(4.5, -0.9, 0.0, 700.0,
                           integrand=lambda x: abs(x - 0.5))
        q = ccf_integrate(spec, 512)
        ref, err = reference_integral(spec, OracleConfig(rel_tol=1e-12),
                                      breakpoints=(0.5,))
        assert abs(q.value - ref) - err <= q.moment_err_est

    def test_kink_matches_oracle(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0,
                           integrand=lambda x: abs(x - 0.5))
        q = ccf_integrate(spec, 256)
        ref, _ = reference_integral(spec, breakpoints=(0.5,))
        assert abs(q.value - ref) <= 1e-5

    def test_result_diagnostics(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=math.exp)
        q = ccf_integrate(spec, 16)
        assert q.N == 16
        assert q.moment_err_est >= 0.0
        assert math.isfinite(q.value)

    def test_coeff_tail_shrinks(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                           integrand=lambda x: abs(x - 0.5))
        tails = [ccf_integrate(spec, n).coeff_tail for n in (8, 32, 128)]
        assert tails[0] > tails[1] > tails[2]

    def test_integrand_called_once_per_node_with_floats(self):
        seen = []
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                           integrand=lambda x: seen.append(type(x)) or 1.0)
        ccf_integrate(spec, 64)
        assert seen == [float] * 65

    def test_nan_integrand_rejected(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                           integrand=lambda x: float("nan"))
        with pytest.raises(DomainError, match="integrand not finite at x=1"):
            ccf_integrate(spec, 8)

    @pytest.mark.parametrize("bad", [math.inf, None])
    def test_inf_or_none_integrand_rejected(self, bad):
        # None was a TypeError from float(); numpy reads it as NaN.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                           integrand=lambda x: bad if x < 0.3 else 1.0)
        with pytest.raises(DomainError,
                           match=r"integrand not finite at x=0\.146446"):
            ccf_integrate(spec, 8)

    def test_overflowing_sum_rejected_without_warning(self):
        # Every sample is finite, but the coefficient sum overflows.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=lambda x: 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError,
                               match="quadrature value is not finite"):
                ccf_integrate(spec, 8)

    def test_preconditions(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=math.exp)
        with pytest.raises(DomainError):
            ccf_integrate(spec, 0)
        with pytest.raises(DomainError):
            ccf_integrate(ProblemSpec(0.2, 0.4, 0.0, 20.0), 8)

    def test_missing_integrand_rejected_before_work(self, monkeypatch):
        # One message from problem.sample for every caller, raised in
        # convergence_study before any moment table is built.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        with pytest.raises(DomainError, match="problem carries no integrand"):
            ccf_integrate(spec, 8)
        with pytest.raises(DomainError, match="problem carries no integrand"):
            reference_integral(spec)
        monkeypatch.setattr(ccf, "moment_table", no_work)
        with pytest.raises(DomainError, match="problem carries no integrand"):
            convergence_study(spec, [8, 16], 1.0)

    def test_raising_integrand_rejected(self):
        # The pole x = 1/2 is node 32 of 64, and at omega = 3 pi the centre
        # of the oracle's panel (1/3, 2/3): ZeroDivisionError escaped.
        spec = ProblemSpec(0.2, 0.4, 0.0, 3 * math.pi,
                           integrand=lambda x: 1 / (x - 0.5))
        with pytest.raises(DomainError, match="integrand raised"):
            ccf_integrate(spec, 64)
        with pytest.raises(DomainError, match="integrand raised"):
            reference_integral(spec)

    @pytest.mark.parametrize("bad, cause", [
        (lambda x: (x - 0.5) ** 0.5, TypeError),    # a complex
        (lambda x: "abc", ValueError),
        (lambda x: [1.0, 2.0], ValueError),
        (lambda x: math.sqrt(x - 0.5), ValueError),  # raised by f itself
    ], ids=["complex", "str", "sequence", "math-domain"])
    def test_non_real_integrand_value_rejected(self, bad, cause):
        # numpy's float conversion of a complex, str or sequence escaped as
        # a bare TypeError or ValueError, naming no x.
        seen = []

        def f(x):
            seen.append(x)
            return bad(x) if x < 0.4 else 1.0

        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=f)
        for run in (lambda: ccf_integrate(spec, 8),
                    lambda: reference_integral(spec)):
            seen.clear()
            with pytest.raises(DomainError, match="integrand raised") as info:
                run()
            assert type(info.value.__cause__) is cause
            # the first failing node is named
            assert str(info.value).endswith(f" at x={seen[-1]}")
            assert seen[-1] < 0.4 and min(seen[:-1], default=1.0) >= 0.4

    @pytest.mark.parametrize("N", [64.0, 16.7, "64"])
    def test_non_integral_n_rejected_before_work(self, N, monkeypatch):
        # A float N raised numpy's TypeError only after the table was
        # built; now it is a DomainError before f is sampled.
        monkeypatch.setattr(ccf, "moment_table", no_work)
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=no_work)
        with pytest.raises(DomainError, match="N must be an integer"):
            ccf_integrate(spec, N)

    def test_numpy_integer_n_accepted(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=math.exp)
        assert ccf_integrate(spec, np.int64(16)) == ccf_integrate(spec, 16)


class TestPolynomialExactness:
    def test_registry_chebyshev_polynomials(self):
        base = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        table = moment_table(base, 12)
        scale = np.max(np.abs(table.values))
        for d in (0, 4, 10):
            spec = dataclasses.replace(
                base, integrand=ChebyshevExpansion([0.0] * d + [1.0]))
            q = ccf_integrate(spec, 12)
            # Q equals the exact-coefficient contraction; criterion-09
            # compares the same rows with the oracle.
            assert abs(q.value - table.values[d]) <= 1e-12 * scale


class TestConvergenceStudy:
    def test_constant_integrand_floor(self):
        from oscbessel.moments import power_moment
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=lambda x: 1.0)
        reference = float(power_moment(0.2, 0.4, 0.0, 20.0)[0][0])
        for rec in convergence_study(spec, [4, 8, 16], reference):
            assert rec.abs_err <= max(rec.moment_err_est,
                                      1e-14 * abs(reference))

    def test_requires_increasing_n(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=math.exp)
        with pytest.raises(DomainError):
            convergence_study(spec, [16, 16, 32], 1.0)
        with pytest.raises(DomainError):
            convergence_study(spec, [], 1.0)

    def test_non_integral_n_rejected_before_work(self, monkeypatch):
        # [16.7, 32.9] ran N = 16 and 32 without a word.
        monkeypatch.setattr(ccf, "moment_table", no_work)
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=no_work)
        for N_list in ([16.7, 32.9], [16, 32.0]):
            with pytest.raises(DomainError, match="N must be an integer"):
                convergence_study(spec, N_list, 1.0)

    @pytest.mark.parametrize("reference", [math.inf, -math.inf, math.nan])
    def test_requires_finite_reference(self, reference):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=math.exp)
        with pytest.raises(DomainError, match="reference must be finite"):
            convergence_study(spec, [4, 8], reference)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_deferred_reference_called_once_after_sampling(self, bad):
        # A function of no arguments is called once, after f is sampled;
        # what it returns is held to the rule of a float reference, which
        # is refused before f is sampled.
        calls = []
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                           integrand=lambda x: calls.append("f") or x)
        records = convergence_study(spec, [4, 8],
                                    lambda: calls.append("ref") or 0.25)
        assert calls == ["f"] * 9 + ["ref"]
        assert [r.reference for r in records] == [0.25, 0.25]
        calls.clear()
        with pytest.raises(DomainError) as deferred:
            convergence_study(spec, [4, 8], lambda: calls.append("ref") or bad)
        assert calls == ["f"] * 9 + ["ref"]
        with pytest.raises(DomainError) as direct:
            convergence_study(dataclasses.replace(spec, integrand=no_work),
                              [4, 8], bad)
        assert str(deferred.value) == str(direct.value)

    def test_failing_node_of_a_grid_not_nested_reported_first(
            self, monkeypatch):
        # x = 0.5 is node 5 of N = 10 but no node of N = 15; the study
        # built the N = 15 table before it sampled the N = 10 grid.
        clear_moment_cache()
        monkeypatch.setattr(ccf, "moment_table", no_work)
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                           integrand=lambda x: abs(x - 0.5) ** -1)
        for reference in (1.0, lambda: pytest.fail("reference resolved")):
            with pytest.raises(DomainError, match="integrand raised"):
                convergence_study(spec, [10, 15], reference)

    def test_dyadic_sweep_samples_once(self):
        calls = []
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                           integrand=lambda x: calls.append(x) or math.exp(x))
        convergence_study(spec, [2 ** p for p in range(4, 13)], 0.0)
        assert len(calls) == 4097

    # 10 does not divide 48, so it samples f on its own points; every
    # other N divides its list's last and reuses those samples, so the
    # triadic sweep calls f 2,188 times, not 3,272.
    @pytest.mark.parametrize("N_list", [[10, 16, 48], [16, 32, 64, 128],
                                        [3 ** p for p in range(1, 8)]])
    def test_records_equal_single_rules(self, N_list):
        calls = []
        spec = ProblemSpec(0.6, -0.4, 2.5, 50.0,
                           integrand=lambda x: calls.append(x)
                           or abs(x - 0.4871))
        records = convergence_study(spec, N_list, 0.0)
        N_max = N_list[-1]
        assert len(calls) == N_max + 1 + sum(n + 1 for n in N_list
                                             if N_max % n)
        for rec in records:
            assert rec.approx == ccf_integrate(spec, rec.N).value

    def test_cache_reuse_is_transparent(self):
        spec = ProblemSpec(0.3, 0.1, 0.0, 40.0, integrand=math.exp)
        clear_moment_cache()
        fresh = ccf_integrate(spec, 16).value
        convergence_study(spec, [8, 16, 32, 64], 0.0)
        cached = ccf_integrate(spec, 16).value
        assert cached == fresh


class TestTableCache:
    def test_evicts_least_recently_used(self):
        clear_moment_cache()
        specs = [ProblemSpec(0.2, 0.4, 0.0, 1.0 + i)
                 for i in range(ccf._CACHE_CAPACITY + 1)]
        for spec in specs[:-1]:
            ccf._cached_table(spec, 2)
        first = ccf._TABLE_CACHE[specs[0].moment_key()]
        # A hit returns the cached table and makes it the most recent.
        assert ccf._cached_table(specs[0], 2) is first
        assert list(ccf._TABLE_CACHE)[-1] == specs[0].moment_key()
        ccf._cached_table(specs[-1], 2)
        assert len(ccf._TABLE_CACHE) == ccf._CACHE_CAPACITY
        assert specs[1].moment_key() not in ccf._TABLE_CACHE
        assert ccf._TABLE_CACHE[specs[0].moment_key()] is first
        assert specs[-1].moment_key() in ccf._TABLE_CACHE
        clear_moment_cache()

    def test_cached_table_keeps_no_integrand_alive(self):
        # The cached table held the caller's whole spec, f included, so
        # the cache pinned up to _CACHE_CAPACITY integrands and all they
        # closed over.
        clear_moment_cache()

        def f(x):
            return x
        ref = weakref.ref(f)
        ccf_integrate(ProblemSpec(0.2, 0.4, 0.0, 20.0, integrand=f), 16)
        table = ccf._TABLE_CACHE[(0.2, 0.4, 0.0, 20.0)]
        assert table.spec == ProblemSpec(0.2, 0.4, 0.0, 20.0)
        del f
        gc.collect()
        assert ref() is None
        clear_moment_cache()

    def test_keeps_a_larger_table_stored_meanwhile(self, monkeypatch):
        # Another caller stores N = 128 while this one builds N = 64.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        larger = moment_table(spec, 128)

        def racing(spec, N):
            ccf._TABLE_CACHE[spec.moment_key()] = larger
            return moment_table(spec, N)
        clear_moment_cache()
        monkeypatch.setattr(ccf, "moment_table", racing)
        assert ccf._cached_table(spec, 64) is larger
        assert ccf._TABLE_CACHE[spec.moment_key()] is larger
        clear_moment_cache()


class TestFitRate:
    @staticmethod
    def synthetic(power, ns):
        return [ConvergenceRecord(n, 0.0, 0.0, float(n) ** power, 0.0)
                for n in ns]

    def test_exact_power_law(self):
        records = self.synthetic(-2.0, [8, 16, 32, 64, 128, 256])
        assert fit_rate(records) == pytest.approx(-2.0, abs=1e-12)

    def test_window_override(self):
        records = (self.synthetic(-1.0, [8, 16, 32, 64])
                   + self.synthetic(-3.0, [128, 256, 512, 1024]))
        full_default = fit_rate(records)          # upper half: pure -3 part
        assert full_default == pytest.approx(-3.0, abs=0.2)
        head = fit_rate(records, window=(0, 4))
        assert head == pytest.approx(-1.0, abs=1e-10)

    def test_degenerate_window(self):
        records = self.synthetic(-2.0, [8, 16, 32, 64])
        with pytest.raises(DomainError):
            fit_rate(records, window=(0, 3))
        zeroed = [ConvergenceRecord(r.N, 0.0, 0.0, 0.0, 0.0) for r in records]
        with pytest.raises(DomainError):
            fit_rate(zeroed, window=(0, 4))


class TestRateConformance:
    def test_kink_rate_bound(self):
        # f with first derivative of bounded variation, min(a,b) >= -1/2:
        # slope <= -(k+1) + 0.3 with k = 1.
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0,
                           integrand=lambda x: abs(x - 0.5))
        ref, _ = reference_integral(spec, OracleConfig(rel_tol=1e-12),
                                    breakpoints=(0.5,))
        records = convergence_study(spec, [16, 32, 64, 128, 256, 512, 1024],
                                    ref)
        assert fit_rate(records) <= -2.0 + 0.3

    def test_singular_weight_rate_bound(self):
        # f in X^k with k = 1.6, min(a,b) = -0.9 < -1/2:
        # slope <= -(2 min(a,b) + k + 2) + 0.3 = -1.8 + 0.3.
        spec = ProblemSpec(-0.8, -0.9, 0.0, 200.0,
                           integrand=lambda x: (1 - x * x) ** 0.8)
        ref, _ = reference_integral(spec, OracleConfig(rel_tol=1e-12))
        records = convergence_study(spec, [16, 32, 64, 128, 256, 512, 1024],
                                    ref)
        assert fit_rate(records) <= -1.8 + 0.3
