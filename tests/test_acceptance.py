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
* Criteria 04 and 06-09, and criterion-05's hybrid half, run the checks
  of ``oscbessel.criteria``, which state their rules and bounds;
  ``oscbessel validate`` runs the same functions at desk size.
"""

import time

import numpy as np

from conftest import record_criterion
from oscbessel import criteria
from oscbessel.ccf import ccf_integrate, convergence_study, fit_rate
from oscbessel.moments import _KU, BandedSystem, moment_table
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
    usable = [r for r in convergence_study(spec, DYADIC, ref)
              if r.abs_err > 1e2 * r.moment_err_est]
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
    specs = [ProblemSpec(a, b, nu, omega) for omega in (20.0, 200.0)
             for a, b in ((0.2, 0.4), (-0.8, -0.9), (-0.5, -0.5))
             for nu in (0.0, 1.0, 2.5)]
    report("criterion-04 moment grid", *criteria.moment_grid(
        specs, 256, range(257), OracleConfig(rel_tol=1e-13)))


def test_criterion_05_stability_witness():
    # The witness is forward recursion alone from the six starting values:
    # the hybrid's system with k_switch = k_hi = 200 has no Oliver rows.
    spec, cfg = ProblemSpec(0.2, 0.4, 0.0, 20.0), OracleConfig(rel_tol=1e-12)
    start = moment_table(spec, 5).values
    known = np.zeros((3, 200 + _KU + 1))
    known[0, :len(start)] = start
    fwd = np.concatenate([start, BandedSystem(spec, 200, known).solve()[0]])
    worst_fwd = max(abs(fwd[k] - ref) / max(abs(ref), err)
                    for k, (ref, err)
                    in reference_moments(spec, range(201), cfg).items())
    hybrid_ok, hybrid = criteria.moment_grid([spec], 200, range(201), cfg)
    report("criterion-05 stability witness", worst_fwd > 1e-2 and hybrid_ok,
           f"pure forward diverges to {worst_fwd:.1e} rel (> 1e-2) while "
           f"the hybrid table has {hybrid}")


def test_criterion_06_lemma33_decay():
    # (alpha, beta, nu, expected slope): -2 - 2 min(alpha, beta) for the
    # generic branch.  For alpha = beta = -1/2 the generic exponent is
    # attained with half-integer nu (integer nu makes the leading
    # asymptotic terms vanish and the decay superalgebraic).
    report("criterion-06 moment decay", *criteria.moment_decay(
        [(0.2, 0.4, 0.0, -2.4), (-0.8, -0.9, 0.0, -0.2),
         (-0.5, -0.5, 0.5, -2.0)]))


def test_criterion_07_recurrence_residuals():
    # Oracle moments must satisfy the same recurrence: an independent
    # check of the recurrence itself, not of our tables.
    specs = [ProblemSpec(0.2, 0.4, 0.0, 20.0),
             ProblemSpec(0.2, 0.4, 2.5, 200.0),
             ProblemSpec(-0.8, -0.9, 1.0, 20.0),
             ProblemSpec(-0.5, -0.5, 0.0, 200.0),
             ProblemSpec(-0.8, -0.9, 2.5, 200.0)]
    rows = [(ProblemSpec(0.2, 0.4, 0.0, omega), m)
            for omega, m in ((200.0, 10), (200.0, 40), (50.0, 20))]
    report("criterion-07 recurrence residuals", *criteria.recurrence_residuals(
        specs, 300, rows, OracleConfig(rel_tol=1e-13)))


def test_criterion_08_aliasing_identities():
    report("criterion-08 aliasing identities", *criteria.aliasing())


def test_criterion_09_polynomial_exactness():
    specs = [ProblemSpec(0.2, 0.4, 0.0, 20.0),
             ProblemSpec(-0.8, -0.9, 1.0, 200.0)]
    report("criterion-09 polynomial exactness", *criteria.polynomial_exactness(
        specs, range(11), OracleConfig(rel_tol=1e-12)))


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
