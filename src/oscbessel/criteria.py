"""The invariant checks of the acceptance criteria, each written once.

Each returns (passed, detail) with the criterion's bound built in; the
acceptance tests run them on the paper's grid and ``oscbessel validate``
at desk size.  Only the CLI and the tests import this module.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .ccf import ccf_integrate
from .chebfit import ChebyshevExpansion, cc_points, cheb_interp_coeffs
from .moments import MomentTable, moment_table, recurrence_residual
from .oracle import reference_integral, reference_moments
from .problem import ProblemSpec

__all__ = ["moment_grid", "moment_decay", "recurrence_residuals",
           "aliasing", "polynomial_exactness"]


def moment_grid(specs, N: int, ks, cfg):
    """Criterion-04: each table's M(k), k in ``ks``, against the oracle.

    A discrepancy is charged first to the oracle's err_est: an entry
    passes when |M - ref| <= 1e-8 |ref| + err_est, and where the oracle
    certifies better than 1e-9 relative the plain relative error must
    itself be <= 1e-8.  The sweep must take at most 600 s.
    """
    t0 = time.monotonic()
    worst_excess = worst_sharp = 0.0
    for spec in specs:
        table = moment_table(spec, N)
        for k, (ref, err) in reference_moments(spec, ks, cfg).items():
            if ref != 0.0:
                diff = abs(table.values[k] - ref)
                worst_excess = max(worst_excess, (diff - err) / abs(ref))
                if err < 1e-9 * abs(ref):
                    worst_sharp = max(worst_sharp, diff / abs(ref))
    elapsed = time.monotonic() - t0
    worst = max(worst_sharp, worst_excess)
    return (worst <= 1e-8 and elapsed <= 600.0,
            f"max rel error {worst:.2e} <= 1e-8 over {len(specs)} cases x "
            f"{len(ks)} moments; {elapsed:.0f}s <= 600s")


def moment_decay(cases):
    """Criterion-06 (Lemma 3.3): the slope of log |M(k)| against log k over
    k = 100..1024 at omega = 20 lies within 0.25 of the expected one, for
    each (alpha, beta, nu, expected slope) in ``cases``."""
    k = np.arange(100, 1025)
    ok, details = True, []
    for alpha, beta, nu, expect in cases:
        table = moment_table(ProblemSpec(alpha, beta, nu, 20.0), 1024)
        slope = float(np.polyfit(np.log(k),
                                 np.log(np.abs(table.values[100:])), 1)[0])
        ok = ok and abs(slope - expect) <= 0.25
        details.append(f"({alpha},{beta}) {slope:.2f} vs {expect:.2f}")
    return ok, "; ".join(details) + " (tolerance 0.25)"


def recurrence_residuals(specs, N: int, oracle_rows, cfg):
    """Criterion-07: the nine-term recurrence holds on every row of each
    table of ``specs`` (residual <= 1e-8) and, checking the recurrence
    itself, on row m of the oracle's M(0..m+4) for each (spec, m) in
    ``oracle_rows`` (residual <= 1e-7)."""
    worst = worst_oracle = 0.0
    for spec in specs:
        table = moment_table(spec, N)
        worst = max([worst, *(recurrence_residual(table, k)
                              for k in range(N - 3))])
    for spec, m in oracle_rows:
        refs = reference_moments(spec, range(m + 5), cfg)
        values, errs = np.array([refs[k] for k in range(m + 5)]).T
        table = MomentTable(spec, values, ("oracle",) * (m + 5), errs)
        worst_oracle = max(worst_oracle, recurrence_residual(table, m))
    return (worst <= 1e-8 and worst_oracle <= 1e-7,
            f"table residuals <= {worst:.1e} (<= 1e-8); oracle-moment "
            f"residual <= {worst_oracle:.1e} (<= 1e-7)")


def aliasing():
    """Criterion-08: samples of T*_{pn+j} at the n+1 Clenshaw-Curtis points
    interpolate to T*_j for even p and T*_{n-j} for odd p, within 1e-12,
    for n in {8, 16}, p in {1, 2, 3} and every j."""
    worst = 0.0
    for n in (8, 16):
        pts = cc_points(n)
        for p in (1, 2, 3):
            for j in range(n + 1):
                high = ChebyshevExpansion([0.0] * (p * n + j) + [1.0])
                got = cheb_interp_coeffs([high(x) for x in pts]).coefficients
                want = np.zeros(n + 1)
                want[j if p % 2 == 0 else n - j] = 1.0
                worst = max(worst, float(np.max(np.abs(got - want))))
    return (worst <= 1e-12, f"max deviation {worst:.1e} <= 1e-12 for N in "
                            "{8,16}, p in {1,2,3}, all j")


def polynomial_exactness(specs, degrees, cfg):
    """Criterion-09: the N = 12 rule integrates f = T*_d, d in the
    ascending ``degrees``, to the oracle's value within
    max(1e-10, moment_err_est) on each kernel of ``specs``."""
    ok, worst = True, 0.0
    for base in specs:
        for d in degrees:
            spec = dataclasses.replace(
                base, integrand=ChebyshevExpansion([0.0] * d + [1.0]))
            q = ccf_integrate(spec, 12)
            diff = abs(q.value - reference_integral(spec, cfg)[0])
            worst = max(worst, diff)
            ok = ok and diff <= max(1e-10, q.moment_err_est)
    return (ok, f"max |Q - oracle| {worst:.1e} <= 1e-10 for degrees "
                f"{degrees[0]}..{degrees[-1]}, N=12")
