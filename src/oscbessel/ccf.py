"""Clenshaw-Curtis-Filon quadrature and convergence studies.

Q[f] = sum_k b_k M(k): interpolate f at the Clenshaw-Curtis points,
integrate the weighted oscillatory kernel exactly through the moment
table.  Moment tables are f-independent, so they are cached per
(alpha, beta, nu, omega), up to _CACHE_CAPACITY kernels with the least
recently used dropped first, and N-sweeps reuse the largest one by prefix.

f is called once per distinct node, with a Python float, and its result
is converted to float64 as numpy converts it (problem.sample).  A rule of
size N calls it N+1 times; in convergence_study every N that divides N_max
reuses the samples at cc_points(N_max), so a dyadic or triadic sweep calls
it N_max+1 times in all.  A missing f, an ArithmeticError, TypeError or
ValueError from f or from that conversion (a complex f(x), say) and a
non-finite f(x) are each a DomainError.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .chebfit import cc_points, cheb_interp_coeffs
from .errors import DomainError
from .moments import MomentTable, moment_table
from .problem import ProblemSpec, as_size, sample

__all__ = [
    "QuadratureResult",
    "ConvergenceRecord",
    "ccf_integrate",
    "convergence_study",
    "fit_rate",
]


@dataclass(frozen=True)
class QuadratureResult:
    """One CCF evaluation: value, rule size, and diagnostics.

    ``moment_err_est`` propagates the moment-table error estimates
    through the coefficient sum; ``coeff_tail`` is |b_N|, a proxy for how
    well N resolves f.
    """

    value: float
    N: int
    moment_err_est: float
    coeff_tail: float


@dataclass(frozen=True)
class ConvergenceRecord:
    N: int
    approx: float
    reference: float
    abs_err: float
    moment_err_est: float


#: Number of kernels whose tables stay cached; past it the least recently
#: used is dropped.
_CACHE_CAPACITY = 16
#: moment_key() -> MomentTable, in order of last use (oldest first).
_TABLE_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def _cached_table(spec: ProblemSpec, N: int) -> MomentTable:
    """Largest-known moment table for the spec's weight/kernel, >= N."""
    key = spec.moment_key()
    with _CACHE_LOCK:
        table = _TABLE_CACHE.pop(key, None)
        if table is not None:
            _TABLE_CACHE[key] = table       # now the most recently used
    if table is not None and table.N >= N:
        return table
    table = moment_table(spec, N)
    with _CACHE_LOCK:
        current = _TABLE_CACHE.pop(key, None)
        if current is not None and current.N >= table.N:
            table = current
        _TABLE_CACHE[key] = table
        while len(_TABLE_CACHE) > _CACHE_CAPACITY:
            del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    return table


def clear_moment_cache() -> None:
    with _CACHE_LOCK:
        _TABLE_CACHE.clear()


def _rule(spec: ProblemSpec, samples: np.ndarray) -> QuadratureResult:
    """The CCF rule on samples of f at cc_points(N), N = len(samples) - 1."""
    N = len(samples) - 1
    b = cheb_interp_coeffs(samples).coefficients
    table = _cached_table(spec, N)
    values = table.values[: N + 1]
    errs = table.err_est[: N + 1]
    value = float(np.dot(b, values))
    if not math.isfinite(value):
        raise DomainError("quadrature value is not finite")
    return QuadratureResult(value, N,
                            float(np.abs(b) @ errs), abs(float(b[-1])))


def ccf_integrate(spec: ProblemSpec, N: int) -> QuadratureResult:
    """Apply the N+1-point CCF rule to the problem's integrand."""
    N = as_size(N, 1)
    return _rule(spec, sample(spec.integrand, cc_points(N)))


def convergence_study(spec: ProblemSpec, N_list, reference):
    """One ConvergenceRecord per N against one reference value.

    f is sampled first, on cc_points(N_max), whose every (N_max/N)-th
    sample serves each N that divides N_max, and on each other N's points.
    ``reference`` is a finite float or a function of no arguments, such as
    the oracle, called once after that; then the N_max table is built once.
    """
    N_list = [as_size(n, 1) for n in N_list]
    if any(b <= a for a, b in zip(N_list, N_list[1:])) or not N_list:
        raise DomainError("N_list must be nonempty and strictly increasing")
    if not callable(reference) and not math.isfinite(reference):
        raise DomainError(f"reference must be finite, got {reference}")
    N_max = N_list[-1]
    own = {n: sample(spec.integrand, cc_points(n)) for n in N_list
           if n == N_max or N_max % n}
    reference = reference() if callable(reference) else reference
    if not math.isfinite(reference):
        raise DomainError(f"reference must be finite, got {reference}")
    _cached_table(spec, N_max)   # one build, all N reuse the prefix
    records = []
    for n in N_list:
        q = _rule(spec, own[n] if n in own else own[N_max][::N_max // n])
        records.append(ConvergenceRecord(n, q.value, reference,
                                         abs(q.value - reference),
                                         q.moment_err_est))
    return records


def fit_rate(records, window=None) -> float:
    """Least-squares slope of log(abs_err) against log(N).

    ``window`` is a (start, stop) index pair into ``records``; the default
    is the upper half, where the asymptotic regime lives.  Records with
    abs_err = 0 carry no rate information and are dropped.
    """
    records = list(records)
    if window is None:
        # Upper half, widened if needed so the fit stays well-posed.
        window = (max(0, min(len(records) // 2, len(records) - 4)),
                  len(records))
    start, stop = window
    chosen = [r for r in records[start:stop] if r.abs_err > 0.0]
    if len(chosen) < 4:
        raise DomainError("need at least 4 usable records in the window")
    logn = np.log([r.N for r in chosen])
    loge = np.log([r.abs_err for r in chosen])
    return float(np.polyfit(logn, loge, 1)[0])
