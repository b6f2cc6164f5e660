"""Special functions and truncated Taylor series.

Taylor jets of Bessel functions of the first kind with real order, the
generalized hypergeometric series 2F3, the gamma function, and the exact
power-basis coefficients of shifted Chebyshev polynomials.  Bessel J and
2F3 come from mpmath at fixed working precisions; there is no
hand-written series.  The jets' Bessel orders follow from two mpmath
values by the downward three-term recurrence.  A jet is a plain numpy
array of Taylor coefficients, with a truncated product, a real power and
a composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import NoConvergence

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "ExtendedReal",
    "gamma",
    "bessel_j_jet",
    "jet_mul",
    "jet_pow",
    "jet_compose",
    "hyp2f3",
    "shifted_cheb_power_coeffs",
]


# ---------------------------------------------------------------------------
# ExtendedReal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtendedReal:
    """An mpmath value with the working precision (bits) it was computed at
    and an absolute error estimate."""

    value: mp.mpf
    prec: int
    err_est: float = 0.0

    def __float__(self):
        return float(self.value)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function for real x, excluding the poles at 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x={x}")
    return math.gamma(x)


# ---------------------------------------------------------------------------
# Bessel J of real order: the ladder of orders behind the jets
# ---------------------------------------------------------------------------

#: Working precision (bits) of mpmath's Bessel J and of the downward ladder.
_BESSEL_PREC = 96


def _bessel_j_ladder(nu: float, x: float, order: int) -> list[float]:
    """J_mu(x) for mu = nu-order .. nu+order, x > 0.

    The top two orders come from mpmath.besselj; the rest follow from
    J_{mu-1} = (2 mu / x) J_mu - J_{mu+1}, run downward, the direction in
    which J is the minimal solution (Gautschi, SIAM Review 9, 1967).
    """
    with mp.workprec(_BESSEL_PREC):
        xm = mp.mpf(x)
        top = mp.mpf(nu) + order
        ladder = [mp.besselj(top, xm), mp.besselj(top - 1, xm)]
        for i in range(1, 2 * order):
            ladder.append(2 * (top - i) / xm * ladder[-1] - ladder[-2])
    return [float(v) for v in reversed(ladder[: 2 * order + 1])]


# ---------------------------------------------------------------------------
# Taylor jets: a jet is an array c whose c[n] is the n-th Taylor coefficient
# ---------------------------------------------------------------------------

def jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two jets, truncated at the order of ``a``."""
    return np.convolve(a, b)[: len(a)]


def jet_pow(f: np.ndarray, p: float) -> np.ndarray:
    """Real power of a jet with positive constant term (J.C.P. Miller)."""
    if f[0] <= 0.0:
        raise DomainError("jet power needs a positive constant term")
    y = np.zeros(len(f))
    y[0] = f[0] ** p
    for k in range(1, len(f)):
        acc = 0.0
        for j in range(1, k + 1):
            acc += ((p + 1) * j - k) * f[j] * y[k - j]
        y[k] = acc / (k * f[0])
    return y


def jet_compose(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """sum_m outer[m] * inner^m by Horner's rule.

    ``inner`` must have zero constant term (a pure deviation), so the
    result is the jet of g(x0 + inner) when ``outer`` holds the Taylor
    coefficients of g about x0.
    """
    if inner[0] != 0.0:
        raise DomainError("jet composition needs a zero constant term")
    res = np.zeros(len(inner))
    res[0] = outer[-1]
    for c in outer[-2::-1]:
        res = jet_mul(res, inner)
        res[0] += c
    return res


def bessel_j_jet(nu: float, center: float, order: int) -> np.ndarray:
    """Taylor jet of J_nu about ``center`` > 0 via the derivative ladder.

    d^k J_nu = 2^{-k} sum_m (-1)^m C(k, m) J_{nu - k + 2m}.
    """
    if order > 12:
        raise DomainError("jet order capped at 12")
    if center <= 0.0:
        raise DomainError("jet center must be positive")
    if nu < 0.0:
        raise DomainError(f"order must be nonnegative, got nu={nu}")
    # jl[i] = J_{nu - order + i}, all at the same argument.
    jl = _bessel_j_ladder(nu, center, order)
    coeffs = np.zeros(order + 1)
    for k in range(order + 1):
        acc = 0.0
        for m in range(k + 1):
            acc += (-1.0) ** m * math.comb(k, m) * jl[order - k + 2 * m]
        coeffs[k] = acc / (2.0**k * math.factorial(k))
    return coeffs


# ---------------------------------------------------------------------------
# Generalized hypergeometric 2F3
# ---------------------------------------------------------------------------

def _is_nonpositive_int(b) -> bool:
    b = float(b)
    return b <= 0.0 and abs(b - round(b)) < 1e-12


#: Working precision (bits) of the 2F3.
_HYP_PREC = 256


def hyp2f3(a1, a2, b1, b2, b3, z) -> ExtendedReal:
    """2F3(a1, a2; b1, b2, b3; z) from one mpmath evaluation at 256 bits.

    mpmath sums the series with its own cancellation guard and switches to
    the asymptotic expansion at large |z|.  err_est is 2^-192 |value|: on a
    720-point grid of moment-shaped arguments (omega 1e-3 to 1e5, across
    that switch) the value is within 2^-256 of a 600-bit one.  mpmath's
    failures to converge raise ConvergenceError.
    """
    for b in (b1, b2, b3):
        if _is_nonpositive_int(b):
            raise PoleError(f"lower parameter {b} is a nonpositive integer")
    with mp.workprec(_HYP_PREC):
        try:
            value = mp.hyp2f3(a1, a2, b1, b2, b3, z)
        except (NoConvergence, ValueError) as exc:
            raise ConvergenceError(f"2F3 at z={float(z):.6g}: {exc}") from exc
    return ExtendedReal(value, _HYP_PREC, 2.0 ** -192 * float(abs(value)))


# ---------------------------------------------------------------------------
# Shifted Chebyshev power-basis coefficients
# ---------------------------------------------------------------------------

def shifted_cheb_power_coeffs(k: int) -> list[int]:
    """Exact integer coefficients c_j with T_k*(x) = sum_j c_j x^(k-j).

    c_j = (-1)^j 2^(2k-2j-1) [2 C(2k-j, j) - C(2k-j-1, j)], j = 0..k.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    if k == 0:
        return [1]
    out = []
    for j in range(k + 1):
        bracket = 2 * math.comb(2 * k - j, j) - math.comb(2 * k - j - 1, j)
        e = 2 * k - 2 * j - 1
        val = bracket << e if e >= 0 else bracket // 2
        out.append(val if j % 2 == 0 else -val)
    return out
