"""Special functions and truncated Taylor series.

The Taylor jet of the entire part of Bessel J of real order and the
generalized hypergeometric series 2F3.  Bessel J, 1/Gamma and 2F3 come
from mpmath at fixed working precisions.
The jet's Bessel orders nu..nu+order follow from two mpmath values by the
downward three-term recurrence.  A jet is a plain numpy array of Taylor
coefficients, with a truncated product, a real power and a composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import NoConvergence

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "ExtendedReal",
    "bessel_entire_jet",
    "jet_mul",
    "jet_pow",
    "jet_compose",
    "hyp2f3",
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


# ---------------------------------------------------------------------------
# The entire part of Bessel J of real order
# ---------------------------------------------------------------------------

#: Working precision (bits) of mpmath's Bessel J and of the downward ladder.
_BESSEL_PREC = 96


def bessel_entire_jet(nu: float, w: float, order: int) -> np.ndarray:
    """Taylor jet about s = w^2 of the entire part of J_nu,
    g(s) = sum_p (-s/4)^p / (p! Gamma(nu+p+1)), so J_nu(z) = (z/2)^nu g(z^2).

    The k-th coefficient is (-1/4)^k G_k / k! with G_k = (w/2)^-(nu+k)
    J_{nu+k}(w) (DLMF 10.6.6), which tends to 1/Gamma(nu+k+1) as w -> 0;
    at w = 0 it is that series, each coefficient formed in mpf from
    mpmath.rgamma and rounded once.  J_{nu+order} and J_{nu+order-1} come
    from mpmath.besselj, the lower orders from J_{mu-1} = (2 mu / w) J_mu -
    J_{mu+1}, run downward, the direction in which J is the minimal
    solution (Gautschi, SIAM Review 9, 1967).
    """
    with mp.workprec(_BESSEL_PREC):
        if w == 0.0:
            return np.array([float(mp.rgamma(mp.mpf(nu) + k + 1)
                                   / (mp.factorial(k) * (-4) ** k))
                             for k in range(order + 1)])
        wm = mp.mpf(w)
        top = mp.mpf(nu) + order
        ladder = [mp.besselj(top, wm), mp.besselj(top - 1, wm)]
        for i in range(1, order):
            ladder.append(2 * (top - i) / wm * ladder[-1] - ladder[-2])
        # ladder[i] = J_{nu+order-i}(w); c = (-1/4)^k (w/2)^-(nu+k) / k!
        c = (wm / 2) ** -nu
        jet = []
        for k in range(order + 1):
            jet.append(float(c * ladder[order - k]))
            c /= -2 * wm * (k + 1)
        return np.array(jet)


# ---------------------------------------------------------------------------
# Generalized hypergeometric 2F3
# ---------------------------------------------------------------------------

#: Working precision (bits) of the 2F3.
_HYP_PREC = 256


def hyp2f3(a1, a2, b1, b2, b3, z) -> ExtendedReal:
    """2F3(a1, a2; b1, b2, b3; z) from one mpmath evaluation at 256 bits.

    mpmath sums the series with its own cancellation guard and switches to
    the asymptotic expansion at |z| >= 2^19.  A lower parameter is a pole
    iff it is exactly an integer <= 0.  err_est is 2^-192 |value|: on a
    720-point grid of moment-shaped arguments (omega 1e-3 to 1e5, across
    the switch) the value is within 2^-256 of a 600-bit one.  Non-finite
    input raises DomainError; mpmath's failures to converge raise
    ConvergenceError.
    """
    args = [mp.convert(v) for v in (a1, a2, b1, b2, b3, z)]
    if not all(mp.isfinite(v) for v in args):
        raise DomainError(f"2F3 needs finite input, got {args}")
    *params, z = args
    for b in params[2:]:
        if mp.isint(b) and b <= 0:
            raise PoleError(f"lower parameter {b} is a nonpositive integer")
    with mp.workprec(_HYP_PREC):
        try:
            value = mp.hyp2f3(*params, z)
        except (NoConvergence, ValueError) as exc:
            raise ConvergenceError(f"2F3 at z={float(z):.6g}: {exc}") from exc
    return ExtendedReal(value, _HYP_PREC, 2.0 ** -192 * float(abs(value)))
