"""Special functions and extended-precision arithmetic.

Bessel functions of the first kind with real order, their Taylor jets,
the generalized hypergeometric series 2F3, the gamma function, and the
exact power-basis coefficients of shifted Chebyshev polynomials.  Bessel J
and 2F3 come from mpmath at fixed working precisions; there is no
hand-written series.  The jets' Bessel orders follow from two mpmath
values by the downward three-term recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import ConvergenceError, DomainError, PoleError

__all__ = [
    "ExtendedReal",
    "TaylorJet",
    "gamma",
    "bessel_j",
    "bessel_j_jet",
    "hyp2f3",
    "shifted_cheb_power_coeffs",
]


# ---------------------------------------------------------------------------
# ExtendedReal
# ---------------------------------------------------------------------------

class ExtendedReal:
    """A real number held at a configurable mantissa precision (>= 53 bits).

    Thin immutable wrapper around an mpmath value.  Arithmetic between two
    ExtendedReals is carried out at the larger of the two precisions.
    """

    __slots__ = ("value", "prec", "err_est")

    def __init__(self, value, prec: int = 128, err_est: float = 0.0):
        if prec < 53:
            raise DomainError("precision must be at least 53 bits")
        with mp.workprec(prec):
            self.value = mp.mpf(value) if not isinstance(value, mp.mpf) else value
        self.prec = int(prec)
        self.err_est = float(err_est)

    def _binop(self, other, op):
        if isinstance(other, ExtendedReal):
            prec = max(self.prec, other.prec)
            oval = other.value
        else:
            prec = self.prec
            oval = mp.mpf(other)
        with mp.workprec(prec):
            return ExtendedReal(op(self.value, oval), prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._binop(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._binop(other, lambda a, b: b * a)

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __neg__(self):
        return ExtendedReal(-self.value, self.prec, self.err_est)

    def __float__(self):
        return float(self.value)

    def __abs__(self):
        return ExtendedReal(abs(self.value), self.prec, self.err_est)

    def __repr__(self):
        return f"ExtendedReal({mp.nstr(self.value, 20)}, prec={self.prec})"


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function for real x, excluding the poles at 0, -1, -2, ..."""
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except ValueError as exc:  # pragma: no cover - pole already screened
        raise PoleError(f"gamma pole at x={x}") from exc


# ---------------------------------------------------------------------------
# Bessel J of real order
# ---------------------------------------------------------------------------

#: Working precision (bits) of mpmath's Bessel J and of the downward ladder.
_BESSEL_PREC = 96


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x), nu >= 0, x >= 0, from
    mpmath.besselj rounded to double."""
    if nu < 0.0:
        raise DomainError(f"order must be nonnegative, got nu={nu}")
    if x < 0.0:
        raise DomainError(f"argument must be nonnegative, got x={x}")
    with mp.workprec(_BESSEL_PREC):
        return float(mp.besselj(float(nu), float(x)))


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
# Taylor jets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaylorJet:
    """Truncated Taylor series of a function about a center.

    ``coefficients[n]`` holds the n-th derivative divided by n!.
    Arithmetic truncates at the common order.
    """

    center: float
    coefficients: np.ndarray
    order: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           np.asarray(self.coefficients, dtype=float))
        object.__setattr__(self, "order", len(self.coefficients) - 1)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def variable(center: float, order: int) -> "TaylorJet":
        c = np.zeros(order + 1)
        c[0] = center
        if order >= 1:
            c[1] = 1.0
        return TaylorJet(center, c)

    @staticmethod
    def constant(value: float, center: float, order: int) -> "TaylorJet":
        c = np.zeros(order + 1)
        c[0] = value
        return TaylorJet(center, c)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TaylorJet):
            return other.coefficients
        c = np.zeros(self.order + 1)
        c[0] = float(other)
        return c

    def __add__(self, other):
        return TaylorJet(self.center, self.coefficients + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return TaylorJet(self.center, self.coefficients - self._coerce(other))

    def __rsub__(self, other):
        return TaylorJet(self.center, self._coerce(other) - self.coefficients)

    def __neg__(self):
        return TaylorJet(self.center, -self.coefficients)

    def __mul__(self, other):
        if not isinstance(other, TaylorJet):
            return TaylorJet(self.center, self.coefficients * float(other))
        n = self.order
        out = np.convolve(self.coefficients, other.coefficients)[: n + 1]
        return TaylorJet(self.center, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, TaylorJet):
            return TaylorJet(self.center, self.coefficients / float(other))
        a, b = self.coefficients, other.coefficients
        if b[0] == 0.0:
            raise DomainError("jet division by a jet with zero constant term")
        n = self.order
        q = np.zeros(n + 1)
        for k in range(n + 1):
            acc = a[k]
            for j in range(1, k + 1):
                if j <= other.order:
                    acc -= b[j] * q[k - j]
            q[k] = acc / b[0]
        return TaylorJet(self.center, q)

    def powr(self, p: float) -> "TaylorJet":
        """Real power of a jet with positive constant term (J.C.P. Miller)."""
        f = self.coefficients
        if f[0] <= 0.0:
            raise DomainError("jet power needs a positive constant term")
        n = self.order
        y = np.zeros(n + 1)
        y[0] = f[0] ** p
        for k in range(1, n + 1):
            acc = 0.0
            for j in range(1, k + 1):
                acc += ((p + 1) * j - k) * f[j] * y[k - j]
            y[k] = acc / (k * f[0])
        return TaylorJet(self.center, y)

    def compose_series(self, outer: np.ndarray) -> "TaylorJet":
        """Evaluate sum_m outer[m] * u^m where u is this jet.

        The jet must have zero constant term (a pure deviation), so the
        result is the jet of g(inner) when ``outer`` are the Taylor
        coefficients of g about the inner function's value.
        """
        if self.coefficients[0] != 0.0:
            raise DomainError("compose_series needs a zero constant term")
        n = self.order
        res = TaylorJet.constant(float(outer[-1]), self.center, n)
        for m in range(len(outer) - 2, -1, -1):
            res = res * self + float(outer[m])
        return res

    def derivative(self, n: int) -> float:
        """n-th derivative of the represented function at the center."""
        if n > self.order:
            raise DomainError("derivative order exceeds jet order")
        return self.coefficients[n] * math.factorial(n)


def sin_jet(center: float, order: int) -> TaylorJet:
    s, c = math.sin(center), math.cos(center)
    cycle = (s, c, -s, -c)
    coeffs = [cycle[n % 4] / math.factorial(n) for n in range(order + 1)]
    return TaylorJet(center, np.array(coeffs))


def cos_jet(center: float, order: int) -> TaylorJet:
    s, c = math.sin(center), math.cos(center)
    cycle = (c, -s, -c, s)
    coeffs = [cycle[n % 4] / math.factorial(n) for n in range(order + 1)]
    return TaylorJet(center, np.array(coeffs))


def sinc_of(u: TaylorJet) -> TaylorJet:
    """Jet of sin(u)/u for a jet u with zero constant term."""
    n = u.order
    outer = np.zeros(n + 1)
    for m in range(0, n + 1):
        if m % 2 == 0:
            outer[m] = (-1.0) ** (m // 2) / math.factorial(m + 1)
    return u.compose_series(outer)


def bessel_j_jet(nu: float, center: float, order: int) -> TaylorJet:
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
    return TaylorJet(center, coeffs)


# ---------------------------------------------------------------------------
# Generalized hypergeometric 2F3
# ---------------------------------------------------------------------------

def _is_nonpositive_int(b) -> bool:
    b = float(b)
    return b <= 0.0 and abs(b - round(b)) < 1e-12


def hyp2f3(a1, a2, b1, b2, b3, z, rel_tol: float = 1e-15,
           prec: int = 192) -> ExtendedReal:
    """2F3(a1, a2; b1, b2, b3; z) from mpmath at a fixed working precision.

    mpmath sums the series with its own cancellation guard and switches to
    the asymptotic expansion at large |z|.  The value is taken 64 bits
    above ``prec``; its disagreement with the evaluation at ``prec`` is
    err_est and must stay within ``rel_tol`` of the value.
    """
    for b in (b1, b2, b3):
        if _is_nonpositive_int(b):
            raise PoleError(f"lower parameter {b} is a nonpositive integer")
    with mp.workprec(prec):
        lo = mp.hyp2f3(a1, a2, b1, b2, b3, z)
    with mp.workprec(prec + 64):
        hi = mp.hyp2f3(a1, a2, b1, b2, b3, z)
        diff = abs(hi - lo)
        if diff > rel_tol * abs(hi):
            raise ConvergenceError(
                f"2F3 at {prec} and {prec + 64} bits differs by "
                f"{float(diff):.3e}, over {rel_tol} of {float(hi):.3e}")
    return ExtendedReal(hi, prec + 64, err_est=float(diff))


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
