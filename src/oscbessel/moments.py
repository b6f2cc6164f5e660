"""Modified Chebyshev moments of the weighted Bessel kernel.

Computes M(k) = int_0^1 x^a (1-x)^b T_k*(x) J_nu(w x) dx for k = 0..N by a
hybrid strategy: starting values M(0)..M(5), forward recursion while
k <= w/2, Oliver's boundary-value reformulation beyond that, and an
endpoint asymptotic expansion for the trailing boundary moments, summed
end by end; an end where the kernel is even and analytic
(superalgebraic) contributes 0 within a Cauchy bound on a strip.  Where
the expansion stalls, the far edge of the window is moved outward; the
oracle never supplies a boundary value.  The
nine-term recurrence ties M(k-4)..M(k+4) with the offsets +-3 absent; the
symmetry M(-j) = M(j) resolves every negative index.  M(0)..M(3) come
from four closed forms (Gamma and a 256-bit 2F3) and M(4), M(5) from the
recurrence rows m = 0, 1 folded by that symmetry, in 192-bit mpmath; both
recurrences form one float64 banded LU system, refined with double-double
(hi + lo) residuals.  Both endpoint jets expand the Bessel factor through
its entire part g(s), s = w^2 sin^4 theta, about s = 0 at theta = 0 and
about s = w^2 at theta = pi/2; they are built once per table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import AccuracyError, DomainError, SingularSystemError
# Not called here.  The benchmark's tracer wraps moments.reference_moment by
# name, so the name stays until the tracer reads a diagnostics record.
from .oracle import reference_moment
from .problem import ProblemSpec, as_size
from .specfun import (ExtendedReal, bessel_entire_jet, hyp2f3, jet_compose,
                      jet_mul, jet_pow)

__all__ = [
    "MomentTable",
    "BandedSystem",
    "recurrence_coefficients",
    "power_moment",
    "end_moment_asymptotic",
    "moment_table",
    "recurrence_residual",
]

#: Offsets d of the recurrence stencil that carry a coefficient (+-3 are
#: identically zero), in the row order of the coefficient arrays.
_OFFSETS = (-4, -2, -1, 0, 1, 2, 4)

#: Working precision (bits) of the closed-form starting values.  The
#: boundary-value solve amplifies the rounding of its seeds, so they enter
#: it as double-double splits of these values, not as doubles.
_PIPE_PREC = 192


# ---------------------------------------------------------------------------
# Double-double arithmetic on numpy arrays
# ---------------------------------------------------------------------------

def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    t = 134217729.0 * a     # 2^27 + 1: Veltkamp's splitter
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    """(p, e) with p = fl(a b) and p + e = a b exactly (Dekker, 1971)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(xh, xl, yh, yl):
    """Double-double sum, relative error ~3 u^2 even under cancellation."""
    s, e = _two_sum(xh, yh)
    t, f = _two_sum(xl, yl)
    s, e = _two_sum(s, e + t)
    return _two_sum(s, e + f)


def _three_doubles(x: Fraction):
    """x as hi + mid + lo, exact to 2^-159 relative."""
    hi = float(x)
    mid = float(x - Fraction(hi))
    return hi, mid, float(x - Fraction(hi) - Fraction(mid))


def _exact_quadratics(alpha: float, beta: float, nu: float, omega: float):
    """(q2, q1, q0) of c_d(m) = q2 m^2 + q1 m + q0, each a tuple over
    _OFFSETS of exact rationals of the (exact double) parameters."""
    a, b, n, w = map(Fraction, (alpha, beta, nu, omega))
    s = a + b + 3
    q0_2 = s * s - n * n - w * w / 4
    q0_1 = 4 * n * n + 4 + 4 * (b * b - a * a) - 8 * a + 12 * b
    q0_0 = (6 * (a * a + b * b) + 4 * a + 12 * b - 4 * a * b + 6
            - 6 * n * n + 3 * w * w / 8)
    g = 2 + 4 * (b - a)
    # entries follow _OFFSETS: d = -4, -2, -1, 0, 1, 2, 4
    return ((0, 1, 0, -2, 0, 1, 0),
            (0, -2 * s, -g, 0, g, 2 * s, 0),
            (w * w / 16, q0_2, q0_1, q0_0, q0_1, q0_2, w * w / 16))


@lru_cache(maxsize=64)
def _quadratics(alpha: float, beta: float, nu: float, omega: float):
    """_exact_quadratics as a (7, 1) array q2 and, for q1 and q0, three
    (7, 1) arrays of doubles that sum to the exact values."""
    q2, q1, q0 = _exact_quadratics(alpha, beta, nu, omega)
    return np.array(q2, dtype=float)[:, None], *(
        np.array([*map(_three_doubles, q)]).T[:, :, None] for q in (q1, q0))


def _row_coefficients(spec: ProblemSpec, m):
    """c_d(m) for d in _OFFSETS at every row index m, as (hi, lo) arrays.

    Each c_d is a quadratic in m whose coefficients are formed exactly from
    the (exact double) parameters as rationals and split into three
    doubles; their products with m are exact two-products, and the eleven
    pieces are summed error-free by three VecSum passes (Ogita, Rump and
    Oishi, 2005) before the rounding to hi + lo.  No constant such as 12 b
    or 3 w^2/8 is rounded on the way, so each coefficient is correct to
    ~1e-32 relative even where its terms cancel.
    """
    q2, q1, q0 = _quadratics(spec.alpha, spec.beta, spec.nu, spec.omega)
    m = np.asarray(m, dtype=float)
    pieces = [q2 * p for p in _two_prod(m, m)]
    for part in q1:
        pieces += _two_prod(part, m)
    pieces += [part + 0.0 * m for part in q0]
    for _ in range(3):
        for i in range(1, len(pieces)):
            pieces[i], pieces[i - 1] = _two_sum(pieces[i - 1], pieces[i])
    return _two_sum(pieces[-1], sum(pieces[:-1]))


def recurrence_coefficients(spec: ProblemSpec, k: int) -> dict:
    """Coefficients c_d of the identity sum_d c_d M(k+d) = 0 at index k.

    Mapping d -> c_d for d in {-4, -2, -1, 0, 1, 2, 4}; the d = +-3 slots
    of the stencil are identically zero.  The set is symmetric under
    (k, d) -> (-k, -d), consistent with M(-j) = M(j).  Values are the
    double (hi) parts of the exact coefficients.
    """
    hi, _ = _row_coefficients(spec, [k])
    return dict(zip(_OFFSETS, hi[:, 0].tolist()))


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------

def power_moment(a: float, b: float, nu: float, omega: float) -> ExtendedReal:
    """I(a,b,nu,w) = int_0^1 x^a (1-x)^b J_nu(w x) dx, closed form.

    Gamma prefactor times 2F3 evaluated at z = -w^2/4; valid for
    a + nu > -1 and b > -1.  err_est covers the 2F3's 2^-192 relative bound
    and the rounding of the product at the pipeline precision.
    """
    if not float(a) + float(nu) > -1.0:
        raise DomainError(f"need a + nu > -1, got {float(a) + float(nu)}")
    if not float(b) > -1.0:
        raise DomainError(f"need b > -1, got {b}")
    # Parameter combinations are formed in mpf: double-rounded sums like
    # (a+nu+1)/2 shift the result at the 1e-16 level, which the power-basis
    # cancellation downstream cannot afford.
    with mp.workprec(_PIPE_PREC):
        am, bm, nm, wm = (mp.mpf(v) for v in (a, b, nu, omega))
        args = ((am + nm + 1) / 2, (am + nm + 2) / 2,
                nm + 1, (am + bm + nm + 2) / 2, (am + bm + nm + 3) / 2,
                -(wm * wm) / 4)
    h = hyp2f3(*args)
    with mp.workprec(_PIPE_PREC):
        pref = (mp.gamma(bm + 1) * mp.gamma(am + nm + 1)
                * (wm / 2) ** nm
                / (mp.gamma(nm + 1) * mp.gamma(am + bm + nm + 2)))
        val = pref * h.value
        # Four gammas, a power and five products or quotients, each good
        # to about half an ulp: 2^-188 (16 ulps) covers them with margin.
        err = float(abs(pref)) * h.err_est + float(abs(val)) * 2.0 ** (
            4 - _PIPE_PREC)
    return ExtendedReal(val, _PIPE_PREC, err_est=err)


#: Integer coefficients c_j of T_k*(x) = sum_j c_j x^(k-j), k = 0..3.
_SHIFTED_CHEB = ((1,), (2, -1), (8, -8, 1), (32, -48, 18, -1))


def _combine(terms):
    """(sum c v, sum |c| E) over pairs (c, (v, E)) with exact rational c,
    summed in order at the pipeline precision."""
    acc, err = mp.mpf(0), 0.0
    with mp.workprec(_PIPE_PREC):
        for c, (v, e) in terms:
            acc += mp.mpf(c.numerator) / c.denominator * v
            err += abs(float(c)) * e
    return acc, err


def _starting_mpf(spec: ProblemSpec, count: int):
    """(mpf value, err_est) pairs for M(0)..M(count-1).

    M(0)..M(3) come from the power basis over the four closed forms
    I(alpha + i, beta), i = 0..3.  Each later M(k) is solved from
    recurrence row m = k-4 with its exact rational coefficients, folded by
    M(-j) = M(j); at m = 0 the offsets -4 and +4 both land on M(4), so its
    lead is c_-4(0) + c_4(0) = w^2/8.  Values keep the 192-bit precision:
    the boundary-value solve downstream amplifies seed rounding, so they
    must not be rounded to double prematurely.  err_est bounds the mpf
    value's error only; a solved entry inherits its inputs' errors times
    the row's coefficients over its lead, which amplifies at small w.
    """
    # The power-basis coefficients alternate in sign and grow like 4^k.
    with mp.workprec(_PIPE_PREC):
        shifted = [mp.mpf(spec.alpha) + i for i in range(min(count, 4))]
    ivals = [(h.value, h.err_est) for h in (
        power_moment(ai, spec.beta, spec.nu, spec.omega) for ai in shifted)]
    out = [_combine((c, ivals[k - j]) for j, c
                    in enumerate(_SHIFTED_CHEB[k]))
           for k in range(len(ivals))]
    quads = list(zip(_OFFSETS, *_exact_quadratics(
        spec.alpha, spec.beta, spec.nu, spec.omega)))
    for k in range(4, count):
        m = k - 4
        row = {}
        for d, q2, q1, q0 in quads:
            row[abs(m + d)] = row.get(abs(m + d), 0) + (q2 * m + q1) * m + q0
        lead = row.pop(k)
        out.append(_combine((-c / lead, out[j]) for j, c in row.items()))
    return out


# ---------------------------------------------------------------------------
# Endpoint asymptotics for large-index moments
# ---------------------------------------------------------------------------

#: Jet order and relative stopping tolerance of each endpoint expansion.
_END_TERMS = 12
_END_REL_TOL = 1e-13
_EPS = float(np.finfo(float).eps)      # rounding unit of one term's factors

#: Taylor coefficients of sin and cos about 0, through order _END_TERMS + 1;
#: sin(u)/u is the sin series shifted down by one.
_SIN = np.array([(0, 1, 0, -1)[n % 4] / math.factorial(n)
                 for n in range(_END_TERMS + 2)])
_COS = np.array([(1, 0, -1, 0)[n % 4] / math.factorial(n)
                 for n in range(_END_TERMS + 2)])


def _superalgebraic(exponent: float) -> bool:
    """Whether an endpoint exponent (lam or mu) is an odd integer.  W is
    then even and analytic about that end, which contributes 0 to every
    order of the expansion."""
    return exponent % 2.0 == 1.0


def _smooth_jet(spec: ProblemSpec, right: bool) -> np.ndarray:
    """Jet of W over its envelope at one end, through order _END_TERMS: of
    W / theta^(lam-1) at theta = 0, or at theta = pi/2 (``right``), in
    u = theta - pi/2, of W / (-u)^(mu-1).

    W = (w/2)^nu sin^(2a+2nu+1) cos^(2b+1) g(w^2 sin^4 theta), where
    g(s) = sum_p (-s/4)^p / (p! Gamma(nu+p+1)) is the entire part of the
    Bessel factor, so no cancellation occurs at either end.  At theta = 0
    the quotient is sinc^(2a+2nu+1) cos^(2b+1) g(s), with g's jet about
    s = 0.  At pi/2, sin theta = cos u and cos theta = -sin u: the sinc
    and cos powers swap, and s = w^2 cos^4 u is taken about w^2.
    """
    a, b, nu, w = spec.alpha, spec.beta, spec.nu, spec.omega
    sinc, cos = _SIN[1:], _COS[:-1]
    sinc_power, cos_power = 2.0 * a + 2.0 * nu + 1.0, 2.0 * b + 1.0
    if right:
        sinc_power, cos_power = cos_power, sinc_power
    base = jet_mul(jet_pow(sinc, sinc_power), jet_pow(cos, cos_power))
    sin = cos if right else _SIN[:-1]      # sin theta, locally
    s = jet_mul(jet_mul(jet_mul(sin, sin), sin), sin) * (w * w)
    s[0] = 0.0                      # the deviation from the center, 0 or w^2
    outer = bessel_entire_jet(nu, w if right else 0.0, _END_TERMS)
    return jet_mul(base, jet_compose(s, outer)) * (w / 2.0) ** nu


def _endpoint_jets(spec: ProblemSpec):
    """((lam, left jet), (mu, right jet)) with lam = 2 alpha + 2 nu + 2 and
    mu = 2 beta + 2: each end's exponent and the jet of W over its
    envelope, which do not depend on the moment index j.  The jet of a
    superalgebraic end is None and is not built."""
    lam = 2.0 * spec.alpha + 2.0 * spec.nu + 2.0
    mu = 2.0 * spec.beta + 2.0
    return ((lam, None if _superalgebraic(lam)
             else _smooth_jet(spec, right=False)),
            (mu, None if _superalgebraic(mu)
             else _smooth_jet(spec, right=True)))


def _end_series(exponent: float, jet, r: float):
    """(sum, first omitted |term| plus rounding) of one end's series.

    Near the end W = d^(e-1) sum_n g_n d^n in the distance d to it, and
    the end contributes 2 sum_n g_n Gamma(n+e) cos(pi (n+e)/2) r^-(n+e)
    to M(j), times (-1)^j at theta = 0; the sum returned is without the
    factor 2 and the sign.  The jet is even, so its odd orders vanish
    exactly and are skipped.  Terms are added until one falls under _END_REL_TOL
    of the partial sum, is no smaller than the previous term, or is the
    last nonzero one; that term is not added.  Gamma(x) r^-x is the
    running product of (x'+i)/r from x' = e - p in (0, 1], which neither
    overflows nor loses accuracy for large e, so a term is a product of
    about x + 8 correctly rounded factors; that many eps of each added
    term are charged as its rounding.
    """
    if jet is None:
        return 0.0, 0.0
    p = math.ceil(exponent) - 1
    e = exponent - p
    steps = (e + np.arange(p + len(jet) - 1)) / r
    x = exponent + np.arange(len(jet))
    terms = (np.cumprod([math.gamma(e) * r ** -e, *steps])[p:]
             * np.cos(np.pi * (x % 4.0) / 2.0) * jet)
    nonzero = [(t, xn) for t, xn in zip(terms.tolist(), x.tolist()) if t]
    total, prev, rounding = 0.0, math.inf, 0.0
    for i, (t, xn) in enumerate(nonzero):
        if (i == len(nonzero) - 1 or abs(t) < _END_REL_TOL * abs(total)
                or abs(t) >= prev):
            return total, abs(t) + rounding
        total += t
        prev = abs(t)
        rounding += (xn + 8.0) * _EPS * abs(t)
    return total, rounding


def _strip_bound(spec: ProblemSpec, j: int) -> float:
    """pi (w/2)^nu |sin|^(2a+2nu+1) |cos|^(2b+1) exp((w/2) sinh 2t - 2 j t)
    / Gamma(nu+1) on the line Im theta = t, each power bounded by cosh^p t
    (p >= 0) or sinh^p t (p < 0): the strip term of end_moment_asymptotic.

    Any t > 0 gives a bound.  t starts at acosh(2j/w)/2, the minimiser of
    the exponent, and takes Newton steps on the log of the bound, which is
    convex in t.
    """
    a, b, nu, w = spec.alpha, spec.beta, spec.nu, spec.omega
    powers = (2.0 * a + 2.0 * nu + 1.0, 2.0 * b + 1.0)
    t = math.acosh(2.0 * j / w) / 2.0
    for _ in range(4):
        ch, sh = math.cosh(t), math.sinh(t)
        slope = (sum(q * (sh / ch if q >= 0 else ch / sh) for q in powers)
                 + w * math.cosh(2.0 * t) - 2.0 * j)
        curvature = (sum(q / ch ** 2 if q >= 0 else -q / sh ** 2
                         for q in powers) + 2.0 * w * math.sinh(2.0 * t))
        t = max(t - slope / curvature, t / 2.0)
    ch, sh = math.cosh(t), math.sinh(t)
    log_b = (math.log(math.pi) + nu * math.log(w / 2.0)
             - math.lgamma(nu + 1.0) + w * ch * sh - 2.0 * j * t
             + sum(q * math.log(ch if q >= 0 else sh) for q in powers))
    return math.exp(log_b) if log_b < 709.0 else math.inf


def end_moment_asymptotic(spec: ProblemSpec, j: int, jets=None,
                          abs_tol: float = 0.0):
    """(value, err_est) for M(j) at large j from endpoint expansions.

    Uses the theta form M(j) = 2 (-1)^j Re int_0^{pi/2} W(theta)
    e^{2ij theta} d(theta), W = sin^(2a+1) cos^(2b+1) J_nu(w sin^2).
    W carries a theta^(lam-1) envelope at 0 and a (pi/2-theta)^(mu-1)
    envelope at pi/2, lam = 2 alpha + 2 nu + 2 and mu = 2 beta + 2, and
    each end contributes a descending series in r = 2j (Erdelyi) whose
    n-th term needs the n-th jet coefficient there.  Each end is summed
    and stopped on its own (see _end_series); err_est is the sum of the
    two ends' first omitted terms and their rounding.

    An end whose exponent is an odd integer is superalgebraic: W is even
    and analytic across it, every term of its series is 0, and its jet is
    not built.  What it contributes is bounded on a strip.  With both
    ends superalgebraic, W is entire and pi-periodic, and
    M(j) = (-1)^j int_{-pi/2}^{pi/2} W e^{2ij theta} d(theta).  Moving the
    contour to Im theta = t > 0 (the vertical sides cancel by periodicity)
    gives |M(j)| <= pi max|W(. + it)| e^{-2jt}.  On that line
    |sin|, |cos| <= cosh t and |Im(w sin^2 theta)| <= (w/2) sinh 2t, and
    |J_nu(z)| <= |z/2|^nu e^|Im z| / Gamma(nu+1) (DLMF 10.14.4); hence
    |M(j)| <= pi (w/2)^nu cosh^(2a+2b+2nu+2)(t) exp((w/2) sinh 2t - 2jt)
    / Gamma(nu+1), minimised over t.  The value is 0 and err_est is this
    bound.  With one end superalgebraic, say at 0, W is even about 0 and
    M(j) = (-1)^j int_{-pi/2}^{pi/2} W e^{2ij theta} d(theta) again, W
    analytic above the real segment (Re cos > 0 there).  The contour
    becomes the two vertical sides at +-pi/2, whose Watson expansions are
    the other end's series, and the side at height t, bounded as above
    but with |cos|^p <= sinh^p t where the other end's power p is
    negative (|cos|, |sin| >= sinh t on that line).  err_est is the other
    end's estimate plus that bound.

    Raises AccuracyError when err_est exceeds both 1e-8 |value| and
    ``abs_tol``; moment_table passes 1e-16 max|M(0..5)|, the residual
    audit's floor.  ``jets`` may pass in ``_endpoint_jets(spec)``, built
    once for several j; by default they are built here.
    """
    j = as_size(j, 0, "j")
    if j < max(50.0, 2.0 * spec.omega):
        raise DomainError(
            f"asymptotic end moment needs j >= max(50, 2 omega), got {j}")
    (lam, left), (mu, right) = jets or _endpoint_jets(spec)
    r = 2.0 * float(j)
    left_sum, left_err = _end_series(lam, left, r)
    right_sum, right_err = _end_series(mu, right, r)
    total = 2.0 * ((-left_sum if j % 2 else left_sum) + right_sum)
    err = 2.0 * (left_err + right_err)
    if left is None or right is None:
        err += _strip_bound(spec, j)
    if not err <= max(1e-8 * abs(total), abs_tol):
        raise AccuracyError(
            f"end-moment expansion of {spec.moment_key()} stalled at "
            f"err_est {err:.3e} for j={j}",
            err_est=err)
    return total, err


# ---------------------------------------------------------------------------
# The recurrence as one banded system: forward rows and Oliver rows
# ---------------------------------------------------------------------------

#: Lower and upper bandwidth.  A forward row m has M(m+4) on the diagonal
#: and reaches eight columns left.  An Oliver row has M(m+4-_KU) there and
#: reaches _KU columns right, so _KU is also the number of end moments
#: M(k_hi+1)..M(k_hi+_KU) that close the window.
_KL, _KU = 8, 2
_MAX_REFINE = 4
#: The first unknown: M(0)..M(5) are the starting values.
_K_LO = 6


@dataclass
class BandedSystem:
    """Recurrence rows m[i] over the unknowns M(6)..M(k_hi).

    ``coef`` holds c_d(m) over _OFFSETS as (hi, lo) arrays of shape
    (7, dimension); ``known`` holds M(0)..M(k_hi+_KU) as rows hi, lo and
    err, set at the boundary values and their estimates, zero elsewhere.
    """

    k_hi: int
    m: np.ndarray
    coef: tuple
    known: np.ndarray
    dimension: int = field(init=False)

    def __post_init__(self):
        self.dimension = self.k_hi - _K_LO + 1
        #: index |m + d| of every stencil entry, shape (7, dimension)
        self.index = np.abs(self.m + np.array(_OFFSETS)[:, None])

    def _residual(self, vh, vl):
        """(-sum_d c_d M(|m+d|) in double-double, largest |term|) per row,
        for M(0)..M(k_hi+_KU) given as (vh, vl)."""
        (ch, cl), vh, vl = self.coef, vh[self.index], vl[self.index]
        th, tl = _two_prod(ch, vh)
        th, tl = _two_sum(th, tl + (ch * vl + cl * vh))     # c_d M, as dd
        rh, rl = -th[0], -tl[0]
        for d in range(1, len(_OFFSETS)):
            rh, rl = _dd_add(rh, rl, -th[d], -tl[d])
        return rh, np.abs(th).max(axis=0)

    def solve(self):
        """(hi, err): the hi parts of the unknowns and their err_est.

        The hi parts of the coefficients are factored once by LAPACK's
        banded LU with partial pivoting.  Each step forms the residual in
        double-double and corrects with the factors: iterative refinement
        with extra-precise residuals (Demmel et al., ACM TOMS 32, 2006).
        It stops once a step leaves every hi part unchanged, or after
        _MAX_REFINE steps.  The last residual is the audit: a row above
        1e-10 of its largest term, floored at 1e-16 of the largest row's
        (roundoff of the table), raises AccuracyError.  err is
        sum_q |dM/dM(q)| err(q) over the boundary indices q, plus the last
        correction, plus the response to 2^-100 of the floored row scale
        (a double-double residual's roundoff), from one more back-solve:
        column q of its right side is minus the coefficients that reach M(q).
        """
        from scipy.linalg.lapack import dgbtrf, dgbtrs

        n = self.dimension
        rows = np.broadcast_to(np.arange(n), self.index.shape)
        cols = self.index - _K_LO
        inside = (cols >= 0) & (cols < n)
        ab = np.zeros((2 * _KL + _KU + 1, n))
        np.add.at(ab, (_KL + _KU + rows[inside] - cols[inside], cols[inside]),
                  self.coef[0][inside])
        lu, piv, info = dgbtrf(ab, _KL, _KU)
        if info > 0:
            raise SingularSystemError("zero pivot column", row=info - 1)
        vh, vl = self.known[:2].copy()
        unknown = slice(_K_LO, self.k_hi + 1)
        for step in range(_MAX_REFINE + 1):
            r, scale = self._residual(vh, vl)
            delta, _ = dgbtrs(lu, _KL, _KU, r, piv)
            new, vl[unknown] = _dd_add(vh[unknown], vl[unknown], delta, 0.0)
            if step and np.array_equal(new, vh[unknown]):
                break
            vh[unknown] = new
        scale = np.maximum(scale, 1e-16 * scale.max())
        bad = ~(np.abs(r) <= 1e-10 * scale)
        if bad.any():
            i = int(np.argmax(bad))
            raise AccuracyError(
                f"row {i} residual {abs(r[i]):.3e} exceeds 1e-10 of scale",
                err_est=float(abs(r[i]) / scale[i]))
        qs, col = np.unique(self.index[~inside], return_inverse=True)
        rhs = np.zeros((n, qs.size + 1))
        np.add.at(rhs, (rows[~inside], col), -self.coef[0][~inside])
        rhs[:, -1] = 2.0 ** -100 * scale
        sens = np.abs(dgbtrs(lu, _KL, _KU, rhs, piv)[0])
        err = sens[:, :-1] @ self.known[2][qs] + sens[:, -1] + np.abs(delta)
        return vh[unknown], err


def _recurrence_system(spec: ProblemSpec, k_switch: int, k_hi: int,
                       boundary: dict) -> BandedSystem:
    """The hybrid's equations over the unknowns M(6..k_hi): forward rows
    m = 2 .. k_switch-4 (the recursion up to M(k_switch)), then Oliver rows
    m = k_switch-3+_KU .. k_hi-4+_KU.  ``boundary`` maps every index the
    rows reach outside 6..k_hi to its (hi, lo, err): M(0)..M(5) and, with
    Oliver rows, the end moments M(k_hi+1)..M(k_hi+_KU).
    """
    m = np.concatenate([np.arange(_K_LO - 4, k_switch - 3),
                        np.arange(k_switch - 3 + _KU, k_hi - 3 + _KU)])
    known = np.zeros((3, k_hi + _KU + 1))
    for q, value in boundary.items():
        known[:, q] = value
    return BandedSystem(k_hi, m, _row_coefficients(spec, m), known)


# ---------------------------------------------------------------------------
# Table orchestration
# ---------------------------------------------------------------------------

#: Doublings of k_hi that moment_table tries while an end moment stalls.
_MAX_PUSH = 4


@dataclass(frozen=True)
class MomentTable:
    """M(0)..M(N) with per-entry method provenance and error estimates."""

    spec: ProblemSpec
    values: np.ndarray
    method: tuple
    err_est: np.ndarray

    @property
    def N(self) -> int:
        return len(self.values) - 1

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> float:
        return self.values[abs(k)]     # M(-j) = M(j)


def moment_table(spec: ProblemSpec, N: int) -> MomentTable:
    """Build the hybrid moment table for k = 0..N.

    Starting values for k <= 5 (tagged closed-form: four 2F3 closed forms
    and two solved recurrence rows, see _starting_mpf), forward recursion
    to k_switch = clamp of floor(omega/2) into [5, N], then Oliver's
    algorithm up to k_hi = max(N, 2 omega, 50), closed by the _KU end
    moments M(k_hi+1)..M(k_hi+_KU) from end_moment_asymptotic, whose
    endpoint jets are built once.  An end moment is accepted within 1e-8
    relative or within 1e-16 max|M(0..5)| absolute, the residual audit's
    floor.  While the expansion raises AccuracyError at any end moment,
    k_hi is doubled, at most _MAX_PUSH times; then the error propagates.
    Both recurrences are solved together as one banded system.  err_est
    is absolute: the closed forms' for k <= 5, BandedSystem.solve's err
    above (seeds carry theirs plus 2^-104 |M| for the hi + lo split, end
    moments the expansion's), each plus half an ulp of the stored double.
    """
    N = as_size(N, 0)
    pairs = _starting_mpf(spec, min(N + 1, 6))
    vals = np.array([float(v) for v, _ in pairs])
    errs = np.array([e for _, e in pairs])
    if N <= 5:
        return MomentTable(spec, vals, ("closed-form",) * (N + 1),
                           errs + np.spacing(np.abs(vals)) / 2)
    k_switch = max(5, min(N, int(spec.omega // 2)))
    boundary = {q: (x, float(v - x), e + 2.0 ** -104 * abs(x))
                for q, (x, (v, e)) in enumerate(zip(vals.tolist(), pairs))}
    k_hi = k_switch
    if N > k_switch:
        # The window's upper edge is pushed out to where the endpoint
        # expansion is trustworthy, and further while it still stalls; the
        # surplus entries are simply discarded.
        k_hi = max(N, int(math.ceil(max(50.0, 2.0 * spec.omega))))
        jets = _endpoint_jets(spec)
        abs_tol = 1e-16 * np.abs(vals).max()
        for push in range(_MAX_PUSH + 1):
            try:
                ends = [end_moment_asymptotic(spec, j, jets=jets,
                                              abs_tol=abs_tol)
                        for j in range(k_hi + 1, k_hi + _KU + 1)]
                break
            except AccuracyError:
                if push == _MAX_PUSH:
                    raise
                k_hi *= 2
        boundary.update((k_hi + 1 + i, (v, 0.0, e))
                        for i, (v, e) in enumerate(ends))
    system = _recurrence_system(spec, k_switch, k_hi, boundary)
    hi, err = system.solve()
    vals = np.concatenate([vals, hi[: N - 5]])
    errs = np.concatenate([errs, err[: N - 5]])
    meth = (("closed-form",) * 6 + ("forward",) * (k_switch - 5)
            + ("oliver",) * (N - k_switch))
    return MomentTable(spec, vals, meth, errs + np.spacing(np.abs(vals)) / 2)


def recurrence_residual(table: MomentTable, k: int) -> float:
    """|recurrence at k| / (largest term), a dimensionless consistency score."""
    if k < 0 or k + 4 > table.N:
        raise IndexError(f"entries k-4..k+4 not all present for k={k}")
    c = recurrence_coefficients(table.spec, k)
    terms = [cd * table.values[abs(k + d)] for d, cd in c.items()]
    scale = max(abs(t) for t in terms)
    if scale == 0.0:
        return 0.0
    return abs(math.fsum(terms)) / scale
