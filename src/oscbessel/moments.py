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
from four closed forms (Gamma times a 2F3, whose series is summed in one
integer pass below mpmath's asymptotic switch) and M(4), M(5) from the
recurrence rows m = 0, 1 folded by that symmetry, in 192-bit mpmath; both
recurrences form one float64 banded LU system, refined with double-double
(hi + lo) residuals.  Both endpoint jets expand the Bessel factor through
its entire part g(s), s = w^2 sin^4 theta, about s = 0 at theta = 0 and
about s = w^2 at theta = pi/2; they are built once per window.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import AccuracyError, DomainError, SingularSystemError
# Not called here.  The benchmark's tracer wraps moments.reference_moment by
# name, so the name stays until the tracer reads a diagnostics record.
from .oracle import reference_moment
from .problem import ProblemSpec, as_size
from .specfun import (bessel_entire_jet, hyp2f3, jet_compose, jet_mul,
                      jet_pow)

__all__ = [
    "MomentTable",
    "BandedSystem",
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
# Double-double arithmetic on numpy arrays, in caller-owned buffers
# ---------------------------------------------------------------------------
# Each helper writes into arrays that the caller passes, so a kernel that
# runs them in a loop allocates nothing.  No output or scratch array may
# overlap an input or another one, unless a docstring says so.

def _two_sum(a, b, s, e, t):
    """s = fl(a + b) and e with s + e = a + b exactly (Knuth), written into
    s and e; t is scratch."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=t)            # bb
    np.subtract(s, t, out=e)
    np.subtract(a, e, out=e)            # a - (s - bb)
    np.subtract(b, t, out=t)            # b - bb
    np.add(e, t, out=e)


def _split(a, hi, lo):
    """Veltkamp's split a = hi + lo into two 26-bit halves, written into hi
    and lo."""
    np.multiply(a, 134217729.0, out=hi)     # t, by 2^27 + 1
    np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)             # t - (t - a)
    np.subtract(a, hi, out=lo)


def _two_prod(a, b, a_split, b_split, p, e, t):
    """p = fl(a b) and e with p + e = a b exactly (Dekker, 1971), written
    into p and e, given the _split (hi, lo) pairs of a and b; t is
    scratch."""
    (ah, al), (bh, bl) = a_split, b_split
    np.multiply(a, b, out=p)
    np.multiply(ah, bh, out=e)
    np.subtract(e, p, out=e)
    for x, y in ((ah, bl), (al, bh), (al, bl)):
        np.multiply(x, y, out=t)
        np.add(e, t, out=e)


def _dd_add(xh, xl, yh, yl, w):
    """(xh, xl) += (yh, yl) in double-double, in place: relative error
    ~3 u^2 even under cancellation.  w holds five scratch arrays."""
    s, e, t, f, u = w
    _two_sum(xh, yh, s, e, u)
    _two_sum(xl, yl, t, f, u)
    np.add(e, t, out=e)
    _two_sum(s, e, xh, t, u)
    np.add(t, f, out=t)
    _two_sum(xh, t, s, xl, u)
    np.copyto(xh, s)


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
    (7, 1) arrays of doubles that sum to the exact values.  A coefficient
    c with (2^27 + 2) |c| >= the largest double (w >~ 1.89e150) is a
    DomainError: Veltkamp's split of c's double by 2^27 + 1 would overflow.
    """
    q2, q1, q0 = _exact_quadratics(alpha, beta, nu, omega)
    if max(abs(c) for c in q1 + q0) * (2 ** 27 + 2) >= sys.float_info.max:
        raise DomainError(f"omega = {omega}: a recurrence coefficient is "
                          "too large for the double-double products")
    return np.array(q2, dtype=float)[:, None], *(
        np.array([*map(_three_doubles, q)]).T[:, :, None] for q in (q1, q0))


#: Pieces of one coefficient: q2 m^2 as two, three two-products q1 m and
#: the three doubles of q0.
_PIECES = 11


def _row_coefficients(spec: ProblemSpec, m):
    """c_d(m) for d in _OFFSETS at every row index m, as (hi, lo) arrays.

    Each c_d is a quadratic in m whose coefficients are formed exactly from
    the (exact double) parameters as rationals and split into three
    doubles; their products with m are exact two-products, and the eleven
    pieces are summed by two error-free VecSum passes (Ogita, Rump and
    Oishi, 2005), then rounded to hi + lo: their SumK with K = 3.  No
    constant such as 12 b or 3 w^2/8 is rounded on the way, so each
    coefficient is correct to ~1e-32 relative even where its terms cancel.
    A third pass changed no bit of hi or lo on 14.7 million coefficients
    of 400 random kernels.

    The pieces live in one (_PIECES + 3, 7, len(m)) buffer with three
    spare slabs; a VecSum step writes into two spare slabs and swaps them
    with its inputs, so no (7, len(m)) temporary is allocated.
    """
    q2, q1, q0 = _quadratics(spec.alpha, spec.beta, spec.nu, spec.omega)
    m = np.asarray(m, dtype=float)
    # The result first: the workspace above it, once freed, leaves one
    # block that the banded system's buffers reuse (a lower peak RSS).
    coef = np.empty((2, len(_OFFSETS), m.size))
    work = np.empty((_PIECES + 3, len(_OFFSETS), m.size))
    pieces, (s, e, t) = list(work[:_PIECES]), work[_PIECES:]
    vec = np.empty((5, m.size))
    m_split = vec[3], vec[4]
    _split(m, *m_split)
    _two_prod(m, m, m_split, m_split, vec[0], vec[1], vec[2])
    np.multiply(q2, vec[0], out=pieces[0])
    np.multiply(q2, vec[1], out=pieces[1])
    for i, part in enumerate(q1):
        part_split = np.empty((2, *part.shape))
        _split(part, *part_split)
        _two_prod(part, m, part_split, m_split, pieces[2 + 2 * i],
                  pieces[3 + 2 * i], t)
    for i, part in enumerate(q0):
        # broadcast, as part + 0 m was: a Fraction's float is never -0
        pieces[8 + i][...] = part
    for _ in range(2):
        for i in range(1, _PIECES):
            _two_sum(pieces[i - 1], pieces[i], s, e, t)
            pieces[i], pieces[i - 1], s, e = s, e, pieces[i], pieces[i - 1]
    np.add(pieces[0], 0, out=s)     # as sum() from int 0: -0 becomes +0
    for p in pieces[1:-1]:
        np.add(s, p, out=s)
    _two_sum(pieces[-1], s, coef[0], coef[1], t)
    return coef[0], coef[1]


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------

#: Below this |z| = w^2/4 mpmath's 2F3 only sums its series (it tries its
#: asymptotic expansion from mag(z) > 19 on), and power_moment sums the
#: series itself; from here on it calls the 2F3.
_SERIES_ONLY = 2 ** 19

#: Relative error (bits) the series pass must reach before its sums are
#: scaled, and the working precision of the scale K.
_SERIES_BITS = 200
_K_PREC = _PIPE_PREC + 32


def power_moment(a: float, b: float, nu: float, omega: float,
                 count: int = 1):
    """[(value, err_est)] of I(a+i,b,nu,w) = int_0^1 x^(a+i) (1-x)^b
    J_nu(w x) dx for i = 0..count-1, count from 1 to 4; valid for finite
    a + nu > -1, b > -1, nu >= 0 and w >= 0.

    With A = a+nu+1 and C = a+b+nu+2, I(a+i) = K q_i(0) F_i, where K =
    Gamma(b+1) Gamma(A) (w/2)^nu / (Gamma(nu+1) Gamma(C+3)), q_i(p) =
    (A+2p)_i (C+2p+i)_(3-i) and F_i = 2F3((A+i)/2, (A+i+1)/2; nu+1,
    (C+i)/2, (C+i+1)/2; -w^2/4).  Below |z| = w^2/4 = 2^19 the sums
    q_i(0) F_i come from one integer pass (_series_sums); from there on
    each is q_i(0) times one mpmath 2F3.  The arguments of each 2F3 and of
    K are exact rationals, each rounded once to mpf.  Each value is an mpf
    at the pipeline precision.  err_est, a float, is the sum's relative
    bound plus the rounding of K and of the sum (16 ulps at _K_PREC) and
    of the product (half an ulp at the pipeline precision), times |value|.
    """
    count = as_size(count, 1, "count")
    if count > 4:
        raise DomainError(f"count must be <= 4, got {count}")
    params = a, b, nu, omega = [float(v) for v in (a, b, nu, omega)]
    if not all(map(math.isfinite, params)):
        raise DomainError(f"power_moment needs finite input, got {params}")
    if not a + nu > -1.0:
        raise DomainError(f"need a + nu > -1, got {a + nu}")
    if not b > -1.0:
        raise DomainError(f"need b > -1, got {b}")
    if not nu >= 0.0:
        raise DomainError(f"need nu >= 0, got {nu}")
    if not omega >= 0.0:
        # (w/2)^nu of a negative w is complex.
        raise DomainError(f"need omega >= 0, got {omega}")
    a_, b_, n_, w_ = map(Fraction, params)
    A, C = a_ + n_ + 1, a_ + b_ + n_ + 2
    # d^3 q_i(p) as cubics in p with integer coefficients
    d = max(A.denominator, C.denominator)           # a power of two
    rise_a = [(int((A + k) * d), 2 * d) for k in range(3)]
    rise_c = [(int((C + k) * d), 2 * d) for k in range(3)]
    cubics = [_linear_product(rise_a[:i] + rise_c[i:]) for i in range(count)]
    if w_ * w_ < 4 * _SERIES_ONLY:
        sums = _series_sums(params, A, n_ + 1, C, cubics)
    else:
        sums = []
        for i, q in enumerate(cubics):
            with mp.workprec(_PIPE_PREC):
                args = [_dyadic(x) for x in ((A + i) / 2, (A + i + 1) / 2,
                                             n_ + 1, (C + i) / 2,
                                             (C + i + 1) / 2, -w_ * w_ / 4)]
            h = hyp2f3(*args)
            with mp.workprec(_K_PREC):
                sums.append((q[0] * h.value, 2.0 ** -192))  # hyp2f3's bound
    with mp.workprec(_K_PREC):
        g = [mp.gamma(_dyadic(x)) for x in (b_ + 1, A, n_ + 1, C + 3)]
        # K / d^3 (ldexp is exact): each sum carries its cubic's d^3
        K = mp.ldexp(g[0] * g[1] * _dyadic(w_ / 2) ** _dyadic(n_)
                     / (g[2] * g[3]), -3 * (d.bit_length() - 1))
    out = []
    for s, rel in sums:
        with mp.workprec(_PIPE_PREC):
            val = K * s
        rel = 2.0 ** -_PIPE_PREC + 2.0 ** (4 - _K_PREC) + rel
        out.append((val, rel * float(abs(val))))
    return out


def _dyadic(x: Fraction):
    """x, a Fraction with a power-of-two denominator, rounded once to mpf."""
    return mp.mpf((x.numerator, 1 - x.denominator.bit_length()))


def _linear_product(factors):
    """Integer coefficients, lowest degree first, of the product of the
    linear polynomials c + s p given as (c, s) pairs."""
    out = [1]
    for c, s in factors:
        out = [c * hi + s * lo for hi, lo in zip(out + [0], [0] + out)]
    return out


def _alternating_sums(wp: int, A: Fraction, nu1: Fraction, C: Fraction,
                      z: Fraction):
    """(S_0..S_3, P) with S_j = sum_p p^j U_p over the fixed-point terms
    U_0 = 2^wp, U_p+1 = floor(U_p r_p), where r_p = z (A+2p)(A+2p+1) /
    ((p+1)(nu1+p)(C+2p+3)(C+2p+4)) is formed exactly in integers; P is the
    index of the first zero term, after which every term is 0."""
    d = max(x.denominator for x in (A, nu1, C))     # a power of two
    x, n, c = (int(v * d) for v in (A, nu1, C + 3))
    num0, den0 = z.numerator * d, z.denominator
    u, p = 1 << wp, 0
    s0 = s1 = s2 = s3 = 0
    while u:
        t1 = p * u
        t2 = p * t1
        s0 += u
        s1 += t1
        s2 += t2
        s3 += p * t2
        p += 1
        u = u * (num0 * x * (x + d)) // (den0 * p * n * c * (c + d))
        x += 2 * d
        n += d
        c += 2 * d
    return (s0, s1, s2, s3), p


def _series_sums(params, A: Fraction, nu1: Fraction, C: Fraction, cubics):
    """(sum, relative error bound) of d^3 q_i(0) 2F3_i for each d^3 q_i
    among ``cubics``, from one integer pass over the series, for
    w^2/4 < 2^19.

    sum i is sum_p u_p q_i(p), where u_0 = 1 and u_p+1/u_p = -(w^2/4)
    (A+2p)(A+2p+1) / ((p+1)(nu1+p)(C+2p+3)(C+2p+4)).  The ratio is an
    exact rational of the (exact double) parameters, so the terms are
    summed in fixed point at wp bits once, with the cubics q_i expanded
    over S_j = sum_p p^j u_p, j <= 3: one 2F3 and its first three
    theta-derivatives (the rational fast path of Johansson, ACM TOMS 45,
    2019).  params are the doubles (a, b, nu, w); each sum is rounded to
    _K_PREC.

    Error bound: each floor division errs by under one unit 2^-wp, and the
    error it starts at term k propagates into sum i as that unit times the
    normalized tail tau_k = sum_p>=k q_i(p) u_p / u_k.  K u_k tau_k is the
    integral of x^(a+i) (1-x)^b (w x/2)^nu times the remainder, after k
    terms, of the series of J_nu(w x) / (w x/2)^nu.  By Poisson's integral
    (nu > -1/2) that remainder is a weighted mean of the Taylor remainder
    of cos, so it is at most its first term in modulus, and
    |tau_k| <= q_i(k).  The fixed-point terms reach an exact 0 at some
    index P and stay 0, so with the truncation included sum i is off by at
    most sum_k<=P q_i(k) <= P q_i(P) units.  While that exceeds
    2^-_SERIES_BITS of a sum, the pass repeats with the working precision
    raised by the shortfall.  The first wp covers the cancellation that
    |I| <= B(a+1, b+1) implies against the first term, none at a <= -1.
    """
    a, b, nu, w = params
    cancel = 0.0
    if w > 0.0 and a > -1.0:    # B(a+1, b+1) does not exist at a <= -1
        lg = math.lgamma
        cancel = (nu * math.log(w / 2.0) + lg(a + nu + 1.0) - lg(nu + 1.0)
                  - lg(a + b + nu + 2.0) - lg(a + 1.0) + lg(a + b + 2.0))
    # A first wp that usually suffices: the cancellation, and P q_i(P) /
    # q_i(0) taken as (2w + 64)^4 for the P ~ 1.5 w terms of the pass.
    wp = _SERIES_BITS + 32 + math.ceil(max(cancel, 0.0) / math.log(2.0)
                                       + 4.0 * math.log2(2.0 * w + 64.0))
    z = -Fraction(w) ** 2 / 4
    while True:
        sums, P = _alternating_sums(wp, A, nu1, C, z)
        tots = [sum(c * s for c, s in zip(q, sums)) for q in cubics]
        bounds = [P * sum(c * P ** j for j, c in enumerate(q)) for q in cubics]
        short = max(e.bit_length() + _SERIES_BITS + 1 - abs(t).bit_length()
                    for t, e in zip(tots, bounds))
        if short <= 0:
            break
        wp += short + 16
    with mp.workprec(_K_PREC):
        return [(mp.mpf((t, -wp)), e / (abs(t) - e))
                for t, e in zip(tots, bounds)]


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
    I(alpha + i, beta), i = 0..3, of one power_moment call.  Each later
    M(k) is solved from recurrence row m = k-4 with its exact rational
    coefficients, folded by M(-j) = M(j); at m = 0 the offsets -4 and +4
    both land on M(4), so its lead is c_-4(0) + c_4(0) = w^2/8.  Values keep the 192-bit precision:
    the boundary-value solve downstream amplifies seed rounding, so they
    must not be rounded to double prematurely.  err_est bounds the mpf
    value's error only; a solved entry inherits its inputs' errors times
    the row's coefficients over its lead, which amplifies at small w.
    Where such a ratio overflows a double (w <~ 1e-153) the rows raise
    DomainError, before any 2F3 is evaluated.
    """
    quads = list(zip(_OFFSETS, *_exact_quadratics(
        spec.alpha, spec.beta, spec.nu, spec.omega)))
    rows = []
    for k in range(4, count):
        m = k - 4
        row = {}
        for d, q2, q1, q0 in quads:
            row[abs(m + d)] = row.get(abs(m + d), 0) + (q2 * m + q1) * m + q0
        lead = row.pop(k)
        rows.append([(-c / lead, j) for j, c in row.items()])
    if any(abs(c) > sys.float_info.max for row in rows for c, _ in row):
        raise DomainError(f"omega = {spec.omega}: the rows that give M(4) "
                          "and M(5) overflow a double over their lead w^2/8")
    # The power-basis coefficients alternate in sign and grow like 4^k.
    ivals = power_moment(*spec.moment_key(), min(count, 4))
    out = [_combine((c, ivals[k - j]) for j, c
                    in enumerate(_SHIFTED_CHEB[k]))
           for k in range(len(ivals))]
    for row in rows:
        out.append(_combine((c, out[j]) for c, j in row))
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
    term are charged as its rounding.  Where an exponent far above r
    takes a term past the double range, the end is (0, inf).
    """
    if jet is None:
        return 0.0, 0.0
    p = math.ceil(exponent) - 1
    e = exponent - p
    steps = (e + np.arange(p + len(jet) - 1)) / r
    x = exponent + np.arange(len(jet))
    try:
        with np.errstate(over="raise"):
            terms = (np.cumprod([math.gamma(e) * r ** -e, *steps])[p:]
                     * np.cos(np.pi * (x % 4.0) / 2.0) * jet)
    except FloatingPointError:
        # A term is past the double range, so e is far above r, where the
        # series tells nothing: err_est inf, which moment_table rejects.
        return 0.0, math.inf
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


def _window_edge(spec: ProblemSpec) -> int:
    """max(50, 2 omega) rounded up: the least index the expansion serves."""
    return math.ceil(max(50.0, 2.0 * spec.omega))


def end_moment_asymptotic(spec: ProblemSpec, js) -> dict:
    """{j: (value, err_est)} for M(j), j in js, from endpoint expansions.

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

    The estimates are reported, not judged: moment_table accepts or
    rejects them.  The endpoint jets are built once per call.  An index
    below max(50, 2 omega) is a DomainError.
    """
    js = [as_size(j, _window_edge(spec), "j") for j in js]
    (lam, left), (mu, right) = _endpoint_jets(spec)
    out = {}
    for j in js:
        left_sum, left_err = _end_series(lam, left, 2.0 * j)
        right_sum, right_err = _end_series(mu, right, 2.0 * j)
        err = 2.0 * (left_err + right_err)
        if left is None or right is None:
            err += _strip_bound(spec, j)
        out[j] = 2.0 * ((-left_sum if j % 2 else left_sum) + right_sum), err
    return out


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


def _workspace(ch):
    """Scratch for BandedSystem._residual on rows whose hi coefficients are
    ch, of shape (7, rows): ten slabs of that shape, the first two holding
    the _split of ch."""
    work = np.empty((10, *ch.shape))
    _split(ch, work[0], work[1])
    return work


class BandedSystem:
    """The hybrid's recurrence rows over the unknowns M(_K_LO)..M(k_hi):
    forward rows m = 2 .. k_switch-4 (the recursion up to M(k_switch)),
    then Oliver rows m = k_switch-3+_KU .. k_hi-4+_KU.

    ``known`` holds M(0)..M(k_hi+_KU) as rows hi, lo and err, set at the
    boundary values and their estimates, zero elsewhere: the seeds
    M(0)..M(_K_LO-1) and, with Oliver rows, the end moments
    M(k_hi+1)..M(k_hi+_KU).  Its length gives k_hi.  ``coef`` holds the
    rows' c_d(m) over _OFFSETS as (hi, lo) arrays of shape (7, dimension).
    """

    def __init__(self, spec: ProblemSpec, k_switch: int, known: np.ndarray):
        self.known = known
        k_hi = known.shape[1] - _KU - 1
        self.dimension = k_hi - _K_LO + 1
        m = np.concatenate([np.arange(_K_LO - 4, k_switch - 3),
                            np.arange(k_switch - 3 + _KU, k_hi - 3 + _KU)])
        self.coef = _row_coefficients(spec, m)
        #: index |m + d| of every stencil entry, shape (7, dimension)
        self.index = np.abs(m + np.array(_OFFSETS)[:, None])
        #: which stencil entries are unknowns, not boundary values
        self.inside = (self.index >= _K_LO) & (self.index <= k_hi)

    def band(self) -> np.ndarray:
        """The hi parts of the coefficients on unknowns in LAPACK's banded
        layout, rows 2 _KL + _KU + 1.  Each (row, unknown) pair occurs once
        in the stencil (indices collide only in rows m = 2, 3, on seeds),
        so the entries are assigned, not accumulated."""
        rows = np.nonzero(self.inside)[1]
        cols = self.index[self.inside] - _K_LO
        ab = np.zeros((2 * _KL + _KU + 1, self.dimension))
        ab[_KL + _KU + rows - cols, cols] = self.coef[0][self.inside]
        return ab

    def _residual(self, vh, vl, rows, work):
        """(-sum_d c_d M(|m+d|) in double-double, largest |term|) for the
        rows ``rows`` (a slice or an index array), for M(0)..M(k_hi+_KU)
        given as (vh, vl).  ``work`` is a _workspace of the rows' hi
        coefficients; both results are views into it, which hold until it
        is used again."""
        ch, cl = (c[:, rows] for c in self.coef)
        index = self.index[:, rows]
        mh, ml, sh, sl, t, ph, pl, vec = work[2:]
        # "clip" only because "raise" would buffer out: indices are in range
        np.take(vh, index, out=mh, mode="clip")
        np.take(vl, index, out=ml, mode="clip")
        _split(mh, sh, sl)
        _two_prod(ch, mh, work[:2], (sh, sl), ph, pl, t)
        np.multiply(ch, ml, out=sh)
        np.multiply(cl, mh, out=sl)
        np.add(sh, sl, out=sh)
        np.add(pl, sh, out=sh)
        th, tl = mh, ml
        _two_sum(ph, sh, th, tl, t)                         # c_d M, as dd
        np.negative(th, out=th)
        np.negative(tl, out=tl)
        rh, rl = vec[:2]
        np.copyto(rh, th[0])
        np.copyto(rl, tl[0])
        for d in range(1, len(_OFFSETS)):
            _dd_add(rh, rl, th[d], tl[d], vec[2:])
        return rh, np.abs(th, out=t).max(axis=0, out=sh[0])

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

        The unknowns start at 0, so the first residual is formed only on
        the rows whose stencil reaches a boundary value; on every other row
        it is exactly +0.  Every residual is formed in place in one
        workspace per system, allocated here.
        """
        from scipy.linalg.lapack import dgbtrf, dgbtrs

        n = self.dimension
        lu, piv, info = dgbtrf(self.band(), _KL, _KU, overwrite_ab=1)
        if info > 0:
            raise SingularSystemError("zero pivot column", row=info - 1)
        vh, vl = self.known[:2].copy()
        unknown = slice(_K_LO, _K_LO + n)
        edge = np.flatnonzero(~self.inside.all(axis=0))
        work = _workspace(self.coef[0])
        new, *scratch = np.empty((6, n))
        for step in range(_MAX_REFINE + 1):
            if step:
                r, scale = self._residual(vh, vl, slice(None), work)
            else:
                r = np.zeros(n)
                r[edge] = self._residual(
                    vh, vl, edge, _workspace(self.coef[0][:, edge]))[0]
            delta, _ = dgbtrs(lu, _KL, _KU, r, piv)
            np.copyto(new, vh[unknown])
            _dd_add(new, vl[unknown], delta, 0.0, scratch)
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
        del work, r             # free the workspace for the last solve
        outside = ~self.inside
        qs, col = np.unique(self.index[outside], return_inverse=True)
        rhs = np.zeros((n, qs.size + 1), order="F")
        np.add.at(rhs, (np.nonzero(outside)[1], col), -self.coef[0][outside])
        rhs[:, -1] = 2.0 ** -100 * scale
        sens = dgbtrs(lu, _KL, _KU, rhs, piv, overwrite_b=1)[0]
        np.abs(sens, out=sens)
        err = sens[:, :-1] @ self.known[2][qs] + sens[:, -1] + np.abs(delta)
        return vh[unknown], err


# ---------------------------------------------------------------------------
# Table orchestration
# ---------------------------------------------------------------------------

#: Doublings of k_hi that moment_table tries while it rejects an end moment.
_MAX_PUSH = 4

#: Largest k_hi of a table, whose arrays are allocated whole: a table takes
#: ~1 KB a row at its peak (the VecSum pieces of _row_coefficients), so the
#: largest admitted window takes ~1 GB.
_MAX_ROWS = 1 << 20


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
    moments M(k_hi+1)..M(k_hi+_KU) from end_moment_asymptotic.  This is
    the one place they are judged: an end moment is accepted when its
    err_est is within 1e-8 of its value or within 1e-16 max|M(0..5)|, the
    residual audit's floor.  While any is rejected, k_hi is doubled, at
    most _MAX_PUSH times and never past _MAX_ROWS; then AccuracyError
    carries the largest rejected err_est.  A first k_hi (N, or the window
    edge) above _MAX_ROWS is a DomainError before any table array.  Both
    recurrences are solved together as one banded system.  err_est is
    absolute: the closed forms' for k <= 5, BandedSystem.solve's err above
    (seeds carry theirs plus 2^-104 |M| for the hi + lo split, end moments
    the expansion's), each plus half an ulp of the stored double.  An
    omega outside the double range of this arithmetic is a DomainError
    before any 2F3 (see _quadratics and _starting_mpf).
    """
    N = as_size(N, 0)
    if N >= _K_LO:
        _quadratics(*spec.moment_key())     # raises where w is too large
    k_switch = max(_K_LO - 1, min(N, int(spec.omega // 2)))
    # The window's upper edge is pushed out to where the endpoint
    # expansion is trustworthy, and further while an end moment is
    # rejected; the surplus entries are simply discarded.
    k_hi = max(N, _window_edge(spec)) if N > k_switch else k_switch
    if k_hi > _MAX_ROWS:
        raise DomainError(f"N = {N} at omega = {spec.omega} needs a table "
                          f"to k = {k_hi}, past the limit of {_MAX_ROWS}")
    pairs = _starting_mpf(spec, min(N + 1, _K_LO))
    vals = np.array([float(v) for v, _ in pairs])
    errs = np.array([e for _, e in pairs])
    ends = {}
    if N > k_switch:
        floor = 1e-16 * np.abs(vals).max()
        for push in range(_MAX_PUSH + 1):
            ends = end_moment_asymptotic(spec, range(k_hi + 1,
                                                     k_hi + _KU + 1))
            rejected = [e for v, e in ends.values()
                        if not e <= max(1e-8 * abs(v), floor)]
            if not rejected:
                break
            if push == _MAX_PUSH or 2 * k_hi > _MAX_ROWS:
                raise AccuracyError(
                    f"end moments of {spec.moment_key()} stalled at "
                    f"j >= {min(ends)}", err_est=max(rejected))
            k_hi *= 2
    if N >= _K_LO:
        known = np.zeros((3, k_hi + _KU + 1))
        known[:, :_K_LO] = np.transpose(
            [(x, float(v - x), e + 2.0 ** -104 * abs(x))
             for x, (v, e) in zip(vals.tolist(), pairs)])
        for j, (v, e) in ends.items():
            known[:, j] = v, 0.0, e
        hi, err = BandedSystem(spec, k_switch, known).solve()
        vals = np.concatenate([vals, hi[: N + 1 - _K_LO]])
        errs = np.concatenate([errs, err[: N + 1 - _K_LO]])
    meth = (("closed-form",) * len(pairs)
            + ("forward",) * (k_switch + 1 - _K_LO)
            + ("oliver",) * (N - k_switch))
    # No integrand in the table: a cached table keeps no caller's f alive.
    return MomentTable(replace(spec, integrand=None), vals, meth,
                       errs + np.spacing(np.abs(vals)) / 2)


def recurrence_residual(table: MomentTable, k: int) -> float:
    """|sum_d c_d(k) M(k+d)| / max_d |c_d(k) M(k+d)| over d in _OFFSETS,
    with the double (hi) parts of the exact c_d: a dimensionless
    consistency score of the recurrence at index k."""
    if k < 0 or k + 4 > table.N:
        raise IndexError(f"entries k-4..k+4 not all present for k={k}")
    hi, _ = _row_coefficients(table.spec, [k])
    terms = [c * table.values[abs(k + d)]
             for d, c in zip(_OFFSETS, hi[:, 0].tolist())]
    scale = max(abs(t) for t in terms)
    if scale == 0.0:
        return 0.0
    return abs(math.fsum(terms)) / scale
