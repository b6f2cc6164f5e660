"""Modified Chebyshev moments of the weighted Bessel kernel.

Computes M(k) = int_0^1 x^a (1-x)^b T_k*(x) J_nu(w x) dx for k = 0..N by a
hybrid strategy: closed-form (Gamma and 2F3) starting values, forward
recursion while k <= w/2, Oliver's boundary-value reformulation beyond
that, and an endpoint asymptotic expansion for the two trailing boundary
moments.  The nine-term recurrence ties M(k-4)..M(k+4) with the offsets
+-3 absent; the symmetry M(-j) = M(j) resolves every negative index.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import AccuracyError, DomainError, SingularSystemError
from .oracle import reference_moment
from .problem import ProblemSpec
from .specfun import (
    ExtendedReal,
    TaylorJet,
    bessel_j_jet,
    cos_jet,
    gamma,
    hyp2f3,
    shifted_cheb_power_coeffs,
    sin_jet,
    sinc_of,
)

__all__ = [
    "ProblemSpec",
    "MomentTable",
    "BandedSystem",
    "recurrence_coefficients",
    "power_moment",
    "starting_moments",
    "forward_moments",
    "end_moment_asymptotic",
    "oliver_moments",
    "moment_table",
    "recurrence_residual",
]

#: Offsets of the recurrence stencil, in matrix-row order (+-3 are absent).
RECURRENCE_OFFSETS = (-4, -3, -2, -1, 0, 1, 2, 3, 4)

#: Working precision (bits) of the recurrence pipeline.  The boundary-value
#: problem carries a homogeneous mode that grows from the left edge of the
#: Oliver window, so rounding in the seeds is amplified by a few orders of
#: magnitude before it reaches the decayed large-k moments; double-rounded
#: seeds would dominate the result there.
_PIPE_PREC = 192


def recurrence_coefficients(spec: ProblemSpec, k: int) -> dict:
    """Coefficients c_d of the identity sum_d c_d M(k+d) = 0 at index k.

    Mapping d -> c_d for d in {-4, -2, -1, 0, 1, 2, 4}; the d = +-3 slots
    of the stencil are identically zero.  The set is symmetric under
    (k, d) -> (-k, -d), consistent with M(-j) = M(j).
    """
    a, b, n, w = spec.alpha, spec.beta, spec.nu, spec.omega
    kk = float(k)
    return {
        4: w * w / 16.0,
        -4: w * w / 16.0,
        2: (a + b + kk + 3.0) ** 2 - n * n - w * w / 4.0,
        -2: (a + b - kk + 3.0) ** 2 - n * n - w * w / 4.0,
        1: (4.0 * n * n + 2.0 * kk + 4.0 + 4.0 * (b * b - a * a)
            + 4.0 * kk * (b - a) - 8.0 * a + 12.0 * b),
        -1: (4.0 * n * n - 2.0 * kk + 4.0 + 4.0 * (b * b - a * a)
             - 4.0 * kk * (b - a) - 8.0 * a + 12.0 * b),
        0: (6.0 * (a * a + b * b) + 4.0 * a + 12.0 * b - 4.0 * a * b
            - 2.0 * kk * kk + 6.0 - 6.0 * n * n + 3.0 * w * w / 8.0),
    }


def _mp_coefficients(spec: ProblemSpec, k: int) -> dict:
    """The recurrence coefficients as exact-input mpf values.

    Assumes an enclosing mp.workprec context.
    """
    a, b = mp.mpf(spec.alpha), mp.mpf(spec.beta)
    n, w = mp.mpf(spec.nu), mp.mpf(spec.omega)
    kk = mp.mpf(k)
    return {
        4: w * w / 16.0,
        -4: w * w / 16.0,
        2: (a + b + kk + 3.0) ** 2 - n * n - w * w / 4.0,
        -2: (a + b - kk + 3.0) ** 2 - n * n - w * w / 4.0,
        1: (4.0 * n * n + 2.0 * kk + 4.0 + 4.0 * (b * b - a * a)
            + 4.0 * kk * (b - a) - 8.0 * a + 12.0 * b),
        -1: (4.0 * n * n - 2.0 * kk + 4.0 + 4.0 * (b * b - a * a)
             - 4.0 * kk * (b - a) - 8.0 * a + 12.0 * b),
        0: (6.0 * (a * a + b * b) + 4.0 * a + 12.0 * b - 4.0 * a * b
            - 2.0 * kk * kk + 6.0 - 6.0 * n * n + 3.0 * w * w / 8.0),
    }


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------

def power_moment(a: float, b: float, nu: float, omega: float,
                 rel_tol: float = 1e-14) -> ExtendedReal:
    """I(a,b,nu,w) = int_0^1 x^a (1-x)^b J_nu(w x) dx, closed form.

    Gamma prefactor times 2F3 evaluated at z = -w^2/4; valid for
    a + nu > -1 and b > -1.  err_est covers the 2F3's two-precision
    disagreement and the rounding of the product at the pipeline precision.
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
    h = hyp2f3(*args, rel_tol=rel_tol, prec=_PIPE_PREC)
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


def _starting_mpf(spec: ProblemSpec, count: int):
    """(mpf value, err_est) pairs for M(0)..M(count-1) via the power basis.

    Values keep the precision delivered by the closed form; the boundary-
    value solve downstream amplifies seed rounding, so they must not be
    rounded to double prematurely.
    """
    # I(alpha + i, beta) is shared across k; the power-basis coefficients
    # alternate in sign and grow like 4^k, so the sums stay in ExtendedReal.
    with mp.workprec(_PIPE_PREC):
        shifted = [mp.mpf(spec.alpha) + i for i in range(count)]
    ivals = [power_moment(ai, spec.beta, spec.nu, spec.omega)
             for ai in shifted]
    out = []
    for k in range(count):
        cs = shifted_cheb_power_coeffs(k)
        acc = ExtendedReal(0.0, _PIPE_PREC)
        errsum = 0.0
        scale = 0.0
        for j, c in enumerate(cs):
            term = ivals[k - j] * c
            acc = acc + term
            errsum += abs(c) * ivals[k - j].err_est
            scale = max(scale, abs(float(term)))
        out.append((acc.value, errsum + 1e-16 * scale))
    return out


def _starting_with_errors(spec: ProblemSpec, count: int):
    return [(float(v), e) for v, e in _starting_mpf(spec, count)]


def starting_moments(spec: ProblemSpec, count: int = 6):
    """M(0)..M(count-1) from the power-basis expansion of T_k*."""
    if not 1 <= count <= 8:
        raise DomainError("count must be between 1 and 8")
    return [v for v, _ in _starting_with_errors(spec, count)]


# ---------------------------------------------------------------------------
# Forward recursion
# ---------------------------------------------------------------------------

def _forward_mpf(spec: ProblemSpec, start, start_errs, k_max: int):
    """Forward recursion in extended precision: mpf list and float errors."""
    with mp.workprec(_PIPE_PREC):
        M = [mp.mpf(v) for v in start] + [mp.mpf(0)] * (k_max - 5)
        E = np.zeros(k_max + 1)
        E[:6] = start_errs
        # Solve the recurrence at index k for M(k+4); negative indices at
        # k = 2, 3 fold onto their mirror images.
        for k in range(2, k_max - 3):
            c = _mp_coefficients(spec, k)
            acc = mp.mpf(0)
            escale = 0.0
            ein = 0.0
            for d, cd in c.items():
                if d == 4:
                    continue
                q = abs(k + d)
                acc += cd * M[q]
                escale += abs(float(cd * M[q]))
                ein = max(ein, E[q])
            M[k + 4] = -acc / c[4]
            E[k + 4] = ein + 1e-15 * escale / float(c[4])
    return M, E


def forward_moments(spec: ProblemSpec, start, k_max: int) -> np.ndarray:
    """M(0)..M(k_max) by forward recursion from the six starting values.

    Stable while k <= omega/2; past that the dominant homogeneous solution
    takes over and Oliver's algorithm must be used instead.
    """
    start = np.asarray(start, dtype=float)
    if start.shape != (6,):
        raise DomainError("start must hold exactly M(0)..M(5)")
    if k_max < 5:
        raise DomainError("k_max must be at least 5")
    M, _ = _forward_mpf(spec, list(start), np.zeros(6), k_max)
    return np.array([float(v) for v in M])


# ---------------------------------------------------------------------------
# Endpoint asymptotics for large-index moments
# ---------------------------------------------------------------------------

_HALF_PI = math.pi / 2.0


def _shift_jet(jet: TaylorJet, p: int, sign: float) -> TaylorJet:
    """Multiply a jet by (sign * u)^p where u is the deviation variable."""
    c = np.zeros(jet.order + 1)
    if p <= jet.order:
        c[p:] = jet.coefficients[: jet.order + 1 - p]
    return TaylorJet(jet.center, (sign ** p) * c)


def _left_smooth_jet(spec: ProblemSpec, p_a: int, order: int) -> TaylorJet:
    """Jet at theta = 0 of the smooth companion of the theta^(lam'-1) factor.

    The kernel sin^(2a+1) cos^(2b+1) J_nu(w sin^2) contributes
    theta^(2a+2nu+1) at the origin; after extracting theta^(lam'-1) the
    remainder is theta^p_a times a smooth, nonvanishing product.  The
    Bessel factor enters through its entire part g(s) = sum_p (-s/4)^p /
    (p! Gamma(nu+p+1)) evaluated at s = w^2 sin^4 theta, so no
    cancellation occurs at the endpoint.
    """
    a, b, nu, w = spec.alpha, spec.beta, spec.nu, spec.omega
    th = TaylorJet.variable(0.0, order)
    sj = sin_jet(0.0, order)
    base = (sinc_of(th).powr(2.0 * a + 2.0 * nu + 1.0)
            * cos_jet(0.0, order).powr(2.0 * b + 1.0))
    s = (w * w) * (sj * sj * sj * sj)
    outer = np.array([(-0.25) ** p / (math.factorial(p) * gamma(nu + p + 1.0))
                      for p in range(order + 1)])
    phi = base * s.compose_series(outer) * (w / 2.0) ** nu
    return _shift_jet(phi, p_a, 1.0)


def _right_smooth_jet(spec: ProblemSpec, p_b: int, order: int) -> TaylorJet:
    """Jet at theta = pi/2 (in u = theta - pi/2) of the right companion.

    sin theta = cos u and cos theta = -sin u there, so the kernel becomes
    cos^(2a+1) u * sinc^(2b+1) u * (-u)^p_b * J_nu(w cos^2 u); the Bessel
    jet is taken about w > 0 and composed with -w sin^2 u.
    """
    a, b, nu, w = spec.alpha, spec.beta, spec.nu, spec.omega
    cj = TaylorJet(_HALF_PI, cos_jet(0.0, order).coefficients)
    sj = TaylorJet(_HALF_PI, sin_jet(0.0, order).coefficients)
    dev = TaylorJet.variable(_HALF_PI, order) - _HALF_PI
    base = cj.powr(2.0 * a + 1.0) * sinc_of(dev).powr(2.0 * b + 1.0)
    zdev = (sj * sj) * (-w)
    jv = zdev.compose_series(bessel_j_jet(nu, w, order).coefficients)
    return _shift_jet(base * jv, p_b, -1.0)


def end_moment_asymptotic(spec: ProblemSpec, j: int, max_terms: int = 8,
                          rel_tol: float = 1e-12):
    """(value, err_est) for M(j) at large j from endpoint expansions.

    Uses the theta form M(j) = 2 (-1)^j Re int_0^{pi/2} W(theta)
    e^{2ij theta} d(theta): the integrand carries theta^(lam-1) and
    (pi/2-theta)^(mu-1) envelopes with lam = 2 alpha + 2 nu + 2 and
    mu = 2 beta + 2; integer parts of lam and mu are peeled into the
    smooth factor, and each endpoint contributes a descending series in
    r = 2j whose n-th term needs the n-th jet coefficient there.  Terms
    are added until the next falls under rel_tol of the partial sum, the
    series stops descending, or max_terms is reached; err_est is the
    first omitted term's magnitude.
    """
    if j < max(50.0, 2.0 * spec.omega):
        raise DomainError(
            f"asymptotic end moment needs j >= max(50, 2 omega), got {j}")
    if not 1 <= max_terms <= 12:
        raise DomainError("max_terms must be between 1 and 12")
    lam = 2.0 * spec.alpha + 2.0 * spec.nu + 2.0
    mu = 2.0 * spec.beta + 2.0
    p_a = math.ceil(lam) - 1
    p_b = math.ceil(mu) - 1
    lam_p = lam - p_a   # in (0, 1]
    mu_p = mu - p_b
    ga = _left_smooth_jet(spec, p_a, max_terms)
    gb = _right_smooth_jet(spec, p_b, max_terms)
    r = 2.0 * float(j)
    sgn = -1.0 if j % 2 else 1.0
    total = 0.0
    prev_mag = math.inf
    err = 0.0
    for n in range(max_terms + 1):
        fn = math.factorial(n)
        an = (gamma(n + lam_p) / fn
              * cmath.exp(1j * math.pi * (n + lam_p - 2.0) / 2.0)
              * r ** (-n - lam_p) * ga.derivative(n))
        bn = (sgn * gamma(n + mu_p) / fn
              * cmath.exp(1j * math.pi * (n - mu_p) / 2.0)
              * r ** (-n - mu_p) * gb.derivative(n))
        mag = 2.0 * (abs(an) + abs(bn))
        # The peeled integer powers make the first few terms exactly zero;
        # those say nothing about convergence and are skipped.
        if n == max_terms or (mag > 0.0
                              and (mag < rel_tol * abs(total)
                                   or mag >= prev_mag)):
            err = mag
            break
        total += 2.0 * sgn * (bn - an).real
        if mag > 0.0:
            prev_mag = mag
    err += 1e-16 * abs(total)
    if err > 1e-8 * abs(total):
        raise AccuracyError(
            f"end-moment expansion stalled at err_est {err:.3e} for j={j}",
            err_est=err)
    return total, err


# ---------------------------------------------------------------------------
# Oliver's algorithm
# ---------------------------------------------------------------------------

@dataclass
class BandedSystem:
    """Linear system of recurrence rows for unknowns M(k_lo)..M(k_hi).

    ``rows[i]`` holds the stencil coefficients of the recurrence at index
    m = k_lo - 2 + i over offsets -4..4 (the +-3 entries exactly zero);
    boundary values are already folded into ``rhs``.  Entries are mpf so
    the elimination can run above double precision.
    """

    k_lo: int
    k_hi: int
    rows: np.ndarray
    rhs: np.ndarray
    precision: int = _PIPE_PREC
    bandwidth: int = 4
    dimension: int = field(init=False)

    def __post_init__(self):
        self.dimension = self.k_hi - self.k_lo + 1

    def solve(self):
        """Banded Gaussian elimination with partial pivoting, in mpf.

        Column j of the matrix holds M(k_lo + j); equation i sits at
        m = k_lo - 2 + i, so the stencil occupies columns i-6 .. i+2 and
        pivoting fills in at most six more superdiagonals.  Row storage
        windows are column-aligned: R[i][d] is the entry in column
        i - 6 + d, d = 0..14.
        """
        n = self.dimension
        with mp.workprec(self.precision):
            zero = mp.mpf(0)
            R = [[zero] * 15 for _ in range(n)]
            b = [mp.mpf(v) for v in self.rhs]
            for i in range(n):
                m = self.k_lo - 2 + i
                for idx, d in enumerate(RECURRENCE_OFFSETS):
                    c = self.rows[i, idx]
                    if c == 0:
                        continue
                    q = abs(m + d)
                    if self.k_lo <= q <= self.k_hi:
                        jcol = q - self.k_lo
                        R[i][jcol - i + 6] += c
            for k in range(n):
                rmax = min(k + 6, n - 1)
                p = k
                best = abs(R[k][6])
                for r in range(k + 1, rmax + 1):
                    v = abs(R[r][k - r + 6])
                    if v > best:
                        best, p = v, r
                if best == 0:
                    raise SingularSystemError("zero pivot column", row=k)
                if p != k:
                    for c in range(k, min(k + 8, n - 1) + 1):
                        dk, dp = c - k + 6, c - p + 6
                        R[k][dk], R[p][dp] = R[p][dp], R[k][dk]
                    b[k], b[p] = b[p], b[k]
                piv = R[k][6]
                for r in range(k + 1, rmax + 1):
                    f = R[r][k - r + 6]
                    if f == 0:
                        continue
                    f /= piv
                    R[r][k - r + 6] = zero
                    for c in range(k + 1, min(k + 8, n - 1) + 1):
                        v = R[k][c - k + 6]
                        if v:
                            R[r][c - r + 6] -= f * v
                    b[r] -= f * b[k]
            x = [zero] * n
            for i in range(n - 1, -1, -1):
                acc = b[i]
                for c in range(i + 1, min(i + 8, n - 1) + 1):
                    v = R[i][c - i + 6]
                    if v:
                        acc -= v * x[c]
                x[i] = acc / R[i][6]
        return x


def _build_oliver_system(spec: ProblemSpec, k_lo: int, k_hi: int,
                         boundary: dict) -> BandedSystem:
    """System over M(k_lo..k_hi); ``boundary`` maps outside indices to mpf."""
    n = k_hi - k_lo + 1
    rows = np.empty((n, 9), dtype=object)
    rhs = [mp.mpf(0)] * n
    with mp.workprec(_PIPE_PREC):
        for i in range(n):
            m = k_lo - 2 + i
            c = _mp_coefficients(spec, m)
            for idx, d in enumerate(RECURRENCE_OFFSETS):
                rows[i, idx] = c.get(d, 0)
                if d not in c:
                    continue
                q = abs(m + d)
                if not k_lo <= q <= k_hi:
                    rhs[i] -= c[d] * boundary[q]
    return BandedSystem(k_lo, k_hi, rows, np.array(rhs, dtype=object))


def _oliver_mpf(spec: ProblemSpec, k_lo: int, k_hi: int, boundary: dict):
    system = _build_oliver_system(spec, k_lo, k_hi, boundary)
    sol = system.solve()
    # Residual audit: each row must be satisfied to rounding.
    with mp.workprec(_PIPE_PREC):
        for i in range(system.dimension):
            m = k_lo - 2 + i
            acc = -system.rhs[i]
            scale = abs(float(system.rhs[i]))
            for idx, d in enumerate(RECURRENCE_OFFSETS):
                c = system.rows[i, idx]
                q = abs(m + d)
                if c != 0 and k_lo <= q <= k_hi:
                    acc += c * sol[q - k_lo]
                    scale = max(scale, abs(float(c * sol[q - k_lo])))
            if scale > 0.0 and abs(float(acc)) > 1e-10 * scale:
                raise AccuracyError(
                    f"row {i} residual {float(abs(acc)):.3e} exceeds "
                    f"1e-10 of scale", err_est=float(abs(acc)) / scale)
    return sol


def oliver_moments(spec: ProblemSpec, k_lo: int, k_hi: int,
                   start6, end2) -> np.ndarray:
    """M(k_lo)..M(k_hi) given six lower and two upper boundary moments.

    One recurrence row per index m = k_lo-2 .. k_hi-2 makes the system
    square; the 6+2 boundary split matches the order-8 recurrence.
    """
    start6 = np.asarray(start6, dtype=float)
    end2 = np.asarray(end2, dtype=float)
    if start6.shape != (6,) or end2.shape != (2,):
        raise DomainError("need six starting and two ending boundary values")
    if k_hi < k_lo:
        raise DomainError("k_hi must be >= k_lo")
    boundary = {}
    for i, v in enumerate(start6):
        boundary[abs(k_lo - 6 + i)] = mp.mpf(float(v))
    boundary[k_hi + 1] = mp.mpf(float(end2[0]))
    boundary[k_hi + 2] = mp.mpf(float(end2[1]))
    sol = _oliver_mpf(spec, k_lo, k_hi, boundary)
    return np.array([float(v) for v in sol])


# ---------------------------------------------------------------------------
# Table orchestration
# ---------------------------------------------------------------------------

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

    Closed form for k <= 5, forward recursion to k_switch = clamp of
    floor(omega/2) into [5, N], then Oliver's algorithm up to N seeded by
    asymptotic end moments at N+1 and N+2 (oracle fallback when the
    expansion is out of range or too coarse).
    """
    if N < 0:
        raise DomainError("N must be nonnegative")
    count = min(N + 1, 6)
    pairs = _starting_mpf(spec, count)
    if N <= 5:
        vals = np.array([float(v) for v, _ in pairs])
        errs = np.array([e for _, e in pairs])
        return MomentTable(spec, vals, ("closed-form",) * (N + 1), errs)
    k_switch = max(5, min(N, int(spec.omega // 2)))
    vals = np.zeros(N + 1)
    errs = np.zeros(N + 1)
    fwd, fwd_errs = _forward_mpf(spec, [v for v, _ in pairs],
                                 [e for _, e in pairs], k_switch)
    vals[: k_switch + 1] = [float(v) for v in fwd]
    errs[: k_switch + 1] = fwd_errs
    meth = ["closed-form"] * 6 + ["forward"] * (k_switch - 5)
    if N > k_switch:
        # The window's upper edge is pushed out to where the endpoint
        # expansion is trustworthy, so the two end moments never have to
        # come from a double-limited quadrature when N sits below that;
        # the surplus entries are simply discarded.
        k_hi = max(N, int(math.ceil(max(50.0, 2.0 * spec.omega))))
        end_vals = []
        end_errs = []
        for jj in (k_hi + 1, k_hi + 2):
            try:
                v, e = end_moment_asymptotic(spec, jj)
            except (DomainError, AccuracyError):
                v, e = reference_moment(spec, jj)
            end_vals.append(v)
            end_errs.append(e)
        k_lo = k_switch + 1
        boundary = {abs(k_lo - 6 + i): fwd[k_switch - 5 + i]
                    for i in range(6)}
        boundary[k_hi + 1] = mp.mpf(end_vals[0])
        boundary[k_hi + 2] = mp.mpf(end_vals[1])
        sol = _oliver_mpf(spec, k_lo, k_hi, boundary)
        vals[k_lo:] = [float(v) for v in sol[: N + 1 - k_lo]]
        base = max(float(max(fwd_errs[k_switch - 5: k_switch + 1])),
                   max(end_errs))
        scale = max(np.abs(vals[k_switch - 5:]).max(), abs(end_vals[0]))
        errs[k_lo:] = base + 1e-14 * scale
        meth += ["oliver"] * (N - k_switch)
    return MomentTable(spec, vals, tuple(meth), errs)


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
