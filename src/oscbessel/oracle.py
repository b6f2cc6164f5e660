"""Independent reference integrator for the Bessel transform and its moments.

Ground truth for everything else in the package: panels a half-period
pi/w of the kernel apart, adaptive Gauss-Kronrod inside, tanh-sinh at the
singular endpoints, final summation correctly rounded (``math.fsum``).
Nodes are evaluated as numpy arrays and J_nu comes from
``scipy.special.jv``.  This module deliberately knows nothing about the
moment recurrence, the CCF rule or the pipeline's own special functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln, jv

from .errors import AccuracyError, DomainError
from .problem import ProblemSpec, as_size, sample

__all__ = ["OracleConfig", "reference_integral", "reference_moment",
           "reference_moments"]


#: Interior Gauss-Kronrod panel evaluations one integral may spend.
_MAX_PANELS = 4096

#: Most half-period panels in one grid, which is allocated whole.
_MAX_GRID = 1 << 19

_EPS = np.finfo(float).eps

#: Rounding floor of every err_est, relative to the integral of |integrand|:
#: QUADPACK's 50 eps (Piessens et al., 1983).  The K15 - G7 difference does
#: not see the rounding of the nodes' values, which reaches ~18 eps of it.
_ROUNDOFF = 50.0 * _EPS


@dataclass(frozen=True)
class OracleConfig:
    rel_tol: float = 1e-12

    def __post_init__(self):
        # Written so that NaN fails it: a NaN tolerance would make every
        # later err > tol test False and switch off refinement and gates.
        if not 1e-14 <= self.rel_tol < math.inf:
            raise DomainError("rel_tol must be finite and >= 1e-14, got "
                              f"{self.rel_tol}")


def _grid_size(n: int) -> int:
    """n half-period panels, or a DomainError before any is built."""
    if n > _MAX_GRID:
        raise DomainError(f"the oracle's grid would need {n} half-period "
                          f"panels, more than its limit of {_MAX_GRID}")
    return n


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 on [-1, 1], to 17 significant digits: the roots of
# P_7 and of the Stieltjes polynomial E_8, weights from the moment equations
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.99145537112081264, 0.94910791234275852, 0.86486442335976907,
    0.74153118559939444, 0.58608723546769113, 0.40584515137739717,
    0.20778495500789847, 0.0,
])
_WGK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478541,
    0.20443294007529889, 0.20948214108472783,
])
_WG = np.array([       # 0 at the Kronrod-only nodes
    0.0, 0.12948496616886969, 0.0, 0.27970539148927667,
    0.0, 0.38183005050511894, 0.0, 0.41795918367346939,
])

# full symmetric node set, kronrod weights, gauss weights
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK_WGAUSS = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk_nodes(lo, hi):
    """(half-widths, (panels x 15) nodes) of the panels [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES


def _gk15(f, lo, hi):
    """K15 values and |K15 - G7| on every panel, f called once on all nodes."""
    half, x = _gk_nodes(lo, hi)
    vals = f(x)
    return half * (vals @ _GK_WK), np.abs(half * (vals @ (_GK_WK - _GK_WGAUSS)))


def _gk_adaptive(f, lo, hi, val, err, panel_tol):
    """Bisect every panel whose GK15 error exceeds its tolerance.

    (val, err) are the GK15 results on [lo, hi]; a child panel gets half its
    parent's tolerance.  Refinement stops at depth 40 or once the bisections
    have spent ``_MAX_PANELS`` panel evaluations.  Returns the values and
    errors of the accepted panels.
    """
    budget = _MAX_PANELS
    vals, errs = [], []
    for _ in range(40):
        bad = err > panel_tol
        if budget <= 0 or not bad.any():
            break
        vals.append(val[~bad])
        errs.append(err[~bad])
        mid = 0.5 * (lo[bad] + hi[bad])
        lo, hi = np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]])
        panel_tol *= 0.5
        val, err = _gk15(f, lo, hi)
        budget -= lo.size
    vals.append(val)
    errs.append(err)
    return np.concatenate(vals), np.concatenate(errs)


# ---------------------------------------------------------------------------
# tanh-sinh for panels with one algebraically singular endpoint
# ---------------------------------------------------------------------------

#: t range of every tanh-sinh rule whose exponent allows it; see _ts_range.
_TS_TMAX = 6.8
_TS_H0 = 0.5
_TS_MAX_LEVEL = 12
#: The t range reaches (gamma+1)(pi/2)e^T >= _TS_TAIL: the piece of
#: int u^gamma psi du below its first node, ~e^(-(gamma+1)(pi/2)e^T) of
#: the total, is then below e^-40.
_TS_TAIL = 40.0


def _ts_range(gamma: float) -> float:
    """_TS_TMAX, or where it drops more than e^-_TS_TAIL (gamma < -0.97),
    the t reaching that, rounded up to a multiple of _TS_H0."""
    reach = math.log(_TS_TAIL / ((gamma + 1.0) * 0.5 * math.pi))
    if reach <= _TS_TMAX:
        return _TS_TMAX
    return _TS_H0 * math.ceil(reach / _TS_H0)


@lru_cache(maxsize=4 * (_TS_MAX_LEVEL + 1))
def _ts_raw_nodes(level: int, tmax: float):
    """(sig, log sig, log jacobian) arrays for the t nodes new at this level,
    |t| <= tmax.

    sig is the distance fraction from the singular end; level 0 is the full
    h0 grid, later levels its odd multiples of h.  The u^gamma part is
    applied later, in log space.
    """
    h = _TS_H0 / 2**level
    n = int(tmax / h)
    j = np.arange(-n, n + 1)
    t = (j if level == 0 else j[j % 2 != 0]) * h
    y = math.pi * np.sinh(t)
    ls = -np.logaddexp(0.0, -y)          # log sigmoid(y)
    lj = np.log(math.pi * np.cosh(t)) + ls - np.logaddexp(0.0, y)
    out = (np.exp(ls), ls, lj)
    for a in out:
        a.setflags(write=False)
    return out


def _tanh_sinh(sums, length, gamma, rel_tol):
    """(total, err, mass) of int_0^length u^gamma psi(u) du, singularity
    (if any) at u = 0.

    ``sums(u, log_u, weight, cond)`` returns (sum weight * psi,
    sum |weight * psi|, sum |weight * psi| * cond) over one level's nodes;
    the first may be an array, e.g. one entry per k.  u is the distance
    from the singular endpoint (computed without cancellation), and log_u
    its log, exact where u underflows to 0; weight holds u^gamma times the
    jacobian, formed in log space so exponents near -1 cannot underflow,
    and nodes whose weight is below e^-745 are dropped.  Each weight's
    relative rounding is at most eps times the size of the terms of its
    log, |gamma log u| + |log length| + |log jacobian| + 1, where
    |gamma log u| reaches ~(pi/2) e^|t|: cond holds the two that vary per
    node (the log jacobian is negative), and the charge, the rounding
    weighted by each node's share of the mass, accumulates h * its sums
    over the levels like the total and the mass.  From level 3 on, the
    levels stop once every total moves by at most rel_tol times the mass:
    the mass, unlike a total that nearly cancels, stays above rounding
    noise.  err is the last move plus the charge.
    """
    log_len = math.log(length)
    tmax = _ts_range(gamma)
    total = prev = mass = charge = 0.0
    for level in range(_TS_MAX_LEVEL + 1):
        sig, ls, lj = _ts_raw_nodes(level, tmax)
        log_u = log_len + ls
        power = gamma * log_u
        logfac = power + log_len + lj
        keep = logfac >= -745.0
        part, part_mass, part_cond = sums(
            length * sig[keep], log_u[keep], np.exp(logfac[keep]),
            (np.abs(power) - lj)[keep])
        h, scale = _TS_H0 / 2**level, 0.5 if level else 0.0
        total = scale * total + h * part
        mass = scale * mass + h * part_mass
        charge = scale * charge + h * (part_cond
                                       + (abs(log_len) + 1.0) * part_mass)
        if level >= 2:
            err = np.abs(total - prev)
            if level >= 3 and np.all(err <= rel_tol * mass):
                break
        prev = total
    return total, err + _EPS * charge, mass


def _jv_at_0(nu, w, x, log_u, p):
    """J_nu(w x) on the nodes of a tanh-sinh end at x = 0, where x = u^p
    wherever it is tiny.  Where w x < 1e-300 jv reads 0, though its leading
    term (w x / 2)^nu / Gamma(nu + 1), exact in double there, is e^-7.4 at
    nu = 0.01 and w x = 1e-320; it is formed from log u, which stays exact
    where x itself underflows."""
    z = w * x
    out = jv(nu, z)
    lost = z < 1e-300
    if lost.any():
        lost &= out == 0.0
        out[lost] = np.exp(nu * (math.log(w) - math.log(2.0)
                                 + p * log_u[lost]) - gammaln(nu + 1.0))
    return out


# ---------------------------------------------------------------------------
# Reference integral
# ---------------------------------------------------------------------------

def reference_integral(spec: ProblemSpec, cfg: OracleConfig | None = None,
                       f=None, breakpoints=()):
    """(value, err_est) for int_0^1 x^a (1-x)^b f(x) J_nu(w x) dx.

    Extra breakpoints (e.g. integrand kinks) may be supplied; they are
    merged into the grid of panels pi/w apart.  ``f`` is called one
    Python float at a time, once per node; the rest of the integrand is
    evaluated on arrays of nodes.  Its failures are problem.sample's.
    """
    cfg = cfg or OracleConfig()
    f = spec.integrand if f is None else f
    a, b, nu, w = spec.alpha, spec.beta, spec.nu, spec.omega

    def kernel(x):
        return sample(f, x) * jv(nu, w * x)

    # edges pi/w apart, the half-period of J_nu(w x) at large w x; an edge
    # that rounds to 1.0 would leave an empty end panel
    edges = np.arange(1, _grid_size(math.ceil(w / math.pi))) * (math.pi / w)
    extra = [float(p) for p in breakpoints if 0.0 < float(p) < 1.0]
    pts = np.union1d(edges[edges < 1.0], extra)
    if pts.size == 0:
        pts = np.array([0.5])
    grid = np.concatenate([[0.0], pts, [1.0]])

    def end(psi, length, gamma):
        def sums(u, log_u, weight, cond):
            v = psi(u, log_u)
            av = np.abs(v)
            return (float(weight @ v), float(weight @ av),
                    float((weight * cond) @ av))
        return _tanh_sinh(sums, length, gamma, 0.1 * cfg.rel_tol)[:2]

    # ends: u = x on the left, u = 1 - x on the right
    ends = [end(lambda u, lu: (1.0 - u) ** b
                * (sample(f, u) * _jv_at_0(nu, w, u, lu, 1.0)), grid[1], a),
            end(lambda u, lu: (1.0 - u) ** a * kernel(1.0 - u),
                1.0 - grid[-2], b)]

    def integrand(x):
        return x**a * (1.0 - x) ** b * kernel(x)

    # a rough pass over the interior gives the scale for the tolerance
    lo, hi = grid[1:-2], grid[2:-1]
    val, err = _gk15(integrand, lo, hi)
    scale = max(sum(abs(v) for v, _ in ends) + float(np.abs(val).sum()),
                1e-300)
    panel_tol = cfg.rel_tol * scale / max(1, lo.size)
    val, err = _gk_adaptive(integrand, lo, hi, val, err, panel_tol)

    value = math.fsum([v for v, _ in ends] + val.tolist())
    err_est = sum(e for _, e in ends) + float(err.sum()) + _ROUNDOFF * scale
    if err_est > 100.0 * cfg.rel_tol * scale:
        raise AccuracyError(
            f"oracle integral reached err_est={err_est:.3e} "
            f"against scale {scale:.3e}", err_est)
    return value, err_est


# ---------------------------------------------------------------------------
# Reference moments
# ---------------------------------------------------------------------------

#: Entries of one cos(2 k theta) block (8 MB of float64): the k batch is
#: reduced a block at a time, so memory does not grow with the batch.
_COS_BLOCK = 1 << 20


def _cos_blocks(ks, theta):
    """Yield (slice of ks, cos(2 k theta)) with one leading axis over k."""
    step = max(1, _COS_BLOCK // max(theta.size, 1))
    for i in range(0, ks.size, step):
        sl = slice(i, i + step)
        yield sl, np.cos(np.multiply.outer(2.0 * ks[sl], theta))


def _moment_theta(spec, ks, cfg):
    """theta-form batch: M(k) = 2 (-1)^k int_0^{pi/2} W cos(2k theta) dtheta
    with W = sin^(2a+1) cos^(2b+1) J_nu(w sin^2 theta).  All requested k
    share one panel grid and one set of W evaluations.

    Each end panel is one _tanh_sinh run at 0.1 rel_tol with one total per
    k, so it stops once every k's total has settled.  Every err_est
    includes _ROUNDOFF times the integral of |W|, ends and interior, which
    bounds |W cos(2 k theta)| for each k.
    """
    cfg = cfg or OracleConfig()
    ks = np.array(sorted({as_size(k, 0, "k") for k in ks}), dtype=int)
    if not ks.size:
        raise DomainError("need one or more moment indices")
    a, b, nu, w = spec.alpha, spec.beta, spec.nu, spec.omega
    q = _grid_size(max(int(ks.max()), int(math.ceil(w / 2.0)), 8))
    # zeros of cos(2 q theta); tanh-sinh ends cover the first/last few
    # half-periods so every interior panel sees a smooth W
    zeros = (2 * np.arange(q) + 1) * math.pi / (4.0 * q)
    n_end = min(4, (q - 1) // 2)
    inner = zeros[n_end - 1: q - n_end + 1]

    # u is the distance from the end.  Left: theta = u, sin theta = sin u.
    # Right: theta = pi/2 - u, sin theta = cos u, and cos(2k theta) =
    # (-1)^k cos(2k u).  np.sinc keeps sin(u)/u -> 1 where deep nodes
    # underflow u to 0; where sin^2 u underflows, sin u = u.
    sides = ((inner[0], 2 * a + 1, 2 * b + 1, 1.0,
              lambda u, lu: _jv_at_0(nu, w, np.sin(u) ** 2, lu, 2.0)),
             (0.5 * math.pi - inner[-1], 2 * b + 1, 2 * a + 1,
              np.where(ks % 2 == 0, 1.0, -1.0),
              lambda u, lu: jv(nu, w * np.cos(u) ** 2)))
    end_totals, end_errs, masses = [], [], []
    for length, g_end, g_far, sign, bessel in sides:
        def sums(u, log_u, weight, cond):
            wv = weight * (np.sinc(u / math.pi) ** g_end * np.cos(u) ** g_far
                           * bessel(u, log_u))
            part = np.empty(ks.size)
            for sl, c in _cos_blocks(ks, u):
                part[sl] = c @ wv
            awv = np.abs(wv)
            return part, float(awv.sum()), float(awv @ cond)
        totals, err, mass = _tanh_sinh(sums, length, g_end, 0.1 * cfg.rel_tol)
        end_totals.append(sign * totals)
        end_errs.append(err)
        masses.append(mass)

    # interior half-period panels, one K15 evaluation of W per panel
    half, thetas = _gk_nodes(inner[:-1], inner[1:])
    s = np.sin(thetas)
    wvals = s ** (2 * a + 1) * np.cos(thetas) ** (2 * b + 1) * jv(nu, w * s * s)
    wk = half[:, None] * wvals * _GK_WK
    wd = half[:, None] * wvals * (_GK_WK - _GK_WGAUSS)
    floor = _ROUNDOFF * (sum(masses) + float(np.abs(wk).sum()))
    left, right = end_totals
    out = {}
    for sl, c in _cos_blocks(ks, thetas):
        panels = np.einsum("kpj,pj->kp", c, wk)
        errs = (end_errs[0][sl] + end_errs[1][sl] + floor
                + np.abs(np.einsum("kpj,pj->kp", c, wd)).sum(axis=1))
        for k, l, r, row, e in zip(ks[sl].tolist(), left[sl], right[sl],
                                   panels, errs):
            total = math.fsum([l, r, *row.tolist()])
            out[k] = ((2.0 if k % 2 == 0 else -2.0) * total, 2.0 * e)
    return out


def reference_moment(spec: ProblemSpec, k: int,
                     cfg: OracleConfig | None = None):
    """(value, err_est) for the k-th modified moment: the entry k of
    ``reference_moments(spec, [k], cfg)``."""
    return _moment_theta(spec, [k], cfg)[k]


def reference_moments(spec: ProblemSpec, ks, cfg: OracleConfig | None = None):
    """Batch of modified moments sharing one set of kernel evaluations."""
    return _moment_theta(spec, ks, cfg)
