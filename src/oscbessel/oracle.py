"""Brute-force reference integrator for the Bessel transform and its moments.

Ground truth for everything else in the package: panels split at the
kernel's sign changes, adaptive Gauss-Kronrod inside, tanh-sinh at the
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
from scipy.special import jv

from .errors import AccuracyError, DomainError
from .problem import ProblemSpec

__all__ = ["OracleConfig", "reference_integral", "reference_moment",
           "reference_moments"]


#: Interior Gauss-Kronrod panel evaluations one integral may spend.
_MAX_PANELS = 4096


@dataclass(frozen=True)
class OracleConfig:
    rel_tol: float = 1e-12

    def __post_init__(self):
        # Written so that NaN fails it: a NaN tolerance would make every
        # later err > tol test False and switch off refinement and gates.
        if not 1e-14 <= self.rel_tol < math.inf:
            raise DomainError("rel_tol must be finite and >= 1e-14, got "
                              f"{self.rel_tol}")


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 (QUADPACK abscissae and weights on [-1, 1])
# ---------------------------------------------------------------------------

_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

# full symmetric node set, kronrod weights, gauss weights (0 off-rule)
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_wg_full = np.zeros(8)
_wg_full[1::2] = _WG
_GK_WGAUSS = np.concatenate([_wg_full[:-1], _wg_full[::-1]])


def _gk_nodes(lo, hi):
    """(half-widths, (panels x 15) nodes) of the panels [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES


def _gk15(f, lo, hi):
    """K15 values and |K15 - G7| on every panel, f called once on all nodes."""
    half, x = _gk_nodes(lo, hi)
    vals = f(x)
    return half * (vals @ _GK_WK), np.abs(half * (vals @ (_GK_WK - _GK_WGAUSS)))


def _gk_adaptive(f, lo, hi, val, err, abs_tol, budget):
    """Bisect every panel whose GK15 error exceeds its tolerance.

    (val, err) are the GK15 results on [lo, hi]; a child panel gets half its
    parent's tolerance.  Refinement stops at depth 40 or once ``budget``
    panel evaluations are spent.  Returns the values and errors of the
    accepted panels.
    """
    vals, errs = [], []
    for _ in range(40):
        bad = err > abs_tol
        if budget <= 0 or not bad.any():
            break
        vals.append(val[~bad])
        errs.append(err[~bad])
        mid = 0.5 * (lo[bad] + hi[bad])
        lo, hi = np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]])
        abs_tol *= 0.5
        val, err = _gk15(f, lo, hi)
        budget -= lo.size
    vals.append(val)
    errs.append(err)
    return np.concatenate(vals), np.concatenate(errs)


# ---------------------------------------------------------------------------
# tanh-sinh for panels with one algebraically singular endpoint
# ---------------------------------------------------------------------------

_TS_TMAX = 6.8
_TS_H0 = 0.5
_TS_MAX_LEVEL = 12


@lru_cache(maxsize=None)
def _ts_raw_nodes(level: int):
    """(sig, log sig, log jacobian) arrays for the t nodes new at this level.

    sig is the distance fraction from the singular end; level 0 is the full
    h0 grid, later levels its odd multiples of h.  The u^gamma part is
    applied later, in log space.
    """
    h = _TS_H0 / 2**level
    n = int(_TS_TMAX / h)
    j = np.arange(-n, n + 1)
    t = (j if level == 0 else j[j % 2 != 0]) * h
    y = math.pi * np.sinh(t)
    ls = -np.logaddexp(0.0, -y)          # log sigmoid(y)
    lj = np.log(math.pi * np.cosh(t)) + ls - np.logaddexp(0.0, y)
    out = (np.exp(ls), ls, lj)
    for a in out:
        a.setflags(write=False)
    return out


def _ts_levels(length, gamma):
    """Yield (h, u, weight) per tanh-sinh level for int_0^length u^gamma psi(u).

    u is the distance from the singular endpoint (computed without
    cancellation); weight holds u^gamma times the jacobian, formed in log
    space so exponents near -1 cannot underflow.  Nodes whose weight is
    below e^-745 are dropped.
    """
    log_len = math.log(length)
    for level in range(_TS_MAX_LEVEL + 1):
        sig, ls, lj = _ts_raw_nodes(level)
        logfac = gamma * (log_len + ls) + log_len + lj
        keep = logfac >= -745.0
        yield _TS_H0 / 2**level, length * sig[keep], np.exp(logfac[keep])


def _tanh_sinh(psi, length, gamma, rel_tol):
    """integral_0^length u^gamma psi(u) du, singularity (if any) at u = 0;
    stops once a level changes it by <= rel_tol of the level's mass."""
    total = prev = mass = 0.0
    for level, (h, u, weight) in enumerate(_ts_levels(length, gamma)):
        v = psi(u)
        total = (0.5 * total if level else 0.0) + h * float(weight @ v)
        mass = (0.5 * mass if level else 0.0) + h * float(weight @ np.abs(v))
        if level >= 2:
            err = abs(total - prev)
            if err <= rel_tol * mass:
                break
        prev = total
    return total, err


# ---------------------------------------------------------------------------
# Bessel zero bracketing (panel boundaries only; roughness is fine)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _bessel_zeros(nu: float, xmax: float):
    """Approximate positive zeros of J_nu below xmax (McMahon + bisection)."""
    mu = 4.0 * nu * nu
    # McMahon's guesses grow with s; the last one here, with b > xmax + 21,
    # lies past xmax for every nu >= 0
    b = (np.arange(1, int(xmax / math.pi) + 9) + 0.5 * nu - 0.25) * math.pi
    z = b - (mu - 1) / (8 * b) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * b) ** 3)
    z = z[: np.argmax(z >= xmax)]
    lo, hi = z - 0.4, z + 0.4
    ok = lo > 0
    ok[ok] = jv(nu, lo[ok]) * jv(nu, hi[ok]) < 0
    lo, hi = lo[ok], hi[ok]
    flo = jv(nu, lo)
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        fm = jv(nu, mid)
        left = flo * fm <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        flo = np.where(left, flo, fm)
    z[ok] = 0.5 * (lo + hi)
    z = z[(z > 0.0) & (z < xmax)]
    z.setflags(write=False)
    return z


# ---------------------------------------------------------------------------
# Reference integral
# ---------------------------------------------------------------------------

def reference_integral(spec: ProblemSpec, cfg: OracleConfig | None = None,
                       f=None, breakpoints=()):
    """(value, err_est) for int_0^1 x^a (1-x)^b f(x) J_nu(w x) dx.

    Extra breakpoints (e.g. integrand kinks) may be supplied; they are
    merged into the oscillation-aligned panel grid.  ``f`` is called one
    Python float at a time, once per node; the rest of the integrand is
    evaluated on arrays of nodes.
    """
    cfg = cfg or OracleConfig()
    if f is None:
        f = spec.integrand
    if f is None:
        raise DomainError("spec has no integrand and none was supplied")
    a, b, nu, w = spec.alpha, spec.beta, spec.nu, spec.omega

    def kernel(x):
        fx = np.fromiter(map(f, x.ravel().tolist()), float, x.size)
        return fx.reshape(x.shape) * jv(nu, w * x)

    extra = [float(p) for p in breakpoints if 0.0 < float(p) < 1.0]
    pts = np.union1d(_bessel_zeros(nu, w) / w, extra)
    if pts.size == 0:
        pts = np.array([0.5])
    grid = np.concatenate([[0.0], pts, [1.0]])

    # ends: u = x on the left, u = 1 - x on the right
    ends = [
        _tanh_sinh(lambda u: (1.0 - u) ** b * kernel(u), grid[1], a,
                   0.1 * cfg.rel_tol),
        _tanh_sinh(lambda u: (1.0 - u) ** a * kernel(1.0 - u),
                   1.0 - grid[-2], b, 0.1 * cfg.rel_tol),
    ]

    def integrand(x):
        return x**a * (1.0 - x) ** b * kernel(x)

    # a rough pass over the interior gives the scale for the tolerance
    lo, hi = grid[1:-2], grid[2:-1]
    val, err = _gk15(integrand, lo, hi)
    scale = max(sum(abs(v) for v, _ in ends) + float(np.abs(val).sum()),
                1e-300)
    abs_tol = cfg.rel_tol * scale / max(1, lo.size)
    val, err = _gk_adaptive(integrand, lo, hi, val, err, abs_tol,
                            _MAX_PANELS)

    value = math.fsum([v for v, _ in ends] + val.tolist())
    err_est = sum(e for _, e in ends) + float(err.sum())
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


def _tstar(k: int, x: float) -> float:
    # stable for x in [0, 1]: T_k*(x) = cos(k arccos(2x - 1))
    return math.cos(k * math.acos(min(1.0, max(-1.0, 2.0 * x - 1.0))))


def _moment_xdomain(spec, k, cfg):
    return reference_integral(spec, cfg, f=lambda x: _tstar(k, x))


def _moment_theta(spec, ks, cfg):
    """theta-form batch: M(k) = 2 (-1)^k int_0^{pi/2} W cos(2k theta) dtheta
    with W = sin^(2a+1) cos^(2b+1) J_nu(w sin^2 theta).  All requested k
    share one panel grid and one set of W evaluations.

    Each end panel refines its tanh-sinh levels until, for every k, the
    change of the panel's total is at most 0.1 rel_tol times the level's
    mass h * sum |weight * psi|, accumulated over the levels like the
    totals.  The mass, unlike a total that nearly cancels, stays above
    rounding noise.
    """
    a, b, nu, w = spec.alpha, spec.beta, spec.nu, spec.omega
    ks = np.asarray(ks)
    q = max(int(ks.max()), int(math.ceil(w / 2.0)), 8)
    # zeros of cos(2 q theta); tanh-sinh ends cover the first/last few
    # half-periods so every interior panel sees a smooth W
    zeros = (2 * np.arange(q) + 1) * math.pi / (4.0 * q)
    n_end = min(4, (q - 1) // 2)
    inner = zeros[n_end - 1: q - n_end + 1]

    # u is the distance from the end.  Left: theta = u, sin theta = sin u.
    # Right: theta = pi/2 - u, sin theta = cos u, and cos(2k theta) =
    # (-1)^k cos(2k u).  np.sinc keeps sin(u)/u -> 1 where deep nodes
    # underflow u to 0.
    sides = ((inner[0], 2 * a + 1, 2 * b + 1, np.sin, 1.0),
             (0.5 * math.pi - inner[-1], 2 * b + 1, 2 * a + 1, np.cos,
              np.where(ks % 2 == 0, 1.0, -1.0)))
    end_totals, end_errs = [], []
    for length, g_end, g_far, sin_theta, sign in sides:
        totals = prev = np.zeros(ks.size)
        mass = 0.0
        for level, (h, u, weight) in enumerate(_ts_levels(length, g_end)):
            wv = weight * (np.sinc(u / math.pi) ** g_end * np.cos(u) ** g_far
                           * jv(nu, w * sin_theta(u) ** 2))
            part = np.empty(ks.size)
            for sl, c in _cos_blocks(ks, u):
                part[sl] = c @ wv
            scale = 0.5 if level else 0.0
            totals = scale * totals + h * part
            mass = scale * mass + h * float(np.abs(wv).sum())
            if level >= 2:
                err = np.abs(totals - prev)
                if level >= 3 and np.all(err <= 0.1 * cfg.rel_tol * mass):
                    break
            prev = totals
        end_totals.append(sign * totals)
        end_errs.append(err)

    # interior half-period panels, one K15 evaluation of W per panel
    half, thetas = _gk_nodes(inner[:-1], inner[1:])
    s = np.sin(thetas)
    wvals = s ** (2 * a + 1) * np.cos(thetas) ** (2 * b + 1) * jv(nu, w * s * s)
    wk = half[:, None] * wvals * _GK_WK
    wd = half[:, None] * wvals * (_GK_WK - _GK_WGAUSS)
    left, right = end_totals
    out = {}
    for sl, c in _cos_blocks(ks, thetas):
        panels = np.einsum("kpj,pj->kp", c, wk)
        errs = (end_errs[0][sl] + end_errs[1][sl]
                + np.abs(np.einsum("kpj,pj->kp", c, wd)).sum(axis=1))
        for k, l, r, row, e in zip(ks[sl].tolist(), left[sl], right[sl],
                                   panels, errs):
            total = math.fsum([l, r, *row.tolist()])
            out[k] = ((2.0 if k % 2 == 0 else -2.0) * total, 2.0 * e)
    return out


def reference_moment(spec: ProblemSpec, k: int, cfg: OracleConfig | None = None,
                     force: str | None = None):
    """(value, err_est) for the k-th modified moment of the weight/kernel.

    Low k integrates in x with the polynomial under the oscillation-aligned
    panels; higher k switches to the theta form whose panels track
    cos(2 k theta) directly.  ``force`` pins the path for cross-checks.
    """
    if k < 0:
        raise DomainError("k must be nonnegative")
    cfg = cfg or OracleConfig()
    path = force or ("x" if k <= 2.0 * spec.omega / math.pi else "theta")
    if path == "x":
        return _moment_xdomain(spec, k, cfg)
    return _moment_theta(spec, [k], cfg)[k]


def reference_moments(spec: ProblemSpec, ks, cfg: OracleConfig | None = None):
    """Batch of modified moments sharing one set of kernel evaluations."""
    cfg = cfg or OracleConfig()
    ks = sorted(set(int(k) for k in ks))
    if any(k < 0 for k in ks):
        raise DomainError("moment indices must be nonnegative")
    return _moment_theta(spec, ks, cfg)
