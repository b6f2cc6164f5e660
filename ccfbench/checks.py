"""Independent checks for the benchmark's outputs.

Nothing here imports oscbessel: each reference comes from mpmath, scipy or
the method's own published properties, written out again.

* closed_form_integrals / closed_form_moments: the Gamma prefactor times
  mpmath.hyp2f3 for int_0^1 x^(a+j) (1-x)^b J_nu(w x) dx, and through the
  power basis of T_k* the low moments M(0..7) and polynomial integrals.
* qaws_integral: scipy's QUADPACK QAWS rule (quad with weight='alg') on
  pieces split at the integrand's kinks, with scipy.special.jv.
* recurrence_residuals: the nine-term moment recurrence (offsets +-3
  absent), written out again from the paper.
* kink_bound: the inverse-power-of-N error bound of CCF for integrands
  with a kink |x-c|^p or an endpoint cap (1-x^2)^q.
* stored_moment: high-k moments from ccfbench/refdata.json (mpmath
  theta-form quadrature, see refdata.py).
"""

from __future__ import annotations

import json
import os
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import integrate, special

REFDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "refdata.json")


# ---------------------------------------------------------------------------
# Closed forms through mpmath.hyp2f3
# ---------------------------------------------------------------------------

def _power_integral(a, b, nu, w):
    """int_0^1 x^a (1-x)^b J_nu(w x) dx at the enclosing mp precision."""
    pref = (mp.gamma(b + 1) * mp.gamma(a + nu + 1) * (w / 2) ** nu
            / (mp.gamma(nu + 1) * mp.gamma(a + b + nu + 2)))
    return pref * mp.hyp2f3((a + nu + 1) / 2, (a + nu + 2) / 2, nu + 1,
                            (a + b + nu + 2) / 2, (a + b + nu + 3) / 2,
                            -w * w / 4)


@lru_cache(maxsize=64)
def closed_form_integrals(a, b, nu, w, count, dps=40):
    """[int x^(a+j) (1-x)^b J_nu(w x) dx for j < count] as mpf values."""
    with mp.workdps(dps):
        am, bm, nm, wm = (mp.mpf(v) for v in (a, b, nu, w))
        return tuple(_power_integral(am + j, bm, nm, wm)
                     for j in range(count))


def shifted_chebyshev_power(k):
    """Integer coefficients c_j of T_k*(x) = T_k(2x - 1) = sum_j c_j x^j."""
    prev, cur = [1], [-1, 2]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] * (len(cur) + 1)
        for j, c in enumerate(cur):      # 2 (2x - 1) T_k*
            nxt[j] -= 2 * c
            nxt[j + 1] += 4 * c
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return cur


def closed_form_moments(a, b, nu, w, kmax):
    """M(0..kmax) as floats.  The power-basis coefficients of T_k* grow
    like 4^k and alternate, which 40 digits absorb for the k <= 7 used."""
    ints = closed_form_integrals(a, b, nu, w, kmax + 1)
    with mp.workdps(40):
        return [float(mp.fsum(c * ints[j] for j, c in
                              enumerate(shifted_chebyshev_power(k))))
                for k in range(kmax + 1)]


def poly_integral(coeffs, a, b, nu, w):
    """int_0^1 x^a (1-x)^b (sum_j coeffs[j] x^j) J_nu(w x) dx and the scale
    sum_j |coeffs[j] I_j| that bounds its rounding."""
    ints = closed_form_integrals(a, b, nu, w, len(coeffs))
    with mp.workdps(40):
        terms = [mp.mpf(c) * ints[j] for j, c in enumerate(coeffs)]
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


# ---------------------------------------------------------------------------
# QUADPACK QAWS
# ---------------------------------------------------------------------------

def qaws_integral(g, a, b, nu, w, kinks=(), cap=0.0):
    """(value, abserr) of int_0^1 x^a (1-x)^(b+cap) g(x) J_nu(w x) dx.

    g must be smooth on each piece between kinks; a factor (1-x)^cap of the
    integrand is moved into the algebraic weight so that QAWS treats it.
    """
    edges = [0.0] + sorted(float(c) for c in kinks) + [1.0]
    total = 0.0
    err = 0.0
    last = len(edges) - 2
    opts = dict(limit=4000, epsabs=1e-16, epsrel=1e-13)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        wa = a if i == 0 else 0.0
        wb = b + cap if i == last else 0.0

        def h(x, i=i):
            v = g(x) * special.jv(nu, w * x)
            if i != 0:
                v *= x ** a
            if i != last:
                v *= (1.0 - x) ** (b + cap)
            return v

        with warnings.catch_warnings():
            # QUADPACK's roundoff warning: abserr, which the callers add
            # to their tolerance, already says how far to trust v.
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            v, e = integrate.quad(h, lo, hi, weight="alg", wvar=(wa, wb),
                                  **opts)
        total += v
        err += e
    return total, err


# ---------------------------------------------------------------------------
# The nine-term recurrence
# ---------------------------------------------------------------------------

def recurrence_residuals(values, a, b, nu, w):
    """|sum_d c_d(k) M(k+d)| / max_d |c_d(k) M(k+d)| for k = 4..N-4.

    The paper's recurrence for the modified moments ties M(k-4)..M(k+4);
    with s = a + b + 3 its coefficients are
      c(+-4) = w^2/16,
      c(+-2) = (s +- k)^2 - nu^2 - w^2/4,
      c(+-1) = 4 nu^2 + 4 + 4(b^2 - a^2) - 8a + 12b +- 2k (1 + 2(b - a)),
      c(0)   = 6(a^2 + b^2) - 4ab + 4a + 12b + 6 - 6 nu^2 + 3 w^2/8 - 2k^2.
    """
    M = np.asarray(values, dtype=float)
    k = np.arange(4, len(M) - 4, dtype=float)
    ki = k.astype(int)
    s = a + b + 3.0
    one = 4.0 * nu * nu + 4.0 + 4.0 * (b * b - a * a) - 8.0 * a + 12.0 * b
    coeff = {
        4: np.full_like(k, w * w / 16.0),
        -4: np.full_like(k, w * w / 16.0),
        2: (s + k) ** 2 - nu * nu - w * w / 4.0,
        -2: (s - k) ** 2 - nu * nu - w * w / 4.0,
        1: one + 2.0 * k * (1.0 + 2.0 * (b - a)),
        -1: one - 2.0 * k * (1.0 + 2.0 * (b - a)),
        0: (6.0 * (a * a + b * b) - 4.0 * a * b + 4.0 * a + 12.0 * b + 6.0
            - 6.0 * nu * nu + 3.0 * w * w / 8.0 - 2.0 * k * k),
    }
    terms = np.array([c * M[ki + d] for d, c in coeff.items()])
    scale = np.abs(terms).max(axis=0)
    return np.abs(terms.sum(axis=0)) / np.where(scale > 0, scale, 1.0)


# ---------------------------------------------------------------------------
# Error bounds of the method
# ---------------------------------------------------------------------------

def kink_bound(N, p, scale):
    """Bound on |Q_N[f] - I[f]| when f has a kink |x-c|^p or a cap
    (1-x^2)^p: the Chebyshev coefficients of f decay like k^-(p+1) and the
    paper's estimate gives an error O(N^-(p+1)); ``scale`` carries the
    constant, which depends on f and the kernel but not on N."""
    return scale * float(N) ** -(p + 1.0)


# ---------------------------------------------------------------------------
# Stored high-precision moments
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _stored():
    with open(REFDATA) as fh:
        return json.load(fh)["moments"]


def stored_moment(a, b, nu, w, k):
    """High-precision M(k) from refdata.json, as a float."""
    entry = _stored()[f"{a!r},{b!r},{nu!r},{w!r},{k}"]
    return float(mp.mpf(entry["value"]))

