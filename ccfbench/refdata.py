"""High-precision modified moments that a float64 quadrature cannot certify.

M(k) = int_0^1 x^a (1-x)^b T_k*(x) J_nu(w x) dx is evaluated in its theta
form, M(k) = 2 (-1)^k int_0^{pi/2} W(theta) cos(2 k theta) d(theta) with
W = sin^(2a+1) cos^(2b+1) J_nu(w sin^2 theta), entirely in mpmath:
Gauss-Legendre panels no wider than a half-period of either oscillation,
and tanh-sinh (mpmath.quad) on the two end panels, which carry the
algebraic singularities, after a change of variable that absorbs them.  Each value is computed with 12- and 24-point
panels and the difference is stored as its error estimate.  Nothing here
imports oscbessel.

Regenerate the stored file with

    python3 ccfbench/refdata.py

which takes a few minutes on one core and rewrites ccfbench/refdata.json.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "refdata.json")
DPS = 40

#: (alpha, beta, nu, omega, [k, ...]) whose moments the benchmark checks.
CASES = [
    # last entry of each cold-integral table
    (0.2, 0.4, 0.0, 20.0, [256]),
    (0.2, 0.4, 2.5, 200.0, [1024]),
    (0.2, 0.4, 0.0, 200.0, [4096]),
    (0.2, 0.4, 0.0, 1000.0, [256]),
    (-0.5, -0.5, 1.0, 200.0, [256]),
    (-0.8, -0.9, 2.5, 200.0, [256]),
    # oracle-certify blocks and single moments
    (0.2, 0.4, 0.0, 1000.0, list(range(500, 508))),
    (0.2, 0.4, 0.0, 200.0, list(range(464, 472))),
    (0.2, 0.4, 0.0, 20.0, [180]),
]


def key(a, b, nu, w, k) -> str:
    return f"{a!r},{b!r},{nu!r},{w!r},{k}"


def theta_moments(a, b, nu, w, ks, dps=DPS):
    """{k: (value, err_est)} for the moments M(k), k in ks."""
    with mp.workdps(dps):
        a, b, nu, w = (mp.mpf(v) for v in (a, b, nu, w))
        q = max(max(ks), int(mp.ceil(w)), 8)
        h = mp.pi / (2 * q)

        def W(t):
            s, c = mp.sin(t), mp.cos(t)
            return s ** (2 * a + 1) * c ** (2 * b + 1) * mp.besselj(nu, w * s * s)

        sums = {}
        for deg in (3, 4):          # 12 and 24 nodes per panel
            rule = GaussLegendre(mp.mp).calc_nodes(deg, mp.mp.prec)
            acc = {k: mp.mpf(0) for k in ks}
            for i in range(1, q - 1):
                mid = (i + mp.mpf(0.5)) * h
                for x, wt in rule:
                    t = mid + x * h / 2
                    wv = wt * W(t) * h / 2
                    for k in ks:
                        acc[k] += wv * mp.cos(2 * k * t)
            sums[deg] = acc

        def sinc(u):
            return mp.sin(u) / u if u else mp.mpf(1)

        # End panels: W = u^g G(u) with u the distance to the end, G smooth;
        # u = h v^(1/(g+1)) turns u^g du into a constant times dv.
        ends_G = (
            (2 * a + 1, lambda u: sinc(u) ** (2 * a + 1) * mp.cos(u) ** (2 * b + 1)
             * mp.besselj(nu, w * mp.sin(u) ** 2)),
            (2 * b + 1, lambda u: sinc(u) ** (2 * b + 1) * mp.cos(u) ** (2 * a + 1)
             * mp.besselj(nu, w * mp.cos(u) ** 2)),
        )

        def end_panel(g, G, k):
            p = 1 / (g + 1)
            v, e = mp.quad(lambda v: G(h * v ** p) * mp.cos(2 * k * h * v ** p),
                           [0, 1], error=True)
            return h ** (g + 1) / (g + 1) * v, h ** (g + 1) / (g + 1) * e

        out = {}
        for k in ks:
            (left, el), (right, er) = (end_panel(*G, k) for G in ends_G)
            # cos(2k(pi/2 - u)) = (-1)^k cos(2ku) on the right end
            sign = 2 if k % 2 == 0 else -2
            val = sign * (sums[4][k] + left + (-1) ** k * right)
            err = 2 * (abs(sums[4][k] - sums[3][k]) + el + er)
            out[k] = (val, err)
        return out


def main() -> int:
    data = {"command": "python3 ccfbench/refdata.py", "dps": DPS,
            "moments": {}}
    for a, b, nu, w, ks in CASES:
        vals = theta_moments(a, b, nu, w, ks)
        for k in ks:
            v, e = vals[k]
            data["moments"][key(a, b, nu, w, k)] = {
                "value": mp.nstr(v, 30), "err_est": float(e)}
            print(key(a, b, nu, w, k), mp.nstr(v, 20),
                  f"rel err_est {float(e / abs(v)):.1e}", flush=True)
    with open(PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
