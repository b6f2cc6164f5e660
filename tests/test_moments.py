import ast
import dataclasses
import math
import os
import pathlib
import platform
import subprocess
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbessel import ccf_integrate, criteria, moments
from oscbessel.errors import (AccuracyError, ConvergenceError, DomainError,
                              SingularSystemError)
from oscbessel.moments import (_END_TERMS, _MAX_PUSH, _OFFSETS,
                               _SHIFTED_CHEB, MomentTable, _endpoint_jets,
                               _row_coefficients, _starting_mpf,
                               _strip_bound, end_moment_asymptotic,
                               moment_table, power_moment,
                               recurrence_residual)
from oscbessel.oracle import (OracleConfig, reference_moment,
                              reference_moments)
from oscbessel.problem import ProblemSpec

CFG = OracleConfig(rel_tol=1e-13)


def shifted_cheb(k):
    """Integer coefficients c_j of T_k*(x) = sum_j c_j x^(k-j), from numpy."""
    t = np.polynomial.Chebyshev.basis(k, domain=[0, 1])
    power = t.convert(kind=np.polynomial.Polynomial)
    return [int(c) for c in power.coef[::-1]]


def oracle_vals(spec, ks):
    table = reference_moments(spec, list(ks), CFG)
    return {k: table[k][0] for k in ks}, {k: table[k][1] for k in ks}


def meets_criterion_04(spec, N, ks):
    ok, detail = criteria.moment_grid([spec], N, ks, CFG)
    assert ok, detail


def power_moment_600(a, b, nu, w):
    """The closed form of power_moment, every step at 600 bits."""
    with mp.workprec(600):
        a, b, nu, w = (mp.mpf(v) for v in (a, b, nu, w))
        pref = (mp.gamma(b + 1) * mp.gamma(a + nu + 1) * (w / 2) ** nu
                / (mp.gamma(nu + 1) * mp.gamma(a + b + nu + 2)))
        return pref * mp.hyp2f3((a + nu + 1) / 2, (a + nu + 2) / 2, nu + 1,
                                (a + b + nu + 2) / 2, (a + b + nu + 3) / 2,
                                -w * w / 4)


def series_closed_form(a, b, nu, w):
    """I(a) from the 2F3's defining series summed term by term in mpf (each
    exact rational ratio applied as one multiply and one divide).  Each
    pass sums at twice 256 bits past the cancellation measured so far, log2
    of the largest term over the sum, until a pass covers the cancellation
    it measures by 256 bits.  K is formed at 320 bits."""
    a, b, nu, w = (Fraction(v) for v in (a, b, nu, w))
    A, C, z = a + nu + 1, a + b + nu + 2, -w * w / 4
    ratios, prec, cancel = [], 0, 192
    while prec < cancel + 256:
        prec = 2 * (cancel + 256)
        with mp.workprec(prec):
            term, total, big, p = mp.mpf(1), mp.mpf(0), mp.mpf(1), 0
            limit = mp.ldexp(big, -prec)
            while abs(term) > limit:
                total += term
                if abs(term) > big:
                    big = abs(term)
                    limit = mp.ldexp(big, -prec)
                if p == len(ratios):
                    r = z * (A + 2 * p) * (A + 2 * p + 1) / (
                        (p + 1) * (nu + 1 + p) * (C + 2 * p) * (C + 2 * p + 1))
                    ratios.append((r.numerator, r.denominator))
                num, den = ratios[p]
                term = term * num / den
                p += 1
            cancel = max(cancel, mp.mag(big) - mp.mag(total))
    with mp.workprec(320):
        am, bm, nm, wm = (mp.mpf(v.numerator) / v.denominator
                          for v in (a, b, nu, w))
        return (mp.gamma(bm + 1) * mp.gamma(am + nm + 1) * (wm / 2) ** nm
                * total / (mp.gamma(nm + 1) * mp.gamma(am + bm + nm + 2)))


def refuse_2f3(*args, **kwargs):
    raise AssertionError("mpmath's 2F3 evaluated")


#: M(0)..M(5) to 60 digits on six kernels, as the adaptive-precision
#: summation of the 2F3 series (up to 4096 bits) gave them.
SERIES_STARTS = {
    (0.2, 0.4, 0.0, 20.0): (
        "0.020619182387610407183296600130146754951961058771752639561656",
        "-0.0221675684167559801781330448756331579372168383860869203895271",
        "0.0233240415735638509343705530256755224521876593043065622668067",
        "-0.0196225126110913171835781727666111327369499708495853832486625",
        "0.021010765073368561153533268031466842583277866172228857494435",
        "0.00356054622476110615233009302850826314586611792585521688541766",
    ),
    (0.2, 0.4, 2.5, 200.0): (
        "0.00207764871477143599751819054030748995319210446737079442241518",
        "-0.00203249542368439263373933662993588430142006873942207078464418",
        "0.00187681299263412610721008879977389096092252152131649584602249",
        "-0.00163211750769461501644697380712930399656732785113141467629698",
        "0.00130623379449708508789179633399376329266818349213198704602323",
        "-0.000894648095802330117836887935084489999382340341229798659085567",
    ),
    (0.2, 0.4, 0.0, 200.0): (
        "0.00131858018999485297141918853949369235913511952472175327344672",
        "-0.0013594345989552366567180603898585919265709607220140735413695",
        "0.00133090177503169792893383205248233115063753399065603533248877",
        "-0.00138774116812949479873779819019193139274374366313394627784627",
        "0.00136185214227423181329710810168542871155254727180094992350226",
        "-0.00143138681300837055729284551244176752547232783420364482966047",
    ),
    (0.2, 0.4, 0.0, 1000.0): (
        "0.000193133339178520601777399630598697283434264579535505863161733",
        "-0.000194437433266553269955924912270348923723642739977895177565673",
        "0.000193555535077021566526757613335256480016108399079895082942035",
        "-0.000195215532779041321591346551790163351492834711620682722022388",
        "0.000194786597135987100151071798462024968057250652767324611218416",
        "-0.000196699541254892280441891317989789140916708825733468206499595",
    ),
    (-0.5, -0.5, 1.0, 200.0): (
        "0.0643421568373146240121956572358872624045643500270704834585907",
        "-0.0705143120369442396540386511545949862960953878437846909633255",
        "0.0612651640983567696777228899335415138553100273888549437225793",
        "-0.064892500135920141834582980342685867669396506424256336378222",
        "0.0522071126216586222746756481100381110729167935921992664205404",
        "-0.0539658621080096683700821231648304920597884750534297665361332",
    ),
    (-0.8, -0.9, 2.5, 200.0): (
        "0.462273543242865213504549375970943477614322695859276728598398",
        "0.131944722948481932133943872915279299000154114453283104817323",
        "0.445113654497236490926782354807534707538148930568374272049719",
        "0.16361253514684522408712283542762297189228421133099028968265",
        "0.396780253366873611623098162490322787532645412338109850247789",
        "0.220371363960659640796221852340301209020562475079111742858456",
    ),
}


#: M(k) at k = 6, k_switch, k_switch + 1, N/2 and N from the 192-bit
#: pipeline that the float64 solve replaced (forward recursion and Oliver's
#: banded elimination in mpf, end moments from the 12-term expansion), as
#: 25-digit strings, on the cold-integral kernels and two warm ones.
#: Entries marked refdata are the 40-digit theta-form values of
#: ccfbench/refdata.json, which the pipeline's missed by 1.3e-16 and
#: 2.1e-15; the one marked trapezoid is CHEBYSHEV_MOMENTS' rule at j = 256,
#: where the pipeline's -1.9e-54 was noise.
PINNED_192_BIT = {
    ((0.2, 0.4, 0.0, 20.0), 256): {
        6: "-1.712765701425274925415005e-2",
        10: "5.520343497835602519588058e-2",
        11: "-4.105607491966874167811945e-3",
        128: "-3.368968635831783805466866e-6",
        256: "-6.36806920104617881361268328447e-7",           # refdata
    },
    ((0.2, 0.4, 2.5, 200.0), 1024): {
        6: "4.595818056201563315774853e-4",
        100: "2.858119140070058882889856e-3",
        101: "-6.108160980441196027738643e-3",
        512: "-1.883485382168757801833754e-10",
        1024: "-2.70686954160351374056017540613e-11",          # refdata
    },
    ((0.2, 0.4, 0.0, 200.0), 4096): {
        6: "1.393101359157788773378105e-3",
        100: "3.033934596407456413953827e-3",
        101: "5.98910865389690735476844e-3",
        2048: "-4.299131981706024930507332e-9",
        4096: "-8.145891411326382715491381e-10",
    },
    ((0.2, 0.4, 0.0, 1000.0), 256): {
        6: "1.967194290677578176209926e-4",
        128: "-4.837227895952688246380538e-4",
        256: "-4.830894260724624830049985e-4",
    },
    ((-0.5, -0.5, 1.0, 200.0), 256): {
        6: "3.771248970352460538863863e-2",
        100: "-2.265683199281979146211165e-2",
        101: "7.184990479212746504505564e-3",
        128: "-8.374009428688539722491096e-9",
        256: "-5.1538919728872029528891995894612606e-78",      # trapezoid
    },
    ((-0.8, -0.9, 2.5, 200.0), 256): {
        6: "3.262082568767799492454682e-1",
        100: "1.634536926287629044723469e-1",
        101: "1.189969760062168129524449e-1",
        128: "1.40668406210357624083903e-1",
        256: "1.22499166665127838486798e-1",
    },
    ((-0.5, 0.3, 1.0, 100.0), 4096): {
        6: "2.648680913051899825955163e-2",
        50: "1.689414750678401469460117e-2",
        51: "-1.56478677556403757168196e-2",
        2048: "5.255791458932780821792679e-11",
        4096: "8.668919675749450344196067e-12",
    },
    ((0.6, -0.4, 2.5, 50.0), 4096): {
        6: "1.092255685136020987126545e-3",
        25: "-3.220375900941345156347676e-2",
        26: "-5.141956196533405663731013e-3",
        2048: "-6.046675393267627153045209e-7",
        4096: "-2.632042568025363223337788e-7",
    },
}


#: M(j) from the theta form in mpmath, independent of the endpoint expansion
#: and of the oracle: ccfbench/refdata.py's 40-digit quadrature, run as
#:     import sys; sys.path.insert(0, "ccfbench")
#:     from refdata import theta_moments
#:     print(theta_moments(0.2, 0.4, 2.5, 200.0, [401]))
#: and likewise for the others; its error estimates are below 1e-30.
THETA_FORM_END_MOMENTS = {
    ((0.2, 0.4, 0.5, 1e3), 2001):
        "-5.1757551523309214631523268292187895e-11",
    ((0.2, 0.4, 2.5, 200.0), 401):
        "-3.7309307349021862010885408201225435e-10",
    ((-0.5, 0.4, 0.0, 200.0), 401):
        "1.1673807758608267529062601587606886e-10",
    # at 50 digits: the oracle's double quadrature reads 6.4e-19 +- 3.3e-15
    ((3.2, 1.5, 0.0, 200.0), 513):
        "-9.3874478609814884067108063277686133e-22",
}

#: M(j) of (-0.5, -0.5, 1, 200), whose W = J_1(200 sin^2 theta) is entire
#: and pi-periodic: the trapezoid rule on P = 4096 points of the period,
#: at 220 digits, which agrees with P = 2048 to 1e-221,
#:     F = [mp.besselj(1, 100 * (1 - mp.cos(2 * mp.pi * m / P)))
#:          for m in range(P // 2 + 1)]
#:     M(j) = (-1)^j pi / P * (F[0] + (-1)^j F[P/2]
#:            + 2 sum_{m=1}^{P/2-1} F[m] cos(2 pi j m / P))
CHEBYSHEV_MOMENTS = {
    150: "4.3163318690804758484287991709910363e-17",
    200: "-2.5844279118423632411909247537955972e-42",
    250: "6.9549000779001357135648274435370851e-74",
    300: "-3.2729964462142631873985952119556649e-110",
    350: "2.2081528437138805045607383601515084e-150",
    401: "1.4155034057645544912083989805423348e-194",
}


def mp_coefficients(spec, k):
    """The recurrence coefficients at 256 bits, from their literal formulas."""
    with mp.workprec(256):
        a, b, n, w = (mp.mpf(v)
                      for v in (spec.alpha, spec.beta, spec.nu, spec.omega))
        k = mp.mpf(k)
        return {
            4: w * w / 16, -4: w * w / 16,
            2: (a + b + k + 3) ** 2 - n * n - w * w / 4,
            -2: (a + b - k + 3) ** 2 - n * n - w * w / 4,
            1: (4 * n * n + 2 * k + 4 + 4 * (b * b - a * a) + 4 * k * (b - a)
                - 8 * a + 12 * b),
            -1: (4 * n * n - 2 * k + 4 + 4 * (b * b - a * a)
                 - 4 * k * (b - a) - 8 * a + 12 * b),
            0: (6 * (a * a + b * b) + 4 * a + 12 * b - 4 * a * b
                - 2 * k * k + 6 - 6 * n * n + 3 * w * w / 8),
        }


def refuse_oracle(*args, **kwargs):
    raise AssertionError("end moment fell back to the oracle")


def stalled_end_moment():
    """((value, err_est), floor) of M(201) on (0, -0.5, 0, 100), an end
    moment that moment_table rejects, with the table's absolute floor
    1e-16 max|M(0..5)|."""
    spec = ProblemSpec(0.0, -0.5, 0.0, 100.0)
    floor = 1e-16 * np.abs(moment_table(spec, 5).values).max()
    return end_moment_asymptotic(spec, [201])[201], floor


# The allocating double-double formulas that the in-place kernels of
# moments replaced, kept as their reference: each kernel must give the same
# bits.
def ref_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def ref_split(a):
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def ref_two_prod(a, b):
    p = a * b
    ah, al = ref_split(a)
    bh, bl = ref_split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def ref_dd_add(xh, xl, yh, yl):
    s, e = ref_two_sum(xh, yh)
    t, f = ref_two_sum(xl, yl)
    s, e = ref_two_sum(s, e + t)
    return ref_two_sum(s, e + f)


def ref_row_coefficients(spec, m):
    """c_d(m) as (hi, lo) from three VecSum passes over the eleven pieces."""
    q2, q1, q0 = moments._quadratics(*spec.moment_key())
    m = np.asarray(m, dtype=float)
    pieces = [q2 * p for p in ref_two_prod(m, m)]
    for part in q1:
        pieces += ref_two_prod(part, m)
    pieces += [part + 0.0 * m for part in q0]
    for _ in range(3):
        for i in range(1, len(pieces)):
            pieces[i], pieces[i - 1] = ref_two_sum(pieces[i - 1], pieces[i])
    return ref_two_sum(pieces[-1], sum(pieces[:-1]))


def ref_residual(system, vh, vl):
    """BandedSystem._residual from freshly allocated arrays."""
    (ch, cl), vh, vl = system.coef, vh[system.index], vl[system.index]
    th, tl = ref_two_prod(ch, vh)
    th, tl = ref_two_sum(th, tl + (ch * vl + cl * vh))
    rh, rl = -th[0], -tl[0]
    for d in range(1, len(_OFFSETS)):
        rh, rl = ref_dd_add(rh, rl, -th[d], -tl[d])
    return rh, np.abs(th).max(axis=0)


def bits(*arrays):
    """The arrays' IEEE bit patterns, signs of zeros and NaNs included."""
    return [np.asarray(a, dtype=float).view(np.uint64) for a in arrays]


def awkward_doubles(rng, n):
    """n doubles over the whole exponent range, a third of them +-0,
    subnormals, +-1e300 or +-1."""
    x = rng.standard_normal(n) * 2.0 ** rng.integers(-1070, 1000, n)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320,
                        1e300, -1e300, 1.0, -1.0])
    pick = rng.random(n) < 1 / 3
    x[pick] = rng.choice(special, int(pick.sum()))
    return x


def coefficient_rows(w):
    """Row indices m to 2e5, with the rows where c_0 and c_+-2 nearly
    vanish at this omega."""
    near = np.rint(w * np.array([0.25, math.sqrt(3.0) / 4.0, 0.5]))
    m = np.unique(np.concatenate([
        np.arange(300), np.arange(0, 200001, 997),
        (near[:, None] + np.arange(-40, 41)).ravel()]))
    return m[(m >= 0) & (m <= 2e5)].astype(int)


ROW_KERNELS = [(0.2, 0.4, 2.5, 200.0), (0.6, -0.4, 2.5, 1e4),
               (-0.8, -0.9, 7.0, 1e5)]


class TestRowCoefficients:
    @pytest.mark.parametrize("kernel", ROW_KERNELS)
    def test_exact_to_double_double(self, kernel):
        # Non-dyadic parameters: a constant such as 12 b or 3 w^2/8 rounded
        # to double would show at 1e-17 relative or worse.  The m sample
        # includes the rows where c_0 and c_+-2 nearly vanish.
        spec = ProblemSpec(*kernel)
        m = coefficient_rows(spec.omega)
        hi, lo = _row_coefficients(spec, m)
        with mp.workprec(256):
            for j, mj in enumerate(m.tolist()):
                want = mp_coefficients(spec, mj)
                for i, d in enumerate(_OFFSETS):
                    got = mp.mpf(hi[i, j]) + mp.mpf(lo[i, j])
                    assert abs(got - want[d]) <= 1e-30 * abs(want[d]), (mj, d)

    def test_two_passes_give_the_bits_of_three(self):
        # SumK with K = 3: a third VecSum pass moves no bit of hi, of lo or
        # of lo's sign, on the kernels above and on 50 random ones.
        rng = np.random.default_rng(11)
        kernels = [*ROW_KERNELS, *(
            (*rng.uniform(-0.95, 3.5, 2), rng.uniform(0.0, 20.0),
             10.0 ** rng.uniform(-2.0, 5.0)) for _ in range(50))]
        for kernel in kernels:
            spec = ProblemSpec(*map(float, kernel))
            m = coefficient_rows(spec.omega)
            got = bits(*_row_coefficients(spec, m))
            want = bits(*ref_row_coefficients(spec, m))
            assert all(map(np.array_equal, got, want)), kernel

    def test_in_place_helpers_give_the_bits_of_the_formulas(self):
        rng = np.random.default_rng(5)
        n = 4000
        a, b, c, d = (awkward_doubles(rng, n) for _ in range(4))
        w = np.empty((9, n))
        with np.errstate(all="ignore"):
            moments._two_sum(a, b, w[0], w[1], w[2])
            assert all(map(np.array_equal, bits(w[0], w[1]),
                           bits(*ref_two_sum(a, b))))
            moments._split(a, w[0], w[1])
            moments._split(b, w[2], w[3])
            assert all(map(np.array_equal, bits(*w[:4]),
                           bits(*ref_split(a), *ref_split(b))))
            moments._two_prod(a, b, w[:2], w[2:4], w[4], w[5], w[6])
            assert all(map(np.array_equal, bits(w[4], w[5]),
                           bits(*ref_two_prod(a, b))))
            xh, xl = a.copy(), b.copy()
            moments._dd_add(xh, xl, c, d, w[:5])
            assert all(map(np.array_equal, bits(xh, xl),
                           bits(*ref_dd_add(a, b, c, d))))

    def test_residual_gives_the_bits_of_the_formulas(self):
        # The in-place residual against the allocating one on random
        # values, and the first residual, at zero unknowns: exactly +0 on
        # every row whose stencil reaches no boundary value, and on the
        # others the same bits from a workspace of those rows alone.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        rng = np.random.default_rng(2)
        known = np.zeros((3, 259))
        known[:2, :6] = rng.standard_normal((2, 6)) * [[1.0], [1e-17]]
        known[:2, 257:] = rng.standard_normal((2, 2)) * [[1e-9], [1e-26]]
        system = moments.BandedSystem(spec, 10, known)
        work = moments._workspace(system.coef[0])
        vh, vl = rng.standard_normal((2, 259)) * [[1.0], [1e-17]]
        got = bits(*system._residual(vh, vl, slice(None), work))
        assert all(map(np.array_equal, got,
                       bits(*ref_residual(system, vh, vl))))
        r, _ = system._residual(known[0], known[1], slice(None), work)
        edge = np.flatnonzero(~system.inside.all(axis=0))
        assert 0 < edge.size <= 12
        zero = np.ones(r.size, dtype=bool)
        zero[edge] = False
        assert not bits(r[zero])[0].any()
        edge_work = moments._workspace(system.coef[0][:, edge])
        r_edge, _ = system._residual(known[0], known[1], edge, edge_work)
        assert np.array_equal(*bits(r_edge, r[edge]))


#: (a, b, nu, w) whose first integer pass falls short of _SERIES_BITS, so
#: the pass repeats at a higher working precision; the integer pass runs
#: below _OMEGA_MIN only.
REPEATED_PASS = [(12.0, 12.0, 2.5, 300.0), (12.0, 12.0, 20.0, 500.0)]

#: Either side of the switch from the integer pass to the expansion.
AROUND_OMEGA_MIN = (moments._OMEGA_MIN - 1.0, moments._OMEGA_MIN + 1.0)


class TestPowerMoment:
    def test_against_oracle(self):
        got = float(power_moment(0.0, 0.0, 0.0, 1.0)[0][0])
        ref, _ = reference_moment(ProblemSpec(0.0, 0.0, 0.0, 1.0), 0, CFG)
        assert abs(got - ref) <= 1e-12 * abs(ref)

    def test_small_omega_beta_function(self):
        beta = math.gamma(1.2) * math.gamma(1.4) / math.gamma(2.6)
        for w in (0.0, 1e-3):
            got = float(power_moment(0.2, 0.4, 0.0, w)[0][0])
            assert abs(got - beta) <= 1e-6 * beta, w

    @pytest.mark.parametrize("a, b, nu", [(0.2, 0.4, 0.0),
                                          (-0.8, -0.9, 2.5),
                                          (0.6, -0.4, 7.0)])
    def test_err_est_bounds_error(self, a, b, nu):
        for w in (20.0, 1000.0, 2000.0, 1e4, 1e5):
            value, err_est = power_moment(a, b, nu, w)[0]
            with mp.workprec(600):
                err = abs(value - power_moment_600(a, b, nu, w))
            assert err <= err_est, (w, float(err), err_est)

    @pytest.mark.parametrize("a, b, nu, omegas", [
        *[(*abn, (1e-3, 1.0, 20.0, 200.0, *AROUND_OMEGA_MIN, 1000.0,
                  1447.0, 1449.0, 2000.0, 1e4, 1e5, 1e6, 1e9)) for abn in (
            (0.2, 0.4, 0.0), (-0.8, -0.9, 2.5), (0.6, -0.4, 7.0),
            (-0.5, -0.5, 1.0))],
        # (w/2)^nu overflows a double, and the sum cancels ~460 bits.
        (0.2, 0.4, 150.0, (1000.0,)),
        # a <= -1 < a + nu: B(a+1, b+1), the first pass's cancellation
        # estimate, does not exist (a bare ValueError below the switch).
        *[(*abn, (20.0, *AROUND_OMEGA_MIN, 2000.0, 1e6)) for abn in (
            (-1.0, 0.4, 1.0), (-2.0, 0.4, 1.5), (-1.5, -0.5, 1.0))],
        # Large a and b, on both routes.
        (3.5, 3.5, 0.0, (599.0, 1400.0)), (0.2, 3.5, 0.0, (599.0, 1400.0)),
        (12.0, 12.0, 2.5, (300.0, 500.0, 601.0)),
        (12.0, 12.0, 20.0, (500.0, 1400.0)),
        # b near -1.
        (0.2, -0.99, 0.0, (20.0, *AROUND_OMEGA_MIN, 1e4, 1e6, 1e9))])
    def test_closed_forms_against_600_bits(self, a, b, nu, omegas,
                                           monkeypatch):
        # The four shifted closed forms, from one integer pass below
        # _OMEGA_MIN and from the two-end expansion from there on, are each
        # within their err_est of the 600-bit closed form, and err_est is
        # within 2^-188 of the value.  The integer pass repeats where its
        # first working precision falls short, and does not run where
        # power_moment takes the expansion.
        passes, original = [], moments._alternating_sums

        def counted(wp, *args):
            passes.append(wp)
            return original(wp, *args)
        monkeypatch.setattr(moments, "_alternating_sums", counted)
        for w in omegas:
            passes.clear()
            got = power_moment(a, b, nu, w)
            if (a, b, nu, w) in REPEATED_PASS:
                assert len(passes) > 1, (w, passes)
            above = w * w >= 4 * moments._SERIES_ONLY
            if (w >= moments._OMEGA_MIN
                    and nu * nu <= moments._HANKEL_PEAK[above] * w):
                assert passes == [], w
            with mp.workprec(600):
                for i, (value, err_est) in enumerate(got):
                    err = abs(value - power_moment_600(mp.mpf(a) + i, b, nu,
                                                       w))
                    assert math.isfinite(err_est), (w, i)
                    assert err <= err_est <= 2.0 ** -188 * abs(value), (
                        w, i, float(err), err_est)

    @pytest.mark.parametrize("a, b, nu", [(0.2, 0.4, 0.0), (-0.8, -0.9, 2.5),
                                          (0.6, -0.4, 20.0),
                                          (3.3861, -0.9, 12.0),
                                          (12.0, 12.0, 2.5)])
    def test_expansion_meets_the_integer_pass(self, a, b, nu, monkeypatch):
        # Just above _OMEGA_MIN both routes apply; they agree within the
        # sum of their err_est on all four exponents.
        for w in (moments._OMEGA_MIN + 1.0, 800.0, 1400.0):
            expansion, _ = moments._two_end_sums((a, b, nu, w))
            monkeypatch.setattr(moments, "_OMEGA_MIN", math.inf)
            series = power_moment(a, b, nu, w)
            monkeypatch.undo()
            with mp.workprec(600):
                for i, ((v, rel), (u, err)) in enumerate(zip(expansion,
                                                             series)):
                    assert abs(v - u) <= rel * abs(v) + err, (w, i)

    @pytest.mark.parametrize("a, b, nu", [(0.2, 0.4, 0.0), (-0.8, -0.9, 2.5),
                                          (1.5, 2.0, 7.0), (0.6, -0.4, 20.0),
                                          (0.2, -0.99, 0.0)])
    def test_expansion_terms_do_not_grow_with_omega(self, a, b, nu):
        # Counted work, not wall time: from _OMEGA_MIN to 1e9 the series
        # terms of the four starts never exceed their count at _OMEGA_MIN,
        # which stays under 2,000 for nu <= 20.
        counts = [moments._two_end_sums((a, b, nu, w))[1] for w in (
            moments._OMEGA_MIN, 1e3, 1e4, 1e5, 1e6, 1e9)]
        assert counts[0] < 2000, counts
        assert max(counts) == counts[0], counts

    def test_fallback_where_nu_is_comparable_to_omega(self, monkeypatch):
        # Above |z| = 2^19 with nu^2 > 64 w the expansion is not tried, and
        # the four starts come from the integer pass, as below the switch;
        # where the expansion's terms diverge before they reach their
        # target, _two_end_sums says so.
        with pytest.raises(ConvergenceError, match="diverge"):
            moments._two_end_sums((0.2, 0.4, 300.0, 500.0))
        passes, original = [], moments._alternating_sums

        def counted(wp, *args):
            passes.append(wp)
            return original(wp, *args)
        monkeypatch.setattr(moments, "_alternating_sums", counted)
        monkeypatch.setattr(mp, "hyp2f3", refuse_2f3)
        got = power_moment(0.2, 0.4, 1000.0, 1449.0)
        assert passes
        monkeypatch.undo()
        with mp.workprec(600):
            for i, (value, err_est) in enumerate(got):
                err = abs(value - power_moment_600(mp.mpf(0.2) + i, 0.4,
                                                   1000.0, 1449.0))
                assert err <= err_est, (i, float(err), err_est)

    def test_integer_pass_where_mpmath_2f3_fails(self, monkeypatch):
        # At (0.2, 0.4, 1000, 1e4) mpmath's 2F3 raised ConvergenceError.
        # The integer pass agrees with the defining series summed in mpf,
        # and with the oracle's M(0) within the oracle's err_est.
        a, b, nu, w = 0.2, 0.4, 1000.0, 1e4
        monkeypatch.setattr(mp, "hyp2f3", refuse_2f3)
        value, err_est = power_moment(a, b, nu, w)[0]
        assert abs(value - series_closed_form(a, b, nu, w)) <= err_est
        ref, ref_err = reference_moment(ProblemSpec(a, b, nu, w), 0, CFG)
        assert abs(float(value) - ref) <= ref_err

    @pytest.mark.parametrize("a, b, nu, w", [(10000.0, 0.4, 0.0, 2000.0),
                                             (0.2, 10000.0, 0.0, 2000.0)])
    def test_integer_pass_where_the_expansion_stalls(self, a, b, nu, w,
                                                     monkeypatch):
        # Huge weights make the expansion's terms diverge at x = 0 or at
        # x = 1; the integer pass gives the values mpmath's 2F3 gave.
        with pytest.raises(ConvergenceError, match="diverge"):
            moments._two_end_sums((a, b, nu, w))
        with mp.workprec(600):
            want = [power_moment_600(mp.mpf(a) + i, b, nu, w)
                    for i in range(4)]
        monkeypatch.setattr(mp, "hyp2f3", refuse_2f3)
        for i, (value, err_est) in enumerate(power_moment(a, b, nu, w)):
            with mp.workprec(600):
                assert abs(value - want[i]) <= err_est, i

    def test_integer_pass_refused_past_max_terms(self, monkeypatch):
        # ~1.36 w terms of ~1.44 w bits: at w = 1e6, by that w^2 growth from
        # 3.3 s at 4.3e4, about half an hour.  It is refused before its
        # first term.
        def fail(*args):
            raise AssertionError("series pass started")
        monkeypatch.setattr(moments, "_alternating_sums", fail)
        monkeypatch.setattr(mp, "hyp2f3", refuse_2f3)
        with pytest.raises(ConvergenceError, match="terms"):
            power_moment(0.2, 0.4, 1e4, 1e6)

    def test_expansion_where_mpmath_2f3_errs(self):
        # At (-0.5, 2, 2.5, 2000) mpmath 1.3.0's asymptotic 2F3 misses I(a)
        # by 8.7e-17 relative, at 256 bits and at 600; the expansion agrees
        # with the 2F3's defining series.
        a, b, nu, w = -0.5, 2.0, 2.5, 2000.0
        value, err_est = power_moment(a, b, nu, w)[0]
        assert abs(value - series_closed_form(a, b, nu, w)) <= err_est

    def test_smallest_positive_omega(self):
        # w / 2 underflows to 0 at w = 5e-324, so the integer pass's first
        # precision estimate must not take log(w / 2).
        w = 5e-324
        got = power_moment(0.2, 0.4, 0.0, w)
        with mp.workprec(600):
            for i, (value, err_est) in enumerate(got):
                beta = mp.beta(mp.mpf(0.2) + 1 + i, mp.mpf(0.4) + 1)
                assert abs(value - beta) <= err_est + 1e-300, i
        result = ccf_integrate(ProblemSpec(0.2, 0.4, 0.0, w,
                                           integrand=math.exp), 2)
        assert math.isfinite(result.value)

    def test_err_est_where_the_value_underflows_a_double(self):
        # |I(a)| ~ 6.5e-325 rounds to the double 0, and err_est read 0.0.
        value, err_est = power_moment(0.2, 0.4, 1.0, 5e-324)[0]
        with mp.workprec(600):
            err = abs(value - power_moment_600(0.2, 0.4, 1.0, 5e-324))
        assert value != 0 and 0.0 < err_est and err <= err_est

    @pytest.mark.parametrize("a, b, w", [(0.2, 1e300, 1000.0),
                                         (0.2, 1e300, 20.0),
                                         (1e300, 0.4, 1000.0),
                                         (1e300, 0.4, 20.0)])
    def test_huge_weights_rejected(self, a, b, w):
        # |I| <= B(a+1, b+1) ~ 1e-360, but power_moment returned ~1e899
        # with err_est inf: K's Gamma arguments had lost their offsets.
        with pytest.raises(DomainError, match="2\\^53"):
            power_moment(a, b, 0.0, w)

    def test_huge_weight_table_rejected(self):
        # The table's four closed forms were inf, its err_est NaN.
        with pytest.raises(DomainError, match="2\\^53"):
            moment_table(ProblemSpec(0.2, 1e300, 0.0, 20.0), 3)

    @pytest.mark.parametrize("nu, w", [(20.0, 1e17), (7.0, 1e46),
                                       (2.5, 1e126), (2.0, 1e156)])
    def test_err_est_finite_where_the_prefactor_overflows(self, nu, w):
        # (w/2)^nu overflows a double where the 2F3's err_est underflows
        # to 0, and err_est read inf * 0 = NaN.
        value, err_est = power_moment(0.2, 0.4, nu, w)[0]
        assert math.isfinite(err_est)
        assert err_est >= 2.0 ** -192 * abs(float(value)) > 0.0
        table = moment_table(ProblemSpec(0.2, 0.4, nu, w), 5)
        assert np.all(np.isfinite(table.err_est))

    @pytest.mark.parametrize("params", [
        (math.inf, 0.4, 0.0, 20.0), (math.nan, 0.4, 0.0, 2000.0),
        (0.2, math.inf, 0.0, 20.0), (0.2, math.nan, 0.0, 2000.0),
        (0.2, 0.4, 0.0, math.inf), (0.2, 0.4, 0.0, math.nan)])
    def test_non_finite_input_is_refused_before_any_2f3(self, params,
                                                        monkeypatch):
        # power_moment's own DomainError, not one from inside a 2F3.
        def fail(*args, **kwargs):
            raise AssertionError("2F3 evaluated")
        monkeypatch.setattr(mp, "hyp2f3", fail)
        with pytest.raises(DomainError, match="finite"):
            power_moment(*params)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            power_moment(-1.5, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            power_moment(0.0, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="nu >= 0"):
            power_moment(0.2, 0.4, -0.5, 1.0)
        # (w/2)^nu of a negative w was a complex mpc inside the record.
        with pytest.raises(DomainError, match="omega >= 0"):
            power_moment(0.2, 0.4, 0.5, -20.0)


class TestStartingMoments:
    def test_k0_is_power_moment(self):
        spec = ProblemSpec(0.2, 0.4, 1.0, 30.0)
        start = moment_table(spec, 0).values
        want = float(power_moment(0.2, 0.4, 1.0, 30.0)[0][0])
        assert start[0] == pytest.approx(want, rel=1e-14)

    def test_k1_linear_combination(self):
        spec = ProblemSpec(0.2, 0.4, 1.0, 30.0)
        start = moment_table(spec, 1).values
        want = (2.0 * float(power_moment(1.2, 0.4, 1.0, 30.0)[0][0])
                - float(power_moment(0.2, 0.4, 1.0, 30.0)[0][0]))
        assert start[1] == pytest.approx(want, rel=1e-13)

    def test_against_oracle(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        start = moment_table(spec, 5).values
        refs, _ = oracle_vals(spec, range(6))
        for k in range(6):
            assert abs(start[k] - refs[k]) <= 1e-11 * abs(refs[k]), k

    def test_agree_with_series_summation(self):
        for kernel, want in SERIES_STARTS.items():
            got = _starting_mpf(ProblemSpec(*kernel), 6)
            with mp.workprec(300):
                for k, ((v, _), w) in enumerate(zip(got, want)):
                    w = mp.mpf(w)
                    assert abs(v - w) <= 1e-50 * abs(w), (kernel, k)

    def test_shifted_chebyshev_literal(self):
        assert [list(c) for c in _SHIFTED_CHEB] == [shifted_cheb(k)
                                                   for k in range(4)]

    @pytest.mark.parametrize("a, b, nu", [(0.2, 0.4, 0.0),
                                          (-0.8, -0.9, 2.5),
                                          (0.6, -0.4, 7.0),
                                          (-0.5, -0.5, 1.0)])
    @pytest.mark.parametrize("w", [1e-3, 0.1, 1.0, 20.0, 1e3, 1e5])
    def test_recurrence_seeds_against_600_bits(self, a, b, nu, w):
        # M(4)..M(7) are solved from recurrence rows over M(0)..M(3); the
        # reference is the power basis over eight 600-bit closed forms.
        got = _starting_mpf(ProblemSpec(a, b, nu, w), 8)
        with mp.workprec(600):
            ivals = [power_moment_600(mp.mpf(a) + i, b, nu, w)
                     for i in range(8)]
            for k in range(4, 8):
                want = sum(c * ivals[k - j] for j, c
                           in enumerate(shifted_cheb(k)))
                value, err_est = got[k]
                err = abs(value - want)
                assert err <= err_est, (k, float(err), err_est)
                if k < 6:
                    assert err <= 1e-30 * abs(want), (k, float(err))


class TestForwardMoments:
    def test_oracle_satisfies_recurrence(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
        refs, _ = oracle_vals(spec, range(45))
        table = MomentTable(spec, np.array([refs[k] for k in range(45)]),
                            ("oracle",) * 45, np.zeros(45))
        for m in (10, 40):
            assert recurrence_residual(table, m) <= 1e-8, m

    def test_stable_regime_matches_oracle(self):
        # Forward recursion is reliable while k <= omega/2: at N = 100 and
        # omega = 200 the table is forward rows only.
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
        table = moment_table(spec, 100)
        assert table.method[6:] == ("forward",) * 95
        ks = [20, 50, 80, 100]
        refs, _ = oracle_vals(spec, ks)
        for k in ks:
            assert abs(table.values[k] - refs[k]) <= 1e-8 * abs(refs[k]), k

    def test_deterministic(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
        a, b = moment_table(spec, 100), moment_table(spec, 100)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.err_est, b.err_est)


class TestEndMomentAsymptotic:
    def test_matches_oracle_far_out(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        val, est = end_moment_asymptotic(spec, [400])[400]
        ref, ref_err = reference_moment(spec, 400, CFG)
        assert abs(val - ref) <= est + 3 * ref_err + 1e-11 * abs(ref)
        assert est <= 1e-10 * abs(val)

    def test_decay_ratio(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        ends = end_moment_asymptotic(spec, [400, 800])
        m400, m800 = ends[400][0], ends[800][0]
        ratio = abs(m800 / m400)
        assert abs(ratio - 2.0 ** -2.4) <= 0.15 * 2.0 ** -2.4

    def test_odd_index_parity(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        val, est = end_moment_asymptotic(spec, [401])[401]
        ref, ref_err = reference_moment(spec, 401, CFG)
        assert abs(val - ref) <= est + 3 * ref_err + 1e-11 * abs(ref)

    def test_rejects_small_index(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
        with pytest.raises(DomainError):
            end_moment_asymptotic(spec, [300])  # below 2*omega

    @pytest.mark.parametrize("kernel, j", list(THETA_FORM_END_MOMENTS))
    def test_against_theta_form_in_mpmath(self, kernel, j):
        # (0.2, 0.4, 2.5, 200) and (0.2, 0.4, 0.5, 1e3) stalled while both
        # ends shared one stopping rule; (-0.5, 0.4, 0, 200) and
        # (3.2, 1.5, 0, 200) have one superalgebraic end, which adds the
        # strip bound.
        value, err_est = end_moment_asymptotic(ProblemSpec(*kernel), [j])[j]
        with mp.workdps(40):
            want = mp.mpf(THETA_FORM_END_MOMENTS[kernel, j])
            assert abs(value - want) <= err_est
        assert err_est <= 1e-12 * abs(want)

    def test_strip_bound_covers_superalgebraic_moments(self):
        # Safe and sharp: with DLMF 10.14.4's bound on J_nu the strip term
        # is 4.8 to 5.6 orders above |M(j)| here.
        spec = ProblemSpec(-0.5, -0.5, 1.0, 200.0)
        for j, want in CHEBYSHEV_MOMENTS.items():
            want = abs(mp.mpf(want))
            assert want <= _strip_bound(spec, j) <= 1e6 * want, j
        # Both ends are superalgebraic: the value is 0 and err_est the
        # bound, which only moment_table's absolute floor can accept.
        value, err_est = end_moment_asymptotic(spec, [401])[401]
        assert value == 0.0
        assert abs(mp.mpf(CHEBYSHEV_MOMENTS[401])) <= err_est <= 1e-130
        assert not err_est <= 1e-8 * abs(value)

    def test_overflowing_end_reported_unusable(self):
        # lam = 2102 is far above r = 2j: Gamma(x) r^-x overflowed, met
        # zero jet terms, and both ends read (nan, nan) with numpy
        # RuntimeWarnings.
        spec = ProblemSpec(1000.0, 2.0, 50.0, 1e-145)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends = end_moment_asymptotic(spec, [51, 52])
            table = moment_table(spec, 8)
        assert ends == {51: (0.0, math.inf), 52: (0.0, math.inf)}
        assert np.all(np.isfinite(table.values))
        assert np.all(np.isfinite(table.err_est))

    def test_stall_raises(self):
        # At j ~ 2 omega the left series (lam = 2) grows from its second
        # term to its third before it descends, and the stop rule takes
        # that for divergence: err_est 1.4e-10 on a value of 1.2e-5, which
        # breaks moment_table's rule, so a table there moves k_hi out.
        (value, err_est), floor = stalled_end_moment()
        assert abs(value) == pytest.approx(1.2e-5, rel=0.05)
        assert err_est > 1e-8 * 1.2e-5
        assert not err_est <= max(1e-8 * abs(value), floor)

    @pytest.mark.parametrize("kernel", [
        (0.2, 0.4, 0.0, 20.0), (0.2, 0.4, 2.5, 200.0),
        # lam = 3: the left end is superalgebraic, its jet is not built.
        (-0.5, 0.3, 1.0, 100.0), (0.6, -0.4, 2.5, 1e4),
        # lam = 14.4: the envelope's integer part stays out of the jet.
        (-0.8, -0.9, 7.0, 1e5),
        # At 60 digits mp.taylor is itself off here, by 4e-2 (left) and
        # 2.5e-3 (right) of max|c|.
        (-0.95, 3.4, 19.7, 0.011)])
    def test_endpoint_jets_against_mpmath_taylor(self, kernel):
        # The smooth companions W / theta^(lam-1) at theta = 0 and
        # W / (-u)^(mu-1) at u = theta - pi/2 = 0, differentiated by mpmath
        # at 100 digits.
        spec = ProblemSpec(*kernel)
        (lam, left), (mu, right) = _endpoint_jets(spec)
        assert lam == 2 * spec.alpha + 2 * spec.nu + 2
        assert mu == 2 * spec.beta + 2
        a, b, nu, w = map(mp.mpf, kernel)

        def left_companion(t):
            return (mp.sinc(t) ** (2 * a + 2 * nu + 1)
                    * mp.cos(t) ** (2 * b + 1)
                    * mp.hyp0f1(nu + 1, -w ** 2 * mp.sin(t) ** 4 / 4)
                    / mp.gamma(nu + 1) * (w / 2) ** nu)

        def right_companion(u):
            return (mp.cos(u) ** (2 * a + 1) * mp.sinc(u) ** (2 * b + 1)
                    * mp.besselj(nu, w * mp.cos(u) ** 2))

        for got, companion, exponent in ((left, left_companion, lam),
                                         (right, right_companion, mu)):
            if exponent % 2 == 1:
                assert got is None
                continue
            with mp.workdps(100):
                want = np.array([float(c) for c in
                                 mp.taylor(companion, 0, _END_TERMS)])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(
                np.abs(want)), (kernel, exponent)


@st.composite
def kernels(draw, max_nu=20.0):
    """alpha, beta in (-0.95, 3.5), nu in [0, max_nu], omega on a log grid of
    [0.01, 1e3] with 20 points a decade; some draws snap alpha + nu + 1/2
    or beta + 1/2 to an integer (a superalgebraic end), on a dyadic nu so
    that the sums stay exact.  omega is sampled from the grid, not drawn as
    10 ** float: under derandomize that exponent shrinks onto 0, and most
    examples would sit at omega = 1."""
    a = draw(st.floats(-0.95, 3.5, exclude_min=True, exclude_max=True))
    b = draw(st.floats(-0.95, 3.5, exclude_min=True, exclude_max=True))
    nu = draw(st.floats(0.0, max_nu))
    w = draw(st.sampled_from([10 ** (i / 20) for i in range(-40, 61)]))
    snap = draw(st.sampled_from(("none", "left", "right", "both")))
    if snap in ("left", "both"):
        nu = round(nu * 64.0) / 64.0
        k = round(a + nu + 0.5)
        k += (k - nu - 0.5 <= -0.95) - (k - nu - 0.5 >= 3.5)
        a = k - nu - 0.5
    if snap in ("right", "both"):
        b = min(round(b + 0.5), 3) - 0.5
    return ProblemSpec(a, b, nu, w)


@st.composite
def end_moment_cases(draw):
    """(spec, j) with j in [m, 4m], m = max(50, 2 omega)."""
    spec = draw(kernels())
    low = max(50.0, 2.0 * spec.omega)
    j = draw(st.integers(math.ceil(low), math.floor(4.0 * low)))
    return spec, j


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(end_moment_cases())
def test_end_moment_err_est_against_oracle(case):
    # An estimate that moment_table's rule accepts is within the two error
    # estimates of the oracle; the rule's floor is 1e-16 of the moments'
    # scale (|M(0)| <= max|M(0..5)| stands in for it).
    spec, j = case
    scale = abs(reference_moment(spec, 0, CFG)[0])
    value, err_est = end_moment_asymptotic(spec, [j])[j]
    if not err_est <= max(1e-8 * abs(value), 1e-16 * scale):
        return
    ref, ref_err = reference_moment(spec, j, CFG)
    assert abs(value - ref) <= err_est + ref_err


@pytest.mark.parametrize("call, index", [
    # 100.5 returned (5.9e-06, 4.6e-19), with the sign of neither neighbour.
    (end_moment_asymptotic, [100.5]), (end_moment_asymptotic, [101.0]),
    # 3.7 raised a bare KeyError.
    (reference_moment, 3.7), (reference_moment, 3.0),
    # [3.7] answered for k = 3.
    (reference_moments, [3.7]), (reference_moments, [2, 3.0])],
    ids=["end-100.5", "end-101.0", "single-3.7", "single-3.0",
         "batch-3.7", "batch-3.0"])
def test_non_integral_moment_index_rejected(call, index):
    with pytest.raises(DomainError, match="must be an integer"):
        call(ProblemSpec(0.2, 0.4, 0.0, 20.0), index)


@pytest.mark.parametrize("call, index", [
    # Each raised a bare OverflowError.
    (moment_table, 10 ** 400), (end_moment_asymptotic, [10 ** 400]),
    (reference_moment, 10 ** 400)], ids=["table", "end", "oracle"])
def test_index_past_exact_doubles_rejected(call, index):
    with pytest.raises(DomainError, match="2\\^53"):
        call(ProblemSpec(0.2, 0.4, 0.0, 20.0), index)


def traced_peak(call, *args):
    """Peak traced memory (bytes) while call(*args) runs, and its result."""
    tracemalloc.start()
    try:
        out = call(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def test_oversized_table_rejected_before_allocating():
    # N = 2^40 raised numpy's MemoryError ("Unable to allocate 24.0 TiB"),
    # and N = 1e8 would have tried to allocate ~100 GB.
    def build():
        with pytest.raises(DomainError, match="limit") as info:
            moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), 2 ** 40)
        return info

    peak, _ = traced_peak(build)
    assert peak < 2e6


@pytest.mark.parametrize("omega", [1e-300, 1e-153, 1e152, 1e155, 1e300])
def test_omega_past_the_double_range_rejected_before_work(omega,
                                                          monkeypatch):
    # 1e-300 and 1e-153 raised OverflowError in float() of a start row's
    # coefficient over its lead w^2/8, 1e155 and 1e300 in float() of
    # w^2/16, and 1e152 an AccuracyError on the NaN residuals that
    # Veltkamp's split of w^2/16 left.
    def no_work(*args):
        raise AssertionError("a 2F3 was evaluated before omega was checked")

    monkeypatch.setattr(moments, "power_moment", no_work)
    spec = ProblemSpec(0.2, 0.4, 0.0, omega, integrand=lambda x: 1.0)
    with pytest.raises(DomainError, match="omega"):
        moment_table(spec, 8)
    with pytest.raises(DomainError, match="omega"):
        ccf_integrate(spec, 8)


@pytest.mark.parametrize("omega, N", [(1e-152, 8), (1e-300, 3),
                                      (1e150, 8), (1e300, 5)])
def test_omega_inside_the_double_range_still_builds(omega, N):
    # The checks above refuse only what would overflow: smaller tables
    # form no row of doubles, or no row at all.
    table = moment_table(ProblemSpec(0.2, 0.4, 0.0, omega), N)
    assert np.all(np.isfinite(table.values))
    assert np.all(np.isfinite(table.err_est))


class TestMomentTable:
    def test_tiny_table_is_closed_form(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        table = moment_table(spec, 3)
        assert table.N == 3
        assert all(tag == "closed-form" for tag in table.method)
        start = [float(v) for v, _ in _starting_mpf(spec, 4)]
        assert np.array_equal(table.values, start)

    @pytest.mark.parametrize("N", [64.0, 3.0, 16.7])
    def test_non_integral_n_rejected_before_work(self, N, monkeypatch):
        # 64.0 raised numpy's TypeError after the closed forms and end
        # moments were computed, 3.0 a TypeError from range.
        def no_work(*args):
            raise AssertionError("work done before N was checked")

        monkeypatch.setattr(moments, "power_moment", no_work)
        with pytest.raises(DomainError, match="N must be an integer"):
            moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), N)

    def test_method_tag_layout(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        table = moment_table(spec, 64)
        # switch at floor(omega/2) = 10
        assert table.method[:6] == ("closed-form",) * 6
        assert table.method[6:11] == ("forward",) * 5
        assert set(table.method[11:]) == {"oliver"}

    def test_against_oracle_smooth_weights(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
        table = moment_table(spec, 512)
        ks = [0, 64, 256, 512]
        refs, errs = oracle_vals(spec, ks)
        for k in ks:
            assert abs(table.values[k] - refs[k]) <= (
                1e-9 * abs(refs[k]) + 3 * errs[k]), k

    def test_against_oracle_singular_weights(self):
        spec = ProblemSpec(-0.8, -0.9, 0.0, 200.0)
        table = moment_table(spec, 512)
        ks = [0, 64, 256, 512]
        refs, errs = oracle_vals(spec, ks)
        for k in ks:
            assert abs(table.values[k] - refs[k]) <= (
                1e-8 * abs(refs[k]) + 3 * errs[k]), k

    def test_omega_2000_against_oracle(self):
        # The 2F3 at |z| = 1e6 cancels past 4096 bits when its series is
        # summed term by term; the bound is criterion-04's.
        meets_criterion_04(ProblemSpec(0.2, 0.4, 0.0, 2000.0), 256,
                           [0, 5, 100, 256])

    @pytest.mark.parametrize("kernel, N", list(PINNED_192_BIT))
    def test_matches_192_bit_pipeline(self, kernel, N):
        table = moment_table(ProblemSpec(*kernel), N)
        peak = np.abs(table.values).max()
        with mp.workprec(300):
            for k, pin in PINNED_192_BIT[kernel, N].items():
                want = mp.mpf(pin)
                diff = float(abs(table.values[k] - want))
                if abs(want) > 1e-27 * peak:
                    assert diff <= 4e-16 * float(abs(want)), k
                else:
                    assert diff <= table.err_est[k], k

    @pytest.mark.parametrize("kernel", [(0.2, 0.4, 1.0, 20.0),
                                        (0.2, 0.4, 1.0, 200.0),
                                        (-0.5, -0.5, 2.5, 20.0),
                                        (-0.5, -0.5, 1.0, 200.0),
                                        (0.2, 1.5, 2.5, 200.0),
                                        (0.0, -0.5, 0.0, 100.0),
                                        (1.5, 2.5, 0.0, 29.4)])
    def test_end_moments_without_oracle(self, kernel, monkeypatch):
        # The 12-term endpoint expansion converges on the first three; 8
        # terms did not.  Both ends of (-0.5, -0.5, 1, 200) and the right
        # end of (0.2, 1.5, 2.5, 200) are superalgebraic, and both kernels
        # took their end moments from the oracle before such an end was
        # set to 0 with a strip bound.  The last two took theirs from the
        # oracle before k_hi was moved outward: (0, -0.5, 0, 100) stalls
        # at j = 201, and (1.5, 2.5, 0, 29.4) had a strip bound above the
        # floor before DLMF 10.14.4 sharpened it.
        monkeypatch.setattr(moments, "reference_moment", refuse_oracle)
        spec = ProblemSpec(*kernel)
        sizes = {(0.0, -0.5, 0.0, 100.0): (128, 200),
                 (1.5, 2.5, 0.0, 29.4): (50,)}
        for N in sizes.get(kernel, (256,)):
            meets_criterion_04(spec, N, range(N + 1))

    @pytest.mark.parametrize("kernel, N", [((0.6, -0.4, 2.5, 1e4), 25000),
                                           ((0.2, 0.4, 0.0, 1e4), 4096)])
    def test_omega_1e4_against_oracle(self, kernel, N):
        spec = ProblemSpec(*kernel)
        t0 = time.perf_counter()
        moment_table(spec, N)
        assert time.perf_counter() - t0 < 1.0
        meets_criterion_04(spec, N, [k for k in (0, 5, 1000, 4096, 5000,
                                                 20000, 25000) if k <= N])

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP item 1: nu >= 5 tables silently wrong")
    @pytest.mark.parametrize("kernel", [(-0.9, -0.9, 7.0, 5.0),
                                        (-0.9, -0.9, 7.0, 50.0),
                                        (1.5, 1.5, 7.0, 50.0)])
    def test_large_order_against_oracle(self, kernel):
        meets_criterion_04(ProblemSpec(*kernel), 512, [0, 256, 400, 512])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: large-alpha "
                       "forward region silently wrong")
    def test_large_alpha_against_oracle(self):
        # Off by 7.0e-8 relative at k = 160 (a forward entry), 2.1e-6 at
        # 224 and 3.0e-2 at 512, with err_est 2.4e-14 to 3.5e-14.
        meets_criterion_04(ProblemSpec(4.5, -0.9, 0.0, 700.0), 512,
                           [0, 160, 224, 512])

    @pytest.mark.parametrize("kernel", [(-0.9, -0.9, 1.0, 20.0),
                                        (-0.9, -0.9, 2.5, 1000.0),
                                        (0.2, -0.9, 1.0, 0.5),
                                        (0.2, 0.4, 1.0, 1000.0),
                                        (0.6, 0.4, 0.0, 20.0),
                                        (0.6, 0.4, 0.0, 200.0),
                                        (0.6, 1.5, 0.0, 20.0),
                                        (1.5, 1.5, 0.0, 200.0)])
    def test_closed_form_err_est_covers_the_stored_double(self, kernel):
        # A closed-form entry is its 192-bit value rounded to double; a
        # 1e-16 max|term| floor in place of the rounding's half ulp fell
        # short of it on these kernels, by up to 1.27x.
        spec = ProblemSpec(*kernel)
        table = moment_table(spec, 5)
        with mp.workprec(192):
            for k, (value, _) in enumerate(_starting_mpf(spec, 6)):
                err = float(abs(mp.mpf(table.values[k]) - value))
                assert err <= table.err_est[k], k

    @pytest.mark.parametrize("kernel, N, ks", [
        # A decayed entry: off by 5.2e-24, which an err_est of 5.2e-26
        # from one flat estimate for every Oliver entry missed.
        ((0.0, 0.0, 4.0, 0.01), 340, [340]),
        # Off by 9.1e-10 (forward), 2.8e-8 and 4.2e-4 (Oliver); and
        # 6.3e-11 and 3.8e-7: both ROADMAP item 1's silently wrong tables,
        # whose err_est read at most 3.5e-14 and 6.7e-14.
        ((4.5, -0.9, 0.0, 700.0), 512, [160, 224, 512]),
        ((-0.7534, 3.3861, 2.6702, 2573.8), 1769, [884, 1769])])
    def test_err_est_covers_silently_wrong_entries(self, kernel, N, ks):
        spec = ProblemSpec(*kernel)
        table = moment_table(spec, N)
        refs, errs = oracle_vals(spec, ks)
        for k in ks:
            diff = abs(table.values[k] - refs[k])
            assert diff - errs[k] <= table.err_est[k], (k, diff)

    def test_rows_decayed_to_roundoff_pass_the_audit(self):
        # 2 alpha + 2 nu + 2 and 2 beta + 2 are integers, so the moments
        # past k ~ omega/2 fall to ~1e-26.  Oliver rows there have terms of
        # ~1e-22 and residuals of ~1e-32: roundoff of the table's scale,
        # not a failed solve, which the audit must not report.
        meets_criterion_04(ProblemSpec(0.0, 1.5, 2.5, 1e3), 512,
                           range(0, 513, 16))

    def test_stall_raises_after_max_push(self, monkeypatch):
        # Every window reports the stalled estimate of test_stall_raises.
        # k_hi starts at max(N, 2 omega, 50) = 64 and is doubled _MAX_PUSH
        # times; then AccuracyError carries that err_est, and the oracle is
        # never asked.
        (value, err_est), _ = stalled_end_moment()
        calls = []

        def stall(spec, js):
            calls.append(list(js))
            return {j: (value, err_est) for j in js}

        monkeypatch.setattr(moments, "end_moment_asymptotic", stall)
        monkeypatch.setattr(moments, "reference_moment", refuse_oracle)
        with pytest.raises(AccuracyError) as info:
            moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), 64)
        assert info.value.err_est == err_est
        assert calls == [[64 * 2 ** p + 1, 64 * 2 ** p + 2]
                         for p in range(_MAX_PUSH + 1)]

    def test_stall_raises_at_the_row_cap(self, monkeypatch):
        # A push past _MAX_ROWS ends the pushes as _MAX_PUSH does: with the
        # cap at 300, k_hi goes 64, 128, 256, and 512 is refused.
        (value, err_est), _ = stalled_end_moment()
        calls = []

        def stall(spec, js):
            calls.append(list(js))
            return {j: (value, err_est) for j in js}

        monkeypatch.setattr(moments, "end_moment_asymptotic", stall)
        monkeypatch.setattr(moments, "_MAX_ROWS", 300)
        with pytest.raises(AccuracyError) as info:
            moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), 64)
        assert info.value.err_est == err_est
        assert calls == [[65, 66], [129, 130], [257, 258]]

    def test_kernels_allocate_no_temporaries(self):
        # Any (7, n) or (n,) temporary would add to the peak traced memory:
        # the residual allocates nothing of its rows' size, and the row
        # coefficients nothing beyond their result, their buffer of
        # _PIECES + 3 slabs and five rows (six, with a row of slack).
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
        system = moments.BandedSystem(spec, 100, np.zeros((3, 4099)))
        row = 8 * system.dimension              # bytes of one (n,) array
        vh, vl = np.random.default_rng(1).standard_normal((2, 4099))
        work = moments._workspace(system.coef[0])
        peak, _ = traced_peak(system._residual, vh, vl, slice(None), work)
        assert peak < row
        m = system.index[3].astype(float)      # |m + 0|, the rows' own m
        peak, _ = traced_peak(_row_coefficients, spec, m)
        assert peak < (len(_OFFSETS) * (2 + moments._PIECES + 3) + 6) * row

    def test_table_peak_memory(self):
        # The double-double kernels run in one workspace per table.  The
        # peak traced memory of this table is 4.15 MB, and was 3.95 MB when
        # each kernel step allocated fresh (7, n) arrays, which came and
        # went one at a time.  A bound of 1.5 times the peak catches
        # buffers that are kept or multiplied; the test above catches a
        # passing temporary.
        spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
        moment_table(spec, 4096)
        peak, table = traced_peak(moment_table, spec, 4096)
        assert table.N == 4096
        assert peak <= 6.0e6

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts glibc's page faults")
    def test_warm_table_takes_no_page_faults(self):
        # A warm build that allocated each kernel step's (7, 4091) arrays
        # afresh took ~900 minor page faults in a fresh process: glibc's
        # heap, its mmap and trim thresholds set by the largest block freed
        # so far, kept returning their pages.  With the per-table buffers
        # it takes none.  A fresh process, as larger tables built earlier
        # in this one would have raised those thresholds.
        script = """if True:
            import resource
            from oscbessel.moments import moment_table
            from oscbessel.problem import ProblemSpec
            spec = ProblemSpec(0.2, 0.4, 0.0, 200.0)
            for _ in range(2):
                moment_table(spec, 4096)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            moment_table(spec, 4096)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert int(out.stdout) <= 50

    def test_call_structure(self, monkeypatch):
        # One call gives the four closed forms that seed the table, and the
        # endpoint jets are built once for both end moments.
        calls = {"power_moment": [], "_smooth_jet": []}

        def counted(name):
            original = getattr(moments, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(moments, name, wrapper)

        for name in calls:
            counted(name)
        moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), 256)
        assert calls["power_moment"] == [(0.2, 0.4, 0.0, 20.0)]
        assert len(calls["_smooth_jet"]) == 2

    def test_no_mpmath_2f3_on_the_table_path(self, monkeypatch):
        # Below _OMEGA_MIN the four closed forms come from one integer
        # pass, from there on from the two-end expansion, and from the
        # integer pass where nu^2 > 64 w above |z| = w^2/4 = 2^19 (w ~
        # 1448.15): none calls mpmath's 2F3.
        monkeypatch.setattr(mp, "hyp2f3", refuse_2f3)
        for nu, omega in [(0.0, 20.0), (0.0, 1448.0), (0.0, 1449.0),
                          (0.0, 2000.0), (0.0, 1e4), (0.0, 1e9),
                          (400.0, 1449.0)]:
            moment_table(ProblemSpec(0.2, 0.4, nu, omega), 256)

    def test_band_matches_accumulated_entries(self):
        # Forward rows m = 2..6 (k_switch = 10) and Oliver rows up to
        # k_hi = 256: assigning each in-band entry once gives the band that
        # accumulating every stencil entry with np.add.at gave.
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        system = moments.BandedSystem(spec, 10, np.zeros((3, 259)))
        n = system.dimension
        rows = np.broadcast_to(np.arange(n), system.index.shape)
        cols = system.index - moments._K_LO
        inside = (cols >= 0) & (cols < n)
        kl, ku = moments._KL, moments._KU
        want = np.zeros((2 * kl + ku + 1, n))
        np.add.at(want, (kl + ku + rows[inside] - cols[inside],
                         cols[inside]), system.coef[0][inside])
        assert np.array_equal(system.band(), want)
        assert np.count_nonzero(want[:kl]) == 0     # LU fill-in rows
        assert np.count_nonzero(want[kl + ku + 1:, :5]) > 0    # forward
        assert np.count_nonzero(want[kl:kl + ku, 10:]) > 0     # Oliver

    def test_zero_pivot_raises_singular_system(self, monkeypatch):
        # With every recurrence coefficient zero, LAPACK's banded LU meets
        # a zero pivot in the first column.
        def zero_rows(spec, m):
            zeros = np.zeros((len(_OFFSETS), len(m)))
            return zeros, zeros

        monkeypatch.setattr(moments, "_row_coefficients", zero_rows)
        with pytest.raises(SingularSystemError) as info:
            moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), 64)
        assert info.value.row == 0

    def test_negative_index_symmetry(self):
        table = moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), 16)
        assert table[-3] == table[3]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kernels(), st.integers(6, 512))
def test_table_needs_no_oracle(spec, N):
    # A table is built from the endpoint expansion, with k_hi moved outward
    # where it stalls, or the build raises a typed error (the residual
    # audit's AccuracyError or, for ROADMAP item 1's nu >= 7 kernels,
    # SingularSystemError).  The patch is made here, not by the
    # monkeypatch fixture, which Hypothesis's health check rejects.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "reference_moment", refuse_oracle)
        try:
            moment_table(spec, N)
        except (AccuracyError, SingularSystemError):
            pass


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kernels(max_nu=2.5), st.integers(6, 512))
def test_table_meets_criterion_04_bound(spec, N):
    # Criterion-04's bound at k = 0, N/2 and N, against the oracle at
    # rel_tol 1e-12, or a typed error.  nu stays at 2.5 or below: above it
    # tables are silently wrong (ROADMAP item 1), and at nu = 4 even a
    # decayed entry can miss the bound (item 2).
    # At the solved entries (k >= 6) the table's err_est must also cover
    # the error; at k <= 5 the oracle's own err_est can fall short of its
    # error.
    try:
        table = moment_table(spec, N)
    except (AccuracyError, SingularSystemError):
        return
    ks = sorted({0, N // 2, N})
    refs = reference_moments(spec, ks, OracleConfig(rel_tol=1e-12))
    for k in ks:
        ref, err = refs[k]
        diff = abs(table.values[k] - ref)
        assert diff <= 1e-8 * abs(ref) + err, k
        if k >= 6:
            assert diff <= table.err_est[k] + err, k


@st.composite
def near_minus_one(draw):
    """kernels(max_nu=2.5) with alpha or beta moved into (-0.999, -0.9)."""
    spec = draw(kernels(max_nu=2.5))
    end = draw(st.sampled_from(("alpha", "beta")))
    return dataclasses.replace(spec, **{end: draw(st.floats(-0.999, -0.9))})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(near_minus_one(), st.integers(6, 512))
def test_table_near_minus_one_meets_criterion_04_bound(spec, N):
    # Criterion-04's bound at k = 0, N/2 and N against the oracle, whose
    # tanh-sinh range now reaches far enough at exponents near -1.  The
    # table's err_est is not asserted: there the oracle's batch err_est
    # can fall below its single-k one.
    try:
        table = moment_table(spec, N)
    except (AccuracyError, SingularSystemError):
        return
    ks = sorted({0, N // 2, N})
    refs = reference_moments(spec, ks, OracleConfig(rel_tol=1e-12))
    for k in ks:
        ref, err = refs[k]
        assert abs(table.values[k] - ref) <= 1e-8 * abs(ref) + err, k


class TestRecurrenceResidual:
    def test_detects_corruption(self):
        spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
        table = moment_table(spec, 32)
        values = table.values.copy()
        values[20] *= 1.01
        bad = MomentTable(spec, values=values, method=table.method,
                          err_est=table.err_est)
        assert recurrence_residual(bad, 20) >= 1e-3

    def test_all_zero_stencil_scores_zero(self):
        table = MomentTable(ProblemSpec(0.2, 0.4, 0.0, 20.0), np.zeros(17),
                            ("closed-form",) * 17, np.zeros(17))
        assert recurrence_residual(table, 8) == 0.0

    def test_index_bounds(self):
        table = moment_table(ProblemSpec(0.2, 0.4, 0.0, 20.0), 16)
        with pytest.raises(IndexError):
            recurrence_residual(table, 13)
        with pytest.raises(IndexError):
            recurrence_residual(table, -1)


def test_pipeline_is_independent_of_the_oracles_bessel():
    # The oracle evaluates J through scipy.special; the pipeline must not,
    # so that the two stay independent.
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "oscbessel"
    for module in ("specfun.py", "moments.py"):
        src = (root / module).read_text()
        assert "scipy.special" not in src, module
        assert "from scipy import special" not in src, module


def test_table_never_calls_the_oracle():
    # moments.py keeps the oracle's reference_moment and mpmath's hyp2f3
    # only as imported names (the benchmark's tracer wraps them by name);
    # no statement may use either.
    path = (pathlib.Path(__file__).resolve().parents[1] / "src" / "oscbessel"
            / "moments.py")
    tree = ast.parse(path.read_text())
    tracer_only = {"reference_moment": "oracle", "hyp2f3": "mpmath"}
    imports = [(alias.name, node.module) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name in tracer_only]
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in tracer_only
            or isinstance(node, ast.Attribute) and node.attr in tracer_only]
    assert sorted(imports) == sorted(tracer_only.items())
    assert uses == []
    assert moments.hyp2f3 is mp.hyp2f3
