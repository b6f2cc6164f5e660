"""Command-line surface: integrate, moment dumps, convergence studies,
and a validation sweep, with deterministic CSV/JSON reporting.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ccf import ccf_integrate, convergence_study, fit_rate
from .chebfit import ChebyshevExpansion, cc_points, cheb_interp_coeffs
from .errors import (AccuracyError, ConvergenceError, DomainError,
                     OscBesselError, PoleError, SingularSystemError)
from .moments import moment_table, recurrence_residual
from .oracle import OracleConfig, reference_integral, reference_moments
from .problem import ProblemSpec

__all__ = ["IntegrandDescriptor", "parse_config", "execute", "emit_report",
           "main"]

_NUMERICAL_ERRORS = (AccuracyError, ConvergenceError, PoleError,
                     SingularSystemError)


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class IntegrandDescriptor:
    """Registry name plus its numeric parameters (``user`` also takes a path)."""

    name: str
    parameters: dict = field(default_factory=dict)
    path: str = ""


def parse_integrand(text: str) -> IntegrandDescriptor:
    name, _, rest = text.partition(":")
    params, path = {}, ""
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise UsageError(f"--f: malformed parameter {item!r}")
            if key == "path":
                path = value
                continue
            try:
                params[key] = float(value)
            except ValueError:
                raise UsageError(f"--f: parameter {key}={value!r} is not a "
                                 "number") from None
    if name not in _REGISTRY:
        raise UsageError(f"--f: unknown integrand {name!r} (choices: "
                         + ", ".join(sorted(_REGISTRY)) + ")")
    return IntegrandDescriptor(name, params, path)


def _build_abs_pow(desc):
    c = desc.parameters.get("c", 0.5)
    k = desc.parameters.get("k", 1.0)
    breakpoints = (c,) if 0.0 < c < 1.0 else ()
    return (lambda x: abs(x - c) ** k), breakpoints


def _build_one_minus_x2_pow(desc):
    p = desc.parameters.get("p", 1.0)
    return (lambda x: (1.0 - x * x) ** p), ()


def _build_cheb_poly(desc):
    degree = -1
    for key in desc.parameters:
        if not (key.startswith("c") and key[1:].isdigit()):
            raise UsageError(f"--f: cheb_poly takes c0=...,c1=..., got {key!r}")
        degree = max(degree, int(key[1:]))
    if degree < 0:
        raise UsageError("--f: cheb_poly needs at least one coefficient")
    coeffs = [desc.parameters.get(f"c{i}", 0.0) for i in range(degree + 1)]
    return ChebyshevExpansion(coeffs), ()


def _build_smooth_exp(desc):
    return math.exp, ()


def _build_runge(desc):
    # Smooth rational bump 1/(1 + s(x-c)^2): analytic, but with a slowly
    # decaying Chebyshev tail, so fixed-N quadrature error is measurable.
    s = desc.parameters.get("s", 25.0)
    c = desc.parameters.get("c", 0.5)
    return (lambda x: 1.0 / (1.0 + s * (x - c) ** 2)), ()


def _build_user(desc):
    if not desc.path:
        raise UsageError("--f: user integrand needs path=<csv of samples>")
    try:
        samples = np.loadtxt(desc.path, delimiter=",", ndmin=1)
    except OSError as exc:
        raise UsageError(f"--f: cannot read {desc.path}: {exc}") from None
    # Samples are f at cc_points(len-1); the interpolant stands in for f,
    # so re-sampling at the same nodes reproduces them exactly.
    return cheb_interp_coeffs(samples), ()


_REGISTRY = {
    "abs_pow": _build_abs_pow,
    "one_minus_x2_pow": _build_one_minus_x2_pow,
    "cheb_poly": _build_cheb_poly,
    "smooth_exp": _build_smooth_exp,
    "runge": _build_runge,
    "user": _build_user,
}


def build_integrand(desc: IntegrandDescriptor):
    """Resolve a descriptor to (callable, oracle breakpoints)."""
    return _REGISTRY[desc.name](desc)


def parse_n_range(text: str):
    """'256' -> [256]; '16,32' -> [16, 32]; '16:1024:dyadic' -> doublings."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or parts[2] != "dyadic":
            raise UsageError(f"--N: expected lo:hi:dyadic, got {text!r}")
        try:
            lo, hi = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError(f"--N: bad bounds in {text!r}") from None
        if lo < 1 or hi < lo:
            raise UsageError(f"--N: need 1 <= lo <= hi in {text!r}")
        out = []
        n = lo
        while n <= hi:
            out.append(n)
            n *= 2
        return out
    try:
        out = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--N: not an integer list: {text!r}") from None
    if any(n < 1 for n in out):
        raise UsageError("--N: values must be >= 1")
    return out


@dataclass
class RunPlan:
    command: str
    spec: Optional[ProblemSpec]
    descriptor: Optional[IntegrandDescriptor]
    breakpoints: tuple
    N_list: list
    tol: float
    format: str
    out: str
    reference: Optional[float]
    window: Optional[tuple]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


#: Every flag with its argparse settings, and the flags each command takes
#: besides --format and --out.
_FLAGS = {
    "alpha": dict(type=float, required=True),
    "beta": dict(type=float, required=True),
    "nu": dict(type=float, required=True),
    "omega": dict(type=float, required=True),
    "f": dict(required=True),
    "N": dict(required=True),
    "tol": dict(type=float, default=1e-12),
    "reference": dict(type=float, default=None),
    "window": dict(default=None),
}
_KERNEL = ("alpha", "beta", "nu", "omega")
_COMMANDS = {
    "integrate": (*_KERNEL, "f", "N"),
    "moments": (*_KERNEL, "N"),
    "study": (*_KERNEL, "f", "N", "tol", "reference", "window"),
    "validate": ("tol",),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="oscbessel", description=__doc__)
    # A command's namespace holds every flag; those it does not take keep
    # their defaults.
    parser.set_defaults(**{flag: kw.get("default")
                           for flag, kw in _FLAGS.items()})
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMANDS.items():
        # No abbreviations: moments would read --f as --format.
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-")
    return parser


def parse_config(argv) -> RunPlan:
    ns = _build_parser().parse_args(argv)
    command = ns.command
    spec = None
    descriptor = None
    breakpoints = ()
    N_list = []
    if command != "validate":
        integrand = None
        if ns.f is not None:
            descriptor = parse_integrand(ns.f)
            integrand, breakpoints = build_integrand(descriptor)
        spec = ProblemSpec(ns.alpha, ns.beta, ns.nu, ns.omega,
                           integrand=integrand)
        N_list = parse_n_range(ns.N)
    if command in ("integrate", "moments") and len(N_list) != 1:
        raise UsageError(f"--N: {command} takes a single N")
    if command == "study" and len(N_list) < 2:
        raise UsageError("--N: study needs a range or list of N values")
    if ns.tol < 1e-14:
        raise UsageError("--tol must be >= 1e-14")
    window = None
    if ns.window is not None:
        try:
            start, stop = (int(tok) for tok in ns.window.split(":"))
        except ValueError:
            raise UsageError(f"--window: expected start:stop, got "
                             f"{ns.window!r}") from None
        window = (start, stop)
    return RunPlan(command, spec, descriptor, breakpoints, N_list, ns.tol,
                   ns.format, ns.out, ns.reference, window)


def _fmt(x) -> str:
    """Shortest decimal that round-trips the double (<= 17 significant)."""
    return repr(float(x))


def _run_integrate(plan: RunPlan):
    q = ccf_integrate(plan.spec, plan.N_list[0])
    header = ["value", "N", "moment_err_est", "coeff_tail"]
    rows = [[_fmt(q.value), str(q.N), _fmt(q.moment_err_est),
             _fmt(q.coeff_tail)]]
    return header, rows, []


def _run_moments(plan: RunPlan):
    table = moment_table(plan.spec, plan.N_list[0])
    header = ["k", "M", "method", "err_est"]
    rows = [[str(k), _fmt(table.values[k]), table.method[k],
             _fmt(table.err_est[k])]
            for k in range(table.N + 1)]
    return header, rows, []


def _run_study(plan: RunPlan):
    reference = plan.reference
    if reference is None:
        reference, _ = reference_integral(
            plan.spec, OracleConfig(rel_tol=plan.tol),
            breakpoints=plan.breakpoints)
    records = convergence_study(plan.spec, plan.N_list, reference)
    scale = max(abs(reference), 1e-300)
    header = ["N", "approx", "reference", "abs_err", "scaled_err"]
    rows = [[str(r.N), _fmt(r.approx), _fmt(r.reference), _fmt(r.abs_err),
             _fmt(r.abs_err / scale)] for r in records]
    notes = []
    try:
        rate = fit_rate(records, plan.window)
        notes.append(f"rate {_fmt(rate)}")
    except DomainError as exc:
        notes.append(f"rate unavailable: {exc}")
    return header, rows, notes


def _validation_checks(tol: float):
    """The invariant sweep behind the `validate` command.

    Yields (name, passed, detail) triples; cheap enough for a desk run.
    """
    cfg = OracleConfig(rel_tol=max(tol, 1e-13))

    spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
    table = moment_table(spec, 256)
    worst = max(recurrence_residual(table, k) for k in range(table.N - 3))
    yield ("recurrence-residual", worst <= 1e-8, f"max {worst:.3e}")

    ks = [0, 3, 17, 64, 150, 256]
    oracle = reference_moments(spec, ks, cfg)
    rel = 0.0
    for k in ks:
        ref, err = oracle[k]
        rel = max(rel, abs(table.values[k] - ref)
                  / max(abs(ref), 1e2 * err, 1e-280))
    yield ("hybrid-vs-oracle", rel <= 1e-8, f"max rel {rel:.3e}")

    alias_ok = True
    for n in (8, 16):
        for p in (1, 2, 3):
            for j in range(n + 1):
                high = ChebyshevExpansion([0.0] * (p * n + j) + [1.0])
                got = cheb_interp_coeffs(
                    [high(x) for x in cc_points(n)]).coefficients
                want = np.zeros(n + 1)
                want[j if p % 2 == 0 else n - j] = 1.0
                if np.max(np.abs(got - want)) > 1e-12:
                    alias_ok = False
    yield ("aliasing", alias_ok, "T*_{pN+-j} folds onto T*_j")

    big = moment_table(spec, 1024)
    ktail = np.arange(100, 1025)
    slope = np.polyfit(np.log(ktail), np.log(np.abs(big.values[100:])), 1)[0]
    expect = -2.0 - 2.0 * min(spec.alpha, spec.beta)
    yield ("moment-decay", abs(slope - expect) <= 0.25,
           f"slope {slope:.3f} vs {expect:.2f}")

    poly = ProblemSpec(0.2, 0.4, 0.0, 20.0,
                       integrand=ChebyshevExpansion([0.0, 0.0, 0.0, 1.0]))
    q = ccf_integrate(poly, 12)
    diff = abs(q.value - table.values[3])
    yield ("polynomial-exactness", diff <= max(1e-10, q.moment_err_est),
           f"|Q - M(3)| = {diff:.3e}")


def _run_validate(plan: RunPlan):
    header = ["check", "status", "detail"]
    rows = []
    all_ok = True
    for name, ok, detail in _validation_checks(plan.tol):
        rows.append([name, "pass" if ok else "FAIL", detail])
        all_ok = all_ok and ok
    return header, rows, [], all_ok


def emit_report(header, rows, fmt: str, destination: str) -> None:
    if fmt == "csv":
        text = "\n".join([",".join(header)]
                         + [",".join(row) for row in rows]) + "\n"
    else:
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    if destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


def execute(plan: RunPlan) -> int:
    if plan.command == "validate":
        header, rows, notes, all_ok = _run_validate(plan)
        exit_code = 0 if all_ok else 2
    else:
        runner = {"integrate": _run_integrate, "moments": _run_moments,
                  "study": _run_study}[plan.command]
        header, rows, notes = runner(plan)
        exit_code = 0
    emit_report(header, rows, plan.format, plan.out)
    for note in notes:
        print(note, file=sys.stderr)
    return exit_code


def main(argv=None) -> int:
    try:
        plan = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(plan)
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
