"""Command-line surface: integrate, moment dumps, convergence studies,
and a validation sweep, with deterministic CSV/JSON reporting.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import sys
import warnings

import numpy as np

from . import criteria
from .ccf import ccf_integrate, convergence_study, fit_rate
from .chebfit import ChebyshevExpansion, cheb_interp_coeffs
from .errors import DomainError, OscBesselError
from .moments import moment_table
from .oracle import OracleConfig, reference_integral
from .problem import ProblemSpec

__all__ = ["parse_integrand", "parse_config", "execute", "emit_report",
           "main"]


class UsageError(Exception):
    pass


def parse_integrand(text: str):
    """'name:key=value,...' -> (callable, oracle breakpoints).

    Values are the builder's keywords, numbers but ``path``; no other keys.
    """
    name, _, rest = text.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise UsageError(f"--f: malformed parameter {item!r}")
            try:
                params[key] = value if key == "path" else float(value)
            except ValueError:
                raise UsageError(f"--f: parameter {key}={value!r} is not a "
                                 "number") from None
    if name not in _REGISTRY:
        raise UsageError(f"--f: unknown integrand {name!r} (choices: "
                         + ", ".join(sorted(_REGISTRY)) + ")")
    try:
        inspect.signature(_REGISTRY[name]).bind(**params)
    except TypeError as exc:
        raise UsageError(f"--f: {name}: {exc}") from None
    return _REGISTRY[name](**params)


def _build_abs_pow(c=0.5, k=1.0):
    return (lambda x: abs(x - c) ** k), (c,)


def _build_one_minus_x2_pow(p=1.0):
    return (lambda x: (1.0 - x * x) ** p), ()


def _build_cheb_poly(**params):
    degree = -1
    for key in params:
        if not (key.startswith("c") and key[1:].isdigit()):
            raise UsageError(f"--f: cheb_poly takes c0=...,c1=..., got {key!r}")
        degree = max(degree, int(key[1:]))
    if degree < 0:
        raise UsageError("--f: cheb_poly needs at least one coefficient")
    coeffs = [params.get(f"c{i}", 0.0) for i in range(degree + 1)]
    return ChebyshevExpansion(coeffs), ()


def _build_smooth_exp():
    return math.exp, ()


def _build_runge(s=25.0, c=0.5):
    # Smooth rational bump 1/(1 + s(x-c)^2): analytic, but with a slowly
    # decaying Chebyshev tail, so fixed-N quadrature error is measurable.
    return (lambda x: 1.0 / (1.0 + s * (x - c) ** 2)), ()


def _build_user(path=""):
    if not path:
        raise UsageError("--f: user integrand needs path=<csv of samples>")
    try:
        with warnings.catch_warnings():
            # loadtxt only warns of a file that holds no numbers.
            warnings.simplefilter("error", UserWarning)
            samples = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise UsageError(f"--f: cannot read {path}: {exc}") from None
    if samples.shape[1] != 1:
        raise UsageError(f"--f: {path} holds {samples.shape[1]} columns; "
                         "the samples are one column")
    # Samples are f at cc_points(len-1); the interpolant stands in for f,
    # and re-sampled at those nodes it gives them back to rounding only.
    return cheb_interp_coeffs(samples[:, 0]), ()


_REGISTRY = {
    "abs_pow": _build_abs_pow,
    "one_minus_x2_pow": _build_one_minus_x2_pow,
    "cheb_poly": _build_cheb_poly,
    "smooth_exp": _build_smooth_exp,
    "runge": _build_runge,
    "user": _build_user,
}


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
        out = [lo]
        while 2 * out[-1] <= hi:
            out.append(2 * out[-1])
        return out
    try:
        out = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--N: not an integer list: {text!r}") from None
    if any(n < 1 for n in out):
        raise UsageError("--N: values must be >= 1")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise UsageError("--N: values must be strictly increasing")
    return out


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


def parse_config(argv) -> argparse.Namespace:
    """Parsed flags, with spec, breakpoints, N_list, oracle and window set."""
    ns = _build_parser().parse_args(argv)
    ns.spec, ns.breakpoints, ns.N_list = None, (), []
    if ns.command != "validate":
        integrand = None
        if ns.f is not None:
            integrand, ns.breakpoints = parse_integrand(ns.f)
        ns.spec = ProblemSpec(ns.alpha, ns.beta, ns.nu, ns.omega,
                              integrand=integrand)
        ns.N_list = parse_n_range(ns.N)
    if ns.command in ("integrate", "moments") and len(ns.N_list) != 1:
        raise UsageError(f"--N: {ns.command} takes a single N")
    if ns.command == "study" and len(ns.N_list) < 2:
        raise UsageError("--N: study needs a range or list of N values")
    try:
        ns.oracle = OracleConfig(rel_tol=ns.tol)
    except DomainError as exc:
        raise UsageError(f"--tol: {exc}") from None
    if ns.window is not None:
        try:
            start, stop = (int(tok) for tok in ns.window.split(":"))
        except ValueError:
            raise UsageError(f"--window: expected start:stop, got "
                             f"{ns.window!r}") from None
        ns.window = (start, stop)
    return ns


def _fmt(x) -> str:
    """Shortest decimal that round-trips the double (<= 17 significant)."""
    return repr(float(x))


def _run_integrate(ns: argparse.Namespace):
    q = ccf_integrate(ns.spec, ns.N_list[0])
    header = ["value", "N", "moment_err_est", "coeff_tail"]
    rows = [[_fmt(q.value), str(q.N), _fmt(q.moment_err_est),
             _fmt(q.coeff_tail)]]
    return header, rows, [], True


def _run_moments(ns: argparse.Namespace):
    table = moment_table(ns.spec, ns.N_list[0])
    header = ["k", "M", "method", "err_est"]
    rows = [[str(k), _fmt(table.values[k]), table.method[k],
             _fmt(table.err_est[k])]
            for k in range(table.N + 1)]
    return header, rows, [], True


def _run_study(ns: argparse.Namespace):
    def oracle():
        return reference_integral(ns.spec, ns.oracle,
                                  breakpoints=ns.breakpoints)[0]
    # Without --reference, convergence_study runs the oracle once f is
    # sampled on every grid, so an f that fails at a node is reported as
    # such (exit 2), not as the oracle's failure to converge (exit 3).
    records = convergence_study(
        ns.spec, ns.N_list, oracle if ns.reference is None else ns.reference)
    scale = max(abs(records[0].reference), 1e-300)
    header = ["N", "approx", "reference", "abs_err", "scaled_err"]
    rows = [[str(r.N), _fmt(r.approx), _fmt(r.reference), _fmt(r.abs_err),
             _fmt(r.abs_err / scale)] for r in records]
    try:
        note = f"rate {_fmt(fit_rate(records, ns.window))}"
    except DomainError as exc:
        note = f"rate unavailable: {exc}"
    return header, rows, [note], True


def _validation_checks(tol: float):
    """The invariant sweep behind the `validate` command: criteria 07, 04,
    08, 06 and 09 at desk size.  Yields (name, passed, detail) triples."""
    cfg = OracleConfig(rel_tol=max(tol, 1e-13))
    spec = ProblemSpec(0.2, 0.4, 0.0, 20.0)
    yield ("recurrence-residual",
           *criteria.recurrence_residuals([spec], 256, [(spec, 20)], cfg))
    yield ("hybrid-vs-oracle",
           *criteria.moment_grid([spec], 256, [0, 3, 17, 64, 150, 256], cfg))
    yield ("aliasing", *criteria.aliasing())
    yield ("moment-decay", *criteria.moment_decay([(0.2, 0.4, 0.0, -2.4)]))
    yield ("polynomial-exactness",
           *criteria.polynomial_exactness([spec], range(11), cfg))


def _run_validate(ns: argparse.Namespace):
    rows = [[name, "pass" if ok else "FAIL", detail]
            for name, ok, detail in _validation_checks(ns.tol)]
    ok = all(status == "pass" for _, status, _ in rows)
    return ["check", "status", "detail"], rows, [], ok


def emit_report(header, rows, fmt: str, destination: str) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        text = buf.getvalue()
    else:
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    if destination == "-":
        sys.stdout.write(text)
    else:
        with open(destination, "w") as fh:
            fh.write(text)


#: Each command's runner returns (header, rows, stderr notes, all checks ok).
_RUNNERS = {"integrate": _run_integrate, "moments": _run_moments,
            "study": _run_study, "validate": _run_validate}


def execute(ns: argparse.Namespace) -> int:
    header, rows, notes, ok = _RUNNERS[ns.command](ns)
    emit_report(header, rows, ns.format, ns.out)
    for note in notes:
        print(note, file=sys.stderr)
    return 0 if ok else 2


def main(argv=None) -> int:
    try:
        return execute(parse_config(sys.argv[1:] if argv is None else argv))
    except (UsageError, OSError) as exc:     # OSError: --out not writable
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OscBesselError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
