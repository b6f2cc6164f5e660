"""Spans around oscbessel's layer boundaries, for the traced run only.

``Tracer.install`` replaces the public names that one oscbessel module looks
up in another with wrappers that record a span (name, start, end, parent,
attributes); ``uninstall`` puts the originals back.  Calls to integrands
the benchmark passes in are counted and timed through ``Tracer.wrap``.
Spans stay in memory; ``dump`` writes them out when the run ends, and
``metrics`` reduces them to the per-layer figures.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field

perf = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int
    op: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _after_table(span, table):
    span.attrs["entries"] = len(table)
    span.attrs["oliver_kept"] = table.method.count("oliver")


def _after_hyp(span, h):
    span.attrs["bits"] = h.prec


def _before_dct(span, args):
    span.attrs["N"] = len(args[0]) - 1


def _before_solve(span, args):
    span.attrs["rows"] = args[0].dimension


def _before_moments(span, args):
    span.attrs["k"] = len(set(int(k) for k in args[1]))


def _before_moment(span, args):
    span.attrs["k"] = 1


# (module, owner attribute or None, name, span name, before, after)
TARGETS = [
    ("oscbessel.ccf", None, "ccf_integrate", "ccf.integrate", None, None),
    ("oscbessel.ccf", None, "moment_table", "moments.table", None,
     _after_table),
    ("oscbessel.ccf", None, "cheb_interp_coeffs", "chebfit.dct",
     _before_dct, None),
    ("oscbessel.moments", None, "power_moment", "moments.closed_form",
     None, None),
    ("oscbessel.moments", None, "hyp2f3", "specfun.hyp2f3", None, _after_hyp),
    ("oscbessel.moments", None, "end_moment_asymptotic", "moments.end_asym",
     None, None),
    ("oscbessel.moments", None, "reference_moment", "moments.end_fallback",
     None, None),
    ("oscbessel.moments", "BandedSystem", "solve", "moments.oliver_solve",
     _before_solve, None),
    ("oscbessel.oracle", None, "reference_moments", "oracle.moments",
     _before_moments, None),
    ("oscbessel.oracle", None, "reference_moment", "oracle.moments",
     _before_moment, None),
    ("oscbessel.oracle", None, "reference_integral", "oracle.integral",
     None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.integrand = {"ccf": [0, 0.0], "oracle": [0, 0.0]}
        self._saved = []

    def _span(self, name, call, before, after, args, kwargs):
        if not self.stack:
            self.op += 1        # a call from the benchmark: a new operation
        span = Span(name, perf(), self.stack[-1] if self.stack else -1,
                    self.op)
        if before:
            before(span, args)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            result = call(*args, **kwargs)
        except Exception as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            self.stack.pop()
            span.end = perf()
        if after:
            after(span, result)
        return result

    def install(self) -> None:
        for modname, owner, attr, name, before, after in TARGETS:
            target = importlib.import_module(modname)
            if owner:
                target = getattr(target, owner)
            original = getattr(target, attr)
            self._saved.append((target, attr, original))

            def wrapper(*args, _o=original, _n=name, _b=before, _a=after,
                        **kwargs):
                return self._span(_n, _o, _b, _a, args, kwargs)

            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def wrap(self, f):
        """Integrand wrapper that counts and times calls, charged to the
        oracle inside an oracle.integral span and to ccf elsewhere."""
        def counted(x):
            t = perf()
            try:
                return f(x)
            finally:
                top = self.spans[self.stack[0]].name if self.stack else ""
                acc = self.integrand[
                    "oracle" if top == "oracle.integral" else "ccf"]
                acc[0] += 1
                acc[1] += perf() - t
        return counted

    def dump(self, fh, phase: str) -> None:
        """One JSON line per span; ``parent`` indexes this phase's spans."""
        for s in self.spans:
            fh.write(json.dumps({"phase": phase, "name": s.name,
                                 "start": s.start, "end": s.end,
                                 "parent": s.parent, "op": s.op,
                                 **s.attrs}) + "\n")

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures over the recorded spans, per round."""
        spans = self.spans
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s.parent >= 0:
                children[s.parent].append(i)

        def dur(i):
            return spans[i].end - spans[i].start

        def of(name):
            return [i for i, s in enumerate(spans) if s.name == name]

        def total(name):
            return sum(dur(i) for i in of(name))

        def child_time(name, kinds):
            return sum(dur(c) for i in of(name) for c in children[i]
                       if spans[c].name in kinds)

        def ratio(num, den):
            return num / den if den else 0.0

        integ = of("ccf.integrate")
        tables = of("moments.table")
        solves = of("moments.oliver_solve")
        asym = of("moments.end_asym")
        hyp = of("specfun.hyp2f3")
        om = of("oracle.moments")
        n_ccf, t_ccf = self.integrand["ccf"]
        m = {
            "ccf.integrate.calls": len(integ),
            "ccf.integrate.self_s": total("ccf.integrate") - child_time(
                "ccf.integrate", {"moments.table", "chebfit.dct"}) - t_ccf,
            "ccf.integrand.calls": n_ccf,
            "ccf.integrand_s": t_ccf,
            "ccf.table_hit_ratio": ratio(
                sum(1 for i in integ if not any(
                    spans[c].name == "moments.table" for c in children[i])),
                len(integ)),
            "chebfit.dct.calls": len(of("chebfit.dct")),
            "chebfit.dct_pow2_s": sum(
                dur(i) for i in of("chebfit.dct") if _pow2(spans[i].attrs["N"])),
            "chebfit.dct_other_s": sum(
                dur(i) for i in of("chebfit.dct")
                if not _pow2(spans[i].attrs["N"])),
            "moments.table.calls": len(tables),
            "moments.table.entries": sum(spans[i].attrs.get("entries", 0)
                                         for i in tables),
            "moments.table_s": total("moments.table"),
            "moments.self_s": total("moments.table") - child_time(
                "moments.table", {"moments.closed_form", "moments.end_asym",
                                  "moments.end_fallback",
                                  "moments.oliver_solve"}),
            "moments.oliver_solve_s": total("moments.oliver_solve"),
            "moments.oliver.rows": sum(spans[i].attrs["rows"] for i in solves),
            "moments.oliver.useful_ratio": ratio(
                sum(spans[i].attrs.get("oliver_kept", 0) for i in tables),
                sum(spans[i].attrs["rows"] for i in solves)),
            "moments.closed_form_s": total("moments.closed_form"),
            "moments.closed_form.self_s": total("moments.closed_form")
            - child_time("moments.closed_form", {"specfun.hyp2f3"}),
            "moments.end_asym_s": total("moments.end_asym"),
            "moments.end_asym.ok_ratio": ratio(
                sum(1 for i in asym if "error" not in spans[i].attrs),
                len(asym)),
            "moments.end_fallback.calls": len(of("moments.end_fallback")),
            "moments.end_fallback_s": total("moments.end_fallback"),
            "specfun.hyp2f3.calls": len(hyp),
            "specfun.hyp2f3_s": total("specfun.hyp2f3"),
            "specfun.hyp2f3.max_bits": max(
                (spans[i].attrs.get("bits", 0) for i in hyp), default=0),
            "oracle.moments.calls": len(om),
            "oracle.moments.k": sum(spans[i].attrs["k"] for i in om),
            "oracle.moments_s": total("oracle.moments"),
            "oracle.integral.calls": len(of("oracle.integral")),
            "oracle.integral_s": total("oracle.integral"),
            "oracle.integrand.calls": self.integrand["oracle"][0],
        }
        # Maxima and ratios are per phase already; sums are per round.
        per_round = {k: (v if k.endswith(("_ratio", "max_bits")) else
                         v / max(rounds, 1)) for k, v in m.items()}
        return per_round


def _pow2(n: int) -> bool:
    return n >= 2 and n & (n - 1) == 0
