"""End-to-end and per-layer benchmark of oscbessel.

    python3 ccfbench/run.py --workload cold-integral --seed 1 --seconds 8 --trace 0

One process, one caller in a closed loop, BLAS pinned to one thread.  The
run imports oscbessel from ``src/`` of the checkout it sits in, builds the
workload's seeded inputs and their independent references, times
``setup_repeats`` set-up passes (caches cleared before each), then runs
whole rounds of every operation kind, round-robin, until --seconds have
passed.  Every output is checked; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each timed call is bracketed by a host-speed probe that runs no oscbessel
code, and its time is reported in seconds at the probe's reference speed
(PROBE_REF_S per probe); this takes out most of the host's drift.

--trace 1 instead reports the per-layer metrics: it alternates untraced
and traced rounds of the same operations, wraps oscbessel's cross-module
names only during the traced ones (see spans.py), and writes the spans
to ccfbench/out/ when the run ends.
"""

import os

# Before numpy is imported anywhere: one BLAS/OpenMP thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

perf = time.perf_counter

#: Seconds one probe run takes at the reference speed (about its median
#: on the 2-core host where the figures in README.md were taken).
PROBE_REF_S = 0.004
#: Each probe lasts at least this share of the call it brackets (and three
#: runs), so that a long call is compared with a long stretch of the host.
PROBE_SHARE = 0.05


def import_oscbessel():
    """(module, seconds) for a fresh import of oscbessel from SRC."""
    sys.path.insert(0, SRC)
    start = perf()
    import oscbessel
    import oscbessel.ccf
    import oscbessel.moments
    import oscbessel.oracle
    took = perf() - start
    if not os.path.abspath(oscbessel.__file__).startswith(SRC + os.sep):
        raise ImportError(f"oscbessel imported from {oscbessel.__file__}, "
                          f"not from {SRC}")
    return oscbessel, took


def _probe_work():
    import mpmath as mp
    import numpy as np
    with mp.workprec(192):
        x = mp.mpf(2)
        for i in range(1, 120):
            x = mp.sqrt(x * 3 + i) / (1 + x)
    y = 0.0
    for i in range(4000):
        y += math.cos(i * 0.001) * 1.5
    a = np.linspace(0.0, 1.0, 200)
    return x, y, np.cos(np.outer(a, a)) @ a


def probe(seconds: float = 0.0) -> float:
    """Median time of one run of a fixed mix of mpmath, Python float and
    numpy work, repeated for ``seconds`` and at least three times; the
    host's speed is PROBE_REF_S / probe()."""
    times = []
    start = perf()
    while len(times) < 3 or perf() - start < seconds:
        t = perf()
        _probe_work()
        times.append(perf() - t)
    return statistics.median(times)


def reset(ob) -> None:
    """Clear every cache a set-up pass fills, so that each pass pays what
    a fresh process pays: oscbessel's moment table and memoised helpers,
    and mpmath's Gamma and Bernoulli coefficient tables."""
    from mpmath.libmp import gammazeta
    ob.clear_moment_cache()
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "oscbessel":
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    for cache in (gammazeta.gamma_taylor_cache,
                  gammazeta.gamma_stirling_cache, gammazeta.bernoulli_cache):
        cache.clear()
    gc.collect()


@dataclass
class Op:
    kind: object
    case: object
    raw: float
    norm: float
    out: object
    error: str | None
    #: verdicts of case.after(), taken before the next operation
    after: list


def timed(fn, expect=0.0):
    """(result, error, raw seconds, seconds at the reference speed);
    ``expect`` is the call's expected raw seconds, for the first probe."""
    gc.collect()
    before = probe(PROBE_SHARE * expect)
    start = perf()
    try:
        out, error = fn(), None
    except Exception as exc:   # the benchmark counts it and goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    raw = perf() - start
    after = probe(PROBE_SHARE * raw)
    return out, error, raw, raw * PROBE_REF_S * 2.0 / (before + after)


def perform(kind, case, wrap, last) -> Op:
    """One timed call; ``last`` maps kind names to their last raw time."""
    kind.before()
    out, error, raw, norm = timed(lambda: case.run(wrap),
                                  last.get(kind.name, 0.0))
    last[kind.name] = raw
    return Op(kind, case, raw, norm, out, error,
              case.after() if error is None else [])


def counts(op: Op) -> bool:
    """Whether the operation's time enters the end-to-end metrics: not when
    it raised, nor when its kind is known to fail, so that mending a known
    failure moves the failure count alone."""
    return op.error is None and not op.kind.expect_fail


def judge(op: Op, shift: float = 0.0):
    """('ok' | 'failed' | 'wrong', detail).  With ``shift``, the first
    checked quantity is first moved by that many times its tolerance."""
    if op.error is not None:
        return "failed", op.error
    verdicts = op.case.check(op.out)
    if shift:
        out = op.case.shift(op.out, shift * verdicts[0][2])
        verdicts = op.case.check(out)
    bad = [f"{label}: error {err:.3e} > tol {tol:.3e}"
           for label, err, tol in verdicts + op.after if not err <= tol]
    return ("wrong", "; ".join(bad)) if bad else ("ok", "")


def run_round(workload, r, wrap, last):
    return [perform(k, k.cases[r % len(k.cases)], wrap, last)
            for k in workload.kinds]


def setup_pass(ob, workload, wrap, last):
    """One set-up pass from cleared caches: (seconds at the reference
    speed, raw seconds, ops, prepare verdicts).  The times leave out the
    operations that do not count."""
    reset(ob)
    _, error, raw, norm = timed(lambda: workload.prepare(wrap))
    if error is not None:
        raise RuntimeError(f"set-up failed: {error}")
    ops = run_round(workload, 0, wrap, last)
    kept = [o for o in ops if counts(o)]
    return (norm + sum(o.norm for o in kept), raw + sum(o.raw for o in kept),
            ops, workload.prepare_check())


def identity(f):
    return f


class Tally:
    """Verdicts over a run: attempted and failed count timed operations;
    ``correct`` fails on any wrong output and on a raise from a kind that
    is not known to fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, ops, timed_phase=True):
        for op in ops:
            status, detail = judge(op)
            if timed_phase:
                self.attempted += 1
                self.failed += status == "failed"
            if status == "wrong" or (status == "failed"
                                     and not op.kind.expect_fail):
                self.problems.append(f"{op.kind.name}: {status}: {detail}")

    def add_verdicts(self, label, verdicts):
        self.problems += [f"{label}: {v[0]}: error {v[1]:.3e} > tol {v[2]:.3e}"
                          for v in verdicts if not v[1] <= v[2]]


def end_to_end(ops, setup_s):
    by_kind = {}
    for op in ops:
        if counts(op):
            by_kind.setdefault(op.kind.name, []).append(op.norm)
    medians = [statistics.median(v) for v in by_kind.values()]
    done = [t for v in by_kind.values() for t in v]
    return {
        "setup_s": (setup_s, "s"),
        "op_geomean_s": (math.exp(statistics.fmean(map(math.log, medians))),
                         "s"),
        "ops_per_s": (len(done) / sum(done), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def summary(ops, label):
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind.name, []).append(op)
    for name, kops in by_kind.items():
        ok = [o for o in kops if o.error is None]
        line = f"{label} {name}: {len(kops)} ops, {len(kops) - len(ok)} failed"
        if ok:
            line += (f", median {statistics.median(o.raw for o in ok):.4f} s"
                     f" raw, {statistics.median(o.norm for o in ok):.4f} s"
                     f" at reference speed")
        print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ob, import_raw = import_oscbessel()
    # At the reference speed, by a probe right after the import (a probe
    # before it would import numpy and mpmath ahead of the timer).
    import_s = import_raw * PROBE_REF_S / probe()
    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.build(args.workload, args.seed, ob)
    tally = Tally()
    last = {}

    passes = []
    for _ in range(workload.setup_repeats):
        norm, raw, ops, prep = setup_pass(ob, workload, identity, last)
        passes.append((norm, raw))
        tally.add(ops, timed_phase=False)
        tally.add_verdicts("set-up", prep)
    setup_s = import_s + statistics.median(p[0] for p in passes)

    metrics = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            _, raw, ops, prep = setup_pass(ob, workload, tracer.wrap, last)
        finally:
            tracer.uninstall()
        tally.add(ops, timed_phase=False)
        tally.add_verdicts("set-up", prep)
        for k, v in tracer.metrics(1).items():
            metrics[f"setup.{k}"] = v
        metrics["setup.trace.overhead_s"] = raw - statistics.median(
            p[1] for p in passes)
        setup_tracer, tracer = tracer, Tracer()

    all_ops = []
    overhead = 0.0
    rounds = 0
    # A traced run makes each round twice; one pair gives exact per-round
    # counts and keeps it well inside its time limit.
    min_rounds = 1 if args.trace else workload.min_rounds
    start = perf()
    while rounds < min_rounds or perf() - start < args.seconds:
        ops = run_round(workload, rounds, identity, last)
        tally.add(ops)
        all_ops += ops
        if args.trace:
            tracer.install()
            try:
                traced = run_round(workload, rounds, tracer.wrap, last)
            finally:
                tracer.uninstall()
            tally.add(traced)
            overhead += sum(o.raw for o in traced) - sum(o.raw for o in ops)
        rounds += 1

    summary(all_ops, args.workload)
    if args.trace:
        metrics.update(tracer.metrics(rounds))
        metrics["trace.overhead_s"] = overhead / rounds
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w") as fh:
            setup_tracer.dump(fh, "setup")
            tracer.dump(fh, "timed")
        metrics = {k: (v, per_layer_units(k)) for k, v in metrics.items()}
    else:
        metrics = end_to_end(all_ops, setup_s)
    for p in tally.problems:
        print("PROBLEM", p)
    print(f"import {import_raw:.3f} s raw, {import_s:.3f} s at reference "
          f"speed; set-up passes (reference s) "
          f"{[round(p[0], 3) for p in passes]}; {rounds} rounds")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
