"""The benchmark's tracer (ccfbench/spans.py) patches oscbessel's names at
run time; this checks that what it patches and reads is still there."""

import pathlib

import pytest

from oscbessel import ccf_integrate, clear_moment_cache, moments
from oscbessel.problem import ProblemSpec

BENCH = pathlib.Path(__file__).resolve().parents[1] / "ccfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


def traced_build(spans, kernel, N):
    """The tracer after one ccf_integrate that builds the kernel's table."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        clear_moment_cache()
        ccf_integrate(ProblemSpec(*kernel, integrand=lambda x: 1.0), N)
    finally:
        tracer.uninstall()
        clear_moment_cache()
    return tracer


def test_traced_table_build(spans):
    # Below mpmath's asymptotic switch one integer pass gives all four
    # closed forms, inside one closed-form span and with no 2F3 span.
    tracer = traced_build(spans, (0.2, 0.4, 0.0, 20.0), 256)
    m = tracer.metrics(1)
    assert m["moments.table.calls"] == 1
    assert [s.name for s in tracer.spans].count("moments.closed_form") == 1
    assert m["specfun.hyp2f3.calls"] == 0
    assert m["specfun.hyp2f3.max_bits"] == 0
    assert m["moments.oliver.rows"] > 0
    assert m["moments.end_asym.ok_ratio"] == 1
    # Above the switch the two-end expansion gives all four, again with no
    # 2F3 span.
    tracer = traced_build(spans, (0.2, 0.4, 0.0, 2000.0), 256)
    m = tracer.metrics(1)
    assert [s.name for s in tracer.spans].count("moments.closed_form") == 1
    assert m["specfun.hyp2f3.calls"] == 0
    assert m["specfun.hyp2f3.max_bits"] == 0


@pytest.mark.parametrize("kernel, N, windows", [
    ((0.2, 0.4, 0.0, 20.0), 256, 1),
    # The end moments at k_hi = 256 are rejected; k_hi = 512 closes it.
    ((0.67, 1.05, 0.92, 44.7), 256, 2),
    # k_switch = N: forward rows only, no window and no end moments.
    ((0.2, 0.4, 0.0, 1000.0), 256, 0)])
def test_one_end_asym_span_per_window(spans, monkeypatch, kernel, N, windows):
    # Both ends are smooth here, so each window builds two jets, and no
    # jet is rebuilt per end moment.
    jets = []
    original = moments._smooth_jet

    def counted(*args, **kwargs):
        jets.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(moments, "_smooth_jet", counted)
    tracer = traced_build(spans, kernel, N)
    asym = [s for s in tracer.spans if s.name == "moments.end_asym"]
    assert len(asym) == windows
    assert len(jets) == 2 * windows
    assert tracer.metrics(1)["moments.end_asym.ok_ratio"] == (windows > 0)
