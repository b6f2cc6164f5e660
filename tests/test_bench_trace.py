"""The benchmark's tracer (ccfbench/spans.py) patches oscbessel's names at
run time; this checks that what it patches and reads is still there."""

import pathlib

import pytest

from oscbessel import ccf_integrate, clear_moment_cache
from oscbessel.problem import ProblemSpec

BENCH = pathlib.Path(__file__).resolve().parents[1] / "ccfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    return spans


def test_traced_table_build(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        clear_moment_cache()
        ccf_integrate(ProblemSpec(0.2, 0.4, 0.0, 20.0,
                                  integrand=lambda x: 1.0), 256)
    finally:
        tracer.uninstall()
        clear_moment_cache()
    m = tracer.metrics(1)
    assert m["moments.table.calls"] == 1
    assert m["specfun.hyp2f3.calls"] == 4
    assert m["specfun.hyp2f3.max_bits"] == 256
    assert m["moments.oliver.rows"] > 0
    assert m["moments.end_asym.ok_ratio"] == 1
