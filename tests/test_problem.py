import math

import numpy as np
import pytest

from oscbessel.errors import DomainError
from oscbessel.moments import moment_table
from oscbessel.oracle import OracleConfig, reference_moments
from oscbessel.problem import ProblemSpec, as_size

VALID = {"alpha": 0.2, "beta": 0.4, "nu": 0.0, "omega": 200.0}


@pytest.mark.parametrize("field", sorted(VALID))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameter_rejected(field, value):
    with pytest.raises(DomainError, match=field):
        ProblemSpec(**{**VALID, field: value})


@pytest.mark.parametrize("field, value", [
    ("alpha", -1.0), ("alpha", -2.0), ("beta", -1.0), ("beta", -1.5),
    ("nu", -1e-300), ("nu", -0.5), ("omega", 0.0), ("omega", -20.0),
])
def test_parameter_outside_domain_rejected(field, value):
    with pytest.raises(DomainError, match=field):
        ProblemSpec(**{**VALID, field: value})


def test_finite_parameters_accepted():
    spec = ProblemSpec(**VALID)
    assert spec.moment_key() == (0.2, 0.4, 0.0, 200.0)


@pytest.mark.parametrize("field", sorted(VALID))
@pytest.mark.parametrize("value", ["0.5", 0.5 + 0j, np.complex64(0.5), None,
                                   [0.5]])
def test_parameter_that_is_no_real_number_rejected(field, value):
    with pytest.raises(DomainError, match=field):
        ProblemSpec(**{**VALID, field: value})


def test_huge_integer_parameter_is_not_finite():
    with pytest.raises(DomainError, match="omega must be finite"):
        ProblemSpec(**{**VALID, "omega": 10 ** 400})


def test_float32_spec_is_its_float64_twin():
    # A float32 alpha passed validation and then broke Fraction(alpha) in
    # the table, and formed 2 alpha + 1 in float32 in the oracle.
    spec = ProblemSpec(np.float32(0.2), 0.4, np.int64(0), np.float32(20))
    twin = ProblemSpec(float(np.float32(0.2)), 0.4, 0.0, 20.0)
    assert all(type(v) is float for v in spec.moment_key())
    assert spec.moment_key() == twin.moment_key()
    table, want = moment_table(spec, 64), moment_table(twin, 64)
    assert table.values.tobytes() == want.values.tobytes()
    assert table.err_est.tobytes() == want.err_est.tobytes()
    cfg = OracleConfig(rel_tol=1e-12)
    assert (reference_moments(spec, [0, 7], cfg)
            == reference_moments(twin, [0, 7], cfg))


def test_size_is_an_exact_double():
    assert as_size(2 ** 53, 0) == 2 ** 53
    with pytest.raises(DomainError, match="2\\^53"):
        as_size(2 ** 53 + 1, 0)
