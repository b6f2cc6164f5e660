import math

import pytest

from oscbessel.errors import DomainError
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


def test_size_is_an_exact_double():
    assert as_size(2 ** 53, 0) == 2 ** 53
    with pytest.raises(DomainError, match="2\\^53"):
        as_size(2 ** 53 + 1, 0)
