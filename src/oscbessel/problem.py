"""Parameters of the target integral int_0^1 x^a (1-x)^b f(x) J_nu(w x) dx."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = ["ProblemSpec"]


@dataclass(frozen=True)
class ProblemSpec:
    """Weight exponents, Bessel order, frequency, and the integrand f.

    The four numbers are stored as Python floats, whatever real type
    (numbers.Real) they are given as; any other type, such as a str or a
    complex, is a DomainError naming the field.

    ``integrand`` may be None for moment-only work; operations that sample
    f require it.  f is called once per distinct node, with a Python float,
    and its result is converted to float64 as numpy converts it (None
    becomes NaN); a result that is not finite is a DomainError naming x.
    """

    alpha: float
    beta: float
    nu: float
    omega: float
    integrand: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        for name in ("alpha", "beta", "nu", "omega"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real):
                raise DomainError(f"{name} must be a real number, got {v!r}")
            try:
                x = float(v)
            except OverflowError:       # an int or Fraction past the doubles
                x = math.inf
            if not math.isfinite(x):
                raise DomainError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, x)
        if not self.alpha > -1.0:
            raise DomainError(f"alpha must be > -1, got {self.alpha}")
        if not self.beta > -1.0:
            raise DomainError(f"beta must be > -1, got {self.beta}")
        if not self.nu >= 0.0:
            raise DomainError(f"nu must be >= 0, got {self.nu}")
        if not self.omega > 0.0:
            # omega = 0 degenerates the moment recurrence (leading
            # coefficient omega^2/16 vanishes).
            raise DomainError(f"omega must be > 0, got {self.omega}")

    def moment_key(self):
        """Hashable identity of the f-independent part."""
        return (self.alpha, self.beta, self.nu, self.omega)


def sample(f, x: np.ndarray) -> np.ndarray:
    """f at every node of x, called on Python floats, as an array shaped
    like x.  f None, an ArithmeticError from f and a non-finite value
    (naming the first such x) are each a DomainError."""
    if f is None:
        raise DomainError("problem carries no integrand")
    try:
        fx = np.fromiter(map(f, x.ravel().tolist()), float, x.size)
    except ArithmeticError as exc:
        raise DomainError(f"integrand raised {exc!r}") from exc
    if not np.isfinite(fx).all():
        bad = float(x.ravel()[np.argmin(np.isfinite(fx))])
        raise DomainError(f"integrand not finite at x={bad}")
    return fx.reshape(x.shape)


def as_size(N, least: int, name: str = "N") -> int:
    """N as an int from ``least`` up to 2^53, past which it is no exact
    double; a float N, even 64.0, is a DomainError.  ``name`` labels the
    value in the message."""
    try:
        N = operator.index(N)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {N!r}") from None
    if N < least:
        raise DomainError(f"{name} must be >= {least}, got {N}")
    if N > 2 ** 53:
        raise DomainError(f"{name} must be <= 2^53, an exact double")
    return N
