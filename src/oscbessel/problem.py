"""Parameters of the target integral int_0^1 x^a (1-x)^b f(x) J_nu(w x) dx."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError

__all__ = ["ProblemSpec"]


@dataclass(frozen=True)
class ProblemSpec:
    """Weight exponents, Bessel order, frequency, and the integrand f.

    ``integrand`` may be None for moment-only work; operations that sample
    f require it.
    """

    alpha: float
    beta: float
    nu: float
    omega: float
    integrand: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        for name in ("alpha", "beta", "nu", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(
                    f"{name} must be finite, got {getattr(self, name)}")
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


def as_size(N, least: int, name: str = "N") -> int:
    """N as an int no smaller than ``least``; a float N, even 64.0, is a
    DomainError.  ``name`` labels the value in the message."""
    try:
        N = operator.index(N)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {N!r}") from None
    if N < least:
        raise DomainError(f"{name} must be >= {least}, got {N}")
    return N
