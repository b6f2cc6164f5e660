"""Clenshaw-Curtis nodes on [0, 1] and shifted-Chebyshev interpolation.

Coefficients are computed by scipy's type-I DCT, which is O(N log N) for
every N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from numpy.polynomial.chebyshev import chebval

from .errors import DomainError
from .problem import as_size

__all__ = ["ChebyshevExpansion", "cc_points", "cheb_interp_coeffs"]


@dataclass(frozen=True)
class ChebyshevExpansion:
    """Coefficients b of P(x) = sum_i b[i] T_i*(x) on [0, 1]."""

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           np.asarray(self.coefficients, dtype=float))

    def __call__(self, x: float) -> float:
        """sum b_i T_i*(x) = sum b_i T_i(2x - 1), 0 <= x <= 1, by numpy's
        Clenshaw recurrence."""
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"x={x} outside [0, 1]")
        return float(chebval(2.0 * x - 1.0, self.coefficients))


def cc_points(N: int) -> np.ndarray:
    """Clenshaw-Curtis points c_i = 1/2 + cos(i pi / N)/2, i = 0..N.

    Descending from 1 to 0, symmetric about 1/2.
    """
    N = as_size(N, 1)
    return 0.5 + 0.5 * np.cos(np.arange(N + 1) * np.pi / N)


def cheb_interp_coeffs(samples) -> ChebyshevExpansion:
    """Interpolation coefficients from samples of f at cc_points(N).

    Convention: b_k = (2/N) sum''_j f(c_j) cos(j k pi / N), with the j = 0
    and j = N terms halved, then b_0 and b_N halved once more so that the
    interpolant is the plain (unprimed) sum over T_i*.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or len(samples) < 2:
        raise DomainError("need a flat sequence of N+1 >= 2 samples")
    b = scipy.fft.dct(samples, type=1) / (len(samples) - 1)
    b[0] *= 0.5
    b[-1] *= 0.5
    return ChebyshevExpansion(b)

