"""Clenshaw-Curtis-Filon quadrature for finite Bessel transforms with
algebraic endpoint singularities: I[f] = int_0^1 x^a (1-x)^b f(x) J_nu(w x) dx.
"""

from .ccf import (ConvergenceRecord, QuadratureResult, ccf_integrate,
                  clear_moment_cache, convergence_study, fit_rate)
from .chebfit import ChebyshevExpansion, cc_points, cheb_interp_coeffs
from .errors import (AccuracyError, ConvergenceError, DomainError,
                     OscBesselError, PoleError, SingularSystemError)
from .moments import (MomentTable, end_moment_asymptotic, moment_table,
                      power_moment, recurrence_residual)
from .oracle import (OracleConfig, reference_integral, reference_moment,
                     reference_moments)
from .problem import ProblemSpec
from .specfun import hyp2f3

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec",
    "QuadratureResult", "ConvergenceRecord", "ccf_integrate",
    "convergence_study", "fit_rate", "clear_moment_cache",
    "ChebyshevExpansion", "cc_points", "cheb_interp_coeffs",
    "MomentTable", "moment_table", "power_moment",
    "end_moment_asymptotic",
    "recurrence_residual",
    "OracleConfig", "reference_integral", "reference_moment",
    "reference_moments",
    "hyp2f3",
    "OscBesselError", "DomainError", "PoleError", "ConvergenceError",
    "AccuracyError", "SingularSystemError",
]
