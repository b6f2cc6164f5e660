"""Clenshaw-Curtis-Filon quadrature for finite Bessel transforms with
algebraic endpoint singularities: I[f] = int_0^1 x^a (1-x)^b f(x) J_nu(w x) dx.
"""

from .ccf import (ConvergenceRecord, QuadratureResult, ccf_integrate,
                  clear_moment_cache, convergence_study, fit_rate)
from .chebfit import (ChebyshevExpansion, cc_points, cheb_eval,
                      cheb_interp_coeffs)
from .errors import (AccuracyError, ConvergenceError, DomainError,
                     OscBesselError, PoleError, SingularSystemError)
from .moments import (MomentTable, end_moment_asymptotic, forward_moments,
                      moment_table, power_moment, recurrence_coefficients,
                      recurrence_residual)
from .oracle import (OracleConfig, reference_integral, reference_moment,
                     reference_moments)
from .problem import ProblemSpec
from .specfun import gamma, hyp2f3, shifted_cheb_power_coeffs

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec",
    "QuadratureResult", "ConvergenceRecord", "ccf_integrate",
    "convergence_study", "fit_rate", "clear_moment_cache",
    "ChebyshevExpansion", "cc_points", "cheb_interp_coeffs", "cheb_eval",
    "MomentTable", "moment_table", "power_moment",
    "forward_moments", "end_moment_asymptotic",
    "recurrence_coefficients", "recurrence_residual",
    "OracleConfig", "reference_integral", "reference_moment",
    "reference_moments",
    "gamma", "hyp2f3", "shifted_cheb_power_coeffs",
    "OscBesselError", "DomainError", "PoleError", "ConvergenceError",
    "AccuracyError", "SingularSystemError",
]
