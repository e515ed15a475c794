"""Optimal dividend barriers for insurance risk processes with
surplus-dependent premiums.

Pipeline: validate a model, compute the scale-type function W and the
Gerber-Shiu function G, locate the optimal barrier a*, verify the HJB
optimality conditions, and cross-validate everything against an exact
Monte-Carlo simulator of the underlying piecewise deterministic process.
"""

__version__ = "0.1.0"

from .barrier import barrier_solution_at, find_barrier, h_eval, value_function
from .errors import (ConfigError, DividendOptError, DomainTooShortError,
                     HorizonError, ModelValidationError, NumericsError,
                     OverflowDomainError)
from .flow import FlowSolver
from .grid import GridFunction
from .hjb import verify_optimality
from .model import (ClaimModel, ModelParams, PenaltyModel, PremiumModel,
                    omega_eval, params_from_dict, params_from_json,
                    params_to_dict, penalty_envelope, validate_model)
from .scale import compute_G, compute_W, solve_scale
from .simulate import (SimulationConfig, SimulationEstimate,
                       simulate_gerber_shiu, simulate_two_sided,
                       simulate_value)


# test oracles, resolved from `_reference` on first use (PEP 562)
_ORACLES = frozenset({"barrier_boundary_identity", "closed_form_G_ruin_constant",
                      "closed_form_W_constant", "closed_form_W_linear"})


def __getattr__(name: str):
    if name in _ORACLES:
        from . import _reference
        return getattr(_reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def backend_name() -> str:
    """The numerical code path in use; there is one, pure numpy/Python."""
    return "python"


__all__ = [
    "ClaimModel", "ConfigError", "DividendOptError", "DomainTooShortError",
    "FlowSolver", "GridFunction", "HorizonError", "ModelParams",
    "ModelValidationError", "NumericsError",
    "OverflowDomainError", "PenaltyModel", "PremiumModel",
    "SimulationConfig", "SimulationEstimate", "backend_name",
    "barrier_boundary_identity", "barrier_solution_at",
    "closed_form_G_ruin_constant", "closed_form_W_constant",
    "closed_form_W_linear", "compute_G", "compute_W", "find_barrier",
    "h_eval", "omega_eval", "params_from_dict", "params_from_json",
    "params_to_dict", "penalty_envelope", "simulate_gerber_shiu",
    "simulate_two_sided", "simulate_value", "solve_scale", "validate_model",
    "value_function", "verify_optimality",
]
