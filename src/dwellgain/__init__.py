"""Dwell-time stability and hybrid-gain analysis/synthesis for linear positive
impulsive and switched systems, with LP-based interval certificates and
independent simulation/grid verification."""

from .analysis import (
    Certificate,
    analyze_arbitrary,
    analyze_constant,
    analyze_lti,
    analyze_minimum,
    analyze_range,
    analyze_switched_blanchini,
    analyze_switched_min,
)
from .cert import VerificationReport, cross_check_discrete, transition_matrix, verify
from .model import (
    DwellTimeSpec,
    ImpulsiveSystem,
    PolyMatrix,
    SwitchedSystem,
    adjoint,
    check_positive,
    lift_switched,
    load_system,
    save_system,
)
from .poly import Poly, decide_nonneg, falsify_nonneg
from .sim import InputSignal, SequenceGen, Trajectory, estimate_gain, generate_inputs, simulate
from .synthesis import ControllerRealization, realize_gain, synthesize, synthesize_switched

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "decide_nonneg",
    "falsify_nonneg",
    "PolyMatrix",
    "ImpulsiveSystem",
    "SwitchedSystem",
    "DwellTimeSpec",
    "check_positive",
    "lift_switched",
    "adjoint",
    "load_system",
    "save_system",
    "Certificate",
    "analyze_arbitrary",
    "analyze_constant",
    "analyze_minimum",
    "analyze_range",
    "analyze_switched_min",
    "analyze_switched_blanchini",
    "analyze_lti",
    "ControllerRealization",
    "synthesize",
    "synthesize_switched",
    "realize_gain",
    "SequenceGen",
    "InputSignal",
    "Trajectory",
    "generate_inputs",
    "simulate",
    "estimate_gain",
    "VerificationReport",
    "verify",
    "transition_matrix",
    "cross_check_discrete",
    "__version__",
]
