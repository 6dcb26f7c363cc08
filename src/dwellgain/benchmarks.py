"""Built-in benchmark systems used by the test-suite, docs, and CLI demos."""

from __future__ import annotations

from .model import ImpulsiveSystem, SwitchedSystem

__all__ = [
    "lti_jump_bench",
    "timer_growth_bench",
    "timer_stable_bench",
    "unstable_chain_plant",
    "unstable_pair_plant",
    "two_mode_switched_bench",
]


def lti_jump_bench() -> ImpulsiveSystem:
    """Constant-coefficient 2-state positive impulsive system with a contractive jump."""
    return ImpulsiveSystem.from_arrays(
        A=[[-1.0, 0.0], [1.0, -2.0]],
        Ec=[[0.1], [1.1]],
        Cc=[[0.0, 1.0]],
        Fc=[[0.3]],
        J=[[0.1, 1.0], [0.1, 0.1]],
        Ed=[[0.3], [0.3]],
        Cd=[[0.0, 1.0]],
        Fd=[[0.03]],
    )


def timer_growth_bench() -> ImpulsiveSystem:
    """Timer-polynomial system whose flow is unstable in one direction; only the
    periodic contraction at jumps keeps it stable (constant/range dwell-times)."""
    return ImpulsiveSystem.from_arrays(
        A=[[[-2.0, -1.0], [1.0]], [[0.0], [1.0, 0.5]]],
        Ec=[[[0.1, 1.0]], [[0.1, 0.0, 1.0]]],
        Cc=[[[0.0], [1.0, 0.0, 0.5]]],
        Fc=[[[0.1, 0.1]]],
        J=[[1.1, 0.0], [0.0, 0.1]],
        Ed=[[0.3], [0.3]],
        Cd=[[0.0, 1.0]],
        Fd=[[0.1]],
    )


def timer_stable_bench() -> ImpulsiveSystem:
    """Timer-polynomial system with stable flow and an expansive jump map, so
    stability needs a long enough dwell (constant/minimum dwell-times)."""
    return ImpulsiveSystem.from_arrays(
        A=[[[-1.0], [0.0]], [[1.0, 1.0], [-2.0, 0.0, -1.0]]],
        Ec=[[[0.1]], [[0.1, 0.0, 1.0]]],
        Cc=[[[0.0, 1.0], [1.0]]],
        Fc=[[[0.03, 0.1]]],
        J=[[2.0, 1.0], [1.0, 3.0]],
        Ed=[[0.3], [0.3]],
        Cd=[[0.0, 1.0]],
        Fd=[[0.03]],
    )


def unstable_chain_plant() -> ImpulsiveSystem:
    """Open-loop unstable chained plant used for state-feedback synthesis
    (constant and range dwell-times)."""
    return ImpulsiveSystem.from_arrays(
        A=[[1.0, 1.0], [0.0, 1.0]],
        Bc=[[1.0], [0.0]],
        Ec=[[0.2], [0.3]],
        Cc=[[0.0, 1.0]],
        Fc=[[0.1]],
        J=[[1.2, 0.0], [1.0, 0.1]],
        Bd=[[1.0], [1.0]],
        Ed=[[0.3], [0.3]],
        Cd=[[0.0, 1.0]],
        Fd=[[0.1]],
    )


def unstable_pair_plant() -> ImpulsiveSystem:
    """Second synthesis plant: non-Metzler unstable flow and expansive jump
    (constant and minimum dwell-times)."""
    return ImpulsiveSystem.from_arrays(
        A=[[3.0, -1.0], [2.0, -1.0]],
        Bc=[[1.0], [0.0]],
        Ec=[[0.5], [0.1]],
        Cc=[[0.0, 1.0]],
        Fc=[[0.1]],
        J=[[2.0, 1.0], [0.0, 1.2]],
        Bd=[[1.0], [1.0]],
        Ed=[[0.8], [0.3]],
        Cd=[[0.0, 1.0]],
        Fd=[[0.1]],
    )


def two_mode_switched_bench() -> SwitchedSystem:
    """Two-mode positive switched system (minimum dwell-time analysis)."""
    return SwitchedSystem.from_arrays(
        [
            {
                "A": [[-1.0, 0.0], [1.0, -2.0]],
                "E": [[0.1], [0.1]],
                "C": [[0.0, 1.0]],
                "F": [[0.1]],
            },
            {
                "A": [[-1.0, 1.0], [1.0, -6.0]],
                "E": [[0.5], [0.0]],
                "C": [[0.0, 1.0]],
                "F": [[0.1]],
            },
        ]
    )
