"""Exception hierarchy shared by all modules."""


class DwellgainError(Exception):
    """Base class for all library errors."""


class InvalidDomain(DwellgainError):
    """Nonpositive analysis horizon or malformed domain."""


class Infeasible(DwellgainError):
    """The feasibility/optimization program admits no solution."""


class RelaxationLimit(DwellgainError):
    """Interval relaxation order exhausted while a sampled referee LP stays feasible."""


class NumericalFailure(DwellgainError):
    """LP solver failed to converge (distinct from proven infeasibility)."""


class NotPositive(DwellgainError):
    """System not proved positive: a theorem for positive systems does not apply."""


class NotConstant(DwellgainError):
    """Operation requires constant (degree-0) system matrices."""


class DimensionMismatch(DwellgainError):
    """Matrix dimensions inconsistent with the declared system sizes."""


class ParseError(DwellgainError):
    """System/certificate file could not be parsed; message carries field context."""


class Unsupported(DwellgainError):
    """Requested operation undefined for this system form (e.g. adjoint of multi-jump systems)."""


class Mismatch(DwellgainError):
    """Certificate and system are incompatible (dimensions or dwell kind)."""


class IllPosed(DwellgainError):
    """Controller denominator not certified positive; gain recovery unsafe."""


class StepTooLarge(DwellgainError):
    """Integrator local-truncation self-check exceeded tolerance."""
