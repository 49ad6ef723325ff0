"""Exception hierarchy shared by all hetcontour modules."""


class HetContourError(Exception):
    """Base class for all toolkit errors."""


class NotFound(HetContourError):
    """Unknown built-in system or scenario name."""


class ConfigError(HetContourError):
    """A required parameter is missing or malformed."""


class DomainError(HetContourError):
    """Non-finite or otherwise inadmissible numerical input."""


class ParseError(HetContourError):
    """Malformed system file; carries a field path when available."""

    def __init__(self, message, path=None):
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path


class StiffnessError(HetContourError):
    """Integrator step size underflow."""


class NoConvergence(HetContourError):
    """Newton iteration stagnated."""


class NotASaddle(HetContourError):
    """Equilibrium is not of saddle type."""


class Degenerate(HetContourError):
    """Saddle index (or index product) is too close to 1 to classify."""


class NoReturn(HetContourError):
    """Poincare map: orbit did not return to the section in time."""


class TangencyError(HetContourError):
    """Orbit crossed a section tangentially."""


class BlowupAtSeed(HetContourError):
    """Manifold branch blew up immediately after seeding."""


class NoIntersection(HetContourError):
    """Manifold branch never reached the measuring section."""


class InsufficientWinding(HetContourError):
    """Branch left the winding region before the requested turn count."""

    def __init__(self, requested, achieved):
        super().__init__(
            f"requested winding {requested}, achieved only {achieved}")
        self.requested = requested
        self.achieved = achieved


class CurveStall(HetContourError):
    """Continuation corrector diverged; a partial curve is attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class BracketError(HetContourError):
    """Root bracketing interval contains no sign change."""


class NoCycleInBracket(HetContourError):
    """Return-map displacement has no zero in the bracket."""


class QuadratureError(HetContourError):
    """Melnikov quadrature failed to converge."""


class BadPerturbation(HetContourError):
    """Perturbing term does not vanish on the claimed invariant component."""


class EmptyFamily(HetContourError):
    """Only the zero vector field is tangent to the variety."""
