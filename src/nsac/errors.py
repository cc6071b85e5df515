"""Exception types shared across the package."""


class NsacError(Exception):
    """Base class for all solver errors."""


class VacuumError(NsacError):
    """A pointwise law met a density ``rho <= 0`` (vacuum).

    Leaving the admissible density window raises ``InvariantViolation``.
    """


class InvariantViolation(NsacError):
    """A monitored runtime invariant failed.

    Carries enough structure for the harness to report what broke and where.
    """

    def __init__(self, field, message, step=None, magnitude=None, location=None):
        self.field = field
        self.step = step
        self.magnitude = magnitude
        self.location = location
        detail = f"{field}: {message}"
        if step is not None:
            detail += f" (step {step})"
        super().__init__(detail)

    def as_dict(self):
        return {
            "field": self.field,
            "message": str(self),
            "step": self.step,
            "magnitude": self.magnitude,
            "location": list(self.location) if self.location is not None else None,
        }


class InfeasibleInitialCondition(NsacError):
    """The requested initial condition violates state invariants before stepping."""


class QuadratureError(NsacError):
    """Adaptive quadrature failed to converge; carries the residual estimate."""

    def __init__(self, message, residual):
        self.residual = residual
        super().__init__(f"{message} (residual estimate {residual:.3e})")


class ConfigError(NsacError):
    """Invalid or missing run configuration."""
