"""Exception types shared across the package: one class per refusal exit code of the CLI."""


class MagconeError(Exception):
    """Base class for all package-specific errors; the CLI maps each subclass to its exit code."""


class DomainError(MagconeError, ValueError):
    """An input lies outside what an operation accepts (CLI exit 2, "error:").

    That covers arguments outside the mathematical domain, angles on an
    image-sum boundary, gamma outside [0, kappa], mode windows too small
    for a shell or too fine for the quadrature, and malformed run
    configurations, sample files and field sidecars.
    """


class SingularTimeError(MagconeError, ValueError):
    """Propagator evaluation requested too close to a singular time (CLI exit 3, "singular time:")."""


class NonconvergenceError(MagconeError, ArithmeticError):
    """A series or iteration hit its cap with the tail still above tolerance (CLI exit 4, "nonconvergence:")."""
