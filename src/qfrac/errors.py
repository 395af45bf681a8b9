"""Exception hierarchy shared by all qfrac modules."""


class QfracError(Exception):
    """Base class for all library errors."""


class DomainError(QfracError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class PoleError(QfracError, ArithmeticError):
    """A special-function evaluation hit a pole (vanishing denominator product)."""


class ConvergenceError(QfracError, ArithmeticError):
    """A truncated sum or product needs more terms than max_terms."""


class TrustRegionError(QfracError, RuntimeError):
    """A solver iterate left the trust region |u - zeta| <= r."""

    def __init__(self, node: float, value: float):
        self.node = node
        self.value = value
        super().__init__(
            f"iterate left trust region at node t={node!r} (value {value!r})"
        )


class MissingLipschitzError(QfracError, ValueError):
    """An a-priori bound was requested without a Lipschitz constant."""
