"""Exception hierarchy shared across the toolkit."""


class DetkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(DetkitError):
    """A tensor or parameter dimension does not match its contract.

    The message always names the offending dimension.
    """


class ValidationError(DetkitError):
    """A genome, config, or document violates its schema or an invariant;
    `message` is the text that str() prefixes with the field `path`."""

    def __init__(self, message: str, path: str | None = None):
        self.message, self.path = message, path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class InfeasibleError(DetkitError):
    """A search cannot proceed: the seed or the whole space violates the budget."""
