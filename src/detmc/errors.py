"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class InputError(ValueError):
    """Input data is malformed (non-finite entries, wrong shape)."""


class FormatError(ValueError):
    """A file being read does not match the expected on-disk format."""


class GenerationError(RuntimeError):
    """Randomized construction failed to produce a valid object."""


class DivergenceError(RuntimeError):
    """An iterative solver diverged. Carries the trace collected so far."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
