"""Exception types shared across the package.

The CLI maps these onto stable exit codes: input errors exit with 2,
resource-cap errors with 4, invariant violations with 3, and an
infeasible (but well-posed) instance with 1.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input (bad file, bad parameter)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceLimitError(RuntimeError):
    """An exact search or enumeration exceeded its configured budget."""

    def __init__(self, message, partial_count=None):
        super().__init__(message)
        self.partial_count = partial_count


class Budget:
    """A countdown of ``limit`` units. ``spend`` raises
    ResourceLimitError(message, partial_count) once the units spent pass the
    limit. An overrun stays charged, so a repeated spend raises again."""

    __slots__ = ("left", "message")

    def __init__(self, limit, message):
        self.left = limit
        self.message = message

    def spend(self, units=1, partial_count=None):
        self.left -= units
        if self.left < 0:
            raise ResourceLimitError(self.message, partial_count)


class InvariantError(AssertionError):
    """A self-check failed: a solver produced an answer it cannot certify."""
