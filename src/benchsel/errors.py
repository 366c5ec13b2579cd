"""Exception hierarchy shared by all benchsel modules."""

import copyreg


class BenchselError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Unpickle from the message and attributes without calling
        # __init__, whose arguments differ per subclass: a search worker
        # sends its error to the parent by pickling it.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class SchemaError(BenchselError):
    """An input file does not parse under its documented schema."""


class ValidationError(BenchselError):
    """Inputs are structurally valid but violate an invariant."""


class DuplicateEnvironmentError(ValidationError):
    """Two names of one game; ``position`` is the second one's."""

    def __init__(self, name: str, first: str, position: int):
        self.position = position
        super().__init__(f"duplicate environment: {name!r} collides with "
                         f"{first!r}")


class EnvironmentLookupError(BenchselError):
    """A required environment is missing from a table or input vector."""

    def __init__(self, environment: str, message: str | None = None):
        self.environment = environment
        super().__init__(message or f"unknown environment: {environment!r}")


class DegenerateDataError(BenchselError):
    """A dataset or group became too small for the requested operation."""


class UndefinedRelativeError(BenchselError):
    """Relative error requested against a (near-)zero true value."""


class SingularMatrixError(BenchselError):
    """The normal matrix of a regression problem is numerically singular."""

    def __init__(self, column: str, message: str | None = None):
        self.column = column
        super().__init__(message or f"rank-deficient design: column {column!r} "
                         "has a pivot below 1e-10 of the largest diagonal")


class EmptySearchError(BenchselError):
    """A subset search produced no viable candidate."""

    def __init__(self, message: str, skip_stats: dict | None = None):
        self.skip_stats = dict(skip_stats or {})
        super().__init__(message)
