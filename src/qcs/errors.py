"""The three exception types a caller tells apart.

``qcs`` exits 2 on a ``ConfigError`` and 3 on any other ``QcsError``.
"""


class QcsError(Exception):
    """A run failed."""


class InvalidArgument(QcsError, ValueError):
    """A library argument violates a documented precondition."""


class ConfigError(QcsError):
    """A config field is missing or holds a value the experiment cannot run."""

    def __init__(self, field, detail):
        self.field = field
        super().__init__(f"config field {field!r} {detail}")
