"""The three exception types a caller tells apart, and the integer and
count checks behind one of them.

``qcs`` exits 2 on a ``ConfigError`` and 3 on any other ``QcsError``.
"""

import numbers


class QcsError(Exception):
    """A run failed."""


class InvalidArgument(QcsError, ValueError):
    """A library argument violates a documented precondition."""


class ConfigError(QcsError):
    """A config field is missing or holds a value the experiment cannot run."""

    def __init__(self, field, detail):
        self.field = field
        super().__init__(f"config field {field!r} {detail}")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not, though Python counts it as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_counts(**counts) -> None:
    """Refuse a named count that is not an integer >= 1, naming it."""
    for name, value in counts.items():
        if not is_integer(value) or value < 1:
            raise InvalidArgument(f"{name} must be an integer >= 1")
