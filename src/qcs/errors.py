"""The three exception types a caller tells apart, and the integer, count
and seed checks behind one of them.

``qcs`` exits 2 on a ``ConfigError`` and 3 on any other ``QcsError``.
"""

import numbers

import numpy as np


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


# a string: evaluating np.random here would import numpy.random with qcs
def seeded_rng(seed) -> "np.random.Generator":
    """``np.random.default_rng(seed)`` for a seed of None, an integer >= 0, a
    ``SeedSequence``, a ``BitGenerator`` or a ``Generator``; any other seed
    is refused, naming it."""
    kinds = (np.random.SeedSequence, np.random.BitGenerator, np.random.Generator)
    if seed is None or isinstance(seed, kinds) or (is_integer(seed) and seed >= 0):
        return np.random.default_rng(seed)
    raise InvalidArgument(
        "seed must be None, an integer >= 0, a SeedSequence, a BitGenerator or a Generator"
    )
