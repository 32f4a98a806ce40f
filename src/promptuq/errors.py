"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for dimension and argument validation; the
classes here mark domain events a caller may want to catch and handle.
"""

import sys
from dataclasses import fields


class AccessDeniedError(RuntimeError):
    """A labels-only simulator was asked for class probabilities."""


class BudgetExhaustedError(RuntimeError):
    """An evaluation or draw budget ran out before the operation finished.

    ``accepted`` carries the partial result count when the operation was
    accumulating acceptances (rejection sampling).
    """

    def __init__(self, message: str, used: int = 0, limit: int | None = None,
                 accepted: int | None = None):
        super().__init__(message)
        self.used = used
        self.limit = limit
        self.accepted = accepted


class EvaluationError(RuntimeError):
    """A candidate produced a missing or non-finite objective value."""


class NumericalBreakdownError(RuntimeError):
    """A covariance decomposition failed, or a sampling distribution overflowed."""


class DegenerateWeightsError(RuntimeError):
    """Importance weights collapsed to an unusable (non-finite or all-zero) state."""


class StagnationError(RuntimeError):
    """A particle exceeded its proposal attempt limit at the current tolerance,
    or the tolerance is 0, which no proposal can strictly beat."""

    def __init__(self, message: str, iteration: int, epsilon: float, attempts: int):
        super().__init__(message)
        self.iteration = iteration
        self.epsilon = epsilon
        self.attempts = attempts


class ProtocolError(RuntimeError):
    """The external simulator protocol was violated (handshake, framing, content)."""


class ConfigError(ValueError):
    """Invalid configuration; ``field`` holds the offending key path (a method
    config names its bare key, which the experiment parser prefixes)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def check_json_types(cls, values: dict, path: str = "") -> None:
    """Raise ConfigError unless each of ``values`` has the type annotated on the
    same-named field of dataclass ``cls`` (int, float, str, None; a bool is no
    number, and a float field takes an integer only within the float range)."""
    kinds = {"int": int, "float": (int, float), "str": str, "None": type(None)}
    for f in fields(cls):
        value = values.get(f.name)
        if f.name in values and (isinstance(value, bool) or not any(
                isinstance(value, kinds[kind]) for kind in f.type.split(" | "))):
            raise ConfigError(f"{path}{f.name}",
                              f"must be {f.type}, got {type(value).__name__}")
        if "float" in f.type and type(value) is int and abs(value) > sys.float_info.max:
            raise ConfigError(f"{path}{f.name}", "is beyond the float range")


def check_positive(config, *names: str) -> None:
    """Raise ConfigError(name, ...) for the first named field of ``config`` that
    is set (not None) but not positive."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not value > 0:
            raise ConfigError(name, "must be positive")
