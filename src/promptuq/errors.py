"""Exception types shared across the toolkit, the one config loader, and the
one rule for a JSON number.

Plain ``ValueError`` is used for dimension and argument validation; the
classes here mark domain events a caller may want to catch and handle.

``config_from_dict`` is the only way a JSON object becomes a config dataclass
(a task, a prior, a method's params), so every config error names its dotted
key, such as ``task.n_train`` or ``task.prior.sigma``. ``is_json_number`` is
the rule that loader's float fields and every reader in ``artifacts`` apply.
"""

import sys
from dataclasses import MISSING, fields


class AccessDeniedError(RuntimeError):
    """A labels-only simulator was asked for class probabilities."""


class BudgetExhaustedError(RuntimeError):
    """An evaluation or draw budget ran out before the operation finished; the
    message names what was used and the limit (and, for rejection sampling,
    the acceptances so far), and reads the same in process and served."""


class EvaluationError(RuntimeError):
    """A candidate produced a missing or non-finite objective value."""


class NumericalBreakdownError(RuntimeError):
    """A covariance decomposition failed, or a sampling distribution overflowed."""


class DegenerateWeightsError(RuntimeError):
    """Importance weights collapsed to an unusable (non-finite or all-zero) state."""


class StagnationError(RuntimeError):
    """A particle exceeded its proposal attempt limit at the current tolerance,
    or the tolerance is 0, which no proposal can strictly beat; the message
    names the particle, the tolerance, the attempt limit and the iteration."""


class ProtocolError(RuntimeError):
    """The external simulator protocol was violated (handshake, framing, content)."""


class ConfigError(ValueError):
    """Invalid configuration; ``field`` holds the offending key path (a config
    dataclass names its bare key, which ``config_from_dict`` prefixes)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def _key(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def check_keys(payload, known, path: str, required=()) -> dict:
    """Return ``payload`` if it is a JSON object whose keys are all ``known``
    and include every ``required`` one; else raise ConfigError naming the
    object at dotted ``path`` ("config" at the root) or its first bad key."""
    if not isinstance(payload, dict):
        raise ConfigError(path or "config", "must be a JSON object")
    unknown = sorted(payload.keys() - set(known))
    if unknown:
        raise ConfigError(_key(path, unknown[0]), f"unknown field; known: {sorted(known)}")
    for name in required:
        if name not in payload:
            raise ConfigError(_key(path, name), "missing required field")
    return payload


def is_json_number(value) -> bool:
    """A finite JSON number: a finite float or an integer within the float
    range, never a bool."""
    return type(value) in (float, int) and abs(value) <= sys.float_info.max


def config_from_dict(cls, payload, path: str):
    """Build dataclass ``cls`` from the JSON object at dotted ``path``: refuse
    bad keys (``check_keys``), then values not of their field's annotated type
    (int, float, str, None; a bool is no number, and a float field takes an
    integer only within the float range), then re-root the ``ConfigError(<key>)``
    of the class's own checks as ``<path>.<key>``."""
    check_keys(payload, [f.name for f in fields(cls)], path,
               [f.name for f in fields(cls) if f.default is MISSING])
    kinds = {"int": int, "float": (int, float), "str": str, "None": type(None)}
    for f in fields(cls):
        value = payload.get(f.name)
        if f.name in payload and (isinstance(value, bool) or not any(
                isinstance(value, kinds[kind]) for kind in f.type.split(" | "))):
            raise ConfigError(_key(path, f.name),
                              f"must be {f.type}, got {type(value).__name__}")
        if "float" in f.type and type(value) is int and not is_json_number(value):
            raise ConfigError(_key(path, f.name), "is beyond the float range")
    try:
        return cls(**payload)
    except ConfigError as exc:
        raise ConfigError(_key(path, exc.field), exc.message) from exc


def check_positive(config, *names: str) -> None:
    """Raise ConfigError(name, ...) for the first named field of ``config`` that
    is set (not None) but not positive."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not value > 0:
            raise ConfigError(name, "must be positive")
