"""Exception hierarchy shared across the package: one class per exit code.

``cli.main`` catches ``TfaError`` and maps it onto the documented contract
through the class's ``exit_code``: ``ConfigError`` 2 for configuration
errors, ``FormatError`` 3 for I/O and parse errors, ``ValidationError`` 4
for semantic validation failures. No caller tells two failures of one code
apart by type; the message says which check failed. The loader and field
checks at the end validate untrusted files and settings once, where they
enter the program.
"""

import json
import math
import numbers


class TfaError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(TfaError):
    """Invalid or inconsistent configuration value."""

    exit_code = 2


class FormatError(TfaError):
    """A file could not be parsed or is internally inconsistent: bad magic,
    a truncated payload, shapes that disagree, a corrupt record or a class id
    declared twice."""

    exit_code = 3


class ValidationError(TfaError):
    """Well-formed inputs that violate a protocol-level constraint or that a
    run cannot be scored on: overlapping label spaces, a wrong shot count,
    sessions out of order, an empty training set, an empty reduction or a
    zero base accuracy."""

    exit_code = 4


# ---- the JSON loader and checks for configs, flags and sidecars ----


def load_json(path):
    """Parse the JSON file at ``path``. Every way its bytes can fail to parse
    raises ``FormatError``: invalid UTF-8 or JSON, an integer past Python's
    digit limit, or nesting past the recursion limit."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (ValueError, RecursionError) as e:
            raise FormatError(f"{path}: {e}") from e


def check_int(name: str, value, lo: int | None = None, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is an integer, not a bool, and at
    least ``lo``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise error(f"{name} must be >= {lo}, got {value}")


def check_real(name: str, value, lo: float | None = None, error=ConfigError) -> None:
    """Raise ``error`` unless ``value`` is a finite real number, not a bool or
    a string, and at least ``lo``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    if lo is not None and value < lo:
        raise error(f"{name} must be >= {lo:g}, got {value}")


def from_fields(cls, d: dict, what: str):
    """``cls(**d)``, after rejecting the keys of ``d`` that name no field of ``cls``."""
    unknown = set(d) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what} config keys: {sorted(unknown)}")
    return cls(**d)
