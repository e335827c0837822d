"""Exception hierarchy shared across the package.

Every error class carries an ``exit_code`` so the command-line layer can map
failures onto its documented contract: 2 for configuration errors, 3 for
I/O and parse errors, 4 for semantic validation failures. The loader and
field checks at the end validate untrusted files and settings once, where
they enter the program.
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


# ---- file format / parse problems (exit 3) ----


class FormatError(TfaError):
    """A file could not be parsed or is internally inconsistent."""

    exit_code = 3


class BadMagic(FormatError):
    """File does not start with the expected magic bytes."""


class DimMismatch(FormatError):
    """Declared shapes disagree with each other or with the actual payload."""


class CorruptRecord(FormatError):
    """A stored record is unusable (non-finite values, zero vector, bad field)."""


class DuplicateClassId(FormatError):
    """A prototype set declares the same class id twice."""


# ---- semantic validation (exit 4) ----


class ValidationError(TfaError):
    """Well-formed inputs that violate a protocol-level constraint."""

    exit_code = 4


class DisjointnessViolation(ValidationError):
    """Train label spaces of distinct tasks overlap, or a record's label falls
    outside its own task's label space."""


class ShotCountMismatch(ValidationError):
    """A novel task does not provide exactly the expected shots per class."""


class OutOfOrderSession(ValidationError):
    """Sessions must be executed in task order, starting at the base task."""


class EmptyTrainSet(ValidationError):
    """Alignment training requires at least one sample."""


class ShotCapacityExceeded(ValidationError):
    """More novel shots inserted for a class than the cache admits."""


# ---- computational preconditions (exit 4: inputs a run cannot be scored on) ----


class ZeroVector(ValidationError):
    """An operation that needs a direction received the zero vector."""


class EmptyInput(ValidationError):
    """A reduction over an empty collection."""


class ZeroBaseAccuracy(ValidationError):
    """Accuracy decline is undefined when the first session scores zero."""


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
