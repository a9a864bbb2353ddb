"""Exception types shared across the package, and the document and field
checks that raise ``ConfigError``."""

import math
from dataclasses import fields
from numbers import Integral, Real


class GocpdError(Exception):
    """Base class for all package errors."""


class NonPositiveDefinite(GocpdError):
    """A Gram/covariance matrix could not be Cholesky-factorized, even
    after the maximum allowed diagonal jitter."""


class TooFewPoints(GocpdError):
    """A window is shorter than the minimum required for fitting."""


class EmptyDomain(GocpdError):
    """The candidate search interval contains no admissible timestamps."""


class NonContiguousBatch(GocpdError, ValueError):
    """An incoming batch does not continue the stream's timestamps."""


class NonFiniteObservation(GocpdError, ValueError):
    """An incoming batch holds a NaN or infinite input or output."""


class ZeroVariance(GocpdError):
    """A channel has zero variance and cannot be standardized."""


class EmptyLog(GocpdError):
    """An instrumentation log contains no usable records."""


class ConfigError(GocpdError, ValueError):
    """A configuration document is missing fields or holds invalid values."""


def is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


# What a value of each declared field type must be. Numpy integers and
# floats are numbers, a bool is not, and a list entry must be finite (by a
# comparison, which a huge int passes).
_KINDS = {
    "int": ("an integer", is_int),
    "float": ("a number", is_number),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list[int]": ("a list of integers", lambda v: isinstance(v, list) and all(map(is_int, v))),
    "list[float]": ("a list of finite numbers", lambda v: isinstance(v, list) and all(
        is_number(x) and -math.inf < x < math.inf for x in v)),
}


def check_keys(doc, where: str, known, required=()) -> None:
    """Raise ConfigError naming the document ``where`` unless ``doc`` is a JSON
    object of ``known`` fields that holds every ``required`` one."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(map(str, set(doc) - set(known)))
    if unknown:
        raise ConfigError(f"{where} has unknown field(s): {', '.join(unknown)} "
                          f"(known: {', '.join(known)})")
    missing = [name for name in required if name not in doc]
    if missing:
        raise ConfigError(f"{where} missing required field(s): {', '.join(missing)}")


def check_fields(owner, prefix: str = "", **bounds) -> None:
    """Raise ConfigError naming the first field of the dataclass ``owner``
    whose value is not of its declared kind, or breaks its bound.

    Kinds are read from the annotations, which the declaring module keeps as
    strings (``from __future__ import annotations``); a field of any other
    type is left to its class. A bound is ``">= limit"`` or ``"> limit"``,
    which NaN fails, or a tuple of the allowed values. Values are checked,
    never converted.
    """
    for f in fields(owner):
        value = getattr(owner, f.name)
        kind, ok = _KINDS.get(f.type, ("", lambda v: True))
        if not ok(value):
            raise ConfigError(f"{prefix}{f.name} must be {kind}, got {value!r}")
    for name, bound in bounds.items():
        value = getattr(owner, name)
        if isinstance(bound, tuple):
            ok, bound = value in bound, f"one of {bound}"
        else:
            op, limit = bound.split()
            ok = value >= float(limit) if op == ">=" else value > float(limit)
        if not ok:
            raise ConfigError(f"{prefix}{name} must be {bound}, got {value!r}")
