"""Exception hierarchy shared across the simulator, and the converters by
which every reader of an outside JSON document (config, calibration,
checkpoint) admits a value: each takes exactly its JSON type, coerces
nothing, and raises `TypeError` or `ValueError` for the reader to report
as a `ConfigError`."""

import sys


class FedsimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(FedsimError):
    """Invalid configuration, plan, or scenario input."""


class ProtocolError(FedsimError):
    """Violation of an aggregation or versioning contract."""


class SimulationError(FedsimError):
    """A run cannot make progress (e.g. no client ever participates)."""


class IncompleteLogError(FedsimError):
    """A metrics log is truncated or internally inconsistent."""


def integer(value) -> int:
    """A JSON integer; `int()` would truncate 2.9, take true and parse "3"."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def number(value) -> float:
    """A JSON integer or float, as a finite float; `float()` would take
    true and "0.5", and Python's JSON reader takes NaN and Infinity."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN fails it, as does an int past float range
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def string(value) -> str:
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def array(item):
    """A converter for a JSON array: the tuple of its items, each converted by `item`."""
    def convert(value) -> tuple:
        if type(value) is not list:
            raise TypeError(f"expected an array, got {value!r}")
        return tuple(map(item, value))
    return convert


def mapping(item):
    """A converter for a JSON object: the dict of its values, each converted by `item`."""
    def convert(value) -> dict:
        if type(value) is not dict:
            raise TypeError(f"expected an object, got {value!r}")
        return {key: item(v) for key, v in value.items()}
    return convert


def section(doc, table: dict, context: str) -> dict:
    """Convert one JSON object through its key table.

    ``table`` maps every allowed key to a converter.  Unknown keys, and
    values a converter rejects, raise `ConfigError` naming the section.
    Absent keys and nulls are left out, so the reader's defaults apply.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(doc) - set(table)
    if unknown:
        raise ConfigError(
            f"unknown field(s) {sorted(unknown)} in {context}; allowed: {sorted(table)}"
        )
    fields = {}
    for key, value in doc.items():
        if value is not None:
            try:
                fields[key] = table[key](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{context}.{key}: {exc}") from None
    return fields
