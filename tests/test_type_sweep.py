"""Every outside JSON value is admitted only at its own type.

Each node of each built-in scenario document, and of the shipped
calibration's read part, is replaced in turn by a value of every other JSON
type.  Each result must be a `ConfigError`: neither another exception (a
crash) nor a load (a silent misread).  Null is not a replacement, since it
means "take the default"; an integer and a float are one type.
"""

import json
from importlib import resources

import pytest

from fedsim import scenarios
from fedsim.config import config_from_dict
from fedsim.costs import load_calibration
from fedsim.errors import ConfigError

# One value of each JSON type other than null, each one that a lax reader
# would take: `int("1")`, `float(True)`, `tuple([1])`, `dict({...})`.
SAMPLES = {"boolean": True, "number": 1, "string": "1", "array": [1],
           "object": {"reference": 1}}

# A config path whose value may take more than one JSON type.
OTHER_TYPES = {("eval", "scenario"): {"string", "object"}}


def json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def nodes(value, path=()):
    """(path, value) for every node below `value`.  An array of 60 or more
    items (the clients of overlap-60 and scale-800, and scale-800's plan
    rows) is swept at its first item only."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value[:1] if len(value) >= 60 else value)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from nodes(child, path + (key,))


def substitutions(doc):
    """(path, type name, changed document) for each node of `doc` and each
    other JSON type."""
    text = json.dumps(doc)
    for path, value in list(nodes(doc)):
        allowed = OTHER_TYPES.get(tuple(k for k in path if isinstance(k, str)), set())
        for kind, sample in SAMPLES.items():
            if kind == json_type(value) or kind in allowed:
                continue
            changed = json.loads(text)
            *parents, last = path
            target = changed
            for key in parents:
                target = target[key]
            target[last] = sample
            yield path, kind, changed


def outcome(load, doc) -> str | None:
    """None when `load(doc)` raises `ConfigError`; else what it did instead."""
    try:
        load(doc)
    except ConfigError:
        return None
    except Exception as exc:  # noqa: BLE001 - any other exception is the finding
        return f"raised {type(exc).__name__}: {exc}"
    return "loaded"


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_scenario_value_of_another_type_is_a_config_error(name):
    builder, _ = scenarios.SCENARIOS[name]
    found = [(path, kind, what) for path, kind, doc in substitutions(builder(seed=0))
             if (what := outcome(config_from_dict, doc)) is not None]
    assert found == []


# The calibration keys some run reads; the file's others are ignored.
READ_KEYS = ("architectures", "fedprox_time_factor", "idle_power_w", "idle_util_pct_range")


def test_calibration_value_of_another_type_is_a_config_error(tmp_path):
    doc = json.loads(
        resources.files("fedsim.data").joinpath("cost_calibration.json").read_text())
    path = tmp_path / "cal.json"

    def load(changed):
        path.write_text(json.dumps(changed))
        load_calibration(str(path))

    read = {key: doc[key] for key in READ_KEYS}
    found = [(p, kind, what) for p, kind, changed in substitutions(read)
             if (what := outcome(load, {**doc, **changed})) is not None]
    assert found == []
