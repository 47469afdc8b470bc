"""Typed reads of config-document fields.

Config, Hamiltonian and counts files are JSON, so a field arrives as a
bool, number, string, list or object. :func:`check` and :func:`read` raise
``ValueError`` on a wrong type, so a bad file fails when it is loaded
rather than partway through a run.

Config blocks are frozen dataclasses, and their fields are the schema:
:func:`parse` accepts exactly the field names as keys, checks each value
against the type of its field's default, hands a value whose default has
a ``from_dict`` to that method, and rejects every other key. :func:`to_dict`
is the inverse.

A field built by :func:`bounded` or :func:`choice` also declares its valid
values in its metadata, and :func:`validate`, which each config's
``__post_init__`` calls, applies them and rejects a non-finite float. A
caseless choice is lowercased by :func:`parse` on the way in.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator

_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "true or false",
    dict: "an object",
    list: "a list",
}

_NUMERIC = {int: numbers.Integral, float: numbers.Real}

# metadata key: the test a value must pass against its bound, and its words
_LIMITS = {
    "gt": (operator.gt, "> {}"),
    "ge": (operator.ge, ">= {}"),
    "lt": (operator.lt, "< {}"),
    "le": (operator.le, "<= {}"),
    "choices": (lambda value, choices: value in choices, "one of {}"),
}
_AGAINST_ZERO = {"gt": "positive", "ge": "non-negative"}


def bounded(default, **limits) -> dataclasses.Field:
    """A field whose value must pass each of ``limits``: gt, ge, lt, le, choices."""
    return dataclasses.field(default=default, metadata=limits)


def choice(default: str, choices: tuple, caseless: bool = False) -> dataclasses.Field:
    """A string field whose value must be one of ``choices``."""
    return bounded(default, choices=choices, caseless=caseless)


def validate(obj) -> None:
    """ValueError naming the first field of ``obj`` outside its declared values.

    A field whose default is an int takes only an integer (numpy's too), one
    whose default is a float any real number, and neither takes a bool.
    """
    for f in dataclasses.fields(obj):
        name, value = f.name, getattr(obj, f.name)
        numeric = _NUMERIC.get(type(f.default))
        if numeric and (isinstance(value, bool) or not isinstance(value, numeric)):
            words = _KIND_NAMES[type(f.default)]
            raise ValueError(f"{name} must be {words}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        for key, (test, words) in _LIMITS.items():
            bound = f.metadata.get(key)
            if bound is not None and not test(value, bound):
                if bound == 0 and key in _AGAINST_ZERO:
                    words = _AGAINST_ZERO[key]
                raise ValueError(f"{name} must be {words.format(bound)}, got {value!r}")


def check(value, kind: type, name: str):
    """``value`` as ``kind`` (int, float, str, bool, dict or list), or ValueError.

    An integral float counts as an int and an int as a float; a bool is
    neither.
    """
    if not isinstance(value, bool) or kind is bool:
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if kind is float and isinstance(value, int):
            return float(value)
        if isinstance(value, kind):
            return value
    raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def read(doc: dict, key: str, kind: type, default=None):
    """``doc[key]`` checked as ``kind``, or ``default`` when the key is absent."""
    if key not in doc:
        return default
    return check(doc[key], kind, key)


def reject_unknown(doc: dict, known, name: str) -> None:
    """ValueError naming every key of ``doc`` that is not in ``known``."""
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"unknown {name} fields: {unknown}")


def parse(cls, doc, name: str):
    """The dataclass ``cls`` built from the JSON object ``doc``.

    ``cls()`` must build, since its values give each field's type.
    """
    specs = {f.name: f for f in dataclasses.fields(cls)}
    reject_unknown(check(doc, dict, name), specs, name)
    defaults, kwargs = cls(), {}
    for key, value in doc.items():
        default = getattr(defaults, key)
        if hasattr(default, "from_dict"):
            value = type(default).from_dict(check(value, dict, key))
        else:
            value = check(value, type(default), key)
            if specs[key].metadata.get("caseless"):
                value = value.lower()
        kwargs[key] = value
    return cls(**kwargs)


def to_dict(obj) -> dict:
    """The fields of dataclass ``obj`` in order, nested blocks as dicts."""
    doc = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        doc[f.name] = value.to_dict() if hasattr(value, "to_dict") else value
    return doc
