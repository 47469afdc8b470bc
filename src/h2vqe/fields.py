"""Typed reads of config-document fields.

Config, Hamiltonian and counts files are JSON, so a field arrives as a
bool, number, string, list or object. Each ``from_dict`` reads its fields
through :func:`check` or :func:`read`, which raise ``ValueError`` on a
wrong type, so a bad file fails when it is loaded rather than partway
through a run.
"""

from __future__ import annotations

_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    str: "a string",
    bool: "true or false",
    dict: "an object",
    list: "a list",
}


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
