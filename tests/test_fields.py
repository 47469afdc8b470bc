"""Declared field values: each config rejects a value just past any bound."""

import dataclasses
import math

import pytest

from h2vqe.ansatz import AnsatzSpec
from h2vqe.cli import ExperimentConfig
from h2vqe.optim import OptimizerConfig
from h2vqe.sim import NoiseModel
from h2vqe.vqe import VqeConfig


def edge(kind: type, key: str, bound):
    """(a value just past the limit ``key`` on ``bound``, one just within it)."""
    if kind is int:
        below, above = bound - 1, bound + 1
    else:
        below, above = math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)
    return {
        "gt": (bound, above),
        "ge": (below, bound),
        "lt": (bound, below),
        "le": (above, bound),
    }[key]


@pytest.mark.parametrize(
    "cls", [AnsatzSpec, OptimizerConfig, VqeConfig, ExperimentConfig, NoiseModel]
)
def test_declared_values_enforced(cls):
    defaults = cls()
    for f in dataclasses.fields(cls):
        kind = type(getattr(defaults, f.name))
        rejected, accepted = [], []
        if kind is float:
            rejected += [math.inf, -math.inf, math.nan]
        for key, bound in f.metadata.items():
            if key == "choices":
                rejected.append(f"not {bound[0]}")
                accepted += bound
            elif key != "caseless":
                outside, inside = edge(kind, key, bound)
                rejected.append(outside)
                accepted.append(inside)
        for value in rejected:
            with pytest.raises(ValueError, match=f"^{f.name} must be"):
                cls(**{f.name: value})
        for value in accepted:
            assert getattr(cls(**{f.name: value}), f.name) == value
