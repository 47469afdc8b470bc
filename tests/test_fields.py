"""Declared field values: each config rejects a value just past any bound."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from h2vqe.ansatz import AnsatzSpec
from h2vqe.cli import ExperimentConfig
from h2vqe.optim import OptimizerConfig
from h2vqe.pauli import Hamiltonian, h2_2qubit
from h2vqe.sim import CountsVector, NoiseModel, counts_from_dict, counts_to_dict
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


@pytest.mark.parametrize("cls, key, value, words", [
    (AnsatzSpec, "reps", 2.5, "an integer"),
    (AnsatzSpec, "reps", 2.0, "an integer"),
    (AnsatzSpec, "reps", True, "an integer"),
    (VqeConfig, "shots", 100.5, "an integer"),
    (VqeConfig, "seed", 3.9, "an integer"),
    (OptimizerConfig, "max_iterations", 2.5, "an integer"),
    (OptimizerConfig, "tolerance", True, "a number"),
    (ExperimentConfig, "n_runs", np.float64(3.0), "an integer"),
])
def test_non_integer_or_bool_rejected(cls, key, value, words):
    with pytest.raises(ValueError, match=f"^{key} must be {words}, got"):
        cls(**{key: value})


def test_numpy_numbers_accepted():
    assert VqeConfig(seed=np.int64(5)).seed == 5
    assert AnsatzSpec(reps=np.uint8(3)).reps == 3
    assert OptimizerConfig(tolerance=np.float64(1e-3), rhobeg=2).rhobeg == 2


def test_json_integral_float_still_read_as_int():
    spec = AnsatzSpec.from_dict({"reps": 3.0})
    assert spec.reps == 3 and type(spec.reps) is int
    with pytest.raises(ValueError, match="^reps must be an integer"):
        AnsatzSpec.from_dict({"reps": 2.5})


# document kind -> (its loader, a valid document)
LOADERS = {
    "counts": (counts_from_dict, counts_to_dict(CountsVector((3, 0, 0, 1), 4), "XZ")),
    "hamiltonian": (Hamiltonian.from_dict, h2_2qubit().to_dict()),
}


@pytest.mark.parametrize("path", [
    ("counts", "n_qubits"),
    ("counts", "shots"),
    ("counts", "group_basis"),
    ("counts", "counts"),
    ("hamiltonian", "n_qubits"),
    ("hamiltonian", "terms"),
    ("hamiltonian", "terms", 1, "string"),
    ("hamiltonian", "terms", 1, "coeff"),
], ids=lambda path: "-".join(map(str, path)))
def test_missing_required_field_named(path):
    kind, *parents, key = path
    load, doc = LOADERS[kind]
    doc = copy.deepcopy(doc)
    target = doc
    for step in parents:
        target = target[step]
    del target[key]
    with pytest.raises(ValueError, match=f"^missing required field '{key}'$"):
        load(doc)
