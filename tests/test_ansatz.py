"""Ansatz construction: parameter accounting, gate order, entanglers."""

import numpy as np
import pytest

from h2vqe import ansatz
from h2vqe.ansatz import (
    AnsatzSpec,
    Circuit,
    Gate,
    build_circuit,
    entangler_pairs,
    parameter_count,
)
from h2vqe.pauli import MeasurementGroup
from h2vqe.sim import post_rotations, statevector


@pytest.mark.parametrize(
    "form,entanglement,reps,n,expected",
    [
        ("ry", "linear", 2, 4, 12),
        ("ryrz", "linear", 2, 4, 24),
        ("ry", "full", 1, 2, 4),
        ("ryrz", "circular", 3, 5, 40),
    ],
)
def test_parameter_count(form, entanglement, reps, n, expected):
    spec = AnsatzSpec(form, entanglement, reps, n)
    assert parameter_count(spec) == expected


def test_gate_sequence_ry_linear_reps1_n2():
    circ = build_circuit(AnsatzSpec("ry", "linear", 1, 2), [0.1, 0.2, 0.3, 0.4])
    names = [(g.name, g.qubits) for g in circ.gates]
    assert names == [
        ("ry", (0,)), ("ry", (1,)), ("cx", (0, 1)), ("ry", (0,)), ("ry", (1,)),
    ]
    assert [g.angle for g in circ.gates if g.name == "ry"] == [0.1, 0.2, 0.3, 0.4]


def test_zero_angles_fix_the_vacuum():
    spec = AnsatzSpec("ry", "linear", 2, 4)
    state = statevector(build_circuit(spec, np.zeros(12)))
    assert abs(state[0]) == pytest.approx(1.0, abs=1e-12)


def test_full_entangler_pair_count():
    circ = build_circuit(AnsatzSpec("ry", "full", 1, 4), np.zeros(8))
    assert sum(1 for g in circ.gates if g.name == "cx") == 6


@pytest.mark.parametrize(
    "entanglement,n,expected",
    [("linear", 4, 3), ("circular", 4, 4), ("full", 4, 6), ("full", 5, 10)],
)
def test_entangler_sizes(entanglement, n, expected):
    assert len(entangler_pairs(AnsatzSpec("ry", entanglement, 1, n))) == expected


def test_gate_count_formula():
    for form, r in (("ry", 1), ("ryrz", 2)):
        for ent, size in (("linear", 3), ("circular", 4), ("full", 6)):
            spec = AnsatzSpec(form, ent, 2, 4)
            circ = build_circuit(spec, np.zeros(parameter_count(spec)))
            rotations = sum(1 for g in circ.gates if g.name in ("ry", "rz"))
            cxs = sum(1 for g in circ.gates if g.name == "cx")
            assert rotations == 4 * 3 * r
            assert cxs == 2 * size


def test_deterministic_construction():
    spec = AnsatzSpec("ryrz", "circular", 2, 3)
    params = np.linspace(-1, 1, parameter_count(spec))
    assert build_circuit(spec, params) == build_circuit(spec, params)


def test_unit_norm_for_random_parameters():
    rng = np.random.default_rng(17)
    for spec in (
        AnsatzSpec("ry", "linear", 2, 4),
        AnsatzSpec("ryrz", "full", 2, 4),
        AnsatzSpec("ryrz", "circular", 1, 3),
    ):
        for _ in range(20):
            params = rng.uniform(-np.pi, np.pi, parameter_count(spec))
            state = statevector(build_circuit(spec, params))
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_parameter_length_mismatch():
    with pytest.raises(ValueError, match="expected 12"):
        build_circuit(AnsatzSpec(), np.zeros(11))


def test_spec_validation():
    with pytest.raises(ValueError):
        AnsatzSpec(form="rx")
    with pytest.raises(ValueError):
        AnsatzSpec(entanglement="ladder")
    with pytest.raises(ValueError):
        AnsatzSpec(reps=0)
    with pytest.raises(ValueError):
        AnsatzSpec(n_qubits=1)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("cx", (1, 1))
    with pytest.raises(ValueError):
        Gate("ry", (0,), float("inf"))
    with pytest.raises(ValueError):
        Gate("h", (0,), 0.5)
    with pytest.raises(ValueError):
        Circuit(2, (Gate("ry", (5,), 0.1),))


def test_circuit_range_error_names_first_bad_gate():
    gates = (Gate("ry", (0,), 0.1), Gate("cx", (1, 2)), Gate("ry", (-1,), 0.2))
    message = r"gate cx on \(1, 2\) out of range for 2 qubits"
    with pytest.raises(ValueError, match=message):
        Circuit(2, gates)
    with pytest.raises(ValueError, match=r"gate ry on \(-1,\) out of range"):
        Circuit(2, gates[2:])


def test_spec_from_dict():
    spec = AnsatzSpec.from_dict({"form": "RyRz", "entanglement": "FULL", "reps": 3})
    assert spec == AnsatzSpec("ryrz", "full", 3, 4)
    assert AnsatzSpec.from_dict(spec.to_dict()) == spec


def test_circuit_concat():
    a = build_circuit(AnsatzSpec("ry", "linear", 1, 2), np.zeros(4))
    b = Circuit(2, (Gate("h", (0,)),))
    joined = a.concat(b)
    assert len(joined.gates) == len(a.gates) + 1
    with pytest.raises(ValueError):
        a.concat(Circuit(3, ()))


def reference_circuit(spec, params):
    """The ansatz built gate by gate from the module docstring's description."""
    n, gates, k = spec.n_qubits, [], 0
    pairs = [(i, i + 1) for i in range(n - 1)]
    if spec.entanglement == "circular":
        pairs.append((n - 1, 0))
    elif spec.entanglement == "full":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for layer in range(spec.reps + 1):
        if layer:
            gates += [Gate("cx", pair) for pair in pairs]
        for name in ("ry", "rz") if spec.form == "ryrz" else ("ry",):
            for q in range(n):
                gates.append(Gate(name, (q,), float(params[k])))
                k += 1
    assert k == len(params)
    return Circuit(n, tuple(gates))


@pytest.mark.parametrize("form", ["ry", "ryrz"])
@pytest.mark.parametrize("entanglement", ["linear", "circular", "full"])
def test_build_circuit_matches_gate_by_gate_reference(form, entanglement):
    rng = np.random.default_rng(71)
    for reps in (1, 2, 3):
        for n in (2, 3, 4, 5):
            spec = AnsatzSpec(form, entanglement, reps, n)
            for _ in range(2):  # the second build reuses the cached layout
                params = rng.uniform(-4, 4, parameter_count(spec))
                assert build_circuit(spec, params) == reference_circuit(spec, params)


def test_cached_layout_still_checks_every_build():
    spec = AnsatzSpec("ryrz", "circular", 2, 3)
    params = np.linspace(-1, 1, parameter_count(spec))
    build_circuit(spec, params)
    params[5] = np.nan
    with pytest.raises(ValueError, match="non-finite rotation angle"):
        build_circuit(spec, params)
    with pytest.raises(ValueError, match="expected 18 parameters, got 17"):
        build_circuit(spec, params[:-1])


@pytest.mark.parametrize("form", ["ry", "ryrz"])
@pytest.mark.parametrize("entanglement", ["linear", "circular", "full"])
def test_concat_equals_scanned_construction(form, entanglement):
    rng = np.random.default_rng(29)
    for n in (2, 3, 4, 5):
        spec = AnsatzSpec(form, entanglement, 2, n)
        for _ in range(4):
            a = build_circuit(spec, rng.uniform(-4, 4, parameter_count(spec)))
            basis = tuple(rng.choice(["X", "Z"], n))
            b = post_rotations(MeasurementGroup(0, basis, ()))
            assert a.concat(b) == Circuit(n, a.gates + b.gates)
            assert a == Circuit(n, a.gates)


def test_concat_empty_returns_self_and_checks_width():
    a = build_circuit(AnsatzSpec("ry", "full", 1, 3), np.zeros(6))
    assert a.concat(Circuit(3, ())) is a
    with pytest.raises(ValueError, match="qubit count mismatch"):
        a.concat(Circuit(4, ()))
    with pytest.raises(ValueError, match="qubit count mismatch"):
        a.concat(Circuit(2, (Gate("h", (0,)),)))


def test_layout_scan_rejects_out_of_range_entangler(monkeypatch):
    spec = AnsatzSpec("ryrz", "circular", 2, 3)
    ansatz._layout.cache_clear()
    monkeypatch.setattr(ansatz, "entangler_pairs", lambda spec: ((0, 1), (2, 3)))
    with pytest.raises(ValueError, match=r"gate cx on \(2, 3\) out of range for 3"):
        build_circuit(spec, np.zeros(parameter_count(spec)))


@pytest.mark.parametrize("form", ["ry", "ryrz"])
@pytest.mark.parametrize("entanglement", ["linear", "circular", "full"])
def test_built_gates_equal_checked_gates(form, entanglement):
    spec = AnsatzSpec(form, entanglement, 2, 4)
    params = np.random.default_rng(43).uniform(-4, 4, parameter_count(spec))
    for gate in build_circuit(spec, params).gates:
        checked = Gate(gate.name, gate.qubits, gate.angle)
        assert type(gate) is Gate and gate == checked and hash(gate) == hash(checked)
        assert vars(gate) == vars(checked)
        if gate.angle is not None:
            assert type(gate.angle) is float


def finite_but(k, value, size=12):
    return [0.25] * k + [value] + [0.25] * (size - 1 - k)


@pytest.mark.parametrize("params, error, message", [
    (np.zeros(11), ValueError, "expected 12 parameters, got 11"),
    (finite_but(12, np.nan, 13), ValueError, "expected 12 parameters, got 13"),
    (finite_but(11, np.nan), ValueError, "non-finite rotation angle"),
    (finite_but(4, np.nan), ValueError, "non-finite rotation angle"),
    (finite_but(0, np.inf), ValueError, "non-finite rotation angle"),
    (finite_but(7, -np.inf), ValueError, "non-finite rotation angle"),
    (finite_but(3, "nan"), ValueError, "non-finite rotation angle"),
    (finite_but(5, "a"), ValueError, "could not convert string to float: 'a'"),
    (finite_but(5, None), TypeError,
     "float() argument must be a string or a real number, not 'NoneType'"),
    (finite_but(12, "a", 13), ValueError, "could not convert string to float: 'a'"),
], ids=["short", "long-with-nan", "nan-last", "nan-inside", "inf", "-inf",
        "nan-string", "non-numeric", "none", "non-numeric-long"])
def test_bad_parameters_raise_as_before(params, error, message):
    # each entry is converted before the length is checked, and the length
    # before any angle's finiteness
    with pytest.raises(error) as excinfo:
        build_circuit(AnsatzSpec(), params)
    assert type(excinfo.value) is error and str(excinfo.value) == message
