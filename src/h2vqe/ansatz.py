"""Hardware-efficient variational circuits: rotation layers + CX entanglers.

A circuit is an initial rotation layer followed by ``reps`` repetitions of
[entangling layer, rotation layer]. The 'ry' form rotates every qubit with
Ry(theta); 'ryrz' appends Rz(phi) on every qubit after the Ry sweep.
Entanglers: 'linear' chains CX(i, i+1), 'circular' adds CX(n-1, 0), 'full'
couples every ordered pair i < j. Control is always the lower qubit index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fields

FORMS = ("ry", "ryrz")
ENTANGLEMENTS = ("linear", "circular", "full")


@dataclass(frozen=True)
class Gate:
    """A single gate: 'ry'/'rz' carry an angle, 'h' none, 'cx' two qubits."""

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.name in ("ry", "rz"):
            if len(self.qubits) != 1 or self.angle is None:
                raise ValueError(f"{self.name} needs one qubit and an angle")
            if not math.isfinite(self.angle):
                raise ValueError("non-finite rotation angle")
        elif self.name == "h":
            if len(self.qubits) != 1 or self.angle is not None:
                raise ValueError("h needs exactly one qubit and no angle")
        elif self.name == "cx":
            if len(self.qubits) != 2 or self.angle is not None:
                raise ValueError("cx needs exactly two qubits and no angle")
            if self.qubits[0] == self.qubits[1]:
                raise ValueError("cx control and target must differ")
        else:
            raise ValueError(f"unknown gate {self.name!r}")


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        n, qubits = self.n_qubits, [q for g in self.gates for q in g.qubits]
        if min(qubits, default=0) < 0 or max(qubits, default=0) >= n:
            g = next(g for g in self.gates if not all(0 <= q < n for q in g.qubits))
            raise ValueError(f"gate {g.name} on {g.qubits} out of range for {n} qubits")

    def concat(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        return Circuit(self.n_qubits, self.gates + other.gates)


@dataclass(frozen=True)
class AnsatzSpec:
    form: str = fields.choice("ry", FORMS, caseless=True)
    entanglement: str = fields.choice("linear", ENTANGLEMENTS, caseless=True)
    reps: int = fields.bounded(2, ge=1)
    n_qubits: int = fields.bounded(4, ge=2)  # an entangling layer needs two

    __post_init__ = fields.validate

    def describe(self) -> str:
        return f"{self.form}/{self.entanglement}/reps{self.reps}/n{self.n_qubits}"

    @classmethod
    def from_dict(cls, doc: dict) -> "AnsatzSpec":
        return fields.parse(cls, doc, "ansatz")

    to_dict = fields.to_dict


def entangler_pairs(spec: AnsatzSpec) -> tuple[tuple[int, int], ...]:
    """(control, target) pairs of one entangling layer."""
    n = spec.n_qubits
    if spec.entanglement == "linear":
        return tuple((i, i + 1) for i in range(n - 1))
    if spec.entanglement == "circular":
        return tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def parameter_count(spec: AnsatzSpec) -> int:
    per_layer = spec.n_qubits * (2 if spec.form == "ryrz" else 1)
    return per_layer * (spec.reps + 1)


def build_circuit(spec: AnsatzSpec, params) -> Circuit:
    """Assemble the ansatz circuit for one parameter vector (radians)."""
    params = [float(p) for p in params]
    expected = parameter_count(spec)
    if len(params) != expected:
        raise ValueError(f"expected {expected} parameters, got {len(params)}")
    gates: list[Gate] = []
    k = 0

    def rotation_layer() -> None:
        nonlocal k
        for q in range(spec.n_qubits):
            gates.append(Gate("ry", (q,), params[k]))
            k += 1
        if spec.form == "ryrz":
            for q in range(spec.n_qubits):
                gates.append(Gate("rz", (q,), params[k]))
                k += 1

    rotation_layer()
    for _ in range(spec.reps):
        for c, t in entangler_pairs(spec):
            gates.append(Gate("cx", (c, t)))
        rotation_layer()
    return Circuit(spec.n_qubits, tuple(gates))
