"""Pauli-string Hamiltonians, measurement grouping, and exact diagonalization.

Hamiltonians are weighted sums of Pauli strings. The two built-in operators
describe the hydrogen molecule at 0.725 A in a 4-qubit and a reduced 2-qubit
encoding; their coefficients are in Hartree. Qubit 0 always occupies the
least-significant tensor slot, so basis index ``i`` carries qubit ``k`` in
bit ``k``. Text labels like ``"ZIXZ"`` are written with the highest qubit
leftmost (``bit_order: q_high_left`` in serialized files).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .fields import check, read

PAULI_LABELS = ("I", "X", "Y", "Z")

_SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# largest n for a dense 2^n-square Hamiltonian or gate-noise density matrix
DENSE_QUBIT_CAP = 8

# largest ansatz a run simulates: its statevector holds 2^n floats, real or
# complex, so at most 16 MiB at 20 qubits but 2 PiB or more at 48
STATEVECTOR_QUBIT_CAP = 20


@dataclass(frozen=True)
class PauliString:
    """One label from {I, X, Y, Z} per qubit; ``labels[k]`` acts on qubit k."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("empty Pauli string")
        bad = [l for l in self.labels if l not in PAULI_LABELS]
        if bad:
            raise ValueError(f"invalid Pauli labels {bad}")

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def support(self) -> tuple[int, ...]:
        """Qubits on which the string acts non-trivially."""
        return tuple(q for q, l in enumerate(self.labels) if l != "I")

    @property
    def is_identity(self) -> bool:
        return all(l == "I" for l in self.labels)

    def to_label(self) -> str:
        """Text form with the highest qubit leftmost, e.g. ``"ZIXZ"``."""
        return "".join(reversed(self.labels))

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        return cls(tuple(reversed(label.upper())))

    @classmethod
    def from_ops(cls, n_qubits: int, ops: dict[int, str]) -> "PauliString":
        """Build from a sparse {qubit: label} map, identity elsewhere."""
        labels = ["I"] * n_qubits
        for q, l in ops.items():
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} out of range for {n_qubits} qubits")
            labels[q] = l
        return cls(tuple(labels))


@dataclass(frozen=True)
class PauliTerm:
    coefficient: float
    string: PauliString

    def __post_init__(self) -> None:
        if not math.isfinite(self.coefficient):
            raise ValueError("non-finite coefficient")


@dataclass(frozen=True)
class Hamiltonian:
    """Sum of Pauli terms; duplicate strings are merged at construction."""

    n_qubits: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        for t in self.terms:
            if t.string.n_qubits != self.n_qubits:
                raise ValueError(
                    f"term {t.string.to_label()} has {t.string.n_qubits} qubits, "
                    f"expected {self.n_qubits}"
                )
        merged: dict[tuple[str, ...], float] = {}  # in first-seen order
        for t in self.terms:
            lab = t.string.labels
            merged[lab] = merged.get(lab, 0.0) + t.coefficient
        object.__setattr__(
            self,
            "terms",
            tuple(PauliTerm(c, PauliString(lab)) for lab, c in merged.items()),
        )

    @property
    def identity_coefficient(self) -> float:
        return sum(t.coefficient for t in self.terms if t.string.is_identity)

    def to_dict(self) -> dict:
        return {
            "bit_order": "q_high_left",
            "n_qubits": self.n_qubits,
            "terms": [
                {"coeff": t.coefficient, "string": t.string.to_label()}
                for t in self.terms
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Hamiltonian":
        check(doc, dict, "Hamiltonian")
        bit_order = read(doc, "bit_order", str, "q_high_left")
        if bit_order != "q_high_left":
            raise ValueError(f"unsupported bit_order {bit_order!r}")
        n = read(doc, "n_qubits", int)
        terms = []
        for t in read(doc, "terms", list):
            check(t, dict, "term")
            label = read(t, "string", str)
            coeff = read(t, "coeff", float)
            terms.append(PauliTerm(coeff, PauliString.from_label(label)))
        return cls(n, tuple(terms))


def load_hamiltonian(path: str) -> Hamiltonian:
    """Read a Hamiltonian file, Y terms and all."""
    with open(path) as fh:
        return Hamiltonian.from_dict(json.load(fh))


def check_measurable(h: Hamiltonian) -> None:
    """ValueError naming ``h``'s Y terms, which have no measurement basis."""
    y_terms = [t.string.to_label() for t in h.terms if "Y" in t.string.labels]
    if y_terms:
        raise ValueError(
            f"terms {y_terms} need a Y measurement basis; only X and Z are supported"
        )


@dataclass(frozen=True)
class MeasurementGroup:
    """Terms measurable together because they share a per-qubit basis.

    ``basis[k]`` is the measurement basis of qubit k ('Z' where no member
    acts, since idle qubits are read in the computational basis anyway).
    """

    group_id: int
    basis: tuple[str, ...]
    terms: tuple[PauliTerm, ...]


# H2 molecule, 4-qubit encoding.
H2_4Q_COEFFS = {
    "c0": -0.80718, "c1": 0.17374, "c2": -0.23047, "c3": 0.12149,
    "c4": 0.16940, "c5": -0.04509, "c6": 0.04509, "c7": 0.16658,
    "c8": 0.17511,
}

# H2 molecule, reduced 2-qubit encoding (same ground-state energy).
H2_2Q_COEFFS = {"c0": -1.05016, "c1": 0.40421, "c2": 0.01135, "c3": 0.18038}


def h2_4qubit() -> Hamiltonian:
    """The 15-term 4-qubit H2 Hamiltonian."""
    c = H2_4Q_COEFFS
    ops: list[tuple[str, dict[int, str]]] = [
        ("c0", {}),
        ("c1", {0: "Z"}),
        ("c2", {0: "Z", 1: "Z"}),
        ("c1", {2: "Z"}),
        ("c2", {1: "Z", 2: "Z", 3: "Z"}),
        ("c3", {1: "Z"}),
        ("c4", {0: "Z", 2: "Z"}),
        ("c5", {0: "X", 1: "Z", 2: "X"}),
        ("c6", {0: "X", 2: "X", 3: "Z"}),
        ("c6", {0: "X", 2: "X"}),
        ("c5", {0: "X", 1: "Z", 2: "X", 3: "Z"}),
        ("c7", {0: "Z", 1: "Z", 2: "Z", 3: "Z"}),
        ("c7", {0: "Z", 1: "Z", 2: "Z"}),
        ("c8", {0: "Z", 2: "Z", 3: "Z"}),
        ("c3", {1: "Z", 3: "Z"}),
    ]
    return Hamiltonian(
        4, tuple(PauliTerm(c[k], PauliString.from_ops(4, o)) for k, o in ops)
    )


def h2_2qubit() -> Hamiltonian:
    """The 5-term 2-qubit H2 Hamiltonian."""
    c = H2_2Q_COEFFS
    ops: list[tuple[str, dict[int, str]]] = [
        ("c0", {}),
        ("c1", {0: "Z"}),
        ("c1", {1: "Z"}),
        ("c2", {0: "Z", 1: "Z"}),
        ("c3", {0: "X", 1: "X"}),
    ]
    return Hamiltonian(
        2, tuple(PauliTerm(c[k], PauliString.from_ops(2, o)) for k, o in ops)
    )


def to_dense(h: Hamiltonian) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the Hamiltonian.

    Qubit 0 sits in the least-significant tensor slot, i.e. the matrix is
    sum of coeff * kron(P_{n-1}, ..., P_1, P_0).
    """
    if h.n_qubits > DENSE_QUBIT_CAP:
        raise ValueError(
            f"{h.n_qubits} qubits exceeds the dense-matrix cap of {DENSE_QUBIT_CAP}"
        )
    dim = 2 ** h.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        op = np.array([[1.0]], dtype=complex)
        for q in range(h.n_qubits):
            op = np.kron(_SINGLE_QUBIT[term.string.labels[q]], op)
        out += term.coefficient * op
    return out


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square, finite, Hermitian matrix, real or complex,
    ascending: LAPACK's ``eigvalsh`` of its Hermitian part."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():  # before arithmetic that would warn on NaN
        raise ValueError("matrix has non-finite entries")
    scale = np.abs(m).max(initial=1.0)  # the largest entry, or 1 if smaller
    if np.abs(m - m.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh((m + m.conj().T) / 2)


def group_terms(
    h: Hamiltonian,
) -> tuple[tuple[MeasurementGroup, ...], float]:
    """Greedy qubit-wise-compatible grouping of the non-identity terms.

    First-fit over terms in declaration order: a term joins the first group
    whose basis it does not contradict (its non-I labels either match the
    group basis or claim a so-far-idle qubit). Returns the groups and the
    identity coefficient, which needs no measurement.
    """
    identity = 0.0
    # basis entries: None until some member claims the qubit
    open_groups: list[tuple[list[str | None], list[PauliTerm]]] = []
    for term in h.terms:
        if term.string.is_identity:
            identity += term.coefficient
            continue
        labels, support = term.string.labels, term.string.support
        for basis, members in open_groups:
            if all(basis[q] is None or basis[q] == labels[q] for q in support):
                break
        else:
            basis, members = [None] * h.n_qubits, []
            open_groups.append((basis, members))
        for q in support:
            basis[q] = labels[q]
        members.append(term)
    groups = tuple(
        MeasurementGroup(
            group_id=i,
            basis=tuple(b if b is not None else "Z" for b in basis),
            terms=tuple(members),
        )
        for i, (basis, members) in enumerate(open_groups)
    )
    return groups, identity
