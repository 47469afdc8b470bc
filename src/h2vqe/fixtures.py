"""Bundled reference count sets for the 4-qubit Hamiltonian.

Five 8192-shot measurement records over the 16 basis states, listed in
q0-leftmost order (tuple position read as a bitstring with qubit 0 as the
leading character). Sets A and B are ground-state-quality measurements of
circuits 0 (all-Z) and 1 (X on qubits 0 and 2); set C0 is a circuit-0
record of an excited state. They pin the bit-order convention (sets A and
B evaluate to -1.8422 and -1.8464 Ha) and serve as CLI/test fixtures.
"""

from __future__ import annotations

from .sim import BitOrder, CountsVector

FIXTURE_SHOTS = 8192

# circuit 0 measures in the all-Z basis, circuit 1 after H on qubits 0 and 2
CIRCUIT0_BASIS = ("Z", "Z", "Z", "Z")
CIRCUIT1_BASIS = ("X", "Z", "X", "Z")

_RAW = {
    "A0": (22, 4, 9, 81, 126, 0, 34, 0, 1, 2, 1, 0, 29, 0, 7880, 3),
    "A1": (10, 9, 7, 23, 1220, 0, 2378, 2, 1, 11, 19, 31, 2543, 0, 1935, 3),
    "B0": (21, 2, 2, 8, 183, 0, 106, 1, 2, 0, 4, 0, 12, 0, 7839, 12),
    "B1": (0, 3, 16, 10, 1111, 2, 2026, 2, 3, 1, 7, 0, 3286, 8, 1714, 3),
    "C0": (3, 2, 208, 7269, 0, 13, 28, 6, 7, 19, 2, 132, 4, 262, 7, 230),
}

ENERGY_SET_A = -1.8422
ENERGY_SET_B = -1.8464

FIXTURE_NAMES = tuple(sorted(_RAW))


def raw_counts(name: str) -> tuple[int, ...]:
    """The reference tuple as tabulated, still in q0-leftmost order."""
    try:
        return _RAW[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None


def fixture_counts(name: str) -> CountsVector:
    """Fixture as a CountsVector in the internal (q0_rightmost) order."""
    raw = CountsVector(raw_counts(name), FIXTURE_SHOTS)
    return raw.reordered(BitOrder.Q0_LEFTMOST)


def fixture_basis(name: str) -> tuple[str, ...]:
    """Per-qubit measurement basis of the fixture's circuit."""
    return CIRCUIT1_BASIS if name.endswith("1") else CIRCUIT0_BASIS
