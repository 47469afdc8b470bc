"""Statevector and density-matrix simulation, shot sampling, and noise.

Basis index ``i`` encodes qubit ``k`` in bit ``k`` (qubit 0 least
significant). Gate errors are the depolarizing channel after every gate,
applied exactly to the density matrix; without them the circuit runs as a
statevector. Either path yields one outcome distribution p. Readout errors
flip each measured bit independently, 0 -> 1 with probability p01[q] and
1 -> 0 with p10[q], which is the confusion channel p' = (x)_q A_q p with
A_q = [[1 - p01[q], p10[q]], [p01[q], 1 - p10[q]]] on qubit q's axis.
Every noise arm then draws all shots from p' (p itself without readout
errors) in one multinomial. Shots are i.i.d., so this has the distribution
of per-shot trajectories that insert a random Pauli after a faulty gate
and flip each measured bit.

One gate walker (:func:`_walk`) runs every circuit. Its array has one axis
of width k per qubit: k = 2 for a statevector, and k = 4 for the density
matrix, stored flat so that base-4 digit q of the position of rho[i, j] is
2 * i_q + j_q; axis q then holds qubit q's row and column bits. A qubit's
one-qubit gates wait, fused into one k x k map, until a CX touches the
qubit or the circuit ends; a flush is one matmul on that axis. On rho a
gate U acts as U (x) U*, and a flush also applies the depolarizing map
D(f) of the errors the qubit collected, which commutes with every unitary
on its own qubit. A CX is a cached gather of the entries. The walk starts
in float64 and turns complex at the first rz, so an ry ansatz with H
post-rotations never does complex arithmetic.

The walk is an advance (:func:`_advance`), which leaves every qubit's
fused maps pending, then a flush (:func:`_flush`) of those maps in their
insertion order. :func:`walk_prefix` stops after the advance and returns a
read-only :class:`WalkCheckpoint`; ``run_noisy(..., prefix=checkpoint)``
walks only the gates after the checkpoint's, into a copy of its pending
maps, then flushes. That is the arithmetic of a full walk, so its counts
are bit-identical, and one checkpoint of an ansatz serves every
measurement group's post-rotations.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ansatz import Circuit, Gate
from .fields import bounded, check, read, reject_unknown, validate
from .pauli import MeasurementGroup

DEFAULT_P1 = 0.001
DEFAULT_P2 = 0.005
DEFAULT_READOUT = (0.02, 0.02)

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


@lru_cache(maxsize=256)
def _cx_permutation(n: int, control: int, target: int) -> np.ndarray:
    """Read-only permutation: flip the target bit where control is set."""
    i = np.arange(2**n)
    flip = (i >> control) & 1 == 1
    perm = i.copy()
    perm[flip] ^= 1 << target
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=64)
def _depolarizing_superop(f: float) -> np.ndarray:
    """Read-only depolarizing map on one axis, f = 1 - 4p/3 for error rate p.

    f rho + (1 - f) Tr_q(rho) (x) I/2 equals (1 - p) rho + (p/3) sum_P P rho P,
    and two such maps compose to the one with the product of their f.
    """
    a, b = (1.0 + f) / 2.0, (1.0 - f) / 2.0
    d = np.array([[a, 0, 0, b], [0, f, 0, 0], [0, 0, f, 0], [b, 0, 0, a]])
    d.setflags(write=False)
    return d


def _superop(u: np.ndarray) -> np.ndarray:
    """U (x) U*: rho -> U rho U^dagger on one (row bit, column bit) axis."""
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(4, 4)


@lru_cache(maxsize=32)
def _interleaved_index(n: int) -> np.ndarray:
    """Read-only 2^n x 2^n array of the flat position of each rho[i, j]."""
    i = np.arange(2**n)
    spread = sum(((i >> q) & 1) << (2 * q) for q in range(n))  # bit q -> 2q
    index = 2 * spread[:, None] + spread[None, :]
    index.setflags(write=False)
    return index


@lru_cache(maxsize=256)
def _cx_layout_permutation(n: int, control: int, target: int) -> np.ndarray:
    """Read-only gather that maps the flat rho to CX rho CX."""
    index = _interleaved_index(n)
    flip = _cx_permutation(n, control, target)
    perm = np.empty(4**n, dtype=np.intp)
    perm[index] = index[flip][:, flip]
    perm.setflags(write=False)
    return perm


def _gate_matrix(gate: Gate) -> np.ndarray:
    """2x2 matrix of a one-qubit gate: real for ry and h, complex for rz."""
    if gate.name == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        return np.array([[c, -s], [s, c]])
    if gate.name == "rz":
        half = 0.5j * gate.angle
        return np.array([[cmath.exp(-half), 0.0], [0.0, cmath.exp(half)]])
    return _H_MATRIX


def _on_axis(m: np.ndarray, r: np.ndarray, q: int, n: int, k: int) -> np.ndarray:
    """The k x k map m applied to qubit q's axis of r (k^n leading entries)."""
    return (m @ r.reshape(k ** (n - 1 - q), k, -1)).reshape(r.shape)


def _apply_pending(r: np.ndarray, q: int, m, f: float, n: int, k: int) -> np.ndarray:
    """Qubit q's pending map m (None for none), then D(f) on the rho path."""
    if f != 1.0:
        d = _depolarizing_superop(f)
        m = d if m is None else d @ m
    return r if m is None else _on_axis(m, r, q, n, k)


def _advance(r: np.ndarray, pending: dict, gates, n: int, k: int, f1=1.0, f2=1.0):
    """Apply ``gates`` to ``r``, leaving each qubit's one-qubit maps in ``pending``.

    ``r``'s first axis holds k^n entries: k = 2 walks a statevector (any
    trailing axes ride along), k = 4 the interleaved rho. ``pending`` maps
    qubit -> (product of its gate maps since its last flush, None before
    the first; product of f1 per one-qubit gate and f2 per CX) and is
    updated in place; its insertion order is the order :func:`_flush`
    takes. ``r`` itself is never written to.
    """
    cx_gather = _cx_permutation if k == 2 else _cx_layout_permutation
    for gate in gates:
        if gate.name == "cx":
            for q in gate.qubits:
                if q in pending:
                    r = _apply_pending(r, q, *pending.pop(q), n, k)
            r = r[cx_gather(n, *gate.qubits)]
            for q in gate.qubits:
                pending[q] = (None, f2)
        else:
            (q,) = gate.qubits
            m, f = pending.get(q, (None, 1.0))
            u = _gate_matrix(gate)
            if k == 4:
                u = _superop(u)
            pending[q] = (u if m is None else u @ m, f * f1)
    return r


def _flush(r: np.ndarray, pending: dict, n: int, k: int) -> np.ndarray:
    """Apply every pending map to ``r``, in ``pending``'s insertion order."""
    for q, (m, f) in pending.items():
        r = _apply_pending(r, q, m, f, n, k)
    return r


def _walk(r: np.ndarray, gates, n: int, k: int, f1=1.0, f2=1.0) -> np.ndarray:
    """Apply ``gates`` to ``r`` and flush: :func:`_advance`, then :func:`_flush`."""
    pending: dict = {}
    return _flush(_advance(r, pending, gates, n, k, f1, f2), pending, n, k)


def apply_gate(state: np.ndarray, gate: Gate, n_qubits: int) -> np.ndarray:
    if any(not 0 <= q < n_qubits for q in gate.qubits):
        raise ValueError(f"gate {gate.name} on {gate.qubits} out of range")
    return _walk(state, (gate,), n_qubits, 2)


def zero_state(n_qubits: int) -> np.ndarray:
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_circuit(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    if len(state) != 2**circuit.n_qubits:
        raise ValueError("state dimension does not match circuit qubit count")
    return _walk(state, circuit.gates, circuit.n_qubits, 2)


def _zero(n: int, k: int) -> np.ndarray:
    """|0...0> (k = 2) or its rho (k = 4) as float64 walk input."""
    r = np.zeros(k**n)
    r[0] = 1.0
    return r


def _walk_from_zero(circuit: Circuit, k: int, f1=1.0, f2=1.0) -> np.ndarray:
    """The walk from |0...0> (or its rho), float64 unless an rz ran."""
    n = circuit.n_qubits
    return _walk(_zero(n, k), circuit.gates, n, k, f1, f2)


def statevector(circuit: Circuit) -> np.ndarray:
    """Final state of the circuit started from |0...0>, as complex128."""
    return _walk_from_zero(circuit, 2).astype(complex, copy=False)


def probabilities(circuit: Circuit) -> np.ndarray:
    p = np.abs(_walk_from_zero(circuit, 2)) ** 2
    return p / p.sum()


def post_rotations(group: MeasurementGroup) -> Circuit:
    """Basis-change circuit for one measurement group: H on X-basis qubits."""
    gates = []
    for q, basis in enumerate(group.basis):
        if basis == "X":
            gates.append(Gate("h", (q,)))
        elif basis != "Z":
            raise ValueError(f"unsupported measurement basis {basis!r} on qubit {q}")
    return Circuit(len(group.basis), tuple(gates))


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Depolarizing gate errors plus classical readout bit-flips.

    ``readout`` is one (p_flip_0to1, p_flip_1to0) pair applied to every
    qubit, or a tuple of such pairs, one per qubit. Models that sample
    alike compare equal: the rates of a disabled channel are ignored, and a
    single per-qubit pair equals the flat pair.
    """

    gate_enabled: bool = False
    readout_enabled: bool = False
    p1: float = bounded(DEFAULT_P1, ge=0.0, le=1.0)
    p2: float = bounded(DEFAULT_P2, ge=0.0, le=1.0)
    readout: tuple = DEFAULT_READOUT

    def __post_init__(self) -> None:
        validate(self)
        for p01, p10 in self._readout_pairs():
            if not (0.0 <= p01 <= 1.0 and 0.0 <= p10 <= 1.0):
                raise ValueError(f"readout probability ({p01}, {p10}) outside [0, 1]")

    def _key(self) -> tuple:
        """The rates of each channel as pairs, None where it is disabled."""
        gate = (self.p1, self.p2) if self.gate_enabled else None
        return gate, self._readout_pairs() if self.readout_enabled else None

    def __eq__(self, other) -> bool:
        return isinstance(other, NoiseModel) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _readout_pairs(self) -> tuple[tuple[float, float], ...]:
        if self.readout and isinstance(self.readout[0], (tuple, list)):
            return tuple((float(a), float(b)) for a, b in self.readout)
        a, b = self.readout
        return ((float(a), float(b)),)

    def readout_probs(self, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
        """(p_flip_0to1, p_flip_1to0) arrays, one entry per qubit."""
        pairs = self._readout_pairs()
        if len(pairs) == 1:
            pairs = pairs * n_qubits
        if len(pairs) != n_qubits:
            raise ValueError(
                f"{len(pairs)} readout pairs for {n_qubits} qubits"
            )
        arr = np.array(pairs, dtype=float)
        return arr[:, 0], arr[:, 1]

    @property
    def gate_active(self) -> bool:
        """Whether gate errors can fire, which selects the density-matrix path."""
        return self.gate_enabled and (self.p1 > 0 or self.p2 > 0)

    @classmethod
    def ideal(cls) -> "NoiseModel":
        return cls()

    @classmethod
    def from_dict(cls, doc: dict) -> "NoiseModel":
        reject_unknown(doc, ("gate_errors", "readout_errors"), "noise")
        gate = doc.get("gate_errors", False)
        readout = doc.get("readout_errors", False)
        for key, value in (("gate_errors", gate), ("readout_errors", readout)):
            if not isinstance(value, dict):
                check(value, bool, key)
        # an object turns its channel on, even {}: its absent rates take defaults
        kwargs: dict = {
            "gate_enabled": gate is not False,
            "readout_enabled": readout is not False,
        }
        if isinstance(gate, dict):
            reject_unknown(gate, ("p1", "p2"), "gate_errors")
            kwargs["p1"] = read(gate, "p1", float, DEFAULT_P1)
            kwargs["p2"] = read(gate, "p2", float, DEFAULT_P2)
        if isinstance(readout, dict):
            reject_unknown(readout, ("p01", "p10", "per_qubit"), "readout_errors")
            if "per_qubit" in readout and len(readout) > 1:
                raise ValueError("readout_errors: per_qubit excludes p01 and p10")
            if "per_qubit" in readout:
                pairs = check(readout["per_qubit"], list, "per_qubit")
                if not pairs or any(
                    not isinstance(p, list) or len(p) != 2 for p in pairs
                ):
                    raise ValueError(
                        f"per_qubit must be a non-empty list of [p01, p10] pairs, "
                        f"got {pairs!r}"
                    )
                kwargs["readout"] = tuple(
                    (check(a, float, "p01"), check(b, float, "p10")) for a, b in pairs
                )
            else:
                kwargs["readout"] = (
                    read(readout, "p01", float, DEFAULT_READOUT[0]),
                    read(readout, "p10", float, DEFAULT_READOUT[1]),
                )
        return cls(**kwargs)

    def to_dict(self) -> dict:
        gate = {"p1": self.p1, "p2": self.p2} if self.gate_enabled else False
        readout, pairs = False, self._readout_pairs()
        if self.readout_enabled and len(pairs) == 1:
            readout = {"p01": pairs[0][0], "p10": pairs[0][1]}
        elif self.readout_enabled:
            readout = {"per_qubit": [list(p) for p in pairs]}
        return {"gate_errors": gate, "readout_errors": readout}

    def describe(self) -> str:
        parts = []
        if self.gate_enabled:
            parts.append(f"gate(p1={self.p1:g},p2={self.p2:g})")
        if self.readout_enabled:
            pairs = self._readout_pairs()
            if len(pairs) == 1:
                parts.append(f"readout(p01={pairs[0][0]:g},p10={pairs[0][1]:g})")
            else:
                parts.append("readout(per-qubit)")
        return "+".join(parts) if parts else "ideal"


class BitOrder(enum.Enum):
    """How a counts index maps to qubits.

    Q0_RIGHTMOST: bit k of the index is qubit k, the in-memory layout of
    every CountsVector. Q0_LEFTMOST: bit n-1-k is qubit k, so the index
    printed as an n-bit string carries qubit 0 in its leading character;
    serialized counts and printed tables use it. Functions that take an
    order also accept its string value, e.g. ``"q0_leftmost"``.
    """

    Q0_LEFTMOST = "q0_leftmost"
    Q0_RIGHTMOST = "q0_rightmost"


@lru_cache(maxsize=32)
def bit_reversal_permutation(n_qubits: int) -> np.ndarray:
    """Read-only perm with perm[i] = i with its n-bit pattern reversed."""
    i = np.arange(2**n_qubits)
    perm = np.zeros_like(i)
    for b in range(n_qubits):
        perm |= ((i >> b) & 1) << (n_qubits - 1 - b)
    perm.setflags(write=False)
    return perm


@dataclass(frozen=True)
class CountsVector:
    """Histogram over the 2^n basis states from ``shots`` measurements."""

    counts: tuple[int, ...]
    shots: int

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        dim = len(self.counts)
        if dim < 2 or dim & (dim - 1):
            raise ValueError("counts length must be a power of two")
        if any(c < 0 for c in self.counts):
            raise ValueError("negative count")
        if sum(self.counts) != self.shots:
            raise ValueError("counts do not sum to shots")

    @property
    def n_qubits(self) -> int:
        return len(self.counts).bit_length() - 1

    def probabilities(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.shots

    def reordered(self, order: BitOrder | str) -> "CountsVector":
        """These counts moved between ``order`` and the Q0_RIGHTMOST layout.

        Bit reversal is its own inverse, so one call serves both directions.
        """
        if BitOrder(order) is BitOrder.Q0_RIGHTMOST:
            return self
        perm = bit_reversal_permutation(self.n_qubits)
        return CountsVector(tuple(np.asarray(self.counts)[perm].tolist()), self.shots)


def _sample(
    probs: np.ndarray,
    shots: int,
    seed,
    noise: NoiseModel | None,
    n: int,
) -> CountsVector:
    if noise is not None and noise.readout_enabled:
        p01, p10 = noise.readout_probs(n)
        for q in range(n):
            a = np.array([[1.0 - p01[q], p10[q]], [p01[q], 1.0 - p10[q]]])
            probs = _on_axis(a, probs, q, n, 2)
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return CountsVector(tuple(counts.tolist()), shots)


def sample_counts(
    state: np.ndarray, shots: int, seed, noise: NoiseModel | None = None
) -> CountsVector:
    """Multinomial shot sampling from |amplitude|^2 after readout errors.

    Deterministic for a fixed (state, shots, seed, noise). An enabled
    readout channel is applied exactly to the distribution, so every arm
    makes one draw: a multinomial over outcomes, and no per-shot uniforms.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = len(state).bit_length() - 1
    probs = np.abs(np.asarray(state)) ** 2
    return _sample(probs, shots, seed, noise, n)


def _depolarizing_factors(noise: NoiseModel) -> tuple[float, float]:
    """(f1, f2) = 1 - 4p/3 for p = p1 and p2, or (1, 1) with gate errors off."""
    p1, p2 = (noise.p1, noise.p2) if noise.gate_enabled else (0.0, 0.0)
    return 1.0 - 4.0 * p1 / 3.0, 1.0 - 4.0 * p2 / 3.0


def density_matrix(circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """Density matrix of the circuit from |0...0> under depolarizing noise.

    Each gate maps rho to U rho U^dagger; then every qubit it touches goes
    through rho -> (1 - p) rho + (p/3) sum_P P rho P over P in {X, Y, Z},
    with p = p1 after one-qubit gates and p = p2 after a CX. The result is
    the ordinary 2^n x 2^n matrix, gathered from the interleaved layout.
    """
    rho = _walk_from_zero(circuit, 4, *_depolarizing_factors(noise))
    return rho[_interleaved_index(circuit.n_qubits)].astype(complex, copy=False)


@dataclass(frozen=True, eq=False)
class WalkCheckpoint:
    """A walk of ``gates`` from |0...0> stopped before its final flush.

    ``k`` is the axis width (2 for the statevector, 4 for rho under active
    gate noise) and f1, f2 the depolarizing factors of that walk. ``r`` is
    the unflushed array, read-only, and ``pending`` the (qubit, (map, f))
    items still to flush, in insertion order. A resume copies ``pending``
    and leaves the checkpoint as it was, so one serves any number of tails.
    """

    gates: tuple[Gate, ...]
    n_qubits: int
    k: int
    f1: float
    f2: float
    r: np.ndarray
    pending: tuple


def _walk_setting(noise: NoiseModel) -> tuple[int, float, float]:
    """(k, f1, f2): rho when gate noise is active, else the statevector."""
    return (4, *_depolarizing_factors(noise)) if noise.gate_active else (2, 1.0, 1.0)


def walk_prefix(circuit: Circuit, noise: NoiseModel) -> WalkCheckpoint:
    """Walk ``circuit`` from |0...0> as :func:`run_noisy` would, minus the flush."""
    n, (k, f1, f2) = circuit.n_qubits, _walk_setting(noise)
    pending: dict = {}
    r = _advance(_zero(n, k), pending, circuit.gates, n, k, f1, f2)
    r.setflags(write=False)
    return WalkCheckpoint(circuit.gates, n, k, f1, f2, r, tuple(pending.items()))


def _resume(cp: WalkCheckpoint, circuit: Circuit, noise: NoiseModel) -> np.ndarray:
    """The flushed walk of ``circuit``, its first gates taken from checkpoint ``cp``."""
    start = len(cp.gates)
    if circuit.n_qubits != cp.n_qubits:
        raise ValueError(
            f"checkpoint of {cp.n_qubits} qubits for a {circuit.n_qubits}-qubit circuit"
        )
    if (cp.k, cp.f1, cp.f2) != _walk_setting(noise):
        raise ValueError("checkpoint was walked under other gate-noise rates")
    if circuit.gates[:start] != cp.gates:
        raise ValueError("checkpoint gates are not a prefix of the circuit")
    pending = dict(cp.pending)
    r = _advance(cp.r, pending, circuit.gates[start:], cp.n_qubits, cp.k, cp.f1, cp.f2)
    return _flush(r, pending, cp.n_qubits, cp.k)


def run_noisy(
    circuit: Circuit,
    shots: int,
    seed,
    noise: NoiseModel,
    prefix: WalkCheckpoint | None = None,
) -> CountsVector:
    """Shot-sampled circuit execution under the given noise model.

    The outcome distribution is diag(rho) of :func:`density_matrix` when
    gate noise is active (enabled with p1 or p2 nonzero), read straight
    from the interleaved layout with entries below zero clipped to zero,
    and |amplitude|^2 of the statevector otherwise. Every noise arm then
    samples it as :func:`sample_counts` does: the readout channel, if
    enabled, then one multinomial over outcomes. So with gate noise inert
    this returns the counts of ``sample_counts(statevector(circuit), ...)``
    for the same seed.

    ``prefix``, from :func:`walk_prefix`, resumes a walk of the circuit's
    first gates: only the rest are walked, into a copy of its pending maps,
    and the flush then runs in the order a full walk would take. So the
    counts are bit-identical to a call without it. A ``prefix`` whose gates
    do not begin the circuit, or that was walked for another qubit count or
    other gate-noise rates, raises ValueError; readout noise may differ.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if prefix is None:
        prefix = walk_prefix(circuit, noise)
    r = _resume(prefix, circuit, noise)
    if prefix.k == 4:
        diagonal = _interleaved_index(circuit.n_qubits).diagonal()
        # rounding can leave diagonal entries a hair below zero
        probs = np.maximum(r[diagonal].real, 0.0)
    else:
        probs = np.abs(r) ** 2
    return _sample(probs, shots, seed, noise, circuit.n_qubits)


def counts_to_dict(
    cv: CountsVector,
    basis,
    bit_order: BitOrder | str = BitOrder.Q0_LEFTMOST,
    **extra,
) -> dict:
    """Counts-file document.

    ``basis`` is one label per qubit, indexed by qubit number. ``bit_order``
    fixes the index convention of the serialized ``counts`` and the
    character order of the ``group_basis`` string; the in-memory
    CountsVector always uses q0_rightmost (qubit k in bit k).
    """
    order = BitOrder(bit_order)
    leftmost = order is BitOrder.Q0_LEFTMOST
    doc = {
        "n_qubits": cv.n_qubits,
        "shots": cv.shots,
        "group_basis": "".join(basis if leftmost else reversed(basis)),
        "bit_order": order.value,
        "counts": list(cv.reordered(order).counts),
    }
    doc.update(extra)
    return doc


def counts_from_dict(doc: dict) -> tuple[CountsVector, str, dict]:
    """Parse a counts-file document; a malformed one raises ValueError.

    Returns the counts in the internal (q0_rightmost) order, the group
    basis as per-qubit labels with index = qubit (q0 first), and the
    leftover metadata fields.
    """
    check(doc, dict, "counts document")
    order = BitOrder(read(doc, "bit_order", str, BitOrder.Q0_LEFTMOST.value))
    n = check(doc["n_qubits"], int, "n_qubits")
    basis = check(doc["group_basis"], str, "group_basis").upper()
    if len(basis) != n:  # checked first, so 2**n below is no larger than the file
        raise ValueError("group_basis length does not match n_qubits")
    raw = [check(c, int, "counts entry") for c in check(doc["counts"], list, "counts")]
    if len(raw) != 2**n:
        raise ValueError(f"expected {2**n} counts, got {len(raw)}")
    if order is BitOrder.Q0_RIGHTMOST:
        basis = basis[::-1]  # under q0_leftmost char i already names qubit i
    cv = CountsVector(tuple(raw), check(doc["shots"], int, "shots")).reordered(order)
    meta = {
        k: v
        for k, v in doc.items()
        if k not in ("n_qubits", "shots", "group_basis", "bit_order", "counts")
    }
    return cv, basis, meta


def save_counts(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_counts(path: str) -> tuple[CountsVector, str, dict]:
    with open(path) as fh:
        return counts_from_dict(json.load(fh))
