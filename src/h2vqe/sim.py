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
and flip each measured bit. The A_q are built once per noise model and
qubit count. The seed goes to ``np.random.default_rng``; an evaluation
draws group g from the stream of ``default_rng([*seed, g])``, its start
derived for many seeds at once by :func:`pcg64_seed_states`, bit for bit.

One gate walker (:func:`_walk`) runs every circuit. Its array has one axis
of width k per qubit: k = 2 for a statevector, and k = 4 for the density
matrix, stored flat so that base-4 digit q of the position of rho[i, j] is
2 * i_q + j_q; axis q then holds qubit q's row and column bits. A qubit's
one-qubit gates wait, fused into one k x k map, until a CX touches the
qubit or the circuit ends; a flush is one matmul on that axis. On rho a
gate U acts as U (x) U*, and a flush also applies the depolarizing map
D(f) of the errors the qubit collected, which commutes with every unitary
on its own qubit. Each run of CXs is one cached gather of the entries. The
walk starts in float64 and turns complex at the first rz, so an ry ansatz
with H post-rotations never does complex arithmetic.

An evaluation's G measurement groups share one ansatz: :func:`walk_groups`
walks it once, flushed, then walks each group's H tail from that array,
and ``run_noisy(..., state=)`` samples a state so computed. The tail's maps
are not fused into the ansatz's last pending maps, as a walk of the whole
circuit would fuse them, so the state matches a full walk's to a few ulps,
not bit for bit. In exact arithmetic the two are equal, on rho too: D(f)
commutes with every unitary on its own qubit, and D(a) D(b) = D(ab).
Without ``state``, ``run_noisy`` walks the whole circuit itself.

Statevectors on at most DENSE_ANSATZ_QUBITS qubits have a second form,
:class:`DenseAnsatz`: an ansatz's rotation layers as 2^n x 2^n Kronecker
products (the first, which acts on |0...0>, only as the product state it
makes), its entangling layers as the walker's CX-run gathers and every
group's H tail in one stacked matrix, applied by matrix-vector products.
It too rounds differently from a full walk, matching its probabilities to
a few ulps rather than bit for bit.
"""

from __future__ import annotations

import cmath
import enum
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .ansatz import Circuit, Gate
from .fields import bounded, check, read, reject_unknown, validate
from .pauli import MeasurementGroup

DEFAULT_P1 = 0.001
DEFAULT_P2 = 0.005
DEFAULT_READOUT = (0.02, 0.02)

_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, as every cached array is."""
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def _depolarizing_superop(f: float) -> np.ndarray:
    """Read-only depolarizing map on one axis, f = 1 - 4p/3 for error rate p.

    f rho + (1 - f) Tr_q(rho) (x) I/2 equals (1 - p) rho + (p/3) sum_P P rho P,
    and two such maps compose to the one with the product of their f.
    """
    a, b = (1.0 + f) / 2.0, (1.0 - f) / 2.0
    return _frozen(np.array([[a, 0, 0, b], [0, f, 0, 0], [0, 0, f, 0], [b, 0, 0, a]]))


def _superop(u: np.ndarray) -> np.ndarray:
    """U (x) U*: rho -> U rho U^dagger on one (row bit, column bit) axis."""
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(4, 4)


@lru_cache(maxsize=32)
def _interleaved_index(n: int) -> np.ndarray:
    """Read-only 2^n x 2^n array of the flat position of each rho[i, j]."""
    i = np.arange(2**n)
    spread = sum(((i >> q) & 1) << (2 * q) for q in range(n))  # bit q -> 2q
    return _frozen(2 * spread[:, None] + spread[None, :])


@lru_cache(maxsize=64)
def _cx_gather(n: int, pairs: tuple, k: int) -> np.ndarray:
    """Read-only gather g of a run of CXs, (control, target) pairs in order:
    r[g] applies it to a statevector (k = 2) or the interleaved rho (k = 4)."""
    i = gather = np.arange(2**n)
    for control, target in pairs:  # r[a][b] is r[a[b]]
        gather = gather[i ^ (((i >> control) & 1) << target)]
    if k == 4:  # rho[i, j] <- rho[gather[i], gather[j]], at flat positions
        index, flat = _interleaved_index(n), np.empty(4**n, dtype=np.intp)
        flat[index] = index[gather][:, gather]
        gather = flat
    return _frozen(gather)


_H_MAPS = {2: _frozen(_H_MATRIX), 4: _frozen(_superop(_H_MATRIX))}  # per axis width


def _gate_map(gate: Gate, k: int) -> np.ndarray:
    """k x k map of a one-qubit gate: U (real but for rz) at k = 2, U (x) U* at 4."""
    if gate.name == "h":
        return _H_MAPS[k]
    if gate.name == "ry":
        c, s = math.cos(gate.angle / 2.0), math.sin(gate.angle / 2.0)
        if k == 2:
            return np.array([[c, -s], [s, c]])
        # U (x) U, each entry one product of two entries of U, as _superop has it
        cc, cs, ss = c * c, c * s, s * s
        return np.array([[cc, -cs, -cs, ss], [cs, cc, -ss, -cs],
                         [cs, -ss, cc, -cs], [ss, cs, cs, cc]])
    half = 0.5j * gate.angle
    u = np.array([[cmath.exp(-half), 0.0], [0.0, cmath.exp(half)]])
    return u if k == 2 else _superop(u)


def _on_axis(m: np.ndarray, r: np.ndarray, q: int, n: int, k: int) -> np.ndarray:
    """The k x k map m applied to qubit q's axis of r (k^n leading entries)."""
    return (m @ r.reshape(k ** (n - 1 - q), k, -1)).reshape(r.shape)


def _apply_pending(r: np.ndarray, q: int, m, f: float, n: int, k: int) -> np.ndarray:
    """Qubit q's pending map m (None for none), then D(f) on the rho path."""
    if f != 1.0:
        d = _depolarizing_superop(f)
        m = d if m is None else d @ m
    return r if m is None else _on_axis(m, r, q, n, k)


def _walk(r: np.ndarray, gates, n: int, k: int, f1=1.0, f2=1.0) -> np.ndarray:
    """Apply ``gates`` to ``r`` and flush every qubit's pending maps.

    ``r``'s first axis holds k^n entries: k = 2 walks a statevector (any
    trailing axes ride along), k = 4 the interleaved rho. ``pending`` maps
    qubit -> (product of its gate maps since its last flush, None before
    the first; product of f1 per one-qubit gate and f2 per CX), and the
    final flush takes it in insertion order. CXs wait as one open run, a
    cached gather applied before a map on a qubit it moved is flushed, and
    at the end. On the statevector a map on any other qubit is flushed ahead
    of the run, which keeps that qubit's pairs of entries together, so the
    two commute exactly. On rho the run goes first, since some BLAS kernels
    round a complex 4 x 4 map's entries by position. ``r`` is never written to.
    """
    pending: dict = {}
    run = ()  # the CXs met but not yet applied
    for gate in gates:
        if gate.name == "cx":
            for q in gate.qubits:
                if q in pending:
                    m, f = pending.pop(q)
                    live = m is not None or f != 1.0
                    if run and live and (k == 4 or any(q in cx for cx in run)):
                        r, run = r[_cx_gather(n, run, k)], ()
                    r = _apply_pending(r, q, m, f, n, k)
            run += (tuple(gate.qubits),)
            for q in gate.qubits:  # re-inserted even if inert: flush order
                pending[q] = (None, f2)
        else:
            (q,) = gate.qubits
            m, f = pending.get(q, (None, 1.0))
            u = _gate_map(gate, k)
            pending[q] = (u if m is None else u @ m, f * f1)
    if run:
        r = r[_cx_gather(n, run, k)]
    for q, (m, f) in pending.items():
        r = _apply_pending(r, q, m, f, n, k)
    return r


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
        # not a field, so to_dict, parse and dataclasses.replace do not see it
        gate = (self.p1, self.p2) if self.gate_enabled else None
        readout = self._readout_pairs() if self.readout_enabled else None
        object.__setattr__(self, "_key", (gate, readout))

    def __eq__(self, other) -> bool:
        return isinstance(other, NoiseModel) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

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
    return _frozen(perm)


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
        if min(self.counts) < 0:
            raise ValueError("negative count")
        if sum(self.counts) != self.shots:
            raise ValueError("counts do not sum to shots")

    @classmethod
    def _from_draw(cls, counts: tuple[int, ...], shots: int) -> "CountsVector":
        """The counts of one multinomial draw of ``shots`` over 2^n >= 2
        outcomes, unchecked: the draw already holds every check."""
        cv = object.__new__(cls)
        vars(cv).update(counts=counts, shots=shots)
        return cv

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


def seed_entries(seed) -> list[int]:
    """The ints of an int seed or a sequence of them; ValueError for anything else."""
    try:
        entries = (seed,) if isinstance(seed, (int, np.integer)) else seed
        return [operator.index(s) for s in entries]
    except TypeError:
        raise ValueError(f"seed {seed!r} is not an integer or integers") from None


def seed_words(seed) -> list[int]:
    """The uint32 words that numpy's SeedSequence derives from an int or ints.

    Each int splits into little-endian 32-bit words, 0 into one, and a
    negative one raises ValueError. So a uint32 array of the words seeds
    the stream of ``np.random.default_rng(seed)``."""
    words = []
    for s in seed_entries(seed):
        if s < 0:
            raise ValueError(f"seed entry {s} is negative")
        words.append(s & 0xFFFFFFFF)
        while s > 0xFFFFFFFF:
            s >>= 32
            words.append(s & 0xFFFFFFFF)
    return words


# numpy's SeedSequence hash (a pool of four uint32 words) and PCG64 seeding
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK128 = 0xCA01F9DD, 0x4973F715, (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """uint32 column of init * mult^k mod 2^32, k = 0 .. count - 1."""
    h = np.cumprod([init] + [mult] * (count - 1), dtype=np.uint64)  # wraps mod 2^64
    return h.astype(np.uint32)[:, None]


def _hashed(v: np.ndarray, h: np.ndarray, k: int, rows: int) -> np.ndarray:
    """numpy's hashmix of ``v`` by calls k .. k + rows - 1, one per row."""
    v = (v ^ h[k:k + rows]) * h[k + 1:k + rows + 1]
    return v ^ (v >> 16)


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def pcg64_seed_states(columns: np.ndarray) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of ``np.random.default_rng(c)`` for each column c.

    ``columns`` is a (words, N) uint32 array. This is numpy's SeedSequence
    hash and PCG64 seeding, done for all N columns at once.
    """
    h = _hash_constants(_INIT_A, _MULT_A, 17 + 4 * max(len(columns) - 4, 0))
    pool = np.zeros((4, columns.shape[1]), dtype=np.uint32)
    pool[:len(columns)] = columns[:4]
    pool = _hashed(pool, h, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], h, 4 + 3 * src, 3))
    for i, word in enumerate(columns[4:]):
        pool = _mixed(pool, _hashed(word, h, 16 + 4 * i, 4))
    out = _hashed(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 9), 0, 8)
    out = out.astype(np.uint64)  # uint64 word j: uint32 words 2j (low half), 2j + 1
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(out[0::2] | out[1::2] << 32).tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


@lru_cache(maxsize=64)
def _confusion_maps(noise: NoiseModel, n: int) -> tuple[np.ndarray, ...]:
    """Read-only A_q of qubits 0 .. n-1 under ``noise``'s readout errors."""
    pairs = zip(*noise.readout_probs(n))
    return tuple(_frozen(np.array([[1.0 - a, b], [a, 1.0 - b]])) for a, b in pairs)


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


def _walk_setting(noise: NoiseModel) -> tuple[int, float, float]:
    """(k, f1, f2): rho when gate noise is active, else the statevector."""
    return (4, *_depolarizing_factors(noise)) if noise.gate_active else (2, 1.0, 1.0)


def walk_groups(circuit: Circuit, tails, noise: NoiseModel) -> list[np.ndarray]:
    """Walk ``circuit`` from |0...0> once, as :func:`run_noisy` would, then
    each tail circuit (a group's post-rotations) from that flushed array.

    Item g is the final state of ``circuit.concat(tails[g])``: the
    statevector, or the interleaved rho under active gate noise. The tails'
    maps are not fused into the ansatz's last pending ones, so each matches
    a full walk of that circuit to a few ulps, not bit for bit.
    """
    n, (k, f1, f2) = circuit.n_qubits, _walk_setting(noise)
    if any(tail.n_qubits != n for tail in tails):
        raise ValueError(f"tails must act on the circuit's {n} qubits")
    r = _walk_from_zero(circuit, k, f1, f2)
    return [_walk(r, tail.gates, n, k, f1, f2) for tail in tails]


# Largest register an evaluator walks as a DenseAnsatz. On 2 vCPUs, against
# the walker (the ansatz walked once, then each group's tail), its layer maps
# (2^n x 2^n each) were about 3-5x faster on 2 to 5 qubits, level at 6 and
# 4x slower at 7.
DENSE_ANSATZ_QUBITS = 5

# Ry entries [[c, -s], [s, c]] and Rz's row phases c -/+ is, as slots of the
# per-evaluation table: c, s, -s, c - is, c + is of each half angle
_SLOTS = {"ry": np.array([[0, 2], [1, 0]]), "rz": np.array([[3, 3], [4, 4]])}


class DenseAnsatz:
    """The statevector walk of an ansatz from |0...0>, as dense layer maps.

    Built once from ``ansatz._layout``'s gate order on ``n`` qubits and the
    G measurement groups' post-rotation circuits (``tails``). Each run of
    CXs becomes one composed gather, and the tails one (G 2^n) x 2^n matrix.
    A rotation layer holds an Ry on every qubit, then optionally an Rz,
    which is diagonal and so scales row i by the phase of bit q of i. Entry
    (i, j) of the layer's 2^n x 2^n Kronecker product is then a product of
    one factor per gate, each an entry of a per-evaluation table; which
    entry is fixed here. The first layer acts on |0...0>, so of its map only
    column 0 is formed: the product state, entry i one product per gate.
    """

    def __init__(self, layout, n: int, tails):
        # rotation layers and CX runs alternate in the layout, rotations first
        parts = [list(ops) for _, ops in groupby(layout, lambda op: type(op) is Gate)]
        layers, runs = parts[::2], parts[1::2]
        self._gathers = [_cx_gather(n, tuple(cx.qubits for cx in r), 2) for r in runs]
        count = sum(len(layer) for layer in layers)  # one parameter per rotation
        self._complex = any(name == "rz" for layer in layers for name, _, _ in layer)
        ij, qubit = np.arange(4**n), np.arange(n)[:, None]  # entry (i, j) at i 2^n + j
        bits = (ij >> (n + qubit)) & 1, (ij >> qubit) & 1  # bit q of i and of j, per q
        slots = {name: table[bits] for name, table in _SLOTS.items()}
        index = np.array([
            [slots[name][q] * count + k for name, (q,), k in layer] for layer in layers
        ])
        # the first layer's column 0, entries (i, 0) at i 2^n, then the later layers
        self._first, self._index = index[0, :, ::2**n].copy(), index[1:]
        maps = [_walk(np.eye(2**n), tail.gates, n, 2) for tail in tails]
        self._tails = np.array(maps).reshape(-1, 2**n)
        self.n_qubits = n

    def amplitudes(self, params) -> np.ndarray:
        """Read-only (G, 2^n) array: row g is the ansatz's statevector at
        ``params`` after group g's H tail. The trig of every parameter is
        one pass; the first layer's product state is one gather and product
        over its gates, and each later layer map one more."""
        z = np.exp(0.5j * np.asarray(params, dtype=float))
        c, s = z.real, z.imag
        table = np.concatenate((c, s, -s, z.conj(), z) if self._complex else (c, s, -s))
        d = 2**self.n_qubits
        state = table[self._first].prod(axis=0)
        maps = table[self._index].prod(axis=1).reshape(-1, d, d)
        for layer, gather in zip(maps, self._gathers):
            state = layer @ state[gather]
        return _frozen((self._tails @ state).reshape(-1, d))


def run_noisy(
    circuit: Circuit,
    shots: int,
    seed,
    noise: NoiseModel,
    state: np.ndarray | None = None,
) -> CountsVector:
    """Shot-sampled circuit execution under the given noise model.

    The outcome distribution is diag(rho) of :func:`density_matrix` when
    gate noise is active (enabled with p1 or p2 nonzero), read straight
    from the interleaved layout with entries below zero clipped to zero,
    and |amplitude|^2 of the statevector otherwise. Every noise arm then
    samples it the same way: the readout channel, if enabled, applied
    exactly to the distribution, then one multinomial over outcomes. So the
    counts are fixed by (circuit or state, shots, seed, noise), and with
    gate noise inert they equal those of ``state=statevector(circuit)`` for
    the same seed.

    ``state``, if given, is the circuit's final state as computed elsewhere
    (by :func:`walk_groups` or :class:`DenseAnsatz`): the statevector, or
    the interleaved rho under active gate noise. It is sampled in place of
    a walk of the circuit. A ``state`` of any shape but (k^n,), k = 4 under
    active gate noise and 2 otherwise, raises ValueError. Without ``state``
    the whole circuit is walked here; ``TestWalker::test_pinned_counts`` in
    tests/test_sim.py pins the counts of that path.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n, (k, f1, f2) = circuit.n_qubits, _walk_setting(noise)
    if state is None:
        state = _walk_from_zero(circuit, k, f1, f2)
    elif np.shape(state) != (k**n,):
        raise ValueError(f"a state of shape {np.shape(state)} for {k}^{n} entries")
    if k == 4:
        diagonal = _interleaved_index(n).diagonal()
        # rounding can leave diagonal entries a hair below zero
        probs = np.maximum(state[diagonal].real, 0.0)
    else:
        probs = np.abs(state) ** 2
    if noise.readout_enabled:
        for q, a in enumerate(_confusion_maps(noise, n)):
            probs = _on_axis(a, probs, q, n, 2)
    counts = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return CountsVector._from_draw(tuple(counts.tolist()), shots)


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

    Optional metadata is checked too: ``energy_ha`` is finite, ``group_id``
    and ``run_index`` are non-negative integers. Returns the counts in the
    internal (q0_rightmost) order, the group basis as per-qubit labels with
    index = qubit (q0 first), and the leftover metadata fields.
    """
    check(doc, dict, "counts document")
    order = BitOrder(read(doc, "bit_order", str, BitOrder.Q0_LEFTMOST.value))
    n = read(doc, "n_qubits", int)
    basis = read(doc, "group_basis", str).upper()
    if len(basis) != n:  # checked first, so 2**n below is no larger than the file
        raise ValueError("group_basis length does not match n_qubits")
    if set(basis) - {"X", "Z"}:
        raise ValueError(f"group_basis {basis!r} holds a letter other than X and Z")
    raw = [check(c, int, "counts entry") for c in read(doc, "counts", list)]
    if len(raw) != 2**n:
        raise ValueError(f"expected {2**n} counts, got {len(raw)}")
    if order is BitOrder.Q0_RIGHTMOST:
        basis = basis[::-1]  # under q0_leftmost char i already names qubit i
    cv = CountsVector(tuple(raw), read(doc, "shots", int)).reordered(order)
    if not math.isfinite(read(doc, "energy_ha", float, 0.0)):
        raise ValueError(f"energy_ha must be finite, got {doc['energy_ha']!r}")
    for key in ("group_id", "run_index"):
        if read(doc, key, int, 0) < 0:
            raise ValueError(f"{key} must be non-negative, got {doc[key]!r}")
    meta = {
        k: v
        for k, v in doc.items()
        if k not in ("n_qubits", "shots", "group_basis", "bit_order", "counts")
    }
    return cv, basis, meta


def save_counts(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc))  # one write; json.dump makes many small ones


def load_counts(path: str) -> tuple[CountsVector, str, dict]:
    with open(path) as fh:
        return counts_from_dict(json.load(fh))
