"""Energy estimation from grouped measurements and the VQE driver loop.

Counts arrays carry a bit-order convention: Q0_RIGHTMOST means basis index
bit k is qubit k (the in-memory layout of the simulator), Q0_LEFTMOST means
bit n-1-k is qubit k (how printed bitstring tables usually read). The
convention for interpreting the bundled reference tuples is resolved
empirically by :func:`resolve_bit_order`: exactly one choice reproduces
-1.8422 Ha from reference set A, and that winner (Q0_LEFTMOST) is also the
order used for every serialized counts artifact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ansatz import AnsatzSpec, build_circuit, parameter_count
from .fields import check
from .optim import (
    OptimizationAbort,
    OptimizerConfig,
    Trace,
    minimize,
)
from .pauli import (
    DENSE_QUBIT_CAP,
    Hamiltonian,
    MeasurementGroup,
    PauliTerm,
    group_terms,
    h2_2qubit,
    h2_4qubit,
    load_hamiltonian,
)
from .sim import (
    CountsVector,
    NoiseModel,
    apply_circuit,
    post_rotations,
    run_noisy,
    statevector,
)
from .similarity import BAND_ERRONEOUS, classify_energy

CHEMICAL_ACCURACY = 0.0016  # Ha

MAX_SHOTS = 8192
DEFAULT_SHOTS = 4096

# seed-stream tags: one child stream per purpose, derived from (seed, tag)
_SEED_INIT = 0
_SEED_EVAL = 1
_SEED_OPT = 2
_SEED_FINAL = 3


class BitOrder(enum.Enum):
    """How a counts index maps to qubits (see module docstring)."""

    Q0_LEFTMOST = "q0_leftmost"
    Q0_RIGHTMOST = "q0_rightmost"


# Winner of resolve_bit_order(), hardcoded for serialized artifacts; the
# losing convention puts reference set A at -0.4202 Ha, 1.4 Ha off target.
RESOLVED_BIT_ORDER = BitOrder.Q0_LEFTMOST


@lru_cache(maxsize=32)
def _parity_table(dim: int) -> np.ndarray:
    """Read-only popcount parity of every index below dim."""
    idx = np.arange(dim)
    parity = np.zeros(dim, dtype=np.int64)
    bits = dim.bit_length() - 1
    for b in range(bits):
        parity ^= (idx >> b) & 1
    return parity


def _support_mask(term: PauliTerm, n: int, conv: BitOrder) -> int:
    mask = 0
    for q in term.string.support:
        bit = q if conv is BitOrder.Q0_RIGHTMOST else n - 1 - q
        mask |= 1 << bit
    return mask


def _term_signs(term: PauliTerm, n: int, conv: BitOrder) -> np.ndarray:
    """(-1)^(parity of outcome bits in the term's support), per outcome."""
    dim = 2**n
    mask = _support_mask(term, n, conv)
    return 1.0 - 2.0 * _parity_table(dim)[np.arange(dim) & mask]


def pauli_expectation(
    term: PauliTerm, counts: CountsVector, conv: BitOrder
) -> float:
    """<P> from counts taken in the term's measurement basis.

    Each outcome contributes its frequency times -1 to the number of set
    bits it has on the term's support.
    """
    if counts.shots < 1:
        raise ValueError("counts carry zero shots")
    n = counts.n_qubits
    if term.string.n_qubits != n:
        raise ValueError("term and counts disagree on qubit count")
    signs = _term_signs(term, n, conv)
    return float(signs @ counts.probabilities())


@dataclass(frozen=True)
class EnergyEstimate:
    """One energy estimate plus the evidence it was computed from."""

    energy: float
    group_counts: tuple[CountsVector, ...]
    expectations: tuple[tuple[str, float], ...]


def energy_from_counts(
    h: Hamiltonian,
    groups: tuple[MeasurementGroup, ...],
    counts_per_group,
    conv: BitOrder,
) -> EnergyEstimate:
    """identity constant + sum of coefficient * expectation over all groups."""
    counts_per_group = tuple(counts_per_group)
    if len(counts_per_group) != len(groups):
        raise ValueError(
            f"{len(groups)} groups but {len(counts_per_group)} counts vectors"
        )
    for cv in counts_per_group:
        if cv.n_qubits != h.n_qubits:
            raise ValueError("counts qubit count does not match Hamiltonian")
    energy = h.identity_coefficient
    expectations = []
    for group, cv in zip(groups, counts_per_group):
        for term in group.terms:
            value = pauli_expectation(term, cv, conv)
            expectations.append((term.string.to_label(), value))
            energy += term.coefficient * value
    return EnergyEstimate(float(energy), counts_per_group, tuple(expectations))


def resolve_bit_order(
    counts0: CountsVector | None = None,
    counts1: CountsVector | None = None,
    target: float | None = None,
    tol: float = 0.01,
) -> BitOrder:
    """Pick the convention under which the reference counts hit the target.

    Run against reference set A by default: the counts tuples are taken
    verbatim (index = printed table position) and evaluated under both
    conventions; exactly one lands within ``tol`` of the known -1.8422 Ha.
    Anything else means corrupted fixtures.
    """
    from . import fixtures

    if counts0 is None:
        counts0 = CountsVector(fixtures.raw_counts("A0"), fixtures.FIXTURE_SHOTS)
    if counts1 is None:
        counts1 = CountsVector(fixtures.raw_counts("A1"), fixtures.FIXTURE_SHOTS)
    if target is None:
        target = fixtures.ENERGY_SET_A
    h = h2_4qubit()
    groups, _ = group_terms(h)
    matches = []
    for conv in BitOrder:
        est = energy_from_counts(h, groups, (counts0, counts1), conv)
        if abs(est.energy - target) <= tol:
            matches.append(conv)
    if len(matches) != 1:
        raise RuntimeError(
            f"bit-order self-check failed: {len(matches)} conventions match "
            f"{target} Ha within {tol} (fixture corruption?)"
        )
    return matches[0]


def get_hamiltonian(selector: str) -> Hamiltonian:
    """'4q', '2q', or a path to a Hamiltonian JSON file."""
    if selector == "4q":
        return h2_4qubit()
    if selector == "2q":
        return h2_2qubit()
    return load_hamiltonian(selector)


@dataclass(frozen=True)
class VqeConfig:
    hamiltonian: str = "4q"
    ansatz: AnsatzSpec = field(default_factory=AnsatzSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    shots: int = DEFAULT_SHOTS
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = 0
    initial_params: str = "uniform"

    def __post_init__(self) -> None:
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {self.shots}")
        if self.initial_params not in ("uniform", "zeros"):
            raise ValueError(
                f"initial_params must be 'uniform' or 'zeros', "
                f"got {self.initial_params!r}"
            )
        if self.noise.gate_active and self.ansatz.n_qubits > DENSE_QUBIT_CAP:
            # the gate-noise density matrix holds 4^n complex entries
            raise ValueError(
                f"gate noise is limited to {DENSE_QUBIT_CAP} qubits, "
                f"got a {self.ansatz.n_qubits}-qubit ansatz"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "VqeConfig":
        check(doc, dict, "config")
        known = {
            "hamiltonian", "ansatz", "optimizer", "shots", "noise", "seed",
            "initial_params",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        kwargs: dict = {}
        for key, kind in (
            ("hamiltonian", str), ("shots", int), ("seed", int),
            ("initial_params", str),
        ):
            if key in doc:
                kwargs[key] = check(doc[key], kind, key)
        for key, parse in (
            ("ansatz", AnsatzSpec.from_dict),
            ("optimizer", OptimizerConfig.from_dict),
            ("noise", NoiseModel.from_dict),
        ):
            if key in doc:
                kwargs[key] = parse(check(doc[key], dict, key))
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "hamiltonian": self.hamiltonian,
            "ansatz": self.ansatz.to_dict(),
            "optimizer": self.optimizer.to_dict(),
            "shots": self.shots,
            "noise": self.noise.to_dict(),
            "seed": self.seed,
            "initial_params": self.initial_params,
        }


def _child_seed(seed, tag: int) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed), tag]
    return [int(s) for s in seed] + [tag]


class EnergyEvaluator:
    """Prepared VQE objective: grouping, sign tables, and sampling config.

    Internal counts use the Q0_RIGHTMOST layout, so expectation sign tables
    are built under that convention. Reusable across evaluations; the seed
    passed to :meth:`evaluate` fully determines one estimate.
    """

    def __init__(
        self,
        hamiltonian: Hamiltonian,
        ansatz: AnsatzSpec,
        shots: int,
        noise: NoiseModel,
    ):
        if ansatz.n_qubits != hamiltonian.n_qubits:
            raise ValueError("ansatz and Hamiltonian disagree on qubit count")
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.shots = shots
        self.noise = noise
        self.groups, self.identity = group_terms(hamiltonian)
        self._post_rotations = [post_rotations(g) for g in self.groups]
        n = hamiltonian.n_qubits
        self._signs = [
            np.array([_term_signs(t, n, BitOrder.Q0_RIGHTMOST) for t in g.terms])
            for g in self.groups
        ]
        self._coeffs = [
            np.array([t.coefficient for t in g.terms]) for g in self.groups
        ]

    @classmethod
    def from_config(cls, cfg: VqeConfig) -> "EnergyEvaluator":
        return cls(
            get_hamiltonian(cfg.hamiltonian), cfg.ansatz, cfg.shots, cfg.noise
        )

    def parameter_count(self) -> int:
        return parameter_count(self.ansatz)

    def evaluate(self, params, seed) -> EnergyEstimate:
        """Sampled energy estimate; deterministic in (params, seed)."""
        circuit = build_circuit(self.ansatz, params)
        energy = self.identity
        group_counts = []
        expectations = []
        for g, group in enumerate(self.groups):
            measured = circuit.concat(self._post_rotations[g])
            cv = run_noisy(
                measured, self.shots, _child_seed(seed, g), self.noise
            )
            group_counts.append(cv)
            values = self._signs[g] @ cv.probabilities()
            energy += float(self._coeffs[g] @ values)
            expectations.extend(
                (t.string.to_label(), float(v))
                for t, v in zip(group.terms, values)
            )
        return EnergyEstimate(float(energy), tuple(group_counts), tuple(expectations))

    def evaluate_analytic(self, params) -> float:
        """Exact-probability energy (no sampling, no noise); test oracle."""
        circuit = build_circuit(self.ansatz, params)
        state = statevector(circuit)
        energy = self.identity
        for g in range(len(self.groups)):
            rotated = apply_circuit(state, self._post_rotations[g])
            probs = np.abs(rotated) ** 2
            energy += float(self._coeffs[g] @ (self._signs[g] @ probs))
        return float(energy)


def evaluate_energy(params, cfg: VqeConfig, seed) -> EnergyEstimate:
    """One-shot convenience wrapper around :class:`EnergyEvaluator`."""
    return EnergyEvaluator.from_config(cfg).evaluate(params, seed)


@dataclass
class VqeResult:
    energy: float
    params: np.ndarray
    trace: Trace
    final_counts: tuple[CountsVector, ...]
    band: str
    complete: bool = True

    @property
    def evaluations(self) -> int:
        return len(self.trace)


def initial_parameters(cfg: VqeConfig) -> np.ndarray:
    dim = parameter_count(cfg.ansatz)
    if cfg.initial_params == "zeros":
        return np.zeros(dim)
    rng = np.random.default_rng(_child_seed(cfg.seed, _SEED_INIT))
    return rng.uniform(-math.pi, math.pi, size=dim)


def run_vqe(cfg: VqeConfig) -> VqeResult:
    """Full loop: seeded start, optimizer-driven minimization, final counts.

    The result's energy is the best sampled value in the trace. Separate
    child seed streams cover initialization, each objective evaluation,
    the optimizer's own randomness, and the final-counts measurement, so
    (config, seed) determines the result bit for bit.
    """
    evaluator = EnergyEvaluator.from_config(cfg)
    x0 = initial_parameters(cfg)
    eval_index = 0

    def objective(x):
        nonlocal eval_index
        seed = _child_seed(cfg.seed, _SEED_EVAL) + [eval_index]
        eval_index += 1
        return evaluator.evaluate(x, seed).energy

    opt_rng = np.random.default_rng(_child_seed(cfg.seed, _SEED_OPT))
    try:
        x_best, f_best, trace = minimize(objective, x0, cfg.optimizer, seed=opt_rng)
        complete = True
    except OptimizationAbort as exc:
        trace = exc.trace
        x_best = exc.x_best if exc.x_best is not None else x0
        f_best = exc.f_best
        complete = False
    if math.isfinite(f_best):
        final = evaluator.evaluate(x_best, _child_seed(cfg.seed, _SEED_FINAL))
        band = classify_energy(f_best)
        final_counts = final.group_counts
    else:
        band = BAND_ERRONEOUS
        final_counts = ()
    return VqeResult(
        energy=float(f_best),
        params=np.asarray(x_best, dtype=float),
        trace=trace,
        final_counts=final_counts,
        band=band,
        complete=complete,
    )
