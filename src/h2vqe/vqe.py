"""Energy estimation from grouped measurements and the VQE driver loop.

Counts carry a :class:`~h2vqe.sim.BitOrder`. The convention for
interpreting the bundled reference tuples is resolved empirically by
:func:`resolve_bit_order`: exactly one choice reproduces -1.8422 Ha from
reference set A, and that winner (Q0_LEFTMOST) is also the order used for
every serialized counts artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fields
from .ansatz import AnsatzSpec, build_circuit, parameter_count
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
    BitOrder,
    CountsVector,
    NoiseModel,
    apply_circuit,
    post_rotations,
    run_noisy,
    statevector,
    walk_prefix,
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


# Winner of resolve_bit_order(), hardcoded for serialized artifacts; the
# losing convention puts reference set A at -0.4202 Ha, 1.4 Ha off target.
RESOLVED_BIT_ORDER = BitOrder.Q0_LEFTMOST


def _term_signs(term: PauliTerm, n: int) -> np.ndarray:
    """(-1)^(number of set outcome bits in the term's support), per outcome.

    Outcomes are indexed in the Q0_RIGHTMOST order.
    """
    outcomes = np.arange(2**n)
    signs = np.ones(2**n)
    for q in term.string.support:
        signs *= 1 - 2 * ((outcomes >> q) & 1)
    return signs


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
    return float(_term_signs(term, n) @ counts.reordered(conv).probabilities())


@dataclass(frozen=True)
class EnergyEstimate:
    """One energy estimate plus the evidence it was computed from."""

    energy: float
    group_counts: tuple[CountsVector, ...]
    expectations: tuple[tuple[str, float], ...]


class _Estimator:
    """Per-group sign matrices, coefficients and term labels, built once.

    The energy is the identity constant plus, group by group, the
    coefficient vector dotted with the group's expectation vector.
    """

    def __init__(self, groups, identity: float, n_qubits: int):
        self.identity = identity
        self.signs = [
            np.array([_term_signs(t, n_qubits) for t in g.terms]) for g in groups
        ]
        self.coeffs = [np.array([t.coefficient for t in g.terms]) for g in groups]
        self.labels = [tuple(t.string.to_label() for t in g.terms) for g in groups]

    def energy(self, probs_per_group) -> tuple[float, list[np.ndarray]]:
        """Energy and per-group expectations from Q0_RIGHTMOST probabilities."""
        energy = self.identity
        values = []
        for signs, coeffs, probs in zip(self.signs, self.coeffs, probs_per_group):
            v = signs @ probs
            energy += float(coeffs @ v)
            values.append(v)
        return float(energy), values

    def estimate(
        self, counts_per_group: tuple[CountsVector, ...], conv: BitOrder
    ) -> EnergyEstimate:
        """Estimate from counts in the ``conv`` order, which it keeps as given."""
        energy, values = self.energy(
            cv.reordered(conv).probabilities() for cv in counts_per_group
        )
        expectations = tuple(
            pair for labels, v in zip(self.labels, values)
            for pair in zip(labels, v.tolist())
        )
        return EnergyEstimate(energy, counts_per_group, expectations)


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
    estimator = _Estimator(groups, h.identity_coefficient, h.n_qubits)
    return estimator.estimate(counts_per_group, conv)


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
    shots: int = fields.bounded(DEFAULT_SHOTS, ge=1, le=MAX_SHOTS)
    noise: NoiseModel = field(default_factory=NoiseModel)
    seed: int = fields.bounded(0, ge=0)
    initial_params: str = fields.choice("uniform", ("uniform", "zeros"))

    def __post_init__(self) -> None:
        fields.validate(self)
        if self.noise.gate_active and self.ansatz.n_qubits > DENSE_QUBIT_CAP:
            # the gate-noise density matrix holds 4^n complex entries
            raise ValueError(
                f"gate noise is limited to {DENSE_QUBIT_CAP} qubits, "
                f"got a {self.ansatz.n_qubits}-qubit ansatz"
            )
        if self.noise.readout_enabled:
            # one pair, or one per qubit; raises at load, not at the first shot
            self.noise.readout_probs(self.ansatz.n_qubits)

    @classmethod
    def from_dict(cls, doc: dict) -> "VqeConfig":
        return fields.parse(cls, doc, "config")

    to_dict = fields.to_dict


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
        self._estimator = _Estimator(
            self.groups, self.identity, hamiltonian.n_qubits
        )

    @classmethod
    def from_config(cls, cfg: VqeConfig) -> "EnergyEvaluator":
        return cls(
            get_hamiltonian(cfg.hamiltonian), cfg.ansatz, cfg.shots, cfg.noise
        )

    def parameter_count(self) -> int:
        return parameter_count(self.ansatz)

    def evaluate(self, params, seed) -> EnergyEstimate:
        """Sampled energy estimate; deterministic in (params, seed).

        The ansatz is walked once; each group resumes that walk with its
        own post-rotations, drawing the counts a full walk of
        ``circuit.concat(rotation)`` would.
        """
        circuit = build_circuit(self.ansatz, params)
        checkpoint = walk_prefix(circuit, self.noise)
        counts = tuple(
            run_noisy(
                circuit.concat(rotation), self.shots, _child_seed(seed, g),
                self.noise, prefix=checkpoint,
            )
            for g, rotation in enumerate(self._post_rotations)
        )
        return self._estimator.estimate(counts, BitOrder.Q0_RIGHTMOST)

    def evaluate_analytic(self, params) -> float:
        """Exact-probability energy (no sampling, no noise); test oracle."""
        circuit = build_circuit(self.ansatz, params)
        state = statevector(circuit)
        return self._estimator.energy(
            np.abs(apply_circuit(state, rotation)) ** 2
            for rotation in self._post_rotations
        )[0]


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
