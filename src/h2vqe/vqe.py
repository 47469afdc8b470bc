"""Energy estimation from grouped measurements and the VQE driver loop.

Counts carry a :class:`~h2vqe.sim.BitOrder`. The convention for
interpreting the bundled reference tuples is resolved empirically by
:func:`resolve_bit_order`: exactly one choice reproduces -1.8422 Ha from
reference set A, and that winner (Q0_LEFTMOST) is also the order used for
every serialized counts artifact.

:class:`EnergyEvaluator` draws each measurement group's counts from that
group's circuit, the ansatz followed by its H gates. Under active gate noise,
or above DENSE_ANSATZ_QUBITS qubits, :func:`~h2vqe.sim.walk_groups` walks the
ansatz once and each group's H gates from it. Other evaluations take the group
statevectors from the evaluator's :class:`~h2vqe.sim.DenseAnsatz`. Either way
the group states match a full walk of each group's circuit to a few ulps, so
the counts equal a full walk's in practice, not by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import fields
from .ansatz import AnsatzSpec, _layout, build_circuit, parameter_count
from .optim import (
    OptimizationAbort,
    OptimizerConfig,
    Trace,
    minimize,
)
from .pauli import (
    DENSE_QUBIT_CAP,
    STATEVECTOR_QUBIT_CAP,
    Hamiltonian,
    MeasurementGroup,
    PauliTerm,
    check_measurable,
    group_terms,
    h2_2qubit,
    h2_4qubit,
    load_hamiltonian,
)
from .sim import (
    DENSE_ANSATZ_QUBITS,
    BitOrder,
    CountsVector,
    DenseAnsatz,
    NoiseModel,
    apply_circuit,
    pcg64_seed_states,
    post_rotations,
    run_noisy,
    seed_entries,
    seed_words,
    statevector,
    walk_groups,
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
_SEED_BLOCK = 64  # consecutive evaluations whose group seeds are derived at once


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


@dataclass(frozen=True)
class EnergyEstimate:
    """One energy estimate plus the evidence it was computed from: each
    group's counts, term labels and expectation vector (``values``)."""

    energy: float
    group_counts: tuple[CountsVector, ...]
    labels: tuple[tuple[str, ...], ...] = field(repr=False)
    values: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    @cached_property
    def expectations(self) -> tuple[tuple[str, float], ...]:
        """(term label, <P>) of every term, group by group."""
        return tuple(
            pair for labels, v in zip(self.labels, self.values)
            for pair in zip(labels, v.tolist())
        )


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
        self.labels = tuple(tuple(t.string.to_label() for t in g.terms) for g in groups)

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
        rightmost = counts_per_group
        if BitOrder(conv) is not BitOrder.Q0_RIGHTMOST:
            rightmost = [cv.reordered(conv) for cv in counts_per_group]
        energy, values = self.energy(cv.probabilities() for cv in rightmost)
        return EnergyEstimate(energy, counts_per_group, self.labels, tuple(values))


def energy_from_counts(
    h: Hamiltonian,
    groups: tuple[MeasurementGroup, ...],
    counts_per_group,
    conv: BitOrder,
) -> EnergyEstimate:
    """identity constant + sum of coefficient * expectation over all groups."""
    check_measurable(h)
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
        if self.ansatz.n_qubits > STATEVECTOR_QUBIT_CAP:
            raise ValueError(
                f"the statevector is limited to {STATEVECTOR_QUBIT_CAP} qubits, "
                f"got a {self.ansatz.n_qubits}-qubit ansatz"
            )
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
        check_measurable(hamiltonian)
        self.hamiltonian = hamiltonian
        self.ansatz = ansatz
        self.shots = shots
        self.noise = noise
        self.groups, self.identity = group_terms(hamiltonian)
        self._post_rotations = [post_rotations(g) for g in self.groups]
        self._dense = None  # the statevector walk as layer maps, on small registers
        if not noise.gate_active and ansatz.n_qubits <= DENSE_ANSATZ_QUBITS:
            self._dense = DenseAnsatz(_layout(ansatz), ansatz.n_qubits,
                                      self._post_rotations)
        self._estimator = _Estimator(
            self.groups, self.identity, hamiltonian.n_qubits
        )
        self._seed_states, self._next_words = {}, None  # see _group_states
        self._rng = None  # one Generator, made at the first sampled evaluation

    @classmethod
    def from_config(cls, cfg: VqeConfig) -> "EnergyEvaluator":
        return cls(
            get_hamiltonian(cfg.hamiltonian), cfg.ansatz, cfg.shots, cfg.noise
        )

    def parameter_count(self) -> int:
        return parameter_count(self.ansatz)

    def _group_states(self, words: list[int]) -> list[tuple[int, int]]:
        """The PCG64 (state, inc) of ``np.random.default_rng([*words, g])`` per group g,
        cached by the words. A miss at the words after the last derived ones
        (last word plus one, below 2^32) derives the next _SEED_BLOCK seeds'
        states at once, cut short at 2^32 - 1; any other miss, its own."""
        key = tuple(words)
        if key not in self._seed_states:
            size = min(_SEED_BLOCK, 2**32 - key[-1]) if key == self._next_words else 1
            keys = [(*key[:-1], key[-1] + i) for i in range(size)] if key else [key]
            groups = len(self._post_rotations)
            # column i * groups + g holds the words [*keys[i], g]
            columns = np.empty((len(key) + 1, size, groups), dtype=np.uint32)
            columns[:-1] = np.array(key, dtype=np.uint32).reshape(-1, 1, 1)
            if key:
                columns[-2] += np.arange(size, dtype=np.uint32)[:, None]
            columns[-1] = np.arange(groups, dtype=np.uint32)
            flat = pcg64_seed_states(columns.reshape(len(key) + 1, size * groups))
            self._seed_states = {k: flat[i * groups:(i + 1) * groups]
                                 for i, k in enumerate(keys)}
            self._next_words = (*keys[-1][:-1], keys[-1][-1] + 1) if key else None
        return self._seed_states[key]

    def evaluate(self, params, seed) -> EnergyEstimate:
        """Sampled energy estimate; deterministic in (params, seed).

        ``build_circuit`` makes the ansatz circuit, and is where ``params``
        is checked: its length, then that every angle is finite. The final
        state of every group's circuit ``circuit.concat(rotation)`` comes from
        the evaluator's :class:`~h2vqe.sim.DenseAnsatz` (no gate noise, at most
        DENSE_ANSATZ_QUBITS qubits) or else from :func:`~h2vqe.sim.walk_groups`,
        and ``run_noisy`` samples it. Those states match a full walk of the
        group's circuit to a few ulps, so the counts equal that walk's in
        practice. Group g draws the same stream as ``default_rng([*seed, g])``,
        from one Generator set to its start, derived in blocks
        (:meth:`_group_states`).
        """
        circuit = build_circuit(self.ansatz, params)
        group_circuits = [circuit.concat(rotation) for rotation in self._post_rotations]
        if self._dense is None:
            finals = walk_groups(circuit, self._post_rotations, self.noise)
        else:
            finals = self._dense.amplitudes(params)
        states = self._group_states(seed_words(seed))
        self._rng = self._rng or np.random.default_rng()
        counts = []
        for (state, inc), group_circuit, final in zip(states, group_circuits, finals):
            self._rng.bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            counts.append(run_noisy(group_circuit, self.shots, self._rng,
                                    self.noise, state=final))
        return self._estimator.estimate(tuple(counts), BitOrder.Q0_RIGHTMOST)

    def evaluate_analytic(self, params) -> float:
        """Exact-probability energy (no sampling, no noise); test oracle."""
        circuit = build_circuit(self.ansatz, params)
        state = statevector(circuit)
        return self._estimator.energy(
            np.abs(apply_circuit(state, rotation)) ** 2
            for rotation in self._post_rotations
        )[0]


@dataclass
class VqeResult:
    energy: float
    params: np.ndarray
    trace: Trace
    final_counts: tuple[CountsVector, ...]
    band: str
    stopped: str = ""  # why the optimizer stopped early, "" if it did not

    @property
    def complete(self) -> bool:
        return not self.stopped

    @property
    def evaluations(self) -> int:
        return len(self.trace)


def initial_parameters(cfg: VqeConfig) -> np.ndarray:
    dim = parameter_count(cfg.ansatz)
    if cfg.initial_params == "zeros":
        return np.zeros(dim)
    rng = np.random.default_rng(seed_entries(cfg.seed) + [_SEED_INIT])
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
    eval_index, eval_head = 0, seed_entries(cfg.seed) + [_SEED_EVAL]

    def objective(x):
        nonlocal eval_index
        seed = eval_head + [eval_index]
        eval_index += 1
        return evaluator.evaluate(x, seed).energy

    opt_rng = np.random.default_rng(seed_entries(cfg.seed) + [_SEED_OPT])
    stopped = ""
    try:
        x_best, f_best, trace = minimize(objective, x0, cfg.optimizer, seed=opt_rng)
    except OptimizationAbort as exc:
        trace, stopped = exc.trace, str(exc)
        x_best = exc.x_best if exc.x_best is not None else x0
        f_best = exc.f_best
    if math.isfinite(f_best):
        final = evaluator.evaluate(x_best, seed_entries(cfg.seed) + [_SEED_FINAL])
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
        stopped=stopped,
    )
