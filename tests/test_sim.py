"""Simulator semantics, sampling statistics, and noise-channel behavior."""

import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from h2vqe.ansatz import AnsatzSpec, Circuit, Gate, build_circuit, parameter_count
from h2vqe.pauli import MeasurementGroup, group_terms, h2_2qubit, h2_4qubit
from h2vqe.cli import derive_run_seed
from h2vqe.sim import (
    DEFAULT_P1,
    DEFAULT_P2,
    CountsVector,
    _apply_pending,
    _confusion_maps,
    _cx_gather,
    _gate_map,
    _interleaved_index,
    _superop,
    _walk_from_zero,
    _walk_setting,
    NoiseModel,
    apply_circuit,
    bit_reversal_permutation,
    counts_from_dict,
    counts_to_dict,
    density_matrix,
    load_counts,
    pcg64_seed_states,
    post_rotations,
    run_noisy,
    save_counts,
    seed_entries,
    seed_words,
    statevector,
    walk_groups,
)

BELL = Circuit(2, (Gate("h", (0,)), Gate("cx", (0, 1))))

# chi-squared criticals for p = 0.001 (df -> value)
CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266, 15: 37.697}

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def zero_state(n):
    """|0...0> on n qubits, as a writable complex statevector."""
    return statevector(Circuit(n, ()))


def sample_state(state, shots, seed, noise=NoiseModel()):
    """Counts drawn from a given statevector: run_noisy's ``state=`` path."""
    n = len(state).bit_length() - 1
    return run_noisy(Circuit(n, ()), shots, seed, noise, state=state)


def binomial_within_5_sigma(observed, n, p):
    sigma = math.sqrt(n * p * (1 - p))
    return abs(observed - n * p) <= 5 * sigma


class TestGates:
    def test_ry_pi_flips(self):
        state = apply_circuit(zero_state(1), Circuit(1, (Gate("ry", (0,), np.pi),)))
        assert abs(state[1]) == pytest.approx(1.0, abs=1e-12)

    def test_bell_probabilities(self):
        probs = np.abs(apply_circuit(zero_state(2), BELL)) ** 2
        assert np.allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_empty_circuit_identity(self):
        state = np.array([0.6, 0.8j], dtype=complex)
        assert np.array_equal(apply_circuit(state, Circuit(1, ())), state)

    def test_rz_phases(self):
        plus = apply_circuit(zero_state(1), Circuit(1, (Gate("h", (0,)),)))
        rotated = apply_circuit(plus, Circuit(1, (Gate("rz", (0,), np.pi),)))
        # Rz(pi)|+> = |-> up to global phase
        back = apply_circuit(rotated, Circuit(1, (Gate("h", (0,)),)))
        assert abs(back[1]) == pytest.approx(1.0, abs=1e-12)

    def test_cx_direction(self):
        # control 1, target 0: |10> (index 2) -> |11> (index 3)
        state = zero_state(2)
        state[0], state[2] = 0.0, 1.0
        out = apply_circuit(state, Circuit(2, (Gate("cx", (1, 0)),)))
        assert abs(out[3]) == pytest.approx(1.0)

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            apply_circuit(zero_state(2), Circuit(2, (Gate("ry", (2,), 0.1),)))

    def test_ry_superop_equals_broadcast(self):
        # the 4x4 ry map is built entry by entry; each entry must be the
        # product _superop forms, so rho-path walks stay bit for bit
        angles = np.concatenate([
            np.random.default_rng(31).uniform(-4 * np.pi, 4 * np.pi, 10_000),
            [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e6],
        ])
        for angle in angles:
            gate = Gate("ry", (0,), float(angle))
            expected = _superop(_gate_map(gate, 2))
            assert np.array_equal(_gate_map(gate, 4), expected), angle

    def test_norm_preserved_across_full_ansatz(self):
        rng = np.random.default_rng(23)
        spec = AnsatzSpec("ryrz", "full", 2, 4)
        from h2vqe.ansatz import parameter_count

        for _ in range(10):
            params = rng.uniform(-np.pi, np.pi, parameter_count(spec))
            state = statevector(build_circuit(spec, params))
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-10


class TestPostRotations:
    def test_all_z_empty(self):
        groups, _ = group_terms(h2_4qubit())
        assert post_rotations(groups[0]).gates == ()

    def test_4q_group1_h_on_0_and_2(self):
        groups, _ = group_terms(h2_4qubit())
        circ = post_rotations(groups[1])
        assert [(g.name, g.qubits[0]) for g in circ.gates] == [("h", 0), ("h", 2)]

    def test_2q_group1_h_on_both(self):
        groups, _ = group_terms(h2_2qubit())
        circ = post_rotations(groups[1])
        assert [(g.name, g.qubits[0]) for g in circ.gates] == [("h", 0), ("h", 1)]

    def test_y_basis_rejected(self):
        from h2vqe.pauli import MeasurementGroup

        group = MeasurementGroup(0, ("Y", "Z"), ())
        with pytest.raises(ValueError, match="basis"):
            post_rotations(group)


class TestSampling:
    def test_deterministic_state(self):
        state = zero_state(2)
        state[0], state[3] = 0.0, 1.0
        cv = sample_state(state, 4096, seed=1)
        assert cv.counts == (0, 0, 0, 4096)

    def test_readout_binomial(self):
        noise = NoiseModel(readout_enabled=True, readout=(0.1, 0.0))
        cv = sample_state(zero_state(1), 10000, seed=2, noise=noise)
        assert binomial_within_5_sigma(cv.counts[1], 10000, 0.1)

    def test_bell_zero_amplitude_outcomes(self):
        state = apply_circuit(zero_state(2), BELL)
        cv = sample_state(state, 8192, seed=3)
        assert cv.counts[1] == 0 and cv.counts[2] == 0

    def test_sampling_determinism(self):
        state = statevector(build_circuit(AnsatzSpec(), np.linspace(0, 1, 12)))
        noise = NoiseModel(readout_enabled=True)
        a = sample_state(state, 4096, seed=[7, 1], noise=noise)
        b = sample_state(state, 4096, seed=[7, 1], noise=noise)
        assert a == b

    def test_empirical_convergence_total_variation(self):
        rng = np.random.default_rng(11)
        from h2vqe.ansatz import parameter_count

        spec = AnsatzSpec("ry", "linear", 2, 4)
        for trial in range(3):
            params = rng.uniform(-np.pi, np.pi, parameter_count(spec))
            state = statevector(build_circuit(spec, params))
            probs = np.abs(state) ** 2
            cv = sample_state(state, 65536, seed=[13, trial])
            tv = 0.5 * np.abs(cv.probabilities() - probs / probs.sum()).sum()
            assert tv < 0.02

    def test_shots_validation(self):
        with pytest.raises(ValueError):
            sample_state(zero_state(1), 0, seed=1)


class TestRunNoisy:
    def test_disabled_noise_matches_ideal_distribution(self):
        # chi-squared on the Bell circuit at 8192 shots, p > 0.001
        cv = run_noisy(BELL, 8192, seed=5, noise=NoiseModel())
        expected = 8192 * np.abs(statevector(BELL)) ** 2
        live = expected > 0
        stat = float(
            (((np.asarray(cv.counts) - expected) ** 2)[live] / expected[live]).sum()
        )
        assert cv.counts[1] == 0 and cv.counts[2] == 0
        assert stat < CHI2_CRIT[int(live.sum()) - 1]

    def test_readout_only_equals_sample_counts(self):
        circ = build_circuit(AnsatzSpec(), np.linspace(0.2, 1.4, 12))
        noise = NoiseModel(readout_enabled=True)
        via_run = run_noisy(circ, 4096, seed=9, noise=noise)
        state = statevector(circ)
        via_sample = run_noisy(circ, 4096, seed=9, noise=noise, state=state)
        assert via_run == via_sample

    def test_zero_prob_gate_channel_equals_sample_counts(self):
        circ = build_circuit(AnsatzSpec(), np.linspace(0.2, 1.4, 12))
        noise = NoiseModel(
            gate_enabled=True, p1=0.0, p2=0.0, readout_enabled=True
        )
        via_run = run_noisy(circ, 2048, seed=21, noise=noise)
        state = statevector(circ)
        via_sample = run_noisy(circ, 2048, seed=21, noise=noise, state=state)
        assert via_run == via_sample

    def test_identity_circuit_readout_flips(self):
        # 4 idle qubits, flip prob 0.02 each: P(all zeros) = 0.98^4
        circ = build_circuit(AnsatzSpec(), np.zeros(12))
        noise = NoiseModel(readout_enabled=True, readout=(0.02, 0.02))
        cv = run_noisy(circ, 8192, seed=31, noise=noise)
        assert binomial_within_5_sigma(cv.counts[0], 8192, 0.98**4)

    def test_gate_noise_determinism(self):
        circ = build_circuit(AnsatzSpec(), np.linspace(-1, 1, 12))
        noise = NoiseModel(gate_enabled=True, readout_enabled=True)
        a = run_noisy(circ, 4096, seed=[3, 14], noise=noise)
        b = run_noisy(circ, 4096, seed=[3, 14], noise=noise)
        assert a == b

    def test_certain_gate_error_scrambles(self):
        # Ry(0) then a guaranteed random Pauli: X and Y land in |1>, Z stays
        circ = Circuit(1, (Gate("ry", (0,), 0.0),))
        noise = NoiseModel(gate_enabled=True, p1=1.0)
        cv = run_noisy(circ, 9000, seed=41, noise=noise)
        assert binomial_within_5_sigma(cv.counts[1], 9000, 2.0 / 3.0)

    def test_rounding_below_zero_is_sampled(self):
        # an undone rotation with no error on it leaves diag(rho)[1] ~ -3e-17 on
        # some BLAS kernels and 0.0 on others, so the walk is replaced by such a
        # rho, interleaved: its diagonal is entries 0 and 3
        circ = Circuit(1, (Gate("ry", (0,), 2.0), Gate("ry", (0,), -2.0)))
        noise = NoiseModel(gate_enabled=True, p1=0.0, p2=0.1)
        rho = np.array([1.0 + 3e-17, 0.0, 0.0, -3e-17])
        assert run_noisy(circ, 64, seed=1, noise=noise, state=rho).counts == (64, 0)

    @pytest.mark.parametrize("noise", [
        NoiseModel(), NoiseModel(readout_enabled=True, readout=(0.4, 0.1)),
        NoiseModel(gate_enabled=True, p1=0.2, p2=0.3, readout_enabled=True),
    ], ids=["ideal", "readout", "gate+readout"])
    def test_draws_pass_the_counts_checks(self, noise):
        # run_noisy builds its counts unchecked; each draw must pass them
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            circ = Circuit(n, tuple(Gate("ry", (q,), a) for q, a in
                                    enumerate(rng.uniform(-3, 3, n))))
            for shots in (1, 7, 4096):
                cv = run_noisy(circ, shots, seed=[n, shots], noise=noise)
                assert cv == CountsVector(cv.counts, cv.shots)
                assert len(cv.counts) == 2**n and cv.shots == shots
                assert all(type(c) is int for c in cv.counts)

    def test_gate_noise_shifts_bell(self):
        noise = NoiseModel(gate_enabled=True, p1=0.05, p2=0.05)
        cv = run_noisy(BELL, 8192, seed=43, noise=noise)
        # forbidden outcomes appear once depolarizing is on
        assert cv.counts[1] + cv.counts[2] > 0


def on_qubit(m, q, n):
    """Full 2^n operator of one-qubit matrix m on qubit q (qubit 0 lowest)."""
    return np.kron(np.kron(np.eye(2 ** (n - 1 - q)), m), np.eye(2**q))


def trajectory_counts(circuit, p1, p2, shots, rng):
    """Reference sampler: one Pauli-insertion trajectory per shot.

    After each gate, every qubit it touches independently suffers an
    error with probability p1 (one-qubit gate) or p2 (CX); an error is a
    uniformly random X, Y or Z. Each shot is then measured once.
    """
    n = circuit.n_qubits
    states = np.zeros((2**n, shots), dtype=complex)  # one column per shot
    states[0] = 1.0
    for gate in circuit.gates:
        states = apply_circuit(states, Circuit(n, (gate,)))
        p = p2 if gate.name == "cx" else p1
        for q in gate.qubits:
            fire = rng.random(shots) < p
            which = rng.integers(0, 3, shots)
            for k, pauli in enumerate(PAULIS):
                hit = fire & (which == k)
                states[:, hit] = on_qubit(pauli, q, n) @ states[:, hit]
    cdf = np.cumsum(np.abs(states) ** 2, axis=0)
    outcomes = (cdf < rng.random(shots)).sum(axis=0)
    return np.bincount(np.minimum(outcomes, 2**n - 1), minlength=2**n)


def readout_flip_counts(probs, shots, noise, rng):
    """Reference sampler: per-shot readout flips.

    Each shot's outcome is drawn from probs; then, qubit by qubit, a uniform
    per shot flips its measured bit, 0 -> 1 with probability p01[q] and
    1 -> 0 with p10[q].
    """
    n = len(probs).bit_length() - 1
    counts = rng.multinomial(shots, probs / probs.sum())
    outcomes = np.repeat(np.arange(len(probs), dtype=np.int64), counts)
    p01, p10 = noise.readout_probs(n)
    for q in range(n):
        bits = (outcomes >> q) & 1
        p_flip = np.where(bits == 0, p01[q], p10[q])
        flips = rng.random(outcomes.shape[0]) < p_flip
        outcomes = outcomes ^ (flips.astype(np.int64) << q)
    return np.bincount(outcomes, minlength=len(probs))


def confusion_matrix(noise, n):
    """Dense (x)_q A_q, A_q = [[1 - p01, p10], [p01, 1 - p10]] on qubit q."""
    p01, p10 = noise.readout_probs(n)
    full = np.eye(2**n)
    for q in range(n):
        a = np.array([[1 - p01[q], p10[q]], [p01[q], 1 - p10[q]]])
        full = on_qubit(a, q, n) @ full
    return full


def dense_unitary(gate, n):
    """Full 2^n unitary of one gate, built by kron embedding."""
    if gate.name == "cx":
        c, t = gate.qubits
        p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        return on_qubit(p0, c, n) + on_qubit(p1, c, n) @ on_qubit(PAULIS[0], t, n)
    half = (gate.angle or 0.0) / 2
    m = {
        "h": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        "ry": np.array([[np.cos(half), -np.sin(half)],
                        [np.sin(half), np.cos(half)]]),
        "rz": np.diag([np.exp(-1j * half), np.exp(1j * half)]),
    }[gate.name]
    return on_qubit(m, gate.qubits[0], n)


def mix_qubit(rho, q, n):
    """Tr_q(rho) (x) I/2, with qubit q put back in its own tensor slot."""
    t = rho.reshape((2,) * (2 * n))
    row, col = n - 1 - q, 2 * n - 1 - q  # axis 0 holds the highest qubit
    reduced = np.trace(t, axis1=row, axis2=col)
    mixed = np.multiply.outer(reduced, np.eye(2) / 2)
    return np.moveaxis(mixed, [-2, -1], [row, col]).reshape(rho.shape)


def dense_density_matrix(circuit, p1, p2):
    """Reference channel: U rho U^dagger per gate, then on each touched qubit
    (1 - 4p/3) rho + (4p/3) Tr_q(rho) (x) I/2."""
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        u = dense_unitary(gate, n)
        rho = u @ rho @ u.conj().T
        p = p2 if gate.name == "cx" else p1
        for q in gate.qubits:
            rho = (1 - 4 * p / 3) * rho + (4 * p / 3) * mix_qubit(rho, q, n)
    return rho


class TestDensityMatrix:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_reference(self, n):
        rng = np.random.default_rng(100 + n)
        cases = [("ry", "linear"), ("ryrz", "full"), ("ryrz", "circular")]
        probs = [(0.003, 0.02), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.3)]
        for (form, ent), (p1, p2) in zip(cases * 2, probs):
            spec = AnsatzSpec(form, ent, reps=2, n_qubits=n)
            circ = build_circuit(
                spec, rng.uniform(-np.pi, np.pi, parameter_count(spec))
            )
            basis = tuple(rng.choice(["X", "Z"], size=n))
            circ = circ.concat(post_rotations(MeasurementGroup(0, basis, ())))
            noise = NoiseModel(gate_enabled=True, p1=p1, p2=p2)
            expected = dense_density_matrix(circ, p1, p2)
            assert np.abs(density_matrix(circ, noise) - expected).max() < 1e-12


    def test_certain_error_closed_form(self):
        # X and Y send |0> to |1>, Z keeps it: diag = [1/3, 2/3]
        circ = Circuit(1, (Gate("ry", (0,), 0.0),))
        rho = density_matrix(circ, NoiseModel(gate_enabled=True, p1=1.0))
        assert np.allclose(rho.diagonal(), [1 / 3, 2 / 3], rtol=0, atol=1e-15)
        assert np.allclose(rho, np.diag([1 / 3, 2 / 3]), rtol=0, atol=1e-15)

    def test_zero_probabilities_give_pure_state(self):
        circ = build_circuit(AnsatzSpec(), np.linspace(0.2, 1.4, 12))
        noise = NoiseModel(gate_enabled=True, p1=0.0, p2=0.0)
        state = statevector(circ)
        rho = density_matrix(circ, noise)
        assert np.allclose(rho.diagonal().real, np.abs(state) ** 2, atol=1e-12)
        assert np.allclose(rho, np.outer(state, state.conj()), atol=1e-12)

    def test_diagonal_matches_trajectories(self):
        # 2 qubits, every gate kind, p = 0.05 on every error slot
        circ = Circuit(2, (
            Gate("ry", (0,), 0.7), Gate("ry", (1,), -1.2), Gate("cx", (0, 1)),
            Gate("h", (1,)), Gate("rz", (0,), 0.4), Gate("cx", (1, 0)),
            Gate("ry", (0,), 0.3),
        ))
        noise = NoiseModel(gate_enabled=True, p1=0.05, p2=0.05)
        probs = density_matrix(circ, noise).diagonal().real
        shots = 200_000
        observed = trajectory_counts(
            circ, 0.05, 0.05, shots, np.random.default_rng(47)
        )
        expected = shots * probs
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat < CHI2_CRIT[3]


# asymmetric and different on every qubit, so a transposed map or a map on
# the wrong qubit moves the distribution
READOUT_PAIRS = ((0.03, 0.01), (0.1, 0.0), (0.0, 0.2), (0.05, 0.05))


class TestReadoutChannel:
    @pytest.mark.parametrize("gate", [False, True])
    def test_matches_per_shot_flips(self, gate):
        spec = AnsatzSpec("ryrz", "circular", 2, 4)
        circ = build_circuit(spec, np.linspace(-1.3, 1.1, parameter_count(spec)))
        circ = circ.concat(post_rotations(BASIS_XZXZ))
        noise = NoiseModel(
            gate_enabled=gate, readout_enabled=True, p1=0.01, p2=0.03,
            readout=READOUT_PAIRS,
        )
        if gate:
            probs = dense_density_matrix(circ, 0.01, 0.03).diagonal().real
        else:
            probs = np.abs(dense_apply(circ, zero_state(4))) ** 2
        shots = 60 * 4096
        expected = shots * confusion_matrix(noise, 4) @ probs
        rng = np.random.default_rng(61)
        pooled = sum(
            readout_flip_counts(probs, 4096, noise, rng) for _ in range(60)
        )
        direct = np.asarray(run_noisy(circ, shots, [61, gate], noise).counts)
        for observed in (pooled, direct):
            stat = float(((observed - expected) ** 2 / expected).sum())
            assert stat < CHI2_CRIT[15]

    def test_flip_lands_on_its_own_qubit(self):
        # only qubit 0 can flip, so from |00> outcomes 2 and 3 never appear
        noise = NoiseModel(readout_enabled=True, readout=((0.5, 0.0), (0.0, 0.0)))
        for cv in (
            run_noisy(Circuit(2, ()), 8192, 71, noise),
            sample_state(zero_state(2), 8192, 72, noise),
        ):
            assert cv.counts[2] == 0 and cv.counts[3] == 0
            assert binomial_within_5_sigma(cv.counts[1], 8192, 0.5)


def random_circuits(n, rng):
    """Random-angle circuits on n qubits, all ending in one random H post-rotation.

    For n >= 2, the ry and ryrz ansatzes with each entangler; for n = 1,
    a random sequence of ry, rz and h.
    """
    if n == 1:
        names = [str(name) for name in rng.choice(["ry", "rz", "h"], size=8)]
        bodies = [Circuit(1, tuple(
            Gate(name, (0,), None if name == "h" else float(rng.uniform(-4, 4)))
            for name in names
        ))]
    else:
        bodies = []
        for form in ("ry", "ryrz"):
            for ent in ("linear", "circular", "full"):
                spec = AnsatzSpec(form, ent, reps=2, n_qubits=n)
                params = rng.uniform(-np.pi, np.pi, parameter_count(spec))
                bodies.append(build_circuit(spec, params))
    rotation = random_rotation(n, rng)
    return [body.concat(rotation) for body in bodies]


def random_rotation(n, rng):
    """Post-rotation of a random X/Z measurement basis on n qubits."""
    basis = tuple(str(b) for b in rng.choice(["X", "Z"], size=n))
    return post_rotations(MeasurementGroup(0, basis, ()))


def dense_apply(circuit, state):
    """Reference statevector run: one kron-embedded unitary per gate."""
    for gate in circuit.gates:
        state = dense_unitary(gate, circuit.n_qubits) @ state
    return state


BASIS_XZXZ = MeasurementGroup(0, ("X", "Z", "X", "Z"), ())

# run_noisy counts of two fixed 4q circuits (4096 shots, H on qubits 0 and
# 2). They pin the simulated distributions and the seeded draw order of
# every arm. The ideal cases were recorded before the gate walker replaced
# the per-gate kernels; the readout and gate+readout cases when the exact
# readout channel replaced per-shot bit flips.
PINNED_ARMS = {
    "ideal": ([2021, 0], NoiseModel()),
    "readout": ([2021, 1], NoiseModel(readout_enabled=True, readout=(0.03, 0.01))),
    "gate+readout": ([2021, 2], NoiseModel(
        gate_enabled=True, readout_enabled=True, p1=0.01, p2=0.03
    )),
}
# noise arms of the group-walk tests: each walk kind, with and without readout
WALK_ARMS = {
    "ideal": NoiseModel(),
    "readout": NoiseModel(readout_enabled=True, readout=(0.03, 0.01)),
    "gate": NoiseModel(gate_enabled=True, p1=0.01, p2=0.03),
    "gate+readout": NoiseModel(
        gate_enabled=True, readout_enabled=True, p1=0.01, p2=0.03
    ),
}
PINNED_COUNTS = {
    ("ry", "linear", "ideal"): (
        400, 132, 662, 154, 1278, 13, 884, 2, 200, 48, 39, 13, 150, 0, 120, 1),
    ("ry", "linear", "readout"): (
        367, 164, 633, 173, 1156, 40, 866, 31, 226, 48, 53, 19, 181, 10, 124, 5),
    ("ry", "linear", "gate+readout"): (
        505, 173, 523, 160, 920, 126, 714, 104, 218, 49, 111, 37, 213, 27, 160, 56),
    ("ryrz", "circular", "ideal"): (
        357, 28, 108, 83, 593, 83, 471, 523, 168, 53, 320, 52, 9, 93, 823, 332),
    ("ryrz", "circular", "readout"): (
        316, 32, 111, 73, 508, 123, 485, 516, 185, 68, 319, 72, 45, 87, 774, 382),
    ("ryrz", "circular", "gate+readout"): (
        370, 137, 204, 146, 402, 143, 423, 367, 176, 113, 318, 163, 117, 134, 563, 320),
}


class TestWalker:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_dense_reference(self, n):
        rng = np.random.default_rng(200 + n)
        for circ in random_circuits(n, rng):
            start = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            start /= np.linalg.norm(start)
            expected = dense_apply(circ, zero_state(n))
            assert np.abs(statevector(circ) - expected).max() < 1e-12
            expected = dense_apply(circ, start)
            assert np.abs(apply_circuit(start, circ) - expected).max() < 1e-12

    def test_apply_gate_batch_matches_columns(self):
        rng = np.random.default_rng(7)
        n, width = 3, 5
        batch = rng.normal(size=(2**n, width)) + 1j * rng.normal(size=(2**n, width))
        circ = random_circuits(n, rng)[3]  # ryrz/linear
        for gate in circ.gates + (Gate("h", (1,)), Gate("cx", (2, 0))):
            one = Circuit(n, (gate,))
            out = apply_circuit(batch, one)
            columns = [apply_circuit(batch[:, j], one) for j in range(width)]
            assert out.shape == batch.shape
            assert np.abs(out - np.stack(columns, axis=1)).max() <= 1e-15
            batch = out

    def test_real_path_returns_complex_and_matches_complex_path(self):
        spec = AnsatzSpec("ry", "linear", 2, 4)
        circ = build_circuit(spec, np.linspace(-1.3, 1.1, 12))
        circ = circ.concat(post_rotations(BASIS_XZXZ))
        state = statevector(circ)
        assert state.dtype == np.complex128
        rho = density_matrix(circ, NoiseModel(gate_enabled=True))
        assert rho.dtype == np.complex128
        # rz(0) is the identity, but its complex matrix sends the walk complex
        with_rz = Circuit(4, (Gate("rz", (0,), 0.0),) + circ.gates)
        assert np.abs(statevector(with_rz) - state).max() <= 1e-15

    def test_cx_permutation_read_only(self):
        perm = _cx_gather(3, ((0, 2),), 2)
        with pytest.raises(ValueError):
            perm[0] = 1

    def test_one_cached_gather_per_cx_run(self):
        # each full-entanglement layer is one run of 120 CXs, so one cache
        # entry of 2^16 indices; a gather per pair would hold 120 (61 MiB)
        spec = AnsatzSpec("ry", "full", 2, 16)
        circ = build_circuit(spec, np.linspace(-1.3, 1.1, parameter_count(spec)))
        _cx_gather.cache_clear()
        tracemalloc.start()
        try:
            _walk_from_zero(circ, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _cx_gather.cache_info().currsize == 1
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("arm", list(PINNED_ARMS))
    @pytest.mark.parametrize("form, ent", [("ry", "linear"), ("ryrz", "circular")])
    def test_pinned_counts(self, form, ent, arm):
        spec = AnsatzSpec(form, ent, 2, 4)
        params = np.linspace(-1.3, 1.1, parameter_count(spec))
        circ = build_circuit(spec, params).concat(post_rotations(BASIS_XZXZ))
        seed, noise = PINNED_ARMS[arm]
        cv = run_noisy(circ, 4096, seed, noise)
        assert cv.counts == PINNED_COUNTS[form, ent, arm]

    @pytest.mark.parametrize("arm", list(WALK_ARMS))
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_resumed_walk_matches_fresh(self, n, arm):
        """Each group's walk, resumed from the flushed ansatz, matches a fresh
        walk of the group's whole circuit, and ``run_noisy`` draws the same
        counts from a given fresh walk as from its own."""
        noise = WALK_ARMS[arm]
        rng = np.random.default_rng(400 + n)
        for form in ("ry", "ryrz"):
            for ent in ("linear", "circular", "full"):
                spec = AnsatzSpec(form, ent, 2, n)
                body = build_circuit(spec, rng.uniform(-4, 4, parameter_count(spec)))
                tails = [random_rotation(n, rng) for _ in range(3)]  # one walk, 3 groups
                walked = walk_groups(body, tails, noise)
                for g, (tail, state) in enumerate(zip(tails, walked)):
                    circ = body.concat(tail)
                    fresh = _walk_from_zero(circ, *_walk_setting(noise))
                    assert np.abs(state - fresh).max() <= 1e-13
                    seed = [n, g]
                    given = run_noisy(circ, 1024, seed, noise, state=fresh)
                    assert given == run_noisy(circ, 1024, seed, noise)

    def test_wrong_length_state_raises(self):
        spec = AnsatzSpec("ry", "circular", 2, 3)
        body = build_circuit(spec, np.linspace(-1.0, 1.2, parameter_count(spec)))
        circ = body.concat(post_rotations(MeasurementGroup(0, ("X", "Z", "X"), ())))
        ideal, gate = NoiseModel(), WALK_ARMS["gate"]
        psi, rho = _walk_from_zero(circ, 2), _walk_from_zero(circ, 4)
        wrong = [
            (psi[:4], ideal),
            (np.zeros(16), ideal),  # a 4-qubit statevector
            (psi[:, None], ideal),  # the right entries, not flat
            (rho, ideal),
            (rho, WALK_ARMS["readout"]),
            (psi, gate),  # a statevector under active gate noise
            (psi, WALK_ARMS["gate+readout"]),
        ]
        for state, noise in wrong:
            with pytest.raises(ValueError):
                run_noisy(circ, 64, 0, noise, state=state)
        with pytest.raises(ValueError):  # a tail on another register
            walk_groups(body, [post_rotations(MeasurementGroup(0, ("X",) * 4, ()))],
                        ideal)
        # inert gate noise walks the statevector
        run_noisy(circ, 64, 0, NoiseModel(gate_enabled=True, p1=0.0, p2=0.0), state=psi)

    def test_given_state_read_only_and_unchanged(self):
        spec = AnsatzSpec("ryrz", "circular", 2, 3)
        body = build_circuit(spec, np.linspace(-1.3, 1.1, parameter_count(spec)))
        tails = [post_rotations(MeasurementGroup(0, basis, ()))
                 for basis in (("X", "X", "X"), ("Z", "Z", "Z"), ("X", "Z", "X"))]
        for noise in WALK_ARMS.values():
            walked = walk_groups(body, tails, noise)
            for g, (tail, state) in enumerate(zip(tails, walked)):
                state.setflags(write=False)  # as DenseAnsatz hands its rows over
                kept = state.copy()
                circ = body.concat(tail)
                assert (run_noisy(circ, 256, [g], noise, state=state)
                        == run_noisy(circ, 256, [g], noise, state=kept))
                assert np.array_equal(state, kept)


def random_gates(n, rng, count=24):
    """Seeded random ry, rz, h and cx gates on n qubits, half of them CXs.

    On three or more qubits a fixed stretch sits in the middle: a map left
    pending before a CX run, one-qubit gates inside the run on a qubit it
    has moved and on one it has not, and a CX on the qubit whose map was
    pending before the run."""
    def one(name, q):
        return Gate(name, (q,), None if name == "h" else float(rng.uniform(-4, 4)))

    def some(count):
        gates = []
        for _ in range(count):
            if rng.random() < 0.5:
                c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
                gates.append(Gate("cx", (c, t)))
            else:
                gates.append(one(str(rng.choice(["ry", "rz", "h"])), int(rng.integers(n))))
        return gates

    middle = [] if n < 3 else [
        one("ry", 2), Gate("cx", (0, 1)), one("rz", 2), Gate("cx", (1, 0)),
        Gate("cx", (2, 0)), one("ry", 0), Gate("cx", (0, 1)),
    ]
    return Circuit(n, tuple(some(count // 2) + middle + some(count - count // 2)))


def per_cx_walk(r, gates, n, k, f1=1.0, f2=1.0):
    """Reference walk: the walker's map fusion and flush order, with each CX
    applied as its own gather at the point where it is met."""
    i, pending = np.arange(2**n), {}
    for gate in gates:
        if gate.name == "cx":
            for q in gate.qubits:
                if q in pending:
                    r = _apply_pending(r, q, *pending.pop(q), n, k)
            c, t = gate.qubits
            flip = i ^ (((i >> c) & 1) << t)
            if k == 4:
                index = _interleaved_index(n)
                perm = np.empty(4**n, dtype=np.intp)
                perm[index] = index[flip][:, flip]
                flip = perm
            r = r[flip]
            for q in gate.qubits:
                pending[q] = (None, f2)
        else:
            (q,) = gate.qubits
            m, f = pending.get(q, (None, 1.0))
            u = _gate_map(gate, k)
            pending[q] = (u if m is None else u @ m, f * f1)
    for q, (m, f) in pending.items():
        r = _apply_pending(r, q, m, f, n, k)
    return r


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and np.array_equal(a, b)


GATE_RATES = {"p2=0": (DEFAULT_P1, 0.0), "default": (DEFAULT_P1, DEFAULT_P2)}


class TestCxRuns:
    """Walks whose CXs form runs give, bit for bit and in the same dtype,
    the arrays of the reference walk that gathers once per CX."""

    @pytest.mark.parametrize("form, ent", [
        ("ry", "circular"), ("ry", "full"), ("ryrz", "circular"), ("ryrz", "full")])
    def test_walk_groups(self, form, ent):
        rng = np.random.default_rng(900)
        p2_zero = NoiseModel(gate_enabled=True, p2=0.0)  # rho, whose runs compose
        for n in (6, 7, 8):
            spec = AnsatzSpec(form, ent, 2, n)
            body = build_circuit(spec, rng.uniform(-4, 4, parameter_count(spec)))
            tails = [random_rotation(n, rng) for _ in range(3)]
            for noise in (NoiseModel(), p2_zero):
                k, f1, f2 = _walk_setting(noise)
                start = np.zeros(k**n)
                start[0] = 1.0
                ansatz = per_cx_walk(start, body.gates, n, k, f1, f2)
                for tail, state in zip(tails, walk_groups(body, tails, noise)):
                    assert_same_bits(state, per_cx_walk(ansatz, tail.gates, n, k, f1, f2))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_statevector(self, n):
        rng = np.random.default_rng(910 + n)
        for _ in range(8):
            circ = random_gates(n, rng)
            expected = per_cx_walk(zero_state(n).real, circ.gates, n, 2)
            assert_same_bits(statevector(circ), expected.astype(complex, copy=False))

    @pytest.mark.parametrize("rates", list(GATE_RATES))
    def test_density_matrix(self, rates):
        p1, p2 = GATE_RATES[rates]
        noise = NoiseModel(gate_enabled=True, p1=p1, p2=p2)
        _, f1, f2 = _walk_setting(noise)
        rng = np.random.default_rng(920)
        circuits = [random_gates(n, rng) for n in (2, 3, 4, 5, 6) for _ in range(3)]
        for form in ("ry", "ryrz"):
            for ent in ("linear", "circular", "full"):
                spec = AnsatzSpec(form, ent, 2, 5)
                circuits.append(build_circuit(
                    spec, rng.uniform(-4, 4, parameter_count(spec))
                ).concat(random_rotation(5, rng)))
        for circ in circuits:
            n = circ.n_qubits
            start = np.zeros(4**n)
            start[0] = 1.0
            rho = per_cx_walk(start, circ.gates, n, 4, f1, f2)[_interleaved_index(n)]
            assert_same_bits(density_matrix(circ, noise), rho.astype(complex, copy=False))


class TestCountsVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountsVector((1, 2, 3), 6)  # not a power of two
        with pytest.raises(ValueError):
            CountsVector((1, 2), 4)  # wrong sum
        with pytest.raises(ValueError):
            CountsVector((-1, 5), 4)

    def test_probabilities(self):
        cv = CountsVector((1, 3), 4)
        assert np.allclose(cv.probabilities(), [0.25, 0.75])
        assert cv.n_qubits == 1


class TestCountsSerialization:
    def test_round_trip_q0_leftmost(self):
        cv = CountsVector((5, 1, 2, 8), 16)
        doc = counts_to_dict(cv, ("X", "Z"), bit_order="q0_leftmost", group_id=1)
        back, basis, meta = counts_from_dict(doc)
        assert back == cv
        assert basis == "XZ"
        assert meta == {"group_id": 1}

    def test_round_trip_q0_rightmost(self):
        cv = CountsVector((5, 1, 2, 8), 16)
        doc = counts_to_dict(cv, ("X", "Z"), bit_order="q0_rightmost")
        assert doc["counts"] == [5, 1, 2, 8]
        assert doc["group_basis"] == "ZX"
        back, basis, _ = counts_from_dict(doc)
        assert back == cv and basis == "XZ"

    def test_leftmost_permutes(self):
        # internal index 1 (q0 set) prints as "1000" -> serialized index 8
        cv = CountsVector((0, 7, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0), 8)
        doc = counts_to_dict(cv, ("Z",) * 4, bit_order="q0_leftmost")
        assert doc["counts"][8] == 7 and doc["counts"][1] == 1

    def test_group1_basis_string(self):
        groups, _ = group_terms(h2_4qubit())
        cv = CountsVector((1,) * 16, 16)
        doc = counts_to_dict(cv, groups[1].basis, bit_order="q0_leftmost")
        assert doc["group_basis"] == "XZXZ"

    def test_bit_reversal_involution(self):
        perm = bit_reversal_permutation(4)
        assert np.array_equal(perm[perm], np.arange(16))

    def test_saved_file_is_json_dump_output(self, tmp_path):
        cv = CountsVector((5, 0, 1, 10), 16)
        doc = counts_to_dict(cv, ("X", "Z"), group_id=1, run_index=3,
                             energy_ha=-1.8394752343750003, band="ground")
        path = tmp_path / "run0003_g1.json"
        save_counts(str(path), doc)
        with open(tmp_path / "dumped.json", "w") as fh:
            json.dump(doc, fh)
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()
        assert load_counts(str(path)) == (cv, "XZ", {
            "group_id": 1, "run_index": 3, "energy_ha": -1.8394752343750003,
            "band": "ground"})

    def test_bad_tags(self):
        cv = CountsVector((1, 1), 2)
        with pytest.raises(ValueError):
            counts_to_dict(cv, ("Z",), bit_order="mystery")
        with pytest.raises(ValueError):
            counts_from_dict({"n_qubits": 1, "shots": 2, "group_basis": "Z",
                              "bit_order": "mystery", "counts": [1, 1]})


class TestNoiseModel:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p1=1.5)
        with pytest.raises(ValueError):
            NoiseModel(readout=(0.2, -0.1))

    def test_readout_copied_from_caller(self):
        r = [[0.1, 0.2], [0.3, 0.4]]
        nm = NoiseModel(readout_enabled=True, readout=r)
        r[0][0], r[1][1] = 0.9, 5.0  # neither reaches the model
        assert nm.readout == ((0.1, 0.2), (0.3, 0.4))
        assert nm.to_dict()["readout_errors"] == {"per_qubit": [[0.1, 0.2], [0.3, 0.4]]}
        assert nm.readout_probs(2)[0].tolist() == [0.1, 0.3]
        assert NoiseModel(readout=[1, 0]).readout == (1.0, 0.0)

    @pytest.mark.parametrize("readout", [(), (0.1,), ((0.1, 0.2, 0.3),), "ab", None],
                             ids=["empty", "one", "triple", "str", "none"])
    def test_malformed_readout_rejected(self, readout):
        with pytest.raises(ValueError, match="readout"):
            NoiseModel(readout=readout)

    def test_per_qubit_readout(self):
        nm = NoiseModel(readout=((0.1, 0.0), (0.0, 0.2)))
        p01, p10 = nm.readout_probs(2)
        assert np.allclose(p01, [0.1, 0.0]) and np.allclose(p10, [0.0, 0.2])
        with pytest.raises(ValueError):
            nm.readout_probs(3)

    def test_dict_round_trip(self):
        nm = NoiseModel(gate_enabled=True, readout_enabled=True, p2=0.02)
        assert NoiseModel.from_dict(nm.to_dict()) == nm
        bare = NoiseModel.from_dict({"gate_errors": True, "readout_errors": True})
        assert bare.p1 == 0.001 and bare.p2 == 0.005 and bare.readout == (0.02, 0.02)

    def test_canonical_round_trip(self):
        models = [
            NoiseModel(p1=0.3),
            NoiseModel(readout=(0.1, 0.1)),
            NoiseModel(readout_enabled=True, readout=((0.1, 0.2),)),
        ]
        for nm in models:
            assert NoiseModel.from_dict(json.loads(json.dumps(nm.to_dict()))) == nm
        assert models[0] == models[1] == NoiseModel()
        assert models[2] == NoiseModel(readout_enabled=True, readout=(0.1, 0.2))

    def test_describe(self):
        assert NoiseModel().describe() == "ideal"
        assert "gate" in NoiseModel(gate_enabled=True).describe()

    def test_empty_object_enables_channel_with_defaults(self):
        empty = NoiseModel.from_dict({"gate_errors": {}, "readout_errors": {}})
        bare = NoiseModel.from_dict({"gate_errors": True, "readout_errors": True})
        assert empty == bare
        assert empty.describe() == bare.describe() != "ideal"
        off = NoiseModel.from_dict({"gate_errors": False, "readout_errors": False})
        assert off == NoiseModel.from_dict({}) == NoiseModel()

    def test_flat_pair_equals_single_per_qubit_pair(self):
        flat = NoiseModel(readout_enabled=True, readout=(0.1, 0.3))
        single = NoiseModel(readout_enabled=True, readout=((0.1, 0.3),))
        assert flat == single and hash(flat) == hash(single)

    def test_disabled_channels_ignore_their_rates(self):
        a = NoiseModel(p1=0.2, p2=0.3, readout=(0.1, 0.1))
        b = NoiseModel(p1=0.0, p2=0.5, readout=((0.4, 0.0), (0.0, 0.4)))
        assert a == b and hash(a) == hash(b)
        assert NoiseModel(gate_enabled=True, p1=0.2) != NoiseModel(gate_enabled=True)

    def test_pickle_round_trip(self):
        # pool workers receive the model pickled
        nm = NoiseModel(gate_enabled=True, readout_enabled=True,
                        readout=((0.1, 0.0), (0.05, 0.2)))
        back = pickle.loads(pickle.dumps(nm))
        assert back == nm and hash(back) == hash(nm)
        assert back.to_dict() == nm.to_dict()


class TestSeedWords:
    """A uint32 array of ``seed_words(s)`` draws the stream of default_rng(s)."""

    @pytest.mark.parametrize("seed", [
        0, 1, 2**32, 2**64 + 5,
        [0], [1], [2**32 - 1], [2**32], [2**64 - 1], [2**64 + 5],
        [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5],
        [np.uint64(2**64 - 2), 0, 3],
        (7, np.int64(9)),
        [derive_run_seed(4294967290, 3), 1, 149, 0],
        [derive_run_seed(424242, 0), 1, 0, 1],
    ])
    def test_same_stream_as_default_rng(self, seed):
        words = np.array(seed_words(seed), dtype=np.uint32)
        ref = np.random.default_rng(seed).integers(0, 2**63, 64)
        for rng in (np.random.Generator(np.random.PCG64(words)),
                    np.random.default_rng(words)):
            assert np.array_equal(rng.integers(0, 2**63, 64), ref)

    def test_word_split(self):
        assert seed_words([0, 2**32 - 1, 2**32, 2**64 + 5]) == [
            0, 2**32 - 1, 0, 1, 5, 0, 1]

    @pytest.mark.parametrize("seed", [-1, [3, -1], [np.int64(-2)]])
    def test_negative_entry_raises(self, seed):
        with pytest.raises(ValueError):
            seed_words(seed)

    @pytest.mark.parametrize("seed", [1.5, [1.5], [3, 2.0], (7, "8"), [None]])
    def test_non_integer_entry_raises(self, seed):
        with pytest.raises(ValueError, match="not an integer"):
            seed_words(seed)
        with pytest.raises(ValueError, match="not an integer"):
            seed_entries(seed)

    def test_run_noisy_takes_every_seed_kind(self):
        circ = build_circuit(AnsatzSpec(n_qubits=2), np.linspace(0.2, 1.4, 6))
        noise = NoiseModel(readout_enabled=True)
        words = np.array(seed_words([5, 1, 2, 0]), dtype=np.uint32)
        listed = run_noisy(circ, 512, [5, 1, 2, 0], noise)
        assert run_noisy(circ, 512, words, noise) == listed
        assert run_noisy(circ, 512, 5, noise) == run_noisy(circ, 512, 5, noise)
        assert run_noisy(circ, 512, None, noise).shots == 512
        a = run_noisy(circ, 512, np.random.default_rng(8), noise)
        assert a == run_noisy(circ, 512, np.random.default_rng(8), noise)
        assert a == run_noisy(circ, 512, np.random.SeedSequence(8), noise)
        with pytest.raises(ValueError):
            run_noisy(circ, 512, [5, -1], noise)


class TestPcg64SeedStates:
    """The block derivation seeds PCG64 exactly as np.random.default_rng does."""

    @pytest.mark.parametrize("words", range(1, 10))
    def test_matches_default_rng(self, words):
        rng = np.random.default_rng(1000 + words)
        columns = rng.integers(0, 2**32, size=(words, 203), dtype=np.uint32)
        columns[:, 0] = 0
        columns[:, 1] = 2**32 - 1
        columns[::2, 2] = 2**32 - 1  # and 0 at the odd rows
        columns[1::2, 2] = 0
        states = pcg64_seed_states(columns)
        assert len(states) == 203
        for column, state in zip(columns.T, states):
            ref = np.random.default_rng(column).bit_generator.state["state"]
            assert state == (ref["state"], ref["inc"])

    def test_single_column_and_stream(self):
        column = np.array([derive_run_seed(424242, 0) & 0xFFFFFFFF, 1, 0, 1],
                          dtype=np.uint32)
        ((state, inc),) = pcg64_seed_states(column[:, None])
        rng = np.random.default_rng(0)
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0,
                                   "uinteger": 0, "state": {"state": state, "inc": inc}}
        ref = np.random.default_rng(column)
        assert np.array_equal(rng.integers(0, 2**63, 64), ref.integers(0, 2**63, 64))


class TestConfusionMaps:
    def test_read_only_and_shared_by_equal_models(self):
        flat = NoiseModel(readout_enabled=True, readout=(0.1, 0.3))
        single = NoiseModel(readout_enabled=True, readout=((0.1, 0.3),))
        assert flat == single
        maps = _confusion_maps(flat, 3)
        assert _confusion_maps(single, 3) is maps
        for a in maps:
            assert np.array_equal(a, [[0.9, 0.3], [0.1, 0.7]])
            with pytest.raises(ValueError):
                a[0, 0] = 1.0

    def test_per_qubit_maps(self):
        noise = NoiseModel(readout_enabled=True, readout=((0.1, 0.0), (0.05, 0.2)))
        maps = _confusion_maps(noise, 2)
        assert [a.tolist() for a in maps] == [
            [[0.9, 0.0], [0.1, 1.0]], [[0.95, 0.2], [0.05, 0.8]]]
        assert _confusion_maps(noise, 2) is maps


@pytest.mark.parametrize("basis", ["XY", "zq", "X "])
def test_counts_basis_other_than_x_and_z_rejected(basis):
    doc = {"n_qubits": 2, "shots": 2, "group_basis": basis, "counts": [1, 1, 0, 0]}
    with pytest.raises(ValueError, match="group_basis"):
        counts_from_dict(doc)
    assert counts_from_dict(dict(doc, group_basis="xz"))[1] == "XZ"
