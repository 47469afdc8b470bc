"""Expectation math, counts-to-energy, bit-order resolution, VQE driver."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import h2vqe.vqe as vqe_mod
from h2vqe import fixtures
from h2vqe.ansatz import AnsatzSpec, Circuit
from h2vqe.optim import OptimizerConfig
from h2vqe.pauli import (
    DENSE_QUBIT_CAP,
    STATEVECTOR_QUBIT_CAP,
    Hamiltonian,
    PauliString,
    PauliTerm,
    group_terms,
    h2_4qubit,
)
from h2vqe.ansatz import Gate, _layout, build_circuit
from h2vqe.sim import (
    DENSE_ANSATZ_QUBITS,
    CountsVector,
    DenseAnsatz,
    NoiseModel,
    _walk_from_zero,
    post_rotations,
    run_noisy,
)
from h2vqe.vqe import (
    BitOrder,
    EnergyEvaluator,
    VqeConfig,
    energy_from_counts,
    initial_parameters,
    resolve_bit_order,
    run_vqe,
)

# internal index for (q0,q1,q2,q3) = (1,1,1,0)
IDX_1110 = 0b0111

# hand evaluation of every Z-type term on (q0..q3)=(1,1,1,0), plus identity
DIAG_ENERGY_1110 = -1.84723


def concentrated(index, shots=8192, dim=16):
    counts = [0] * dim
    counts[index] = shots
    return CountsVector(tuple(counts), shots)


def uniform(shots=8192, dim=16):
    return CountsVector((shots // dim,) * dim, shots)


def term_expectation(term, counts, conv):
    """<P> of one term: the energy_from_counts expectation of a one-term,
    coefficient-1 Hamiltonian measured in the term's basis."""
    h = Hamiltonian(term.string.n_qubits, (term,))
    groups, _ = group_terms(h)
    ((_, value),) = energy_from_counts(h, groups, [counts], conv).expectations
    return value


class TestPauliExpectation:
    def test_even_parity_support(self):
        term = PauliTerm(1.0, PauliString.from_ops(4, {0: "Z", 1: "Z"}))
        value = term_expectation(term, concentrated(IDX_1110), BitOrder.Q0_RIGHTMOST)
        assert value == 1.0

    def test_odd_parity_support(self):
        term = PauliTerm(1.0, PauliString.from_ops(4, {0: "Z"}))
        value = term_expectation(term, concentrated(IDX_1110), BitOrder.Q0_RIGHTMOST)
        assert value == -1.0

    def test_uniform_counts_vanish(self):
        for ops in ({0: "Z"}, {1: "Z", 3: "Z"}, {0: "X", 2: "X"}):
            term = PauliTerm(1.0, PauliString.from_ops(4, ops))
            assert term_expectation(term, uniform(), BitOrder.Q0_RIGHTMOST) == 0.0

    def test_convention_changes_bit(self):
        term = PauliTerm(1.0, PauliString.from_ops(4, {3: "Z"}))
        cv = concentrated(IDX_1110)
        assert term_expectation(term, cv, BitOrder.Q0_RIGHTMOST) == 1.0
        # under q0-leftmost, qubit 3 reads bit 0, which is set
        assert term_expectation(term, cv, BitOrder.Q0_LEFTMOST) == -1.0

    def test_qubit_mismatch(self):
        term = PauliTerm(1.0, PauliString.from_label("ZZ"))
        with pytest.raises(ValueError):
            term_expectation(term, concentrated(IDX_1110), BitOrder.Q0_RIGHTMOST)


class TestEnergyFromCounts:
    def setup_method(self):
        self.h = h2_4qubit()
        self.groups, _ = group_terms(self.h)

    def _fixture_energy(self, c0_name, c1_name):
        est = energy_from_counts(
            self.h,
            self.groups,
            (fixtures.fixture_counts(c0_name), fixtures.fixture_counts(c1_name)),
            BitOrder.Q0_RIGHTMOST,
        )
        return est

    def test_set_a(self):
        assert self._fixture_energy("A0", "A1").energy == pytest.approx(
            -1.8422, abs=1e-3
        )

    def test_set_b(self):
        assert self._fixture_energy("B0", "B1").energy == pytest.approx(
            -1.8464, abs=1e-3
        )

    def test_concentrated_diagonal(self):
        est = energy_from_counts(
            self.h,
            self.groups,
            (concentrated(IDX_1110), uniform()),
            BitOrder.Q0_RIGHTMOST,
        )
        assert est.energy == pytest.approx(DIAG_ENERGY_1110, abs=5e-5)

    def test_expectations_bounded(self):
        est = self._fixture_energy("A0", "A1")
        for _, value in est.expectations:
            assert -1.0 <= value <= 1.0

    def test_scaling_invariance(self):
        a0, a1 = fixtures.fixture_counts("A0"), fixtures.fixture_counts("A1")
        scaled = tuple(
            CountsVector(tuple(3 * c for c in cv.counts), 3 * cv.shots)
            for cv in (a0, a1)
        )
        base = energy_from_counts(
            self.h, self.groups, (a0, a1), BitOrder.Q0_RIGHTMOST
        )
        tripled = energy_from_counts(
            self.h, self.groups, scaled, BitOrder.Q0_RIGHTMOST
        )
        assert tripled.energy == pytest.approx(base.energy, abs=1e-12)

    def test_group_count_mismatch(self):
        with pytest.raises(ValueError):
            energy_from_counts(
                self.h,
                self.groups,
                (fixtures.fixture_counts("A0"),),
                BitOrder.Q0_RIGHTMOST,
            )

    def test_energy_bound_invariant(self):
        span = sum(
            abs(t.coefficient)
            for t in self.h.terms
            if not t.string.is_identity
        )
        for names in (("A0", "A1"), ("B0", "B1")):
            est = self._fixture_energy(*names)
            assert abs(est.energy - self.h.identity_coefficient) <= span

    def test_counts_kept_as_passed_in_either_order(self):
        a0, a1 = fixtures.fixture_counts("A0"), fixtures.fixture_counts("A1")
        counts = (a0, a1)
        for conv in BitOrder:
            est = energy_from_counts(self.h, self.groups, counts, conv)
            assert est.group_counts == counts
            assert all(kept is cv for kept, cv in zip(est.group_counts, counts))
        leftmost = energy_from_counts(self.h, self.groups, counts,
                                      BitOrder.Q0_LEFTMOST)
        moved = tuple(cv.reordered(BitOrder.Q0_LEFTMOST) for cv in counts)
        assert moved != counts
        rightmost = energy_from_counts(self.h, self.groups, moved,
                                       BitOrder.Q0_RIGHTMOST)
        assert leftmost.energy == rightmost.energy

    def test_y_term_rejected(self):
        # no counts can come from a Y basis, so no energy is estimated
        h = Hamiltonian(2, (PauliTerm(0.5, PauliString.from_label("ZZ")),
                            PauliTerm(0.2, PauliString.from_label("YX"))))
        groups, _ = group_terms(h)
        zeros = CountsVector((10, 0, 0, 0), 10)
        with pytest.raises(ValueError, match="YX"):
            energy_from_counts(h, groups, [zeros] * len(groups),
                               BitOrder.Q0_RIGHTMOST)


class TestResolveBitOrder:
    def test_default_fixtures(self):
        assert resolve_bit_order() is BitOrder.Q0_LEFTMOST

    def test_swapped_circuits_fail(self):
        c0 = CountsVector(fixtures.raw_counts("A1"), fixtures.FIXTURE_SHOTS)
        c1 = CountsVector(fixtures.raw_counts("A0"), fixtures.FIXTURE_SHOTS)
        with pytest.raises(RuntimeError, match="self-check"):
            resolve_bit_order(c0, c1)

    def test_set_b_cross_validation(self):
        c0 = CountsVector(fixtures.raw_counts("B0"), fixtures.FIXTURE_SHOTS)
        c1 = CountsVector(fixtures.raw_counts("B1"), fixtures.FIXTURE_SHOTS)
        winner = resolve_bit_order(c0, c1, target=fixtures.ENERGY_SET_B, tol=1e-3)
        assert winner is BitOrder.Q0_LEFTMOST

    def test_losing_convention_is_far_off(self):
        h = h2_4qubit()
        groups, _ = group_terms(h)
        raw = (
            CountsVector(fixtures.raw_counts("A0"), fixtures.FIXTURE_SHOTS),
            CountsVector(fixtures.raw_counts("A1"), fixtures.FIXTURE_SHOTS),
        )
        losing = energy_from_counts(h, groups, raw, BitOrder.Q0_RIGHTMOST)
        assert abs(losing.energy - fixtures.ENERGY_SET_A) > 0.5


class TestEvaluateEnergy:
    def test_zero_parameters(self):
        cfg = VqeConfig(seed=0)
        est = EnergyEvaluator.from_config(cfg).evaluate(np.zeros(12), seed=5)
        # |0000>: every Z-expectation is exactly +1 and the X contributions
        # cancel pairwise by coefficient symmetry, so the estimate equals
        # the coefficient sum up to nothing at all
        total = sum(t.coefficient for t in h2_4qubit().terms)
        assert est.energy == pytest.approx(total, abs=1e-12)

    def test_y_terms_rejected_by_name(self):
        h = Hamiltonian(2, (PauliTerm(0.5, PauliString.from_label("ZZ")),
                            PauliTerm(0.2, PauliString.from_label("YX"))))
        with pytest.raises(ValueError, match="YX"):
            EnergyEvaluator(h, AnsatzSpec(n_qubits=2), 64, NoiseModel())

    def test_determinism(self):
        cfg = VqeConfig(seed=1)
        params = np.linspace(-0.5, 0.5, 12)
        evaluator = EnergyEvaluator.from_config(cfg)
        a = evaluator.evaluate(params, seed=[2, 3])
        b = evaluator.evaluate(params, seed=[2, 3])
        assert a.energy == b.energy
        assert a.group_counts == b.group_counts

    def test_converged_parameters_near_ground(self):
        run = run_vqe(
            VqeConfig(
                optimizer=OptimizerConfig(method="spsa", max_iterations=150),
                seed=3,
            )
        )
        evaluator = EnergyEvaluator.from_config(VqeConfig(shots=8192, seed=3))
        est = evaluator.evaluate(run.params, seed=99)
        assert est.energy == pytest.approx(-1.867, abs=0.01)

    def test_analytic_variational_bound(self):
        evaluator = EnergyEvaluator.from_config(VqeConfig())
        lam_min = -1.8671
        rng = np.random.default_rng(19)
        for _ in range(25):
            params = rng.uniform(-np.pi, np.pi, 12)
            assert evaluator.evaluate_analytic(params) >= lam_min - 1e-9

    def test_sampled_estimates_respect_coefficient_bound(self):
        h = h2_4qubit()
        span = sum(
            abs(t.coefficient) for t in h.terms if not t.string.is_identity
        )
        evaluator = EnergyEvaluator.from_config(VqeConfig(shots=64))
        rng = np.random.default_rng(29)
        for i in range(10):
            params = rng.uniform(-np.pi, np.pi, 12)
            est = evaluator.evaluate(params, seed=[31, i])
            assert abs(est.energy - h.identity_coefficient) <= span

    @pytest.mark.parametrize("hamiltonian, n_qubits", [("4q", 4), ("2q", 2)])
    def test_matches_energy_from_counts_exactly(self, hamiltonian, n_qubits):
        cfg = VqeConfig(
            hamiltonian=hamiltonian,
            ansatz=AnsatzSpec(n_qubits=n_qubits),
            noise=NoiseModel(readout_enabled=True),
        )
        evaluator = EnergyEvaluator.from_config(cfg)
        rng = np.random.default_rng(41)
        for i in range(10):
            params = rng.uniform(-np.pi, np.pi, evaluator.parameter_count())
            est = evaluator.evaluate(params, seed=[43, i])
            ref = energy_from_counts(
                evaluator.hamiltonian, evaluator.groups, est.group_counts,
                BitOrder.Q0_RIGHTMOST,
            )
            assert ref.energy == est.energy
            assert ref.expectations == est.expectations


class TestRunVqe:
    def test_determinism(self):
        cfg = VqeConfig(
            optimizer=OptimizerConfig(method="spsa", max_iterations=20), seed=8
        )
        a, b = run_vqe(cfg), run_vqe(cfg)
        assert a.energy == b.energy
        assert np.array_equal(a.trace.values, b.trace.values)
        assert a.final_counts == b.final_counts

    def test_energy_is_trace_best(self):
        cfg = VqeConfig(
            optimizer=OptimizerConfig(method="cobyla", max_iterations=30), seed=9
        )
        result = run_vqe(cfg)
        assert result.energy == result.trace.best_value
        assert result.evaluations == len(result.trace)
        assert result.band in ("ground", "excited", "erroneous")

    def test_single_shot_runs(self):
        cfg = VqeConfig(
            shots=1,
            optimizer=OptimizerConfig(method="spsa", max_iterations=5),
            seed=10,
        )
        result = run_vqe(cfg)
        assert result.complete
        assert math.isfinite(result.energy)

    def test_final_counts_per_group(self):
        cfg = VqeConfig(
            optimizer=OptimizerConfig(method="spsa", max_iterations=5), seed=11
        )
        result = run_vqe(cfg)
        assert len(result.final_counts) == 2
        assert all(cv.shots == 4096 for cv in result.final_counts)

    def test_abort_flags_incomplete(self, monkeypatch):
        cfg = VqeConfig(
            optimizer=OptimizerConfig(method="spsa", max_iterations=20), seed=12
        )
        calls = {"n": 0}
        real = EnergyEvaluator.evaluate

        def flaky(self, params, seed):
            calls["n"] += 1
            est = real(self, params, seed)
            if calls["n"] > 6:
                object.__setattr__(est, "energy", math.nan)
            return est

        monkeypatch.setattr(EnergyEvaluator, "evaluate", flaky)
        result = run_vqe(cfg)
        assert not result.complete
        assert len(result.trace) == 7

    def test_no_finite_evaluation(self, monkeypatch):
        # the first evaluation aborts the run, so it has no best point
        cfg = VqeConfig(
            optimizer=OptimizerConfig(method="cobyla", max_iterations=20), seed=13
        )
        real = EnergyEvaluator.evaluate

        def never_finite(self, params, seed):
            est = real(self, params, seed)
            object.__setattr__(est, "energy", math.inf)
            return est

        monkeypatch.setattr(EnergyEvaluator, "evaluate", never_finite)
        result = run_vqe(cfg)
        assert math.isnan(result.energy)
        assert result.band == "erroneous" and result.final_counts == ()
        assert not result.complete and len(result.trace) == 1
        assert np.array_equal(result.params, initial_parameters(cfg))

    def test_initial_parameter_policies(self):
        uniform_cfg = VqeConfig(seed=4)
        zeros_cfg = VqeConfig(seed=4, initial_params="zeros")
        x_uniform = initial_parameters(uniform_cfg)
        assert x_uniform.shape == (12,)
        assert np.all(np.abs(x_uniform) <= np.pi)
        assert np.array_equal(initial_parameters(uniform_cfg), x_uniform)
        assert np.array_equal(initial_parameters(zeros_cfg), np.zeros(12))

    def test_2q_configuration(self):
        cfg = VqeConfig(
            hamiltonian="2q",
            ansatz=AnsatzSpec(n_qubits=2),
            optimizer=OptimizerConfig(method="spsa", max_iterations=10),
            seed=13,
        )
        result = run_vqe(cfg)
        assert all(cv.n_qubits == 2 for cv in result.final_counts)

    def test_2q_and_4q_medians_agree(self):
        medians = {}
        for ham, n in (("4q", 4), ("2q", 2)):
            finals = []
            for seed in range(50):
                cfg = VqeConfig(
                    hamiltonian=ham,
                    ansatz=AnsatzSpec(n_qubits=n),
                    optimizer=OptimizerConfig(method="spsa", max_iterations=150),
                    seed=seed,
                )
                finals.append(run_vqe(cfg).energy)
            medians[ham] = float(np.median(finals))
        assert abs(medians["4q"] - medians["2q"]) < 0.05


_PROBABILITY = st.floats(0.0, 1.0)


@st.composite
def valid_configs(draw):
    """Any valid VqeConfig, including non-canonical noise models.

    A disabled channel may carry any rates, and per-qubit readout may be a
    single pair; the round trip must still give back an equal model.
    """
    n_qubits = draw(st.integers(2, 6))
    ansatz = AnsatzSpec(
        draw(st.sampled_from(("ry", "ryrz"))),
        draw(st.sampled_from(("linear", "circular", "full"))),
        draw(st.integers(1, 4)),
        n_qubits,
    )
    optimizer = OptimizerConfig(
        method=draw(st.sampled_from(("spsa", "cobyla", "nelder-mead", "powell"))),
        max_iterations=draw(st.integers(1, 500)),
        tolerance=draw(st.floats(1e-9, 1.0)),
        spsa_a=draw(st.floats(-10.0, 10.0)),
        spsa_calibrate=draw(st.booleans()),
        spsa_calibration_pairs=draw(st.integers(0, 100)),
        rhobeg=draw(st.floats(1e-3, 10.0)),
        nm_shrink=draw(st.floats(0.0, 1.0)),
    )
    pair = st.tuples(_PROBABILITY, _PROBABILITY)
    readout = draw(st.one_of(
        pair, st.lists(pair, min_size=1, max_size=1),
        st.lists(pair, min_size=n_qubits, max_size=n_qubits),
    ))
    noise = NoiseModel(
        gate_enabled=draw(st.booleans()),
        readout_enabled=draw(st.booleans()),
        p1=draw(_PROBABILITY),
        p2=draw(_PROBABILITY),
        readout=tuple(readout),
    )
    return VqeConfig(
        hamiltonian=draw(st.sampled_from(("4q", "2q"))),
        ansatz=ansatz,
        optimizer=optimizer,
        shots=draw(st.integers(1, 8192)),
        noise=noise,
        seed=draw(st.integers(0, 2**64 - 1)),
        initial_params=draw(st.sampled_from(("uniform", "zeros"))),
    )


class TestVqeConfig:
    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_dict_round_trip_property(self, cfg):
        doc = json.loads(json.dumps(cfg.to_dict()))
        assert VqeConfig.from_dict(doc) == cfg

    def test_shot_bounds(self):
        with pytest.raises(ValueError):
            VqeConfig(shots=0)
        with pytest.raises(ValueError):
            VqeConfig(shots=8193)

    def test_dict_round_trip(self):
        cfg = VqeConfig(
            hamiltonian="2q",
            ansatz=AnsatzSpec("ryrz", "circular", 1, 2),
            optimizer=OptimizerConfig(
                method="powell", max_iterations=9, spsa_a=0.5
            ),
            shots=1024,
            noise=NoiseModel(readout_enabled=True),
            seed=77,
        )
        back = VqeConfig.from_dict(cfg.to_dict())
        assert back.hamiltonian == "2q"
        assert back.ansatz == cfg.ansatz
        assert back.optimizer.method == "powell"
        assert back.shots == 1024
        assert back.noise.readout_enabled
        assert back.seed == 77
        assert back == cfg

    def test_gate_noise_qubit_cap(self):
        wide = AnsatzSpec(n_qubits=DENSE_QUBIT_CAP + 1)
        with pytest.raises(ValueError, match="qubits"):
            VqeConfig(ansatz=wide, noise=NoiseModel(gate_enabled=True))
        VqeConfig(ansatz=wide, noise=NoiseModel(readout_enabled=True))
        VqeConfig(
            ansatz=AnsatzSpec(n_qubits=DENSE_QUBIT_CAP),
            noise=NoiseModel(gate_enabled=True),
        )

    def test_statevector_qubit_cap(self):
        with pytest.raises(ValueError, match="statevector is limited to 20 qubits"):
            VqeConfig(ansatz=AnsatzSpec(n_qubits=STATEVECTOR_QUBIT_CAP + 1))
        VqeConfig(ansatz=AnsatzSpec(n_qubits=STATEVECTOR_QUBIT_CAP))

    def test_per_qubit_readout_length(self):
        three = ((0.1, 0.0), (0.0, 0.2), (0.05, 0.05))
        with pytest.raises(ValueError, match="3 readout pairs for 4 qubits"):
            VqeConfig(noise=NoiseModel(readout_enabled=True, readout=three))
        VqeConfig(noise=NoiseModel(readout=three))  # disabled: rates unused
        VqeConfig(noise=NoiseModel(readout_enabled=True, readout=three[:1]))
        VqeConfig(
            ansatz=AnsatzSpec(n_qubits=3),
            noise=NoiseModel(readout_enabled=True, readout=three),
        )

    def test_missing_shots_defaults(self):
        cfg = VqeConfig.from_dict({"seed": 5})
        assert cfg.shots == 4096

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown"):
            VqeConfig.from_dict({"molecule": "H2"})

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            VqeConfig(initial_params="gaussian")

    def test_numpy_integer_seed_runs_as_its_int(self):
        cfg = VqeConfig(
            hamiltonian="2q", ansatz=AnsatzSpec(n_qubits=2), shots=64,
            optimizer=OptimizerConfig(method="spsa", max_iterations=2),
        )
        a = run_vqe(replace(cfg, seed=np.int64(5)))
        b = run_vqe(replace(cfg, seed=5))
        assert a.energy == b.energy and np.array_equal(a.params, b.params)

    def test_float_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            VqeConfig(seed=3.9)

    def test_float_entry_in_evaluate_seed_rejected(self):
        evaluator = EnergyEvaluator.from_config(VqeConfig())
        params = np.zeros(evaluator.parameter_count())
        with pytest.raises(ValueError, match="not an integer"):
            evaluator.evaluate(params, [1.5])

    def test_mismatched_ansatz_rejected(self):
        cfg = VqeConfig(hamiltonian="2q", ansatz=AnsatzSpec(n_qubits=4))
        with pytest.raises(ValueError, match="qubit"):
            EnergyEvaluator.from_config(cfg)


def test_chemical_accuracy_constant():
    assert vqe_mod.CHEMICAL_ACCURACY == 0.0016


class TestTracedSeams:
    """The calls of one evaluation that the benchmark's trace wraps by name.

    ``perfbench/child.py::install_spans`` replaces ``vqe.build_circuit``,
    ``ansatz.Circuit.concat`` and ``vqe.run_noisy`` with timed wrappers, and
    ``perfbench/run.py`` takes medians over their spans and reads the
    circuit and shot count from ``run_noisy``'s positional arguments. A
    traced benchmark run fails if ``evaluate`` stops making one of these
    calls. Delete this test once the benchmark revision (ROADMAP, item 1)
    traces seams of its own in place of these names.
    """

    @pytest.mark.parametrize("noise", [
        NoiseModel(),
        NoiseModel(gate_enabled=True, readout_enabled=True),
    ], ids=["ideal", "gate+readout"])
    @pytest.mark.parametrize("ham, n", [("4q", 4), ("2q", 2)])
    def test_evaluate_makes_traced_calls(self, monkeypatch, ham, n, noise):
        calls = {"build_circuit": [], "concat": [], "run_noisy": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in ((vqe_mod, "build_circuit"), (Circuit, "concat"),
                            (vqe_mod, "run_noisy")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        cfg = VqeConfig(hamiltonian=ham, ansatz=AnsatzSpec(n_qubits=n), shots=64,
                        noise=noise)
        evaluator = EnergyEvaluator.from_config(cfg)
        evaluator.evaluate(np.linspace(-1, 1, evaluator.parameter_count()), [0])
        groups = len(evaluator.groups)
        assert len(calls["build_circuit"]) == 1
        assert len(calls["concat"]) == len(calls["run_noisy"]) == groups
        for circuit, shots, *_ in calls["run_noisy"]:
            assert isinstance(circuit, Circuit) and circuit.n_qubits == n
            assert shots == 64


EVAL_ARMS = [
    ("4q", 4, NoiseModel()),
    ("2q", 2, NoiseModel()),
    ("4q", 4, NoiseModel(gate_enabled=True, readout_enabled=True)),
    ("2q", 2, NoiseModel(gate_enabled=True, readout_enabled=True)),
]
EVAL_IDS = ["ideal-4q", "ideal-2q", "gate+readout-4q", "gate+readout-2q"]


def arm_evaluator(ham, n, noise):
    cfg = VqeConfig(hamiltonian=ham, ansatz=AnsatzSpec(n_qubits=n), shots=256,
                    noise=noise)
    return EnergyEvaluator.from_config(cfg)


class TestEvaluateOnce:
    """Work fixed by the evaluator's configuration leaves each estimate as it was."""

    @pytest.mark.parametrize("ham, n, noise", EVAL_ARMS, ids=EVAL_IDS)
    def test_group_g_draws_default_rng_of_seed_and_g(self, ham, n, noise):
        evaluator = arm_evaluator(ham, n, noise)
        params = np.linspace(-1.2, 0.9, evaluator.parameter_count())
        circuit = build_circuit(evaluator.ansatz, params)
        for seed in ([2**64 - 59, 1, 149], 5, [0]):
            est = evaluator.evaluate(params, seed)
            head = [seed] if isinstance(seed, int) else seed
            for g, (group, cv) in enumerate(zip(evaluator.groups, est.group_counts)):
                ref = run_noisy(circuit.concat(post_rotations(group)), 256,
                                [*head, g], noise)
                assert cv == ref

    def test_negative_seed_entry_raises(self):
        evaluator = arm_evaluator("2q", 2, NoiseModel())
        with pytest.raises(ValueError):
            evaluator.evaluate(np.zeros(evaluator.parameter_count()), [4, -1])

    @pytest.mark.parametrize("ham, n, noise", EVAL_ARMS, ids=EVAL_IDS)
    def test_expectations_on_read_match_eager_tuple(self, ham, n, noise):
        evaluator = arm_evaluator(ham, n, noise)
        params = np.linspace(-0.7, 1.3, evaluator.parameter_count())
        est = evaluator.evaluate(params, [17, 1, 3])
        estimator = evaluator._estimator
        _, values = estimator.energy(cv.probabilities() for cv in est.group_counts)
        labels = [tuple(t.string.to_label() for t in g.terms) for g in evaluator.groups]
        eager = tuple(
            pair for group_labels, v in zip(labels, values)
            for pair in zip(group_labels, v.tolist())
        )
        assert est.expectations == eager
        assert est.expectations == eager  # a second read
        pairs = iter(est.expectations)
        for group, cv in zip(evaluator.groups, est.group_counts):
            for term in group.terms:
                label, value = next(pairs)
                assert label == term.string.to_label()
                assert value == pytest.approx(
                    term_expectation(term, cv, BitOrder.Q0_RIGHTMOST), abs=1e-12)

    @pytest.mark.parametrize("ham, n, noise", EVAL_ARMS, ids=EVAL_IDS)
    def test_estimates_equal_for_same_params_and_seed(self, ham, n, noise):
        evaluator = arm_evaluator(ham, n, noise)
        params = np.linspace(-0.3, 0.8, evaluator.parameter_count())
        a, b = evaluator.evaluate(params, [9, 2]), evaluator.evaluate(params, [9, 2])
        assert a == b and hash(a) == hash(b)
        assert a.expectations == b.expectations
        assert a != evaluator.evaluate(params, [9, 3])


def group_reference(evaluator, params, seed):
    """Each group's counts as ``run_noisy(..., [*seed, g], ...)`` draws them."""
    circuit = build_circuit(evaluator.ansatz, params)
    head = [seed] if isinstance(seed, int) else list(seed)
    return tuple(
        run_noisy(circuit.concat(post_rotations(group)), evaluator.shots,
                  [*head, g], evaluator.noise)
        for g, group in enumerate(evaluator.groups)
    )


SEED_ARMS = [("4q", 4, NoiseModel()),
             ("4q", 4, NoiseModel(gate_enabled=True, readout_enabled=True))]


@pytest.mark.parametrize("ham, n, noise", SEED_ARMS, ids=["ideal", "gate+readout"])
class TestSeedBlocks:
    """Group seeds derived in blocks of evaluations leave every stream as it was."""

    def assert_streams(self, evaluator, params, seeds):
        for seed in seeds:
            assert (evaluator.evaluate(params, seed).group_counts
                    == group_reference(evaluator, params, seed)), seed

    @pytest.mark.parametrize("block", [7, vqe_mod._SEED_BLOCK])
    def test_consecutive_indices_cross_blocks(self, monkeypatch, ham, n, noise, block):
        monkeypatch.setattr(vqe_mod, "_SEED_BLOCK", block)
        evaluator = arm_evaluator(ham, n, noise)
        params = np.linspace(-1.1, 0.6, evaluator.parameter_count())
        assert block + 1 < 100  # seed 0 alone, a block from 1, one more or several
        self.assert_streams(evaluator, params, [[31337, 1, 0], [31337, 1, 1]])
        assert len(evaluator._seed_states) == block
        self.assert_streams(evaluator, params, [[31337, 1, i] for i in range(2, 100)])

    def test_repeated_and_out_of_order_seeds(self, ham, n, noise):
        evaluator = arm_evaluator(ham, n, noise)
        params = np.linspace(-0.4, 1.2, evaluator.parameter_count())
        self.assert_streams(evaluator, params, [
            [5, 1, 3], [5, 1, 4], [5, 1, 3], [5, 1, 90], [5, 1, 2], [5, 1, 4],
            [5, 3], [5, 1, 91], [5, 1, 90], [6, 1, 91], [5, 1, 92],
        ])

    def test_int_and_empty_seeds(self, ham, n, noise):
        evaluator = arm_evaluator(ham, n, noise)
        params = np.linspace(0.2, -0.9, evaluator.parameter_count())
        self.assert_streams(evaluator, params, [5, 6, [], 7, [], 0, 1, [6]])

    def test_last_word_near_its_limit(self, ham, n, noise):
        evaluator = arm_evaluator(ham, n, noise)
        params = np.linspace(-0.5, 0.5, evaluator.parameter_count())
        self.assert_streams(evaluator, params, [
            [7, 2**32 - 3], [7, 2**32 - 2], [7, 2**32 - 1], [7, 2**32], [7, 2**32 + 1],
            2**32 - 2, 2**32 - 1, 2**32,
        ])


def test_analytic_evaluation_leaves_numpy_random_unloaded():
    """The sampler's Generator is made at the first sampled evaluation, so a
    process that only builds an evaluator and asks for exact energies never
    imports numpy.random."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(vqe_mod.__file__)))
    code = (
        "import sys, numpy as np, h2vqe.vqe as v; "
        "e = v.EnergyEvaluator.from_config(v.VqeConfig(hamiltonian='4q')); "
        "e.evaluate_analytic(np.zeros(e.parameter_count())); "
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def mixed_hamiltonian(n):
    """A Hamiltonian on n qubits with an all-Z, an all-X and an alternating group."""
    labels = ["Z" * n, "X" * n, ("XZ" * n)[:n], "I" * (n - 1) + "X"]
    return Hamiltonian(n, tuple(PauliTerm(0.1 * (i + 1), PauliString.from_label(lab))
                                for i, lab in enumerate(labels)))


class TestDenseAnsatz:
    """Statevector evaluations on small registers take the dense layer maps."""

    @pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(readout_enabled=True)],
                             ids=["ideal", "readout"])
    @pytest.mark.parametrize("entanglement", ["linear", "circular", "full"])
    @pytest.mark.parametrize("form", ["ry", "ryrz"])
    def test_group_probabilities_match_walker(self, monkeypatch, form, entanglement,
                                              noise):
        seen = []

        def recorded(circuit, shots, seed, noise, state):
            seen.append((circuit, state))
            return run_noisy(circuit, shots, seed, noise, state=state)

        monkeypatch.setattr(vqe_mod, "run_noisy", recorded)
        rng = np.random.default_rng(11)
        for n in range(2, DENSE_ANSATZ_QUBITS + 2):
            spec = AnsatzSpec(form=form, entanglement=entanglement, n_qubits=n)
            evaluator = EnergyEvaluator(mixed_hamiltonian(n), spec, 64, noise)
            assert (evaluator._dense is None) == (n > DENSE_ANSATZ_QUBITS)
            params = rng.uniform(-math.pi, math.pi, evaluator.parameter_count())
            seen.clear()
            evaluator.evaluate(params, [3, n])
            circuit = build_circuit(spec, params)
            assert len(seen) == len(evaluator.groups) == 3
            for group, (group_circuit, state) in zip(evaluator.groups, seen):
                assert group_circuit == circuit.concat(post_rotations(group))
                walked = _walk_from_zero(group_circuit, 2)
                np.testing.assert_allclose(np.abs(state) ** 2, np.abs(walked) ** 2,
                                           rtol=0, atol=1e-13)

    @pytest.mark.parametrize("form", ["ry", "ryrz"])
    def test_first_layer_is_product_of_gate_factors(self, form):
        # the first layer acts on |0...0>: entry i of its state is the product,
        # in gate order, of each gate's matrix entry (bit q of i, 0)
        rng = np.random.default_rng(23)
        for n in range(2, DENSE_ANSATZ_QUBITS + 1):
            spec = AnsatzSpec(form=form, n_qubits=n)
            first = list(takewhile(lambda op: not isinstance(op, Gate), _layout(spec)))
            dense = DenseAnsatz(first, n, [Circuit(n, ())])
            angles = rng.uniform(-7, 7, len(first))
            z = np.exp(0.5j * angles)
            bits = (np.arange(2**n)[None, :] >> np.arange(n)[:, None]) & 1
            factors = []
            for name, (q,), k in first:
                if name == "ry":
                    factors.append(np.where(bits[q] == 1, z.imag[k], z.real[k]))
                else:
                    factors.append(np.where(bits[q] == 1, z[k], z.conj()[k]))
            state = factors[0]
            for factor in factors[1:]:
                state = state * factor
            np.testing.assert_array_equal(dense.amplitudes(angles), state[None, :])

    @pytest.mark.parametrize("ham, spec, noise", [
        ("4q", AnsatzSpec(), NoiseModel()),
        ("4q", AnsatzSpec(form="ryrz", entanglement="full"), NoiseModel()),
        ("2q", AnsatzSpec(n_qubits=2), NoiseModel(readout_enabled=True)),
        ("4q", AnsatzSpec(entanglement="circular"), NoiseModel(readout_enabled=True)),
    ], ids=["ideal-4q", "ideal-4q-ryrz-full", "readout-2q", "readout-4q-circular"])
    def test_counts_equal_walker_draws(self, ham, spec, noise):
        cfg = VqeConfig(hamiltonian=ham, ansatz=spec, shots=1024, noise=noise)
        evaluator = EnergyEvaluator.from_config(cfg)
        assert evaluator._dense is not None
        rng = np.random.default_rng(5)
        for i in range(200):
            params = rng.uniform(-math.pi, math.pi, evaluator.parameter_count())
            seed = [41, 1, i]
            assert (evaluator.evaluate(params, seed).group_counts
                    == group_reference(evaluator, params, seed)), i

    @pytest.mark.parametrize("ham, n, noise", [
        (None, DENSE_ANSATZ_QUBITS + 1, NoiseModel()),
        (None, DENSE_ANSATZ_QUBITS + 1, NoiseModel(readout_enabled=True)),
        ("4q", 4, NoiseModel(gate_enabled=True)),
        ("2q", 2, NoiseModel(gate_enabled=True, readout_enabled=True)),
    ], ids=["above-limit", "above-limit-readout", "gate-4q", "gate+readout-2q"])
    def test_walker_evaluators_never_build_it(self, monkeypatch, ham, n, noise):
        def refused(*args):
            raise AssertionError("dense form built")

        monkeypatch.setattr(vqe_mod, "DenseAnsatz", refused)
        h = mixed_hamiltonian(n) if ham is None else vqe_mod.get_hamiltonian(ham)
        evaluator = EnergyEvaluator(h, AnsatzSpec(n_qubits=n), 64, noise)
        assert evaluator._dense is None
        evaluator.evaluate(np.linspace(-1, 1, evaluator.parameter_count()), [2])
