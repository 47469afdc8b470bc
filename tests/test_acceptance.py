"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The statistical criteria (4-6) use fixed seed ranges and are fully
deterministic; their thresholds come from the corresponding scatter/median
comparisons they reproduce.
"""

import json
import math
import time

import numpy as np

import h2vqe as hv
from h2vqe import fixtures
from h2vqe.cli import main as cli_main
from h2vqe.optim import OptimizerConfig, minimize
from h2vqe.sim import density_matrix
from h2vqe.similarity import batch_average_similarity, jt_index, sqrt_dot
from h2vqe.vqe import BitOrder, EnergyEvaluator, energy_from_counts

EXACT_GROUND = -1.8670

REFERENCE_EIGENVALUES_4Q = np.array([
    -1.867, -1.262, -1.262, -1.242, -1.242, -1.242, -1.160, -1.160,
    -0.881, -0.465, -0.465, -0.341, -0.341, -0.211, 0.000, 0.227,
])


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_spectrum_oracle():
    t0 = time.monotonic()
    ev = hv.eigenvalues(hv.to_dense(hv.h2_4qubit()))
    elapsed = time.monotonic() - t0
    dev = float(np.abs(ev - REFERENCE_EIGENVALUES_4Q).max())
    # degeneracy multiplicities of the clustered reference values
    clusters = [(-1.262, 2), (-1.242, 3), (-1.160, 2), (-0.465, 2), (-0.341, 2)]
    multiplicities_ok = all(
        int((np.abs(ev - center) < 5e-3).sum()) == mult
        for center, mult in clusters
    )
    report(
        1,
        dev < 5e-3 and multiplicities_ok and elapsed < 1.0,
        f"max dev {dev:.2e}, degeneracies ok={multiplicities_ok}, "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_block_reduction_consistency():
    t0 = time.monotonic()
    ev4 = hv.eigenvalues(hv.to_dense(hv.h2_4qubit()))
    ev2 = hv.eigenvalues(hv.to_dense(hv.h2_2qubit()))
    elapsed = time.monotonic() - t0
    ground_gap = abs(ev2[0] - ev4[0])
    worst_embed = max(float(np.abs(ev4 - e).min()) for e in ev2)
    report(
        2,
        ground_gap < 1e-3 and worst_embed < 5e-3 and elapsed < 1.0,
        f"ground gap {ground_gap:.2e}, worst 2q-in-4q match {worst_embed:.2e}, "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_3_energy_from_counts_fixtures():
    t0 = time.monotonic()
    h = hv.h2_4qubit()
    groups, _ = hv.group_terms(h)
    conv = hv.resolve_bit_order()
    raw = {
        name: hv.CountsVector(fixtures.raw_counts(name), fixtures.FIXTURE_SHOTS)
        for name in ("A0", "A1", "B0", "B1")
    }
    e_a = energy_from_counts(h, groups, (raw["A0"], raw["A1"]), conv).energy
    e_b = energy_from_counts(h, groups, (raw["B0"], raw["B1"]), conv).energy
    other = (
        BitOrder.Q0_RIGHTMOST if conv is BitOrder.Q0_LEFTMOST
        else BitOrder.Q0_LEFTMOST
    )
    e_a_other = energy_from_counts(h, groups, (raw["A0"], raw["A1"]), other).energy
    elapsed = time.monotonic() - t0
    report(
        3,
        abs(e_a - (-1.8422)) <= 1e-3
        and abs(e_b - (-1.8464)) <= 1e-3
        and abs(e_a_other - (-1.8422)) > 0.5
        and elapsed < 1.0,
        f"A -> {e_a:.4f}, B -> {e_b:.4f}, losing convention {e_a_other:.4f}, "
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_4_noiseless_vqe_convergence():
    t0 = time.monotonic()
    finals = []
    for seed in range(50):
        cfg = hv.VqeConfig(
            ansatz=hv.AnsatzSpec("ry", "linear", 2, 4),
            optimizer=OptimizerConfig(method="spsa", max_iterations=150),
            shots=4096,
            seed=seed,
        )
        finals.append(hv.run_vqe(cfg).energy)
    elapsed = time.monotonic() - t0
    finals = np.array(finals)
    n_ok = int((np.abs(finals - EXACT_GROUND) <= 0.05).sum())
    n_excited = int(((finals >= -1.30) & (finals <= -1.20)).sum())
    report(
        4,
        n_ok >= 40 and n_excited <= 5 and elapsed < 120,
        f"{n_ok}/50 within 0.05 Ha, {n_excited}/50 excited, {elapsed:.0f} s",
    )


def test_criterion_5_form_comparison_under_cobyla():
    t0 = time.monotonic()
    counts = {}
    for form in ("ry", "ryrz"):
        ok = 0
        for seed in range(50):
            cfg = hv.VqeConfig(
                ansatz=hv.AnsatzSpec(form, "linear", 2, 4),
                optimizer=OptimizerConfig(method="cobyla", max_iterations=400),
                shots=4096,
                seed=seed,
            )
            if abs(hv.run_vqe(cfg).energy - EXACT_GROUND) <= 0.05:
                ok += 1
        counts[form] = ok
    elapsed = time.monotonic() - t0
    report(
        5,
        counts["ry"] >= counts["ryrz"],
        f"ry {counts['ry']}/50 >= ryrz {counts['ryrz']}/50, {elapsed:.0f} s",
    )


def test_criterion_6_noise_shift_ordering():
    t0 = time.monotonic()
    medians = {}
    arms = (
        ("noiseless", hv.NoiseModel.ideal()),
        ("readout", hv.NoiseModel(readout_enabled=True)),
        ("gate", hv.NoiseModel(gate_enabled=True)),
    )
    for label, noise in arms:
        finals = []
        for seed in range(20):
            cfg = hv.VqeConfig(
                optimizer=OptimizerConfig(method="spsa", max_iterations=75),
                noise=noise,
                seed=seed,
            )
            finals.append(hv.run_vqe(cfg).energy)
        medians[label] = float(np.median(finals))
    elapsed = time.monotonic() - t0
    readout_shift = medians["readout"] - medians["noiseless"]
    gate_shift = medians["gate"] - medians["noiseless"]
    report(
        6,
        readout_shift > gate_shift > 0 and elapsed < 180,
        f"readout +{readout_shift:.4f} > gate +{gate_shift:.4f} > 0, "
        f"{elapsed:.0f} s",
    )


def test_criterion_7_similarity_discrimination():
    t0 = time.monotonic()
    a0 = fixtures.fixture_counts("A0").probabilities()
    b0 = fixtures.fixture_counts("B0").probabilities()
    c0 = fixtures.fixture_counts("C0").probabilities()
    jt_ab, jt_ac = jt_index(a0, b0), jt_index(a0, c0)
    sd_ab, sd_ac = sqrt_dot(a0, b0), sqrt_dot(a0, c0)
    ranks_ok = True
    for measure in ("jt", "sqrtdot"):
        avg = batch_average_similarity([a0, b0, c0], measure)
        ranks_ok = ranks_ok and (avg[2] < avg[0] and avg[2] < avg[1])
    elapsed = time.monotonic() - t0
    report(
        7,
        jt_ab > 0.8 and jt_ac < 0.05 and sd_ab > 0.95 and sd_ac < 0.3
        and ranks_ok and elapsed < 1.0,
        f"jt(A0,B0)={jt_ab:.3f}, jt(A0,C0)={jt_ac:.3f}, "
        f"sqrtdot(A0,B0)={sd_ab:.3f}, sqrtdot(A0,C0)={sd_ac:.3f}, "
        f"C0 ranked lowest={ranks_ok}",
    )


def test_criterion_8a_optimizer_property_suite():
    def bowl(x):
        return float(np.sum((np.asarray(x) - 0.5) ** 2))

    ok = True
    for method in ("spsa", "cobyla", "nelder-mead", "powell"):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return bowl(x)

        cfg = OptimizerConfig(method=method, max_iterations=30)
        _, f_best, trace = minimize(counted, np.full(3, 2.0), cfg, seed=1)
        monotone = bool(np.all(np.diff(trace.best_so_far) <= 0))
        complete = calls["n"] == len(trace)
        ok = ok and monotone and complete and f_best == trace.best_value
    report(8, ok, "optimizer monotone best-so-far and trace completeness")


def test_criterion_8b_simulator_norm_preservation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for spec in (
        hv.AnsatzSpec("ry", "linear", 2, 4),
        hv.AnsatzSpec("ryrz", "full", 3, 4),
        hv.AnsatzSpec("ryrz", "circular", 2, 3),
    ):
        for _ in range(10):
            params = rng.uniform(-np.pi, np.pi, hv.parameter_count(spec))
            state = hv.apply_circuit(
                np.eye(2**spec.n_qubits, dtype=complex)[0],
                hv.build_circuit(spec, params),
            )
            worst = max(worst, abs(float(np.linalg.norm(state)) - 1.0))
    report(8, worst <= 1e-10, f"norm drift {worst:.1e} <= 1e-10")


def test_criterion_8c_variational_bound_analytic():
    lam_min = float(hv.eigenvalues(hv.to_dense(hv.h2_4qubit()))[0])
    evaluator = EnergyEvaluator.from_config(hv.VqeConfig())
    rng = np.random.default_rng(103)
    worst = math.inf
    for _ in range(50):
        params = rng.uniform(-np.pi, np.pi, 12)
        worst = min(worst, evaluator.evaluate_analytic(params))
    report(
        8,
        worst >= lam_min - 1e-9,
        f"analytic minimum over samples {worst:.6f} >= {lam_min:.6f} - 1e-9",
    )


def test_criterion_8f_variational_bound_gate_noise():
    rng = np.random.default_rng(109)
    noises = (
        hv.NoiseModel(gate_enabled=True),
        hv.NoiseModel(gate_enabled=True, p1=0.05, p2=0.2),
    )
    worst_defect, worst_gap = 0.0, math.inf
    for ham in (hv.h2_4qubit(), hv.h2_2qubit()):
        h_dense = hv.to_dense(ham)
        lam_min = float(hv.eigenvalues(h_dense)[0])
        spec = hv.AnsatzSpec("ry", "linear", 2, ham.n_qubits)
        for _ in range(25):
            params = rng.uniform(-np.pi, np.pi, hv.parameter_count(spec))
            for noise in noises:
                rho = density_matrix(hv.build_circuit(spec, params), noise)
                worst_defect = max(
                    worst_defect,
                    abs(np.trace(rho) - 1.0),
                    float(np.abs(rho - rho.conj().T).max()),
                    -float(np.linalg.eigvalsh(rho)[0]),
                )
                energy = float(np.trace(rho @ h_dense).real)
                worst_gap = min(worst_gap, energy - lam_min)
    report(
        8,
        worst_defect <= 1e-10 and worst_gap >= -1e-9,
        f"gate-noise rho: trace/Hermitian/PSD defect {worst_defect:.1e}, "
        f"min tr(rho H) - lambda_min {worst_gap:.6f} >= -1e-9 on 4q and 2q",
    )


def test_criterion_8d_similarity_laws_1000_samples():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(1000):
        u = rng.dirichlet(np.full(16, 0.3))
        v = rng.dirichlet(np.full(16, 0.3))
        ju, jv = jt_index(u, v), jt_index(v, u)
        su, sv = sqrt_dot(u, v), sqrt_dot(v, u)
        perm = rng.permutation(16)
        ok = ok and ju == jv and abs(su - sv) < 1e-15
        ok = ok and 0.0 <= ju <= 1.0 and 0.0 <= su <= 1.0 + 1e-12
        ok = ok and abs(jt_index(u, u) - 1.0) < 1e-12
        ok = ok and abs(sqrt_dot(u, u) - 1.0) < 1e-12
        ok = ok and abs(jt_index(u[perm], v[perm]) - ju) < 1e-15
        ok = ok and abs(sqrt_dot(u[perm], v[perm]) - su) < 1e-15
        if not ok:
            break
    report(8, ok, "similarity symmetry/bounds/identity/permutation laws "
                  "over 1000 simplex samples")


def test_criterion_8e_batch_byte_identical_across_workers(tmp_path):
    config = {
        "vqe": {
            "optimizer": {"method": "spsa", "max_iterations": 4},
            "shots": 256,
        },
        "n_runs": 8,
        "base_seed": 21,
    }
    cfg_path = str(tmp_path / "experiment.json")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    outputs = []
    for sub, workers in (("w1", "1"), ("w8", "8")):
        out = str(tmp_path / sub)
        code = cli_main(
            ["batch", "--config", cfg_path, "--out-dir", out,
             "--workers", workers, "--no-timestamp"]
        )
        assert code == 0
        outputs.append(
            (
                open(f"{out}/runs.csv", "rb").read(),
                open(f"{out}/similarity.csv", "rb").read(),
            )
        )
    report(
        8,
        outputs[0] == outputs[1],
        "cmd_batch byte-identical with 1 and 8 workers",
    )
