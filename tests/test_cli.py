"""CLI behavior: subcommands, exit codes, artifacts, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import h2vqe
from h2vqe import fixtures
from h2vqe.cli import RunRecord, derive_run_seed, main
from h2vqe.pauli import (
    Hamiltonian,
    PauliString,
    PauliTerm,
    group_terms,
    h2_4qubit,
    to_dense,
)
from h2vqe.sim import counts_to_dict, save_counts


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def save_hamiltonian(h, path):
    write_json(path, h.to_dict())


def read_csv_rows(path):
    """Header and rows of a CSV this package wrote, comment lines skipped."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    return rows[0], rows[1:]


def record_from_row(row):
    """The RunRecord of one runs.csv row."""
    kinds = (int, int, float, str, int, str, str, str, str)
    return RunRecord(*(kind(value) for kind, value in zip(kinds, row)))


def small_vqe_config(**overrides):
    doc = {
        "hamiltonian": "4q",
        "ansatz": {"form": "ry", "entanglement": "linear", "reps": 2},
        "optimizer": {"method": "spsa", "max_iterations": 5},
        "shots": 256,
        "seed": 1,
    }
    doc.update(overrides)
    return doc


# per-qubit readout for three qubits, one short of the default 4q ansatz
THREE_QUBIT_READOUT = {
    "readout_errors": {"per_qubit": [[0.1, 0.0], [0.0, 0.2], [0.0, 0.0]]}
}


def fixture_file(tmp_path, name, **extra):
    cv = fixtures.fixture_counts(name)
    doc = counts_to_dict(
        cv, fixtures.fixture_basis(name), bit_order="q0_leftmost", **extra
    )
    path = str(tmp_path / f"{name}.json")
    save_counts(path, doc)
    return path


class TestEigen:
    def test_4q(self, tmp_path, capsys):
        assert main(["eigen", "--ham", "4q", "--out-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 16
        assert lines[0] == "-1.8671"
        doc = json.load(open(tmp_path / "eigenvalues.json"))
        assert doc["n_qubits"] == 4
        assert len(doc["eigenvalues"]) == 16

    def test_2q(self, tmp_path, capsys):
        assert main(["eigen", "--ham", "2q", "--out-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "-1.8671"

    def test_bad_selector(self, tmp_path, capsys):
        assert main(["eigen", "--ham", "nosuch", "--out-dir", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, named", [
        ({"terms": 5}, "terms must be a list"),
        ({"terms": [5]}, "term must be an object"),
        ({"terms": [{"coeff": "0.1", "string": "ZIII"}]}, "coeff must be a number"),
        ({"terms": [{"coeff": 0.1, "string": 3}]}, "string must be a string"),
        ({"n_qubits": "4"}, "n_qubits must be an integer"),
    ])
    def test_malformed_hamiltonian_file_exit_2(
        self, tmp_path, capsys, overrides, named
    ):
        doc = h2_4qubit().to_dict()
        doc.update(overrides)
        ham = write_json(tmp_path / "h.json", doc)
        assert main(["eigen", "--ham", ham, "--out-dir", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err

    def test_y_terms_diagonalized(self, tmp_path, capsys):
        labels = {"XYZ": 0.3, "IYY": -0.5, "YXI": 0.25, "ZZI": 0.7, "III": -1.1}
        h = Hamiltonian(3, tuple(PauliTerm(c, PauliString.from_label(lab))
                                 for lab, c in labels.items()))
        ham = str(tmp_path / "h.json")
        save_hamiltonian(h, ham)
        assert main(["eigen", "--ham", ham, "--out-dir", str(tmp_path)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 8
        values = json.load(open(tmp_path / "eigenvalues.json"))["eigenvalues"]
        reference = np.linalg.eigvalsh(to_dense(h))
        assert np.abs(np.array(values) - reference).max() <= 1e-9

    def test_y_terms_at_dense_cap(self, tmp_path, capsys):
        rng = np.random.default_rng(20)
        labels = ["".join(rng.choice(list("IXYZ"), 8)) for _ in range(40)]
        h = Hamiltonian(8, tuple(PauliTerm(float(c), PauliString.from_label(lab))
                                 for lab, c in zip(labels, rng.normal(size=40))))
        m = to_dense(h)
        assert np.abs(m.imag).max() > 0.1  # Y terms make it complex
        ham = str(tmp_path / "h.json")
        save_hamiltonian(h, ham)
        assert main(["eigen", "--ham", ham, "--out-dir", str(tmp_path)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 256
        values = json.load(open(tmp_path / "eigenvalues.json"))["eigenvalues"]
        assert np.abs(np.array(values) - np.linalg.eigvalsh(m)).max() <= 1e-9

    def test_over_dense_cap_exit_2(self, tmp_path, capsys):
        ham = str(tmp_path / "h.json")
        save_hamiltonian(
            Hamiltonian(9, (PauliTerm(0.5, PauliString.from_label("Z" * 9)),)), ham
        )
        assert main(["eigen", "--ham", ham, "--out-dir", str(tmp_path)]) == 2
        assert "dense-matrix cap of 8" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "eigenvalues.json")


class TestRun:
    def test_artifacts_and_defaults(self, tmp_path, capsys):
        cfg = small_vqe_config()
        del cfg["shots"]
        path = write_json(tmp_path / "cfg.json", cfg)
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 0
        result = json.load(open(tmp_path / "result.json"))
        assert result["config"]["shots"] == 4096  # default applied and echoed
        assert result["complete"] is True
        assert result["bit_order"] == "q0_leftmost"
        assert len(result["final_counts"]) == 2
        header, rows = read_csv_rows(str(tmp_path / "trace.csv"))
        assert header[:2] == ["eval_index", "energy_ha"]
        assert len(rows) == result["evaluations"] == 2 * 5

    def test_spsa_evaluation_accounting(self, tmp_path):
        cfg = small_vqe_config(
            optimizer={"method": "spsa", "max_iterations": 75,
                       "spsa_calibrate": True, "spsa_calibration_pairs": 25},
        )
        path = write_json(tmp_path / "cfg.json", cfg)
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv_rows(str(tmp_path / "trace.csv"))
        assert len(rows) == 2 * 75 + 2 * 25

    def test_cobyla_trace_descends(self, tmp_path):
        cfg = small_vqe_config(
            optimizer={"method": "cobyla", "max_iterations": 150,
                       "tolerance": 0.1},
            shots=1024,
            seed=5,
        )
        path = write_json(tmp_path / "cfg.json", cfg)
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 0
        _, rows = read_csv_rows(str(tmp_path / "trace.csv"))
        energies = np.array([float(r[1]) for r in rows])
        best = np.minimum.accumulate(energies)
        assert np.all(np.diff(best) <= 0)
        assert best[-1] < energies[0]

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "cfg.json", {"shots": "many"})
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err

    def test_unknown_field_named(self, tmp_path, capsys):
        path = write_json(tmp_path / "cfg.json", small_vqe_config(basis="sto3g"))
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
        assert "basis" in capsys.readouterr().err

    def test_gate_noise_over_qubit_cap_exit_2(self, tmp_path, capsys):
        doc = small_vqe_config(
            ansatz={"form": "ry", "entanglement": "linear", "reps": 2,
                    "n_qubits": 11},
            noise={"gate_errors": True},
        )
        path = write_json(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
        assert "gate noise is limited" in capsys.readouterr().err
        batch = write_json(tmp_path / "b.json", {"vqe": doc, "n_runs": 1})
        assert main(["batch", "--config", batch, "--out-dir", str(tmp_path)]) == 2
        assert not os.path.exists(tmp_path / "runs.csv")

    def test_per_qubit_readout_length_exit_2(self, tmp_path, capsys):
        doc = small_vqe_config(noise=THREE_QUBIT_READOUT)
        path = write_json(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
        assert "3 readout pairs for 4 qubits" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "result.json")

    def test_statevector_over_qubit_cap_exit_2(self, tmp_path, capsys):
        """A 48-qubit statevector would need petabytes; it is refused at load."""
        ham = str(tmp_path / "h.json")
        save_hamiltonian(
            Hamiltonian(48, (PauliTerm(0.5, PauliString.from_label("Z" * 48)),)), ham
        )
        doc = small_vqe_config(
            hamiltonian=ham,
            ansatz={"form": "ry", "entanglement": "linear", "reps": 2,
                    "n_qubits": 48},
        )
        path = write_json(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
        assert "statevector is limited to 20 qubits" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "result.json")
        batch = write_json(tmp_path / "b.json", {"vqe": doc, "n_runs": 1})
        assert main(["batch", "--config", batch, "--out-dir", str(tmp_path)]) == 2
        assert "statevector is limited to 20 qubits" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs.csv")

    @pytest.mark.parametrize("overrides, named", [
        ({"ansatz": 3}, "ansatz"),
        ({"optimizer": {"spsa_a": "x"}}, "spsa_a"),
        ({"optimizer": {"method": "spsa", "max_iterations": 1.5}},
         "max_iterations"),
        ({"ansatz": {"entanglment": "full"}}, "entanglment"),
        ({"noise": {"gate_error": True}}, "gate_error"),
        ({"noise": {"gate_errors": {"p_1": 0.01}}}, "p_1"),
        ({"noise": {"readout_errors": {"p_01": 0.05}}}, "p_01"),
        ({"noise": {"readout_errors": {"per_qubit": [[0.1, 0.0]] * 4,
                                       "p01": 0.1}}}, "per_qubit"),
        ({"seed": -1}, "seed"),
        ({"noise": {"readout_errors": {"per_qubit": 3}}}, "per_qubit"),
        ({"noise": {"readout_errors": {"per_qubit": [[0.1]]}}}, "per_qubit"),
        ({"noise": {"readout_errors": {"per_qubit": [0.1, 0.2]}}}, "per_qubit"),
        ({"optimizer": {"spsa_c": 0}}, "spsa_c"),
        ({"optimizer": {"rhobeg": -1}}, "rhobeg"),
        ({"optimizer": {"nm_shrink": 5}}, "nm_shrink"),
        ({"optimizer": {"powell_step": 0}}, "powell_step"),
        ({"optimizer": {"spsa_a": math.inf}}, "spsa_a"),
        ({"optimizer": {"tolerance": math.nan}}, "tolerance"),
        ({"optimizer": {"powell_line_tolerance": 0}}, "powell_line_tolerance"),
    ])
    def test_wrong_type_exit_2(self, tmp_path, capsys, overrides, named):
        doc = small_vqe_config(**overrides)
        path = write_json(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
        batch = write_json(tmp_path / "b.json", {"vqe": doc, "n_runs": 1})
        assert main(["batch", "--config", batch, "--out-dir", str(tmp_path)]) == 2
        assert not os.path.exists(tmp_path / "runs.csv")

    def test_y_term_hamiltonian_exit_2(self, tmp_path, capsys):
        terms = h2_4qubit().terms + (
            PauliTerm(0.1, PauliString.from_label("IIYY")),
        )
        ham = str(tmp_path / "h.json")
        save_hamiltonian(Hamiltonian(4, terms), ham)
        doc = small_vqe_config(hamiltonian=ham)
        path = write_json(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
        assert "IIYY" in capsys.readouterr().err
        batch = write_json(tmp_path / "b.json", {"vqe": doc, "n_runs": 1})
        assert main(["batch", "--config", batch, "--out-dir", str(tmp_path)]) == 2
        assert not os.path.exists(tmp_path / "runs.csv")

    def test_y_term_hamiltonian_energy_from_counts_exit_2(self, tmp_path, capsys):
        terms = h2_4qubit().terms + (PauliTerm(0.1, PauliString.from_label("IIYY")),)
        ham = str(tmp_path / "h.json")
        save_hamiltonian(Hamiltonian(4, terms), ham)
        argv = ["energy-from-counts", "--ham", ham, "--fixtures", "setA"]
        assert main(argv) == 2
        assert "IIYY" in capsys.readouterr().err

    def test_rerun_from_result_config(self, tmp_path):
        cfg = small_vqe_config(noise={"readout_errors": True}, seed=12)
        path = write_json(tmp_path / "cfg.json", cfg)
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", path, "--out-dir", str(first)]) == 0
        result = json.load(open(first / "result.json"))
        again = write_json(tmp_path / "again.json", result["config"])
        assert main(["run", "--config", again, "--out-dir", str(second)]) == 0
        rerun = json.load(open(second / "result.json"))
        assert rerun["energy_ha"] == result["energy_ha"]
        assert rerun == result

    def test_trace_csv_has_unix_line_endings(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", small_vqe_config())
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 0
        assert b"\r" not in open(tmp_path / "trace.csv", "rb").read()

    def test_seed_override(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", small_vqe_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", path, "--out-dir", str(out1), "--seed", "99"])
        main(["run", "--config", path, "--out-dir", str(out2), "--seed", "99"])
        r1 = json.load(open(out1 / "result.json"))
        r2 = json.load(open(out2 / "result.json"))
        assert r1["config"]["seed"] == 99
        assert r1["energy_ha"] == r2["energy_ha"]

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "cfg.json", small_vqe_config())
        assert main(["run", "--config", path, "--out-dir", str(tmp_path),
                     "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "result.json")

    def test_aborted_run_says_why(self, tmp_path, capsys, monkeypatch):
        from h2vqe.vqe import EnergyEvaluator

        real, calls = EnergyEvaluator.evaluate, []

        def nan_at_third(self, params, seed):
            est = real(self, params, seed)
            calls.append(seed)
            if len(calls) == 3:
                object.__setattr__(est, "energy", math.nan)
            return est

        monkeypatch.setattr(EnergyEvaluator, "evaluate", nan_at_third)
        path = write_json(tmp_path / "cfg.json", small_vqe_config())
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "stopped: objective returned nan at evaluation 2\n")
        result = json.load(open(tmp_path / "result.json"))
        assert result["complete"] is False and result["evaluations"] == 3

    def test_identity_only_hamiltonian(self, tmp_path):
        """No measurement groups: the energy is the identity coefficient."""
        ham = str(tmp_path / "h.json")
        save_hamiltonian(
            Hamiltonian(4, (PauliTerm(-0.75, PauliString.from_label("IIII")),)), ham
        )
        path = write_json(tmp_path / "cfg.json", small_vqe_config(hamiltonian=ham))
        assert main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 0
        result = json.load(open(tmp_path / "result.json"))
        assert result["energy_ha"] == -0.75
        assert result["final_counts"] == []
        batch = write_json(
            tmp_path / "b.json", {"vqe": small_vqe_config(hamiltonian=ham), "n_runs": 2}
        )
        out = tmp_path / "batch"
        assert main(["batch", "--config", batch, "--out-dir", str(out),
                     "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(out / "runs.csv"))
        assert [r[-1] for r in rows] == ["ok", "ok"]
        _, sim_rows = read_csv_rows(str(out / "similarity.csv"))
        assert sim_rows == []


def batch_config(n_runs=3, **vqe_overrides):
    return {
        "vqe": small_vqe_config(**vqe_overrides),
        "n_runs": n_runs,
        "base_seed": 7,
    }


class TestBatch:
    def test_outputs(self, tmp_path):
        path = write_json(tmp_path / "b.json", batch_config())
        out = tmp_path / "out"
        assert main(["batch", "--config", path, "--out-dir", str(out),
                     "--no-timestamp"]) == 0
        header, rows = read_csv_rows(str(out / "runs.csv"))
        assert header == list(RunRecord.FIELDS)
        assert len(rows) == 3
        assert all(r[-1] == "ok" for r in rows)
        records = [record_from_row(r) for r in rows]
        assert [r.run_index for r in records] == [0, 1, 2]
        # counts artifacts, one per run per group
        files = sorted(os.listdir(out / "counts"))
        assert len(files) == 6
        _, sim_rows = read_csv_rows(str(out / "similarity.csv"))
        assert len(sim_rows) == 6
        assert {r[4] for r in sim_rows} == {"0", "1"}

    def test_reproducible_and_worker_invariant(self, tmp_path):
        path = write_json(tmp_path / "b.json", batch_config(n_runs=4))
        outs = []
        for name, workers in (("w1", "1"), ("w1b", "1"), ("w2", "2")):
            out = tmp_path / name
            assert main(["batch", "--config", path, "--out-dir", str(out),
                         "--workers", workers, "--no-timestamp"]) == 0
            outs.append(
                (open(out / "runs.csv", "rb").read(),
                 open(out / "similarity.csv", "rb").read())
            )
        assert outs[0] == outs[1]  # rerun, same bytes
        assert outs[0] == outs[2]  # same bytes regardless of worker count

    def test_timestamp_header_toggle(self, tmp_path):
        path = write_json(tmp_path / "b.json", batch_config(n_runs=1))
        out = tmp_path / "stamped"
        main(["batch", "--config", path, "--out-dir", str(out)])
        first = open(out / "runs.csv").readline()
        assert first.startswith("# generated ")

    def test_single_run_self_similarity(self, tmp_path):
        path = write_json(tmp_path / "b.json", batch_config(n_runs=1))
        out = tmp_path / "out"
        main(["batch", "--config", path, "--out-dir", str(out),
              "--no-timestamp"])
        _, rows = read_csv_rows(str(out / "similarity.csv"))
        assert len(rows) == 2
        for row in rows:
            assert float(row[1]) == pytest.approx(1.0)
            assert float(row[2]) == pytest.approx(1.0)

    def test_noisy_runs_shift_upward(self, tmp_path):
        ideal = write_json(tmp_path / "i.json", batch_config(n_runs=10))
        noisy_cfg = batch_config(
            n_runs=10,
            noise={"gate_errors": True, "readout_errors": True},
        )
        noisy_cfg["vqe"]["optimizer"]["max_iterations"] = 40
        cfg_i = json.load(open(ideal))
        cfg_i["vqe"]["optimizer"]["max_iterations"] = 40
        ideal = write_json(tmp_path / "i.json", cfg_i)
        noisy = write_json(tmp_path / "n.json", noisy_cfg)
        out_i, out_n = tmp_path / "oi", tmp_path / "on"
        assert main(["batch", "--config", ideal, "--out-dir", str(out_i),
                     "--no-timestamp"]) == 0
        assert main(["batch", "--config", noisy, "--out-dir", str(out_n),
                     "--no-timestamp"]) == 0
        med = {}
        for key, out in (("i", out_i), ("n", out_n)):
            _, rows = read_csv_rows(str(out / "runs.csv"))
            med[key] = float(np.median([float(r[2]) for r in rows]))
        assert med["n"] > med["i"]

    def test_emit_svg(self, tmp_path):
        doc = batch_config(n_runs=2)
        doc["emit_svg"] = True
        path = write_json(tmp_path / "b.json", doc)
        out = tmp_path / "out"
        main(["batch", "--config", path, "--out-dir", str(out),
              "--no-timestamp"])
        for name in ("energies.svg", "similarity.svg"):
            content = open(out / name).read()
            assert content.startswith("<svg") and "circle" in content

    def test_run_failures_recorded(self, tmp_path, monkeypatch):
        import h2vqe.cli as cli_mod

        real = cli_mod.run_vqe

        def flaky(cfg):
            if cfg.seed == derive_run_seed(7, 1):
                raise RuntimeError("boom")
            return real(cfg)

        monkeypatch.setattr(cli_mod, "run_vqe", flaky)
        path = write_json(tmp_path / "b.json", batch_config(n_runs=3))
        out = tmp_path / "out"
        assert main(["batch", "--config", path, "--out-dir", str(out),
                     "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(out / "runs.csv"))
        assert len(rows) == 3
        statuses = [r[-1] for r in rows]
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1].startswith("failed")
        assert math.isnan(float(rows[1][2]))

    def test_run_with_no_finite_evaluation(self, tmp_path, monkeypatch):
        import h2vqe.cli as cli_mod
        from h2vqe.vqe import EnergyEvaluator

        real_run, real_evaluate = cli_mod.run_vqe, EnergyEvaluator.evaluate

        def never_finite(self, params, seed):
            est = real_evaluate(self, params, seed)
            object.__setattr__(est, "energy", math.nan)
            return est

        def flaky(cfg):
            if cfg.seed != derive_run_seed(7, 1):
                return real_run(cfg)
            with monkeypatch.context() as m:
                m.setattr(EnergyEvaluator, "evaluate", never_finite)
                return real_run(cfg)

        monkeypatch.setattr(cli_mod, "run_vqe", flaky)
        path = write_json(tmp_path / "b.json", batch_config(n_runs=3))
        out = tmp_path / "out"
        assert main(["batch", "--config", path, "--out-dir", str(out),
                     "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(out / "runs.csv"))
        records = [record_from_row(r) for r in rows]
        assert [r.status for r in records] == ["ok", "incomplete", "ok"]
        assert math.isnan(records[1].energy_ha) and records[1].band == "erroneous"
        assert records[1].evaluations == 1
        assert sorted(os.listdir(out / "counts")) == [
            "run0000_g0.json", "run0000_g1.json", "run0002_g0.json", "run0002_g1.json"]
        _, sim_rows = read_csv_rows(str(out / "similarity.csv"))
        assert len(sim_rows) == 4
        assert all(row[0] == repr(r.energy_ha)
                   for row, r in zip(sim_rows, [records[0], records[2]] * 2))

    def test_fields_with_commas_round_trip(self, tmp_path, monkeypatch):
        import h2vqe.cli as cli_mod

        real = cli_mod.run_vqe

        def flaky(cfg):
            if cfg.seed == derive_run_seed(7, 1):
                raise RuntimeError("boom, twice")
            return real(cfg)

        monkeypatch.setattr(cli_mod, "run_vqe", flaky)
        doc = batch_config(
            n_runs=2, noise={"readout_errors": {"p01": 0.02, "p10": 0.03}}
        )
        path = write_json(tmp_path / "b.json", doc)
        out = tmp_path / "out"
        assert main(["batch", "--config", path, "--out-dir", str(out),
                     "--no-timestamp"]) == 0
        header, rows = read_csv_rows(str(out / "runs.csv"))
        assert header == list(RunRecord.FIELDS)
        ok, failed = (record_from_row(r) for r in rows)
        assert ok.noise == "readout(p01=0.02,p10=0.03)"
        assert ok.status == "ok"
        assert failed.status == "failed: boom, twice"
        assert ok.to_row() == rows[0]

    def test_bad_config_exit_2(self, tmp_path):
        path = write_json(tmp_path / "b.json", {"n_runs": 0})
        assert main(["batch", "--config", path, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["run", "batch"])
    def test_invalid_json_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text('{"n_runs": ')
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("base_seed, flags", [(-1, []), (7, ["--seed", "-1"])])
    def test_negative_base_seed_exit_2(self, tmp_path, capsys, base_seed, flags):
        doc = dict(batch_config(n_runs=1), base_seed=base_seed)
        path = write_json(tmp_path / "b.json", doc)
        assert main(["batch", "--config", path, "--out-dir", str(tmp_path),
                     *flags]) == 2
        assert "base_seed must be non-negative" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs.csv")

    def test_seed_overrides_base_seed(self, tmp_path):
        plain = write_json(tmp_path / "b.json", batch_config(n_runs=2))
        moved = write_json(
            tmp_path / "m.json", dict(batch_config(n_runs=2), base_seed=999)
        )
        runs = []
        for name, path, flags in (
            ("flag", plain, ["--seed", "999"]),
            ("config", moved, []),
            ("plain", plain, []),
        ):
            out = tmp_path / name
            assert main(["batch", "--config", path, "--out-dir", str(out),
                         "--no-timestamp", *flags]) == 0
            runs.append(open(out / "runs.csv", "rb").read())
        assert runs[0] == runs[1]
        assert runs[0] != runs[2]

    def test_pool_no_bigger_than_batch(self, tmp_path, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for n_runs in (1, 2, 3):
            path = write_json(tmp_path / "b.json", batch_config(n_runs=n_runs))
            assert main(["batch", "--config", path, "--out-dir",
                         str(tmp_path / str(n_runs)), "--workers", "2"]) == 0
        # one run goes serially; two and three runs fill a 2-process pool
        assert sizes == [2, 2]
        path = write_json(tmp_path / "b.json", batch_config(n_runs=2))
        assert main(["batch", "--config", path, "--out-dir",
                     str(tmp_path / "wide"), "--workers", "16"]) == 0
        assert sizes == [2, 2, 2]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        path = write_json(tmp_path / "b.json", batch_config(n_runs=1))
        assert main(["batch", "--config", path, "--out-dir", str(tmp_path),
                     "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs.csv")

    def test_per_qubit_readout_length_exit_2(self, tmp_path, capsys):
        doc = {"vqe": small_vqe_config(noise=THREE_QUBIT_READOUT), "n_runs": 2}
        path = write_json(tmp_path / "b.json", doc)
        assert main(["batch", "--config", path, "--out-dir", str(tmp_path)]) == 2
        assert "3 readout pairs for 4 qubits" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "runs.csv")


class TestTracedCliNames:
    """The ``cli`` names the benchmark's trace wraps, and how often a batch
    calls them.

    ``perfbench/child.py::install_spans`` replaces ``cli.cmd_batch``,
    ``cli.execute_batch``, ``cli.group_terms``, ``cli.run_vqe`` and
    ``cli.batch_average_similarity`` with timed wrappers, and
    ``perfbench/run.py`` reads per-run and per-batch figures from their spans.
    Delete this test once the benchmark revision (ROADMAP, item 1) traces
    seams of its own in place of these names.
    """

    def test_batch_makes_traced_calls(self, tmp_path, monkeypatch):
        import h2vqe.cli as cli_mod

        names = ("cmd_batch", "execute_batch", "group_terms", "run_vqe",
                 "batch_average_similarity")
        calls = {name: [] for name in names}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(cli_mod, name, counted(name, getattr(cli_mod, name)))
        path = write_json(tmp_path / "b.json", batch_config(n_runs=3))
        assert main(["batch", "--config", path, "--out-dir", str(tmp_path),
                     "--workers", "1", "--no-timestamp"]) == 0
        counts = {name: len(args) for name, args in calls.items()}
        assert counts == {"cmd_batch": 1, "execute_batch": 1, "group_terms": 1,
                          "run_vqe": 3, "batch_average_similarity": 4}
        # two measures for each of the two groups, over that group's 3 runs
        averaged = calls["batch_average_similarity"]
        assert sorted(args[1] for args in averaged) == ["jt", "jt", "sqrtdot",
                                                        "sqrtdot"]
        assert all(len(args[0]) == 3 for args in averaged)
        assert len({tuple(map(tuple, args[0])) for args in averaged}) == 2


class TestEnergyFromCounts:
    def test_fixture_set_a(self, tmp_path, capsys):
        assert main(["energy-from-counts", "--ham", "4q", "--fixtures", "setA",
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "-1.8422"

    def test_fixture_set_b(self, tmp_path, capsys):
        assert main(["energy-from-counts", "--ham", "4q", "--fixtures", "setB",
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "-1.8464"

    def test_counts_files(self, tmp_path, capsys):
        f0 = fixture_file(tmp_path, "A0")
        f1 = fixture_file(tmp_path, "A1")
        assert main(["energy-from-counts", "--ham", "4q", f0, f1,
                     "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.strip() == "-1.8422"

    def test_duplicate_group_exit_2(self, tmp_path, capsys):
        f0 = fixture_file(tmp_path, "A0")
        f0b = fixture_file(tmp_path, "B0")
        assert main(["energy-from-counts", "--ham", "4q", f0, f0b,
                     "--out-dir", str(tmp_path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_missing_group_exit_2(self, tmp_path, capsys):
        f0 = fixture_file(tmp_path, "A0")
        assert main(["energy-from-counts", "--ham", "4q", f0,
                     "--out-dir", str(tmp_path)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_shot_mismatch_warns_but_passes(self, tmp_path, capsys):
        from h2vqe.sim import CountsVector

        groups, _ = group_terms(h2_4qubit())
        odd = CountsVector(tuple([4081] + [1] * 15), 4096)  # 4096 vs 8192
        path1 = str(tmp_path / "odd.json")
        save_counts(path1, counts_to_dict(odd, groups[1].basis))
        f0 = fixture_file(tmp_path, "A0")
        code = main(["energy-from-counts", "--ham", "4q", f0, path1,
                     "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err


class TestSimilarityCommand:
    def test_fixture_ranking_jt(self, tmp_path):
        assert main(["similarity", "--measure", "jt",
                     "--fixtures", "A0", "B0", "C0",
                     "--out-dir", str(tmp_path), "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(tmp_path / "similarity.csv"))
        jt = [float(r[1]) for r in rows]
        assert jt[0] > jt[2] and jt[1] > jt[2]
        assert all(r[2] == "" for r in rows)  # sqrtdot column not requested

    def test_fixture_sqrtdot_c0_low(self, tmp_path):
        assert main(["similarity", "--measure", "sqrtdot",
                     "--fixtures", "A0", "B0", "C0",
                     "--out-dir", str(tmp_path), "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(tmp_path / "similarity.csv"))
        assert float(rows[2][2]) < 0.5

    def test_single_file(self, tmp_path):
        f0 = fixture_file(tmp_path, "A0", energy_ha=-1.8422)
        assert main(["similarity", f0, "--out-dir", str(tmp_path),
                     "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(tmp_path / "similarity.csv"))
        assert len(rows) == 1
        assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 1.0
        assert rows[0][3] == "ground"

    def test_mixed_qubits_exit_2(self, tmp_path, capsys):
        f0 = fixture_file(tmp_path, "A0")
        from h2vqe.sim import CountsVector

        doc = counts_to_dict(CountsVector((3, 1), 4), ("Z",))
        small = str(tmp_path / "small.json")
        save_counts(small, doc)
        assert main(["similarity", f0, small,
                     "--out-dir", str(tmp_path)]) == 2
        assert "mixed" in capsys.readouterr().err

    def test_batch_dir(self, tmp_path):
        path = write_json(tmp_path / "b.json", batch_config(n_runs=2))
        out = tmp_path / "batch"
        main(["batch", "--config", path, "--out-dir", str(out),
              "--no-timestamp"])
        sim_out = tmp_path / "sim"
        assert main(["similarity", "--batch-dir", str(out),
                     "--out-dir", str(sim_out), "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(sim_out / "similarity.csv"))
        assert len(rows) == 4  # 2 runs x 2 groups
        assert all(r[0] != "" and r[3] != "" for r in rows)

    def test_batch_dir_after_smaller_batch_in_same_out_dir(self, tmp_path):
        """A second batch into the same directory replaces the first one's
        counts files and leaves every other file there."""
        out = tmp_path / "batch"
        for n_runs in (3, 1):
            path = write_json(tmp_path / "b.json", batch_config(n_runs=n_runs))
            assert main(["batch", "--config", path, "--out-dir", str(out),
                         "--no-timestamp"]) == 0
            if n_runs == 3:
                (out / "counts" / "notes.txt").write_text("kept")
        assert sorted(os.listdir(out / "counts")) == [
            "notes.txt", "run0000_g0.json", "run0000_g1.json"]
        sim_out = tmp_path / "sim"
        assert main(["similarity", "--batch-dir", str(out),
                     "--out-dir", str(sim_out), "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(sim_out / "similarity.csv"))
        assert len(rows) == 2

    def test_batch_dir_rows_match_batch_table(self, tmp_path):
        """The batch writes its rows group by group, the similarity command
        in input order (run by run); by group, they are the same rows."""
        path = write_json(tmp_path / "b.json", batch_config(n_runs=3))
        out = tmp_path / "batch"
        assert main(["batch", "--config", path, "--out-dir", str(out),
                     "--no-timestamp"]) == 0
        sim_out = tmp_path / "sim"
        assert main(["similarity", "--batch-dir", str(out),
                     "--out-dir", str(sim_out), "--no-timestamp"]) == 0
        header, batch_rows = read_csv_rows(str(out / "similarity.csv"))
        sim_header, sim_rows = read_csv_rows(str(sim_out / "similarity.csv"))
        assert sim_header == header
        assert len(batch_rows) == 6
        assert sorted(sim_rows, key=lambda r: int(r[4])) == batch_rows

    def test_mixed_bases_keep_input_order(self, tmp_path):
        assert main(["similarity", "--fixtures", "A1", "A0", "B1",
                     "--out-dir", str(tmp_path), "--no-timestamp"]) == 0
        _, rows = read_csv_rows(str(tmp_path / "similarity.csv"))
        pair = tmp_path / "pair"
        assert main(["similarity", "--fixtures", "A1", "B1",
                     "--out-dir", str(pair), "--no-timestamp"]) == 0
        _, pair_rows = read_csv_rows(str(pair / "similarity.csv"))
        # A1 and B1 share a basis and average together; A0 stands alone.
        # Fixtures carry no group id, so each takes its basis's sorted rank.
        assert [r[4] for r in rows] == ["0", "1", "0"]
        assert [rows[0][1:3], rows[2][1:3]] == [r[1:3] for r in pair_rows]
        assert float(rows[1][1]) == float(rows[1][2]) == 1.0

    def test_no_inputs_exit_2(self, tmp_path):
        assert main(["similarity", "--out-dir", str(tmp_path)]) == 2

    def test_missing_batch_dir_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nosuch")
        assert main(["similarity", "--batch-dir", missing,
                     "--out-dir", str(tmp_path)]) == 2
        assert "nosuch" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, named", [
    ({"counts": 5}, "counts must be a list"),
    ({"counts": ["1"] * 16, "shots": 16}, "counts entry must be an integer"),
    ({"n_qubits": "4"}, "n_qubits must be an integer"),
    ({"shots": "8192"}, "shots must be an integer"),
    ({"group_basis": ["X", "Z", "X", "Z"]}, "group_basis must be a string"),
    ({"group_basis": "XZYZ"}, "group_basis"),
    ({"energy_ha": "abc"}, "energy_ha"),
    ({"group_id": "x"}, "group_id"),
    ({"group_id": 1.7}, "group_id"),
])
@pytest.mark.parametrize("command", ["similarity", "energy-from-counts"])
def test_malformed_counts_file_exit_2(tmp_path, capsys, command, overrides, named):
    f0 = fixture_file(tmp_path, "A0")
    doc = json.load(open(fixture_file(tmp_path, "A1")))
    doc.update(overrides)
    bad = write_json(tmp_path / "bad.json", doc)
    assert main([command, f0, bad, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and named in err


def test_counts_file_without_shots_exit_2(tmp_path, capsys):
    f0 = fixture_file(tmp_path, "A0")
    doc = json.load(open(fixture_file(tmp_path, "A1")))
    del doc["shots"]
    bad = write_json(tmp_path / "bad.json", doc)
    assert main(["energy-from-counts", f0, bad, "--out-dir", str(tmp_path)]) == 2
    assert "missing required field 'shots'" in capsys.readouterr().err


def test_derive_run_seed_distinct():
    seeds = {derive_run_seed(0, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_run_seed(0, 5) != derive_run_seed(5, 0)
    assert derive_run_seed(3, 2) == derive_run_seed(3, 2)


@pytest.mark.parametrize("command", [
    ["eigen", "--ham", "2q"],
    ["energy-from-counts", "--fixtures", "setA"],
    ["similarity", "--fixtures", "A0", "B0"],
])
def test_seed_rejected_outside_run_and_batch(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "5", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("out_dir", ["afile", os.path.join("afile", "sub")])
@pytest.mark.parametrize("command", ["eigen", "batch"])
def test_out_dir_not_a_directory_exit_2(tmp_path, capsys, command, out_dir):
    (tmp_path / "afile").write_text("")
    config = write_json(tmp_path / "b.json", batch_config(n_runs=1))
    before = sorted(tmp_path.rglob("*"))
    target = str(tmp_path / out_dir)
    argv = {"eigen": ["eigen", "--ham", "2q"], "batch": ["batch", "--config", config]}
    assert main(argv[command] + ["--out-dir", target]) == 2
    assert repr(target) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "afile").read_text() == ""


def test_cli_import_leaves_pool_modules_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(h2vqe.__file__)))
    code = (
        "import sys, h2vqe.cli; "
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
