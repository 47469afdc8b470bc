"""Benchmark of ``h2vqe batch``: end-to-end rates, per-layer traces, checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The seed generates the batch config (its
``base_seed``), which is the only input the program gets. With ``--trace 0``
the batch command is run repeatedly, untraced, for about S seconds, after a
few fresh-interpreter set-up probes; with ``--trace 1`` untraced and traced
batches alternate and the spans give the per-layer metrics. Every batch
passes the correctness gate or the command exits 1. The last line printed
is the JSON result; the metric names and units are those of BENCHMARK.json.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import child

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(child.ROOT, ".bench_work")

DEADLINE_S = 170  # the command must end within 180 s
SETUP_PROBES = 7
HELD_OUT_SEED = 424242  # used by no tuning run; validates later claims
BOUND_TOL_HA = 1e-9  # rounding slack on the variational bound

_ANSATZ = {"form": "ry", "entanglement": "linear", "reps": 2}
_NO_NOISE = {"gate_errors": False, "readout_errors": False}
WORKLOADS = {
    "ideal-4q-spsa": {
        "workers": 1,
        "n_runs": 15,
        "vqe": {
            "hamiltonian": "4q", "ansatz": dict(_ANSATZ, n_qubits=4),
            "optimizer": {"method": "spsa", "max_iterations": 150},
            "shots": 4096, "noise": _NO_NOISE,
        },
    },
    "gate-4q-spsa": {
        "workers": 1,
        "n_runs": 2,
        "vqe": {
            "hamiltonian": "4q", "ansatz": dict(_ANSATZ, n_qubits=4),
            "optimizer": {"method": "spsa", "max_iterations": 75},
            "shots": 4096, "noise": dict(_NO_NOISE, gate_errors=True),
        },
    },
    "readout-2q-wide": {
        "workers": 2,
        "n_runs": 120,
        "vqe": {
            "hamiltonian": "2q", "ansatz": dict(_ANSATZ, n_qubits=2),
            "optimizer": {"method": "cobyla", "max_iterations": 150},
            "shots": 4096, "noise": dict(_NO_NOISE, readout_errors=True),
        },
    },
}


class BenchError(Exception):
    """The benchmark could not run to completion."""


def batch_config(workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return {
        "vqe": spec["vqe"],
        "n_runs": spec["n_runs"],
        "base_seed": int.from_bytes(digest[:4], "big"),
        "emit_svg": False,
    }


def run_child(argv: list[str], deadline: float) -> tuple[int, str, str]:
    """Run child.py in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, CHILD, *argv], cwd=child.ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child.py {argv[0]} ran past the deadline") from None
    return proc.returncode, out, err


# ------------------------------------------------------------ statistics --


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(values) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    for q in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - q / 100) >= 10:
            return f"p{q:g}", percentile(values, q)
    return "max", max(values)


# --------------------------------------------------------- one batch run --


class Batch:
    """One ``h2vqe batch`` command and what it left behind."""

    def __init__(self, workload: str, cfg_path: str, rep_dir: str, trace: bool):
        self.layers = None  # (metrics, per-evaluation split) once analysed
        self.out = os.path.join(rep_dir, "out")
        self.side = os.path.join(rep_dir, "side")
        os.makedirs(self.side)
        self.workers = WORKLOADS[workload]["workers"]
        self.argv = [
            "batch", self.side, "1" if trace else "0", "--",
            "batch", "--config", cfg_path, "--workers", str(self.workers),
            "--out-dir", self.out, "--no-timestamp",
        ]

    def run(self, deadline: float) -> "Batch":
        t0 = time.perf_counter()
        self.code, _, self.stderr = run_child(self.argv, deadline)
        self.wall = time.perf_counter() - t0
        self.usage = self._json(os.path.join(self.side, "main.json"), {})
        self.spans, self.params = [], {}
        gauge, probe_s = [], 0.0
        for name in os.listdir(self.side):
            if name != "main.json":
                doc = self._json(os.path.join(self.side, name), {})
                self.spans += doc.get("spans", [])
                self.params.update({s: (e, p) for s, e, p in doc.get("params", [])})
                gauge += doc.get("gauge", [])
                # pool workers probe side by side, the batch process alone
                probe_s += sum(doc.get("gauge", [])) / (
                    1 if doc.get("main") else self.workers)
        # Wall time without the probes, at the gauge's nominal host speed:
        # the probes are evenly spread over the program's time, so the mean
        # of their speeds is the batch's mean speed.
        self.wall_program = self.wall - probe_s
        self.wall_nominal = self.wall_program * statistics.fmean(
            child.GAUGE_NOMINAL_S / g for g in gauge) if gauge else None
        self.runs_csv = b""
        if self.code == 0:
            with open(os.path.join(self.out, "runs.csv"), "rb") as fh:
                self.runs_csv = fh.read()
        return self

    @staticmethod
    def _json(path: str, default):
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return default

    @property
    def peak_rss_mb(self) -> float:
        kb = self.usage["maxrss_kb"]
        if self.workers > 1:
            kb += self.workers * self.usage["child_maxrss_kb"]
        return kb / 1024


# ---------------------------------------------------- correctness gate --


def parse_runs_csv(data: bytes) -> list[dict]:
    """Rows of runs.csv by position.

    The program joins fields with commas and no quoting, and the noise
    column of a readout arm, "readout(p01=0.02,p10=0.02)", holds a comma;
    so the first five columns are read from the left and the status from
    the right.
    """
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        row = dict(zip(header[:5], fields[:5]))
        row["status"] = fields[-1]
        rows.append(row)
    return rows


class Checker:
    """The correctness gate, applied to every batch of one benchmark run."""

    def __init__(self, cfg: dict):
        from h2vqe import eigenvalues, to_dense
        from h2vqe.cli import ExperimentConfig
        from h2vqe.vqe import EnergyEvaluator, get_hamiltonian

        experiment = ExperimentConfig.from_dict(cfg)
        self.n_runs = experiment.n_runs
        self.shots = experiment.vqe.shots
        self.evaluator = EnergyEvaluator.from_config(experiment.vqe)
        self.n_groups = len(self.evaluator.groups)
        h = get_hamiltonian(experiment.vqe.hamiltonian)
        self.lambda_min = float(eigenvalues(to_dense(h))[0])
        self.failures: list[str] = []
        self.attempted = 0
        self.not_ok = 0
        self.first_runs_csv: bytes | None = None

    @property
    def failed(self) -> int:
        return self.not_ok + len(self.failures)

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def check(self, b: Batch) -> list[dict]:
        """Run every check on one batch; returns its runs.csv rows."""
        self.attempted += self.n_runs
        if b.code != 0 or b.usage.get("exit") != 0:
            self.fail(f"batch exit code {b.code}: {b.stderr.strip()[-500:]}")
            return []
        runs = parse_runs_csv(b.runs_csv)
        not_ok = [r["run_index"] for r in runs if r["status"] != "ok"]
        if not_ok:
            print(f"runs with a status other than ok: {not_ok}", file=sys.stderr)
        self.not_ok += len(not_ok)
        expected = self.n_runs * self.n_groups
        with open(os.path.join(b.out, "similarity.csv")) as fh:
            n_sim = sum(1 for _ in fh) - 1
        counts_dir = os.path.join(b.out, "counts")
        counts_files = sorted(os.listdir(counts_dir))
        for label, n, want in (
            ("runs.csv rows", len(runs), self.n_runs),
            ("similarity.csv rows", n_sim, expected),
            ("counts files", len(counts_files), expected),
        ):
            if n != want:
                self.fail(f"{label}: {n}, expected {want}")
        for name in counts_files:
            with open(os.path.join(counts_dir, name)) as fh:
                doc = json.load(fh)
            if doc["shots"] != self.shots or sum(doc["counts"]) != doc["shots"]:
                self.fail(f"{name}: counts sum to {sum(doc['counts'])}, "
                          f"shots {doc['shots']}, configured {self.shots}")
        for r in runs:
            self._check_bound(r, b.params.get(int(r["seed"])))
        if self.first_runs_csv is None:
            self.first_runs_csv = b.runs_csv
        elif b.runs_csv != self.first_runs_csv:
            self.fail("runs.csv differs between repeats of one seed")
        return runs

    def _check_bound(self, run: dict, recorded) -> None:
        if recorded is None:
            self.fail(f"run {run['run_index']}: no parameters recorded")
            return
        energy, params = recorded
        if energy != run["energy_ha"]:
            self.fail(f"run {run['run_index']}: recorded energy {energy} "
                      f"but runs.csv has {run['energy_ha']}")
        exact = self.evaluator.evaluate_analytic(params)
        if exact < self.lambda_min - BOUND_TOL_HA:
            self.fail(f"run {run['run_index']}: analytic energy {exact!r} "
                      f"below lambda_min {self.lambda_min!r}")


# ------------------------------------------------------------- metrics --


def physics(runs: list[dict], lambda_min: float) -> dict:
    errors = [abs(float(r["energy_ha"]) - lambda_min) * 1e3 for r in runs]
    return {
        "ground_frac": sum(r["band"] == "ground" for r in runs) / len(runs),
        "energy_err_mha_p50": statistics.median(errors),
    }


def layer_metrics(b: Batch, runs: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced batch, plus the per-evaluation split."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)  # span id -> time covered by its children
    for span in b.spans:
        name, _, _, parent, t0, t1, _ = span
        by_name[name].append(span)
        child_time[parent] += t1 - t0

    def durations(name):
        return [t1 - t0 for _, _, _, _, t0, t1, _ in by_name[name]]

    def self_times(name):
        return [t1 - t0 - child_time[sid] for _, _, sid, _, t0, t1, _ in by_name[name]]

    def us_p50(name):
        return statistics.median(durations(name)) * 1e6

    noisy = by_name["sim.run_noisy"]
    minimize_ids = {sid for _, _, sid, _, _, _, _ in by_name["optim.minimize"]}
    opt_evals = sum(s[3] in minimize_ids for s in by_name["vqe.evaluate"])
    (cmd,) = durations("cli.cmd_batch")
    (execute,) = durations("cli.execute_batch")
    similarity = sum(durations("similarity.batch_average"))
    run_times = durations("vqe.run_vqe")
    files = [os.path.join(d, f) for d, _, fs in os.walk(b.out) for f in fs]
    evals = sum(int(r["evaluations"]) for r in runs)
    m = {
        "ansatz.build_circuit.calls": len(by_name["ansatz.build_circuit"]),
        "ansatz.build_circuit.us_p50": us_p50("ansatz.build_circuit"),
        "ansatz.concat.us_p50": us_p50("ansatz.concat"),
        "vqe.evaluate.calls": len(by_name["vqe.evaluate"]),
        "vqe.evaluate.us_p50": us_p50("vqe.evaluate"),
        "vqe.evaluate.self_us_p50":
            statistics.median(self_times("vqe.evaluate")) * 1e6,
        "sim.run_noisy.calls": len(noisy),
        "sim.run_noisy.us_p50": us_p50("sim.run_noisy"),
        "sim.run_noisy.us_tail": tail(durations("sim.run_noisy"))[1] * 1e6,
        "sim.run_noisy.eval_share":
            sum(durations("sim.run_noisy")) / sum(durations("vqe.evaluate")),
        "sim.shots": sum(s[6][0] for s in noisy),
        "sim.gate_ops": sum(s[6][1] * 2 ** s[6][2] for s in noisy),
        "sim.state_bytes": max(16 * 2 ** s[6][2] * (s[6][1] + 1) for s in noisy),
        "optim.minimize.self_us_per_eval":
            sum(self_times("optim.minimize")) / opt_evals * 1e6,
        "optim.evals": opt_evals,
        "vqe.run_vqe.s_p50": statistics.median(run_times),
        "vqe.run_vqe.s_tail": tail(run_times)[1],
        "vqe.evals_per_run": evals / len(runs),
        "pauli.group_terms.calls": len(by_name["pauli.group_terms"]),
        "pauli.group_terms.s_total": sum(durations("pauli.group_terms")),
        "similarity.batch_average.s_total": similarity,
        "similarity.batch_average.pairs":
            sum(s[6] ** 2 for s in by_name["similarity.batch_average"]),
        "similarity.batch_average.wall_share": similarity / b.wall,
        "cli.execute_batch.s": execute,
        "cli.output.s": cmd - execute - similarity,
        "cli.files_written": len(files),
        "cli.bytes_written": sum(os.path.getsize(f) for f in files),
        "cli.parallel_eff": sum(run_times) / (b.workers * execute),
    }
    n_eval = m["vqe.evaluate.calls"]
    split = {
        name: sum(durations(span)) / n_eval * 1e6
        for name, span in (
            ("build_circuit", "ansatz.build_circuit"),
            ("concat", "ansatz.concat"),
            ("run_noisy", "sim.run_noisy"),
            ("evaluate", "vqe.evaluate"),
        )
    }
    split["self"] = sum(self_times("vqe.evaluate")) / n_eval * 1e6
    return m, split


# ---------------------------------------------------------------- main --


def measure(args, cfg_path: str, checker: Checker, deadline: float):
    """Repeat batches for about --seconds; (untraced, traced, runs) lists."""
    plain, traced, runs = [], [], []
    t_start = time.monotonic()
    while True:
        for trace in (False, True) if args.trace else (False,):
            rep_dir = os.path.join(os.path.dirname(cfg_path),
                                   f"rep{len(plain) + len(traced)}")
            b = Batch(args.workload, cfg_path, rep_dir, trace).run(deadline)
            batch_runs = checker.check(b)
            if batch_runs:
                runs = batch_runs
                if trace:
                    b.layers = layer_metrics(b, runs)
            (traced if trace else plain).append(b)
            shutil.rmtree(rep_dir)
        now = time.monotonic()
        per_round = (now - t_start) / len(plain)
        enough = args.trace or len(plain) >= 2
        if enough and (now - t_start + per_round > args.seconds
                       or now + per_round > deadline):
            return plain, traced, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    with open(os.path.join(child.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    child.import_h2vqe()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cfg = batch_config(args.workload, args.seed)
    cfg_path = os.path.join(work, "batch.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh, indent=1)
    checker = Checker(cfg)

    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            code, out, err = run_child(["setup", cfg_path], deadline)
            if code != 0:
                raise BenchError(f"set-up probe failed: {err.strip()}")
            doc = json.loads(out)
            setup.append(doc["setup_s"] * child.GAUGE_NOMINAL_S / doc["gauge_s"])
    plain, traced, runs = measure(args, cfg_path, checker, deadline)
    shutil.rmtree(WORK)

    print(f"workload {args.workload}, seed {args.seed}, base_seed "
          f"{cfg['base_seed']}, {cfg['n_runs']} runs x "
          f"{len(plain) + len(traced)} batches, lambda_min "
          f"{checker.lambda_min:.6f} Ha, held-out seed {HELD_OUT_SEED}")
    if runs:
        values.update(physics(runs, checker.lambda_min))
    values["fail_frac"] = checker.failed / checker.attempted
    if setup:
        values["setup_s"] = statistics.median(setup)
        label, top = tail(setup)
        notes["setup_s"] = f"median of {len(setup)}, {label} {top:.4f}"
    ok = [b for b in plain if b.code == 0]
    if ok:
        n_runs = cfg["n_runs"]
        evals = sum(int(r["evaluations"]) for r in runs)
        walls = [b.wall_nominal for b in ok]
        values["runs_per_s"] = n_runs * len(walls) / sum(walls)
        values["evals_per_s"] = evals * len(walls) / sum(walls)
        values["peak_rss_mb"] = statistics.median(b.peak_rss_mb for b in ok)
        label, top = tail(walls)
        notes["runs_per_s"] = notes["evals_per_s"] = (
            f"over {len(ok)} batches; batch wall p50 "
            f"{statistics.median(walls):.3f} s, {label} {top:.3f} s")
        notes["peak_rss_mb"] = f"median of {len(ok)} batches"
    layered = [b for b in traced if b.layers]
    if layered and ok:
        for name in layered[0].layers[0]:
            values[name] = statistics.median(b.layers[0][name] for b in layered)
        values["trace.overhead_frac"] = statistics.median(
            b.wall for b in layered) / statistics.median(
            b.wall_program for b in ok) - 1
        split = {k: statistics.median(b.layers[1][k] for b in layered)
                 for k in layered[0].layers[1]}
        print("per evaluation (us, mean): " + ", ".join(
            f"{k} {v:.1f}" for k, v in split.items()))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(fail_frac="fraction", ground_frac="fraction",
                 energy_err_mha_p50="mHa")
    for name, value in values.items():
        print(f"{args.workload:16s} {name:36s} {value:14.6g} "
              f"{units.get(name, ''):9s} {notes.get(name, '')}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
