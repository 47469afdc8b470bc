"""Subprocess side of the benchmark: the set-up probe and the batch command.

    python3 perfbench/child.py setup CONFIG
        Fresh-interpreter set-up: import h2vqe, validate the batch config and
        build the first EnergyEvaluator. Prints {"setup_s": ..., "gauge_s":
        ...}, the second being the median of three host-speed probes taken
        in the same process just after.

    python3 perfbench/child.py batch SIDE_DIR TRACE -- <h2vqe batch args>
        Runs ``h2vqe batch`` through ``h2vqe.cli.main``. Every run's seed,
        energy and best parameters are recorded (for the variational-bound
        check); with TRACE=1 the module-level names the package looks up are
        wrapped so each call leaves a span; with TRACE=0 every process
        instead takes a host-speed probe after the first objective
        evaluation that ends GAUGE_PERIOD_S or more after its last probe,
        and the batch process one more at its start and its end. Records
        stay in memory until the process ends and are then written to
        SIDE_DIR/<pid>.json, by pool workers as they shut down.
        SIDE_DIR/main.json gets the exit code and the peak resident memory
        of the process and of its largest reaped child.

h2vqe is imported from the ``src`` directory of the checkout this file sits
in, never from elsewhere, so a checkout without sources fails.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

GAUGE_PERIOD_S = 0.25  # program time between host-speed probes
GAUGE_NOMINAL_S = 0.007  # one probe on the development host at its fastest


def gauge_s() -> float:
    """Time one host-speed probe, 7 ms of fixed work on a quiet host.

    A shared host's per-core speed can swing by 2x within seconds, and only
    a probe run in the same process, interleaved with the program's own
    work, follows it (README, "Host-speed gauge"). The work mixes a
    pure-Python loop with small-numpy updates of a 4-qubit statevector, the
    program's own two kinds of work: on the development host the program's
    time moved 1.3x as much as the first and 0.8x as much as the second. It
    belongs to the benchmark, so it stays fixed while the program changes.
    """
    import numpy as np

    lo = np.arange(0, 16, 2)
    hi = lo + 1
    m = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)
    t0 = time.perf_counter()
    state = np.full(16, 0.25, dtype=complex)
    for _ in range(600):
        s0, s1 = state[lo], state[hi]
        state = np.empty_like(state)
        state[lo] = m[0, 0] * s0 + m[0, 1] * s1
        state[hi] = m[1, 0] * s0 + m[1, 1] * s1
    acc = 0
    for i in range(45000):
        acc += i * i % 7
    return time.perf_counter() - t0


def import_h2vqe():
    if not os.path.isfile(os.path.join(SRC, "h2vqe", "__init__.py")):
        sys.exit(f"perfbench: no h2vqe sources under {SRC}")
    sys.path.insert(0, SRC)
    import h2vqe

    if not os.path.abspath(h2vqe.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: h2vqe imported from {h2vqe.__file__}, not {SRC}")
    return h2vqe


def setup(config_path: str) -> int:
    t0 = time.perf_counter()
    import_h2vqe()
    from h2vqe.cli import ExperimentConfig
    from h2vqe.vqe import EnergyEvaluator

    with open(config_path) as fh:
        experiment = ExperimentConfig.from_dict(json.load(fh))
    EnergyEvaluator.from_config(experiment.vqe)
    setup_s = time.perf_counter() - t0
    probes = sorted(gauge_s() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "gauge_s": probes[1]}))
    return 0


class Recorder:
    """Spans and run parameters of one process, kept in memory until flushed.

    A span is (name, trace id, span id, parent id, start, end, attr). The
    trace id is the seed of the run the span belongs to (0 outside runs);
    span ids carry the process id in their high bits, so the parent of a
    worker's run span is the batch process's ``execute_batch`` span that was
    open when the pool forked it.
    """

    def __init__(self, side_dir: str):
        self.side_dir = side_dir
        self.main_pid = os.getpid()
        self.stack: list[int] = []
        self.trace_id = 0
        self._start_process()
        os.register_at_fork(after_in_child=self._start_process)

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.params: list[tuple] = []
        self.next_id = self.pid << 32
        self.flush_at_exit = False
        self.gauge: list[float] = []
        self.gauge_last = time.perf_counter()

    def flush(self) -> None:
        path = os.path.join(self.side_dir, f"{self.pid}.json")
        # json.dumps, unlike json.dump, uses the C encoder
        doc = json.dumps({
            "spans": self.spans, "params": self.params, "gauge": self.gauge,
            "main": self.pid == self.main_pid,
        })
        with open(path, "w") as fh:
            fh.write(doc)

    def probe(self) -> None:
        self.gauge.append(gauge_s())
        self.gauge_last = time.perf_counter()

    def gauged(self, fn):
        """Wrap fn: probe after a call once GAUGE_PERIOD_S has passed."""
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if clock() - rec.gauge_last >= GAUGE_PERIOD_S:
                rec.probe()
            return result

        return wrapper

    def span(self, name: str, fn, attr=None):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.next_id += 1
            sid = rec.next_id
            parent = rec.stack[-1] if rec.stack else 0
            rec.stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                rec.stack.pop()
                rec.spans.append((
                    name, rec.trace_id, sid, parent, t0, t1,
                    attr(*args) if attr else None,
                ))

        return wrapper

    def run_recorder(self, run_vqe):
        """Wrap run_vqe: tag the run's spans with its seed, keep its result."""
        rec = self

        @functools.wraps(run_vqe)
        def wrapper(cfg):
            if rec.pid != rec.main_pid and not rec.flush_at_exit:
                # Pool workers skip atexit; multiprocessing runs these
                # finalizers when a worker shuts down. Registered here, not
                # at fork, because the worker clears them as it starts.
                multiprocessing.util.Finalize(None, rec.flush, exitpriority=10)
                rec.flush_at_exit = True
            rec.trace_id = cfg.seed
            try:
                result = run_vqe(cfg)
            finally:
                rec.trace_id = 0
            rec.params.append(
                (cfg.seed, repr(result.energy), [float(p) for p in result.params])
            )
            return result

        return wrapper


def install_spans(rec: Recorder) -> None:
    """Wrap each layer's entry point under the name its caller looks up."""
    from h2vqe import ansatz, cli, vqe

    vqe.build_circuit = rec.span("ansatz.build_circuit", vqe.build_circuit)
    ansatz.Circuit.concat = rec.span("ansatz.concat", ansatz.Circuit.concat)
    vqe.run_noisy = rec.span(
        "sim.run_noisy", vqe.run_noisy,
        attr=lambda circuit, shots, *_: (shots, len(circuit.gates), circuit.n_qubits),
    )
    vqe.EnergyEvaluator.evaluate = rec.span(
        "vqe.evaluate", vqe.EnergyEvaluator.evaluate
    )
    vqe.minimize = rec.span("optim.minimize", vqe.minimize)
    vqe.group_terms = rec.span("pauli.group_terms", vqe.group_terms)
    cli.group_terms = rec.span("pauli.group_terms", cli.group_terms)
    cli.run_vqe = rec.span("vqe.run_vqe", cli.run_vqe)
    cli.batch_average_similarity = rec.span(
        "similarity.batch_average", cli.batch_average_similarity,
        attr=lambda batch, *_: len(batch),
    )
    cli.execute_batch = rec.span("cli.execute_batch", cli.execute_batch)
    cli.cmd_batch = rec.span("cli.cmd_batch", cli.cmd_batch)


def batch(side_dir: str, trace: bool, argv: list[str]) -> int:
    import_h2vqe()
    from h2vqe import cli, vqe

    rec = Recorder(side_dir)
    if trace:
        install_spans(rec)
    else:
        vqe.EnergyEvaluator.evaluate = rec.gauged(vqe.EnergyEvaluator.evaluate)
        rec.probe()
    cli.run_vqe = rec.run_recorder(cli.run_vqe)
    code = cli.main(argv)
    if not trace:
        rec.probe()
    rec.flush()
    with open(os.path.join(side_dir, "main.json"), "w") as fh:
        json.dump({
            "exit": code,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "child_maxrss_kb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }, fh)
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        return setup(argv[1])
    if len(argv) > 4 and argv[0] == "batch" and argv[3] == "--":
        return batch(argv[1], argv[2] == "1", argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
