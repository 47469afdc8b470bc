"""Command-line surface: eigen, run, batch, energy-from-counts, similarity.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error. Batch
runs fan out to a process pool; every run gets a seed derived from
(base_seed, run_index), and records are sorted by run index before any
file is written, so outputs are byte-identical for any worker count (and
across reruns, once the timestamp header is suppressed).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from datetime import datetime, timezone

import numpy as np

from . import fields, fixtures
from .pauli import (
    Hamiltonian,
    MeasurementGroup,
    check_measurable,
    eigenvalues,
    group_terms,
    to_dense,
)
from .sim import BitOrder, CountsVector, counts_to_dict, load_counts, save_counts
from .similarity import batch_average_similarity, classify_energy
from .vqe import (
    RESOLVED_BIT_ORDER,
    VqeConfig,
    energy_from_counts,
    get_hamiltonian,
    run_vqe,
)


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    vqe: VqeConfig = field(default_factory=VqeConfig)
    n_runs: int = fields.bounded(50, ge=1)
    base_seed: int = fields.bounded(0, ge=0)
    emit_svg: bool = False

    __post_init__ = fields.validate

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return fields.parse(cls, doc, "experiment")


@dataclass
class RunRecord:
    run_index: int
    seed: int
    energy_ha: float
    band: str
    evaluations: int
    optimizer: str
    ansatz: str
    noise: str
    status: str = "ok"

    def to_row(self) -> list[str]:
        return [str(getattr(self, name)) for name in self.FIELDS]


RunRecord.FIELDS = tuple(f.name for f in dataclass_fields(RunRecord))  # runs.csv header


def derive_run_seed(base_seed: int, run_index: int) -> int:
    """Deterministic, well-mixed 64-bit seed for run k of a batch."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(run_index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _run_single(task: tuple[VqeConfig, int, int]):
    """One batch run: its RunRecord and final counts, one per group. A run
    that raises is recorded as failed, with no counts, and the batch goes on."""
    cfg_template, run_index, base_seed = task
    cfg = replace(cfg_template, seed=derive_run_seed(base_seed, run_index))
    record = RunRecord(
        run_index=run_index, seed=cfg.seed, energy_ha=math.nan, band="",
        evaluations=0, optimizer=cfg.optimizer.method,
        ansatz=cfg.ansatz.describe(), noise=cfg.noise.describe(),
    )
    try:
        result = run_vqe(cfg)
    except Exception as exc:  # per-run failures recorded, batch continues
        record.status = f"failed: {exc}"
        return record, ()
    record.energy_ha, record.band = result.energy, result.band
    record.evaluations = result.evaluations
    record.status = "ok" if result.complete else "incomplete"
    return record, result.final_counts


def execute_batch(experiment: ExperimentConfig, workers: int = 1):
    """All runs of one experiment, sorted by run index."""
    tasks = [
        (experiment.vqe, k, experiment.base_seed) for k in range(experiment.n_runs)
    ]
    workers = min(workers, len(tasks))
    if workers <= 1:
        results = [_run_single(t) for t in tasks]
    else:
        import concurrent.futures  # only here: it pulls in logging

        # a fork-started pool forks all of its workers up front
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_single, tasks))
    results.sort(key=lambda rc: rc[0].run_index)
    return results


# ---------------------------------------------------------------- output --

COUNTS_FILE = re.compile(r"run\d+_g\d+\.json")  # a batch run's counts, per group


def _counts_documents(
    groups: tuple[MeasurementGroup, ...],
    final_counts: tuple[CountsVector, ...],
    record: RunRecord | None = None,
) -> list[dict]:
    """Counts-file documents of a run's final counts, one per group.

    A batch run's documents also carry its energy and run index.
    """
    docs = []
    for g, cv in enumerate(final_counts):
        extra = {"group_id": g}
        if record is not None:
            extra = {
                "energy_ha": record.energy_ha, **extra, "run_index": record.run_index
            }
        docs.append(counts_to_dict(cv, groups[g].basis, RESOLVED_BIT_ORDER, **extra))
    return docs


SIMILARITY_FIELDS = ("energy_ha", "avg_jt", "avg_sqrt_dot", "band", "group_id")
MEASURES = ("jt", "sqrtdot")


def similarity_rows(entries, measures=MEASURES) -> list[list[str]]:
    """Rows of similarity.csv, one per (counts, basis, energy or None, group id)
    entry and in the entries' order.

    Each requested measure is averaged over the entries that share a basis;
    a measure not requested, and an absent energy with its band, are blank.
    """
    by_basis: dict[tuple[str, ...], list[int]] = {}
    for i, (_, basis, _, _) in enumerate(entries):
        by_basis.setdefault(basis, []).append(i)
    averages = {m: [""] * len(entries) for m in MEASURES}
    for idxs in by_basis.values():
        vectors = [entries[i][0].probabilities() for i in idxs]
        for m in measures:
            for i, v in zip(idxs, batch_average_similarity(vectors, m)):
                averages[m][i] = repr(float(v))
    return [
        ["" if e is None else repr(float(e)), averages["jt"][i], averages["sqrtdot"][i],
         "" if e is None else classify_energy(float(e)), str(gid)]
        for i, (_, _, e, gid) in enumerate(entries)
    ]


def _write_csv(path: str, header: tuple[str, ...], rows, no_timestamp: bool) -> None:
    """Quote only fields that need it, such as a noise label with a comma."""
    with open(path, "w", newline="") as fh:
        if not no_timestamp:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            fh.write(f"# generated {stamp}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_svg_scatter(
    path: str,
    points,
    xlabel: str,
    ylabel: str,
    title: str,
    hline: float | None = None,
) -> None:
    """Minimal hand-emitted SVG scatter plot; axes are non-normative."""
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [p[0] for p in points] or [0.0]
    ys = [p[1] for p in points] or [0.0]
    if hline is not None:
        ys = ys + [hline]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xpad = (x1 - x0) * 0.05 or 0.5
    ypad = (y1 - y0) * 0.05 or 0.5
    x0, x1 = x0 - xpad, x1 + xpad
    y0, y1 = y0 - ypad, y1 + ypad

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {height / 2:.1f})">'
        f"{ylabel}</text>",
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - mb + 16}" '
            f'text-anchor="middle" font-size="10">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{sy(yv) + 3:.1f}" text-anchor="end" '
            f'font-size="10">{yv:.4g}</text>'
        )
    if hline is not None:
        parts.append(
            f'<line x1="{ml}" y1="{sy(hline):.1f}" x2="{width - mr}" '
            f'y2="{sy(hline):.1f}" stroke="red" stroke-dasharray="4 3"/>'
        )
    for x, y in points:
        parts.append(
            f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" '
            f'fill="steelblue" fill-opacity="0.7"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


# ------------------------------------------------------------ subcommands --


def _load_hamiltonian(selector: str, measured: bool = True) -> Hamiltonian:
    """The Hamiltonian ``selector`` names; one that cannot be loaded is exit 2,
    as is one with Y terms that is to be ``measured``."""
    try:
        h = get_hamiltonian(selector)
        if measured:
            check_measurable(h)
        return h
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot load Hamiltonian {selector!r}: {exc}") from exc


def cmd_eigen(args) -> int:
    h = _load_hamiltonian(args.ham, measured=False)
    try:
        dense = to_dense(h)
    except ValueError as exc:  # over the dense-matrix cap
        raise UsageError(str(exc)) from exc
    values = eigenvalues(dense)
    for v in values:
        print(f"{v:.4f}")
    out = os.path.join(args.out_dir, "eigenvalues.json")
    with open(out, "w") as fh:
        json.dump(
            {
                "hamiltonian": args.ham,
                "n_qubits": h.n_qubits,
                "eigenvalues": [float(v) for v in values],
            },
            fh,
            indent=1,
        )
    return 0


def _load_config(path: str, cls, **override):
    """``cls`` read from the JSON file ``path``, then each non-None override."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"config {path!r} is not valid JSON: {exc}") from exc
    try:
        override = {k: v for k, v in override.items() if v is not None}
        return replace(cls.from_dict(doc), **override)
    except (ValueError, TypeError, KeyError) as exc:
        raise UsageError(f"invalid config: {exc}") from exc


def _check_hamiltonian(cfg: VqeConfig) -> Hamiltonian:
    """Load the configured Hamiltonian now, so a bad one fails before any run."""
    h = _load_hamiltonian(cfg.hamiltonian)
    if h.n_qubits != cfg.ansatz.n_qubits:
        raise UsageError(
            f"{h.n_qubits}-qubit Hamiltonian for a "
            f"{cfg.ansatz.n_qubits}-qubit ansatz"
        )
    return h


def cmd_run(args) -> int:
    cfg = _load_config(args.config, VqeConfig, seed=args.seed)
    groups, _ = group_terms(_check_hamiltonian(cfg))
    result = run_vqe(cfg)
    trace_path = os.path.join(args.out_dir, "trace.csv")
    result.trace.to_csv(trace_path)
    doc = {
        "config": cfg.to_dict(),
        "bit_order": RESOLVED_BIT_ORDER.value,
        "energy_ha": result.energy,
        "band": result.band,
        "complete": result.complete,
        "evaluations": result.evaluations,
        "params": [float(p) for p in result.params],
        "trace_csv": "trace.csv",
        "final_counts": _counts_documents(groups, result.final_counts),
    }
    with open(os.path.join(args.out_dir, "result.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"energy {result.energy:.4f} Ha  band {result.band}  "
          f"evaluations {result.evaluations}")
    if result.stopped:
        print(f"stopped: {result.stopped}", file=sys.stderr)
    return 0 if result.complete else 1


def cmd_batch(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    experiment = _load_config(args.config, ExperimentConfig, base_seed=args.seed)
    groups, _ = group_terms(_check_hamiltonian(experiment.vqe))
    results = execute_batch(experiment, workers=args.workers)
    records = [r for r, _ in results]

    _write_csv(os.path.join(args.out_dir, "runs.csv"), RunRecord.FIELDS,
               (r.to_row() for r in records), args.no_timestamp)

    counts_dir = os.path.join(args.out_dir, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    for name in os.listdir(counts_dir):  # an earlier batch's counts go first
        if COUNTS_FILE.fullmatch(name):
            os.remove(os.path.join(counts_dir, name))
    for record, final_counts in results:
        for g, doc in enumerate(_counts_documents(groups, final_counts, record)):
            path = os.path.join(counts_dir, f"run{record.run_index:04d}_g{g}.json")
            save_counts(path, doc)

    # group by group, each group's runs in run order; a run with no counts
    # (failed, or a non-finite energy) has no rows
    sim_rows = similarity_rows([
        (final_counts[g], group.basis, record.energy_ha, g)
        for g, group in enumerate(groups)
        for record, final_counts in results
        if final_counts
    ])
    _write_csv(os.path.join(args.out_dir, "similarity.csv"), SIMILARITY_FIELDS,
               sim_rows, args.no_timestamp)

    if experiment.emit_svg:
        ok = [r for r in records if r.status == "ok" and math.isfinite(r.energy_ha)]
        write_svg_scatter(
            os.path.join(args.out_dir, "energies.svg"),
            [(r.run_index, r.energy_ha) for r in ok],
            "run index",
            "energy (Ha)",
            "final energies",
            hline=-1.8670,
        )
        write_svg_scatter(
            os.path.join(args.out_dir, "similarity.svg"),
            [(float(row[0]), float(row[1])) for row in sim_rows],
            "energy (Ha)",
            "avg J-T similarity",
            "batch-averaged similarity",
        )
    n_failed = sum(1 for r in records if r.status.startswith("failed"))
    print(f"{len(records)} runs ({n_failed} failed) -> {args.out_dir}")
    return 0


def _counts_inputs(args) -> list[tuple[str, CountsVector, tuple[str, ...], dict]]:
    """(name, counts, per-qubit basis, metadata) for every input source."""
    entries = []
    if args.fixtures:
        for name in args.fixtures:
            set_members = (
                [f"{name[-1].upper()}0", f"{name[-1].upper()}1"]
                if name.lower().startswith("set")
                else [name]
            )
            for member in set_members:
                try:
                    cv = fixtures.fixture_counts(member)
                except KeyError as exc:
                    raise UsageError(str(exc)) from exc
                entries.append(
                    (member, cv, fixtures.fixture_basis(member), {})
                )
    for path in args.files or []:
        try:
            cv, basis, meta = load_counts(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read counts file {path!r}: {exc}") from exc
        entries.append((os.path.basename(path), cv, tuple(basis), meta))
    if not entries:
        raise UsageError("no counts supplied (pass files or --fixtures)")
    return entries


def cmd_energy_from_counts(args) -> int:
    h = _load_hamiltonian(args.ham)
    groups, _ = group_terms(h)
    entries = _counts_inputs(args)
    shots = {cv.shots for _, cv, _, _ in entries}
    if len(shots) > 1:
        print(f"warning: shot counts differ across inputs: {sorted(shots)}",
              file=sys.stderr)
    counts_by_group: dict[int, CountsVector] = {}
    for name, cv, basis, _ in entries:
        if cv.n_qubits != h.n_qubits:
            raise UsageError(
                f"{name}: {cv.n_qubits}-qubit counts for a "
                f"{h.n_qubits}-qubit Hamiltonian"
            )
        matches = [g.group_id for g in groups if g.basis == tuple(basis)]
        if not matches:
            raise UsageError(
                f"{name}: basis {''.join(basis)} matches no measurement group"
            )
        gid = matches[0]
        if gid in counts_by_group:
            raise UsageError(
                f"{name}: duplicate counts for measurement group {gid}"
            )
        counts_by_group[gid] = cv
    missing = [g.group_id for g in groups if g.group_id not in counts_by_group]
    if missing:
        raise UsageError(f"missing counts for measurement groups {missing}")
    est = energy_from_counts(
        h,
        groups,
        [counts_by_group[g.group_id] for g in groups],
        BitOrder.Q0_RIGHTMOST,
    )
    print(f"{est.energy:.4f}")
    return 0


def cmd_similarity(args) -> int:
    if args.batch_dir:
        if not os.path.isdir(args.batch_dir):
            raise UsageError(f"no batch directory {args.batch_dir!r}")
        counts_dir = os.path.join(args.batch_dir, "counts")
        root = counts_dir if os.path.isdir(counts_dir) else args.batch_dir
        files = sorted(
            os.path.join(root, f) for f in os.listdir(root) if f.endswith(".json")
        )
        if not files:
            raise UsageError(f"no counts files under {root!r}")
        args.files = (args.files or []) + files
    entries = _counts_inputs(args)
    dims = {cv.n_qubits for _, cv, _, _ in entries}
    if len(dims) > 1:
        raise UsageError(f"mixed qubit counts across inputs: {sorted(dims)}")

    # in input order; a file without a group id takes its basis's sorted rank
    bases = sorted({basis for _, _, basis, _ in entries})
    rows = similarity_rows(
        [
            (cv, basis, meta.get("energy_ha"),
             int(meta.get("group_id", bases.index(basis))))
            for _, cv, basis, meta in entries
        ],
        MEASURES if args.measure == "both" else (args.measure,),
    )
    out = os.path.join(args.out_dir, "similarity.csv")
    _write_csv(out, SIMILARITY_FIELDS, rows, args.no_timestamp)
    print(out)
    return 0


# ----------------------------------------------------------------- parser --


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".", help="output directory")
    common.add_argument("--no-timestamp", action="store_true",
                        help="suppress the CSV timestamp header line")

    parser = argparse.ArgumentParser(
        prog="h2vqe",
        description="VQE simulation benchmark for the H2 molecule",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eigen", parents=[common],
                       help="exact eigenvalues of a Hamiltonian")
    p.add_argument("--ham", required=True,
                   help="'4q', '2q', or a Hamiltonian JSON path")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("run", parents=[common], help="one VQE run")
    p.add_argument("--config", required=True, help="VQE config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", parents=[common],
                       help="seeded batch of VQE runs")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config base_seed")
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("energy-from-counts", parents=[common],
                       help="energy from per-group counts files")
    p.add_argument("--ham", default="4q")
    p.add_argument("--fixtures", nargs="*", default=[],
                   help="bundled sets, e.g. setA or A0 A1")
    p.add_argument("files", nargs="*", help="counts JSON files")
    p.set_defaults(func=cmd_energy_from_counts)

    p = sub.add_parser("similarity", parents=[common],
                       help="batch-averaged similarity CSV")
    p.add_argument("--measure", choices=(*MEASURES, "both"), default="both")
    p.add_argument("--batch-dir", default=None,
                   help="directory with counts JSON files (or a batch out-dir)")
    p.add_argument("--fixtures", nargs="*", default=[],
                   help="bundled count sets, e.g. A0 B0 C0")
    p.add_argument("files", nargs="*", help="counts JSON files")
    p.set_defaults(func=cmd_similarity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "out_dir", None):
            try:
                os.makedirs(args.out_dir, exist_ok=True)
            except OSError as exc:
                raise UsageError(
                    f"cannot create --out-dir {args.out_dir!r}: {exc.strerror}"
                ) from exc
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
