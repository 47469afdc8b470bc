"""Derivative-free minimizers: SPSA, COBYLA, Nelder-Mead, and Powell.

All four run behind :func:`minimize` and record every objective call in a
:class:`Trace`; the reported best value is the minimum over recorded
evaluations, which for stochastic objectives is the natural "final energy"
of a run. ``max_iterations`` counts method-level iterations (SPSA steps of
two evaluations, COBYLA trust-region steps, Nelder-Mead iterations, Powell
cycles); ``tolerance`` maps to the COBYLA final trust radius, the
Nelder-Mead value spread, and the Powell per-cycle improvement, and is
ignored by SPSA, which is budget-terminated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import fields

METHODS = ("spsa", "cobyla", "nelder-mead", "powell")


@dataclass
class Trace:
    """Every objective evaluation of one run, in call order."""

    entries: list[tuple[int, np.ndarray, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def append(self, x: np.ndarray, value: float) -> None:
        self.entries.append((len(self.entries), np.array(x, dtype=float), value))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, _, v in self.entries])

    @property
    def best_value(self) -> float:
        return float(min(v for _, _, v in self.entries))

    @property
    def best_x(self) -> np.ndarray:
        _, x, _ = min(self.entries, key=lambda e: e[2])
        return x.copy()

    def to_csv(self, path: str) -> None:
        """Columns: eval_index, energy_ha, then one column per parameter."""
        dim = len(self.entries[0][1]) if self.entries else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["eval_index", "energy_ha"] + [f"param_{i}" for i in range(dim)]
            )
            for idx, x, v in self.entries:
                writer.writerow([idx, repr(v)] + [repr(float(p)) for p in x])


class OptimizationAbort(RuntimeError):
    """Raised on a non-finite objective value; carries the best so far."""

    def __init__(self, message: str, trace: Trace):
        super().__init__(message)
        self.trace = trace
        finite = [e for e in trace.entries if math.isfinite(e[2])]
        self.x_best = min(finite, key=lambda e: e[2])[1].copy() if finite else None
        self.f_best = min((e[2] for e in finite), default=math.nan)


class _TracedObjective:
    """Wraps the raw objective: counts calls, records them, rejects NaN."""

    def __init__(self, fn, trace: Trace):
        self.fn = fn
        self.trace = trace

    def __call__(self, x: np.ndarray) -> float:
        value = float(self.fn(x))
        self.trace.append(x, value)
        if not math.isfinite(value):
            raise OptimizationAbort(
                f"objective returned {value} at evaluation {len(self.trace) - 1}",
                self.trace,
            )
        return value


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = fields.choice("spsa", METHODS, caseless=True)
    max_iterations: int = fields.bounded(150, ge=1)
    tolerance: float = fields.bounded(1e-4, gt=0.0)
    # SPSA gains a_k = a/(A+k+1)^alpha, c_k = c/(k+1)^gamma, neither growing in k
    spsa_a: float = 2.0
    spsa_c: float = fields.bounded(0.1, gt=0.0)
    spsa_stability: float = fields.bounded(10.0, ge=0.0)
    spsa_alpha: float = fields.bounded(0.602, ge=0.0)
    spsa_gamma: float = fields.bounded(0.101, ge=0.0)
    spsa_calibrate: bool = False
    spsa_calibration_pairs: int = fields.bounded(25, ge=0)
    spsa_target_step: float = fields.bounded(0.5, gt=0.0)
    # COBYLA
    rhobeg: float = fields.bounded(1.0, gt=0.0)
    # Nelder-Mead: expand past the reflection, contract and shrink within it
    nm_reflection: float = fields.bounded(1.0, gt=0.0)
    nm_expansion: float = fields.bounded(2.0, gt=1.0)
    nm_contraction: float = fields.bounded(0.5, gt=0.0, lt=1.0)
    nm_shrink: float = fields.bounded(0.5, ge=0.0, le=1.0)
    nm_step: float = fields.bounded(0.5, gt=0.0)
    # Powell
    powell_line_tolerance: float = fields.bounded(1e-6, gt=0.0)
    powell_step: float = fields.bounded(1.0, gt=0.0)

    __post_init__ = fields.validate

    @classmethod
    def from_dict(cls, doc: dict) -> "OptimizerConfig":
        return fields.parse(cls, doc, "optimizer")

    to_dict = fields.to_dict


def spsa_minimize(f, x0, cfg: OptimizerConfig, seed=None):
    """Simultaneous-perturbation descent: two evaluations per iteration.

    The gradient estimate at step k is (f(x+c_k D) - f(x-c_k D)) / (2 c_k)
    times the Rademacher vector D. With calibration enabled,
    ``spsa_calibration_pairs`` paired probes at x0 (zero pairs skip it)
    rescale the gain ``a`` so the first step has magnitude
    ``spsa_target_step`` per component.
    """
    rng = np.random.default_rng(seed)
    trace = Trace()
    fn = _TracedObjective(f, trace)
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x0 must be a non-empty 1-D vector")
    a = cfg.spsa_a
    big_a = cfg.spsa_stability
    if cfg.spsa_calibrate and cfg.spsa_calibration_pairs > 0:
        magnitudes = []
        for _ in range(cfg.spsa_calibration_pairs):
            delta = rng.integers(0, 2, size=x.size) * 2.0 - 1.0
            fp = fn(x + cfg.spsa_c * delta)
            fm = fn(x - cfg.spsa_c * delta)
            magnitudes.append(abs(fp - fm) / (2.0 * cfg.spsa_c))
        mean_mag = float(np.mean(magnitudes))
        if mean_mag > 0:
            a = cfg.spsa_target_step * (big_a + 1.0) ** cfg.spsa_alpha / mean_mag
            trace.notes.append(f"calibrated a={a:.6g}")
    for k in range(cfg.max_iterations):
        ak = a / (big_a + k + 1.0) ** cfg.spsa_alpha
        ck = cfg.spsa_c / (k + 1.0) ** cfg.spsa_gamma
        delta = rng.integers(0, 2, size=x.size) * 2.0 - 1.0
        fp = fn(x + ck * delta)
        fm = fn(x - ck * delta)
        # 1/delta_i = delta_i for Rademacher entries
        x = x - ak * (fp - fm) / (2.0 * ck) * delta
    return trace.best_x, trace.best_value, trace


# COBYLA simplex-acceptability bounds: each edge at most _COBYLA_BETA * rho
# long and at least _COBYLA_ALPHA * rho from the span of the other edges;
# beta > 2 keeps a fresh simplex acceptable across one rho halving.
_COBYLA_ALPHA = 0.25
_COBYLA_BETA = 2.1


def cobyla_minimize(f, x0, cfg: OptimizerConfig, seed=None):
    """Linear-approximation trust-region descent over an (n+1)-simplex.

    Each iteration either repairs simplex geometry (one evaluation at
    0.5*rho along the most poorly covered direction) or steps to the
    trust-radius boundary against the interpolated gradient. rho halves
    whenever a trust step achieves less than a tenth of its predicted
    decrease, from ``rhobeg`` down to ``tolerance``. Unconstrained. The
    vertices are the rows of one array, sorted by value at each iteration.

    One inverse of E, whose rows are the edges from the best vertex, serves
    each iteration. Column j of E^-1 is orthogonal to every other edge, so
    edge j lies 1/||column j|| from their span and the normalized column is
    its repair direction. The simplex is acceptable when every edge is at
    most ``_COBYLA_BETA * rho`` long and at least ``_COBYLA_ALPHA * rho``
    from that span. The interpolated gradient is E^-1 (f_j - f_0).
    """
    del seed  # deterministic method; accepted for interface uniformity
    trace = Trace()
    fn = _TracedObjective(f, trace)
    x0 = np.array(x0, dtype=float)
    n = x0.size
    if x0.ndim != 1 or n < 1:
        raise ValueError("x0 must be a non-empty 1-D vector")
    rho = cfg.rhobeg
    rhoend = cfg.tolerance
    pts = np.vstack([x0, x0 + rho * np.eye(n)])
    vals = np.array([fn(p) for p in pts])
    for _ in range(cfg.max_iterations):
        order = vals.argsort()
        pts, vals = pts[order], vals[order]
        g, repair = _cobyla_geometry(pts[1:] - pts[0], vals[1:] - vals[0], rho)
        if repair is not None:
            bad, direction = repair
            cand = pts[0] + 0.5 * rho * direction
            vals[bad + 1] = fn(cand)
            pts[bad + 1] = cand
            continue
        gnorm = math.sqrt(g.dot(g))
        if gnorm * rho < 1e-14:
            if rho <= rhoend:
                break
            rho = max(0.5 * rho, rhoend)
            continue
        cand = pts[0] - rho * g / gnorm
        predicted = rho * gnorm
        fc = fn(cand)
        if fc < vals[-1]:
            pts[-1] = cand
            vals[-1] = fc
        if vals[0] - fc <= 0.1 * predicted:
            if rho <= rhoend:
                break
            rho = max(0.5 * rho, rhoend)
    return trace.best_x, trace.best_value, trace


def _cobyla_geometry(edges: np.ndarray, dvals: np.ndarray, rho: float):
    """Interpolated gradient and geometry repair from one inverse of E.

    Returns ``(g, repair)``. ``repair`` is None for an acceptable simplex,
    else ``(bad, direction)``: the first violating edge (the longest one if
    any is too long) and a unit step direction orthogonal to the other
    edges, pointing downhill along ``g``.
    """
    try:
        inv = np.linalg.inv(edges)
    except np.linalg.LinAlgError:
        # singular E: the left null vector weights the dependent edges; the
        # right null vector is orthogonal to every edge, and no gradient is
        # known along it
        u, _, vt = np.linalg.svd(edges)
        return None, (int(np.argmax(np.abs(u[:, -1]))), vt[-1])
    g = inv @ dvals
    # the column and row norms as np.linalg.norm takes them for real input
    dist = 1.0 / np.sqrt(np.add.reduce(inv * inv, axis=0))
    lengths = np.sqrt(np.add.reduce(edges * edges, axis=1))
    bad = lengths.argmax()
    if not lengths[bad] > _COBYLA_BETA * rho:
        close = dist < _COBYLA_ALPHA * rho
        bad = close.argmax()
        if not close[bad]:
            return g, None
    direction = inv[:, bad] * dist[bad]
    return g, (int(bad), -direction if g @ direction > 0 else direction)


def shrink_simplex(points: list[np.ndarray], factor: float) -> list[np.ndarray]:
    """Pull every non-best vertex toward points[0] by the given factor."""
    best = points[0]
    return [best.copy()] + [best + factor * (p - best) for p in points[1:]]


def nelder_mead_minimize(f, x0, cfg: OptimizerConfig, seed=None):
    """Standard downhill simplex with reflect/expand/contract/shrink."""
    del seed
    trace = Trace()
    fn = _TracedObjective(f, trace)
    x0 = np.array(x0, dtype=float)
    n = x0.size
    if x0.ndim != 1 or n < 1:
        raise ValueError("x0 must be a non-empty 1-D vector")
    alpha, gamma = cfg.nm_reflection, cfg.nm_expansion
    beta, sigma = cfg.nm_contraction, cfg.nm_shrink
    pts = [x0.copy()] + [x0 + cfg.nm_step * np.eye(n)[i] for i in range(n)]
    vals = [fn(p) for p in pts]
    for _ in range(cfg.max_iterations):
        order = np.argsort(vals)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        if vals[-1] - vals[0] < cfg.tolerance:
            break
        centroid = np.mean(pts[:-1], axis=0)
        reflected = centroid + alpha * (centroid - pts[-1])
        fr = fn(reflected)
        if fr < vals[0]:
            expanded = centroid + gamma * (reflected - centroid)
            fe = fn(expanded)
            if fe < fr:
                pts[-1], vals[-1] = expanded, fe
            else:
                pts[-1], vals[-1] = reflected, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = reflected, fr
        else:
            inside = fr >= vals[-1]
            anchor = pts[-1] if inside else reflected
            contracted = centroid + beta * (anchor - centroid)
            fc = fn(contracted)
            if fc < min(fr, vals[-1]):
                pts[-1], vals[-1] = contracted, fc
            else:
                pts = shrink_simplex(pts, sigma)
                vals = [vals[0]] + [fn(p) for p in pts[1:]]
    return trace.best_x, trace.best_value, trace


_BRACKET_EXPANSIONS = 40


def _bracket(fn, h: float, f0: float):
    """Bracket a 1-D minimum of fn(t) around t=0, trying both signs.

    Returns (a, b) with a < b enclosing a minimum, or None if no descent
    was found (e.g. a locally constant or rising objective).
    """
    for step in (h, -h):
        t1 = step
        f1 = fn(t1)
        if f1 >= f0:
            continue
        t0, expand = 0.0, 2.0
        for _ in range(_BRACKET_EXPANSIONS):
            t2 = t1 + (t1 - t0) * expand
            f2 = fn(t2)
            if f2 >= f1:
                return (min(t0, t2), max(t0, t2))
            t0, t1, f1 = t1, t2, f2
        return (min(t0, t1 + (t1 - t0) * expand), max(t0, t1 + (t1 - t0) * expand))
    return None


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(fn, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section search for min of fn on [a, b]; returns (t, fn(t))."""
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol and a < c < d < b:  # until [a, b] has no two inner floats
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


def powell_minimize(f, x0, cfg: OptimizerConfig, seed=None):
    """Powell's direction-set method with golden-section line searches.

    Cycles exact-ish 1-D minimizations along a direction set seeded with
    the coordinate axes; after each cycle the direction of largest single
    decrease is replaced by the cycle's net displacement. Terminates when
    a full cycle improves the objective by less than ``tolerance``.
    """
    del seed
    trace = Trace()
    fn = _TracedObjective(f, trace)
    x = np.array(x0, dtype=float)
    n = x.size
    if x.ndim != 1 or n < 1:
        raise ValueError("x0 must be a non-empty 1-D vector")
    directions = [np.eye(n)[i].copy() for i in range(n)]
    fx = fn(x)

    def line_minimize(x, fx, direction):
        line = lambda t: fn(x + t * direction)
        bracket = _bracket(line, cfg.powell_step, fx)
        if bracket is None:
            # no descent found while bracketing: scan a few fixed steps
            trace.notes.append("line search failed to bracket; fixed-step scan")
            best_t, best_f = 0.0, fx
            for t in (-0.5, -0.25, 0.25, 0.5):
                ft = line(t * cfg.powell_step)
                if ft < best_f:
                    best_t, best_f = t * cfg.powell_step, ft
            return x + best_t * direction, best_f
        t, ft = _golden_section(line, *bracket, tol=cfg.powell_line_tolerance)
        if ft < fx:
            return x + t * direction, ft
        return x, fx

    for _ in range(cfg.max_iterations):
        x_start, f_start = x.copy(), fx
        largest_dec, largest_i = 0.0, 0
        for i, direction in enumerate(directions):
            f_before = fx
            x, fx = line_minimize(x, fx, direction)
            if f_before - fx > largest_dec:
                largest_dec, largest_i = f_before - fx, i
        if f_start - fx <= cfg.tolerance:
            break
        net = x - x_start
        norm = np.linalg.norm(net)
        if norm > 1e-12:
            net = net / norm
            x, fx = line_minimize(x, fx, net)
            directions[largest_i] = net
    return trace.best_x, trace.best_value, trace


_DISPATCH = {
    "spsa": spsa_minimize,
    "cobyla": cobyla_minimize,
    "nelder-mead": nelder_mead_minimize,
    "powell": powell_minimize,
}


def minimize(f, x0, cfg: OptimizerConfig, seed=None):
    """Run the configured method; returns (x_best, f_best, Trace)."""
    return _DISPATCH[cfg.method](f, x0, cfg, seed=seed)
