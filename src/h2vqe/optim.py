"""Derivative-free minimizers: SPSA, COBYLA, Nelder-Mead, and Powell.

All four run behind :func:`minimize` through one driver, :func:`_minimizer`,
which checks ``x0``, records every objective call in a :class:`Trace`, stops
at a non-finite value, and returns the trace's best point. The reported best
value is the minimum over recorded finite evaluations, which for stochastic
objectives is the natural "final energy" of a run. ``max_iterations`` counts
method-level iterations (SPSA steps of two evaluations, COBYLA trust-region
steps, Nelder-Mead iterations, Powell cycles); ``tolerance`` maps to the
COBYLA final trust radius, the Nelder-Mead value spread, and the Powell
per-cycle improvement, and is ignored by SPSA, which is budget-terminated.
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

    # the best point skips non-finite values, which only an aborted run records
    @property
    def best_value(self) -> float:
        return float(min((v for _, _, v in self.entries if math.isfinite(v)),
                         default=math.nan))

    @property
    def best_x(self) -> np.ndarray | None:
        finite = [e for e in self.entries if math.isfinite(e[2])]
        return min(finite, key=lambda e: e[2])[1].copy() if finite else None

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
    """Raised on a non-finite objective value; carries the trace's best
    point so far (``x_best`` None and ``f_best`` nan if no value was finite)."""

    def __init__(self, message: str, trace: Trace):
        super().__init__(message)
        self.trace = trace
        self.x_best, self.f_best = trace.best_x, trace.best_value


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


def _minimizer(method):
    """Wrap ``method(fn, x0, cfg, seed, trace)``, one algorithm, as the public
    ``(f, x0, cfg, seed=None) -> (x_best, f_best, trace)``: ``fn`` records each
    call of ``f`` in ``trace`` and raises :class:`OptimizationAbort` at the
    first non-finite value."""

    def run(f, x0, cfg: OptimizerConfig, seed=None):
        x0 = np.array(x0, dtype=float)
        if x0.ndim != 1 or x0.size < 1:
            raise ValueError("x0 must be a non-empty 1-D vector")
        trace = Trace()

        def fn(x: np.ndarray) -> float:
            value = float(f(x))
            trace.append(x, value)
            if not math.isfinite(value):
                raise OptimizationAbort(f"objective returned {value} at evaluation "
                                        f"{len(trace) - 1}", trace)
            return value

        method(fn, x0, cfg, seed, trace)
        return trace.best_x, trace.best_value, trace

    run.__name__ = run.__qualname__ = method.__name__
    run.__doc__ = method.__doc__
    return run


@_minimizer
def spsa_minimize(fn, x, cfg: OptimizerConfig, seed, trace: Trace):
    """Simultaneous-perturbation descent: two evaluations per iteration.

    The gradient estimate at step k is (f(x+c_k D) - f(x-c_k D)) / (2 c_k)
    times the Rademacher vector D. With calibration enabled,
    ``spsa_calibration_pairs`` paired probes at x0 (zero pairs skip it)
    rescale the gain ``a`` so the first step has magnitude
    ``spsa_target_step`` per component.
    """
    rng = np.random.default_rng(seed)
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


# COBYLA simplex-acceptability bounds: each edge at most _COBYLA_BETA * rho
# long and at least _COBYLA_ALPHA * rho from the span of the other edges;
# beta > 2 keeps a fresh simplex acceptable across one rho halving.
_COBYLA_ALPHA = 0.25
_COBYLA_BETA = 2.1


@_minimizer
def cobyla_minimize(fn, x0, cfg: OptimizerConfig, seed, trace: Trace):
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
    rho = cfg.rhobeg
    rhoend = cfg.tolerance
    pts = np.vstack([x0, x0 + rho * np.eye(x0.size)])
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
        # negated comparisons, so that a NaN gradient or value never shrinks rho
        if not gnorm * rho < 1e-14:
            cand = pts[0] - rho * g / gnorm
            fc = fn(cand)
            if fc < vals[-1]:
                pts[-1] = cand
                vals[-1] = fc
            if not vals[0] - fc <= 0.1 * (rho * gnorm):
                continue
        # a zero gradient or a poor step: rho halves, or the search ends
        if rho <= rhoend:
            break
        rho = max(0.5 * rho, rhoend)


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


def shrink_simplex(points: np.ndarray, factor: float) -> np.ndarray:
    """A copy of the simplex whose rows after row 0 (the best vertex) are
    pulled toward it by the given factor."""
    pts = np.array(points, dtype=float)
    pts[1:] = pts[0] + factor * (pts[1:] - pts[0])
    return pts


@_minimizer
def nelder_mead_minimize(fn, x0, cfg: OptimizerConfig, seed, trace: Trace):
    """Standard downhill simplex with reflect/expand/contract/shrink. The
    vertices are the rows of one array, sorted by value at each iteration."""
    alpha, gamma = cfg.nm_reflection, cfg.nm_expansion
    beta, sigma = cfg.nm_contraction, cfg.nm_shrink
    pts = np.vstack([x0, x0 + cfg.nm_step * np.eye(x0.size)])
    vals = np.array([fn(p) for p in pts])
    for _ in range(cfg.max_iterations):
        order = vals.argsort()
        pts, vals = pts[order], vals[order]
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
                vals[1:] = [fn(p) for p in pts[1:]]


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


@_minimizer
def powell_minimize(fn, x, cfg: OptimizerConfig, seed, trace: Trace):
    """Powell's direction-set method with golden-section line searches.

    Cycles exact-ish 1-D minimizations along a direction set seeded with
    the coordinate axes; after each cycle the direction of largest single
    decrease is replaced by the cycle's net displacement. Terminates when
    a full cycle improves the objective by less than ``tolerance``.
    """
    directions = list(np.eye(x.size))
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


_DISPATCH = {
    "spsa": spsa_minimize,
    "cobyla": cobyla_minimize,
    "nelder-mead": nelder_mead_minimize,
    "powell": powell_minimize,
}


def minimize(f, x0, cfg: OptimizerConfig, seed=None):
    """Run the configured method; returns (x_best, f_best, Trace)."""
    return _DISPATCH[cfg.method](f, x0, cfg, seed=seed)
