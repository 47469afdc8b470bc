"""Similarity measures over measured-probability vectors and energy bands.

Two measures: the Jaccard-Tanimoto index sum(min)/sum(max), and the scalar
product of the square-rooted vectors (an upper bound on state fidelity,
since sqrt-probability vectors are unit norm). Batch profiling averages
each vector's similarity against every vector in its batch, itself
included. Energies classify into a ground basin, an excited band, or an
erroneous remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sim import CountsVector

GROUND_BASIN = (-1.90, -1.70)
EXCITED_BAND = (-1.30, -1.20)

BAND_GROUND = "ground"
BAND_EXCITED = "excited"
BAND_ERRONEOUS = "erroneous"


@dataclass(frozen=True)
class EnergyBands:
    """Closed classification intervals in Hartree; must not overlap."""

    ground: tuple[float, float] = GROUND_BASIN
    excited: tuple[float, float] = EXCITED_BAND

    def __post_init__(self) -> None:
        for lo, hi in (self.ground, self.excited):
            if lo > hi:
                raise ValueError("band bounds out of order")
        if not (self.ground[1] < self.excited[0] or self.excited[1] < self.ground[0]):
            raise ValueError("bands overlap")


def probability_vector(values) -> np.ndarray:
    """Validate and return a probability vector (non-negative, sums to 1)."""
    if isinstance(values, CountsVector):
        return values.probabilities()
    p = np.asarray(values, dtype=float)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-D")
    if (p < 0).any():
        raise ValueError("negative probability")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    return p


def jt_index(u, v) -> float:
    """Jaccard-Tanimoto index sum(min(u, v)) / sum(max(u, v))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    denom = np.maximum(u, v).sum()
    if denom == 0.0:
        raise ValueError("Jaccard-Tanimoto undefined for two all-zero vectors")
    return float(np.minimum(u, v).sum() / denom)


def sqrt_dot(u, v) -> float:
    """Scalar product of the square-rooted vectors: sum(sqrt(u_i * v_i))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("length mismatch")
    return float(np.sqrt(u * v).sum())


_ROW_MEASURES = {
    "jt": lambda u, rest: np.minimum(u, rest).sum(1) / np.maximum(u, rest).sum(1),
    "sqrtdot": lambda u, rest: np.sqrt(u * rest).sum(1),
}


def batch_average_similarity(batch, measure="jt") -> np.ndarray:
    """Per-vector mean "jt" or "sqrtdot" similarity against the whole
    batch, self included."""
    row_fn = _ROW_MEASURES.get(measure)
    if row_fn is None:
        raise ValueError(f"unknown measure {measure!r}; use 'jt' or 'sqrtdot'")
    vectors = np.array([probability_vector(b) for b in batch])
    if not len(vectors):
        raise ValueError("empty batch")
    sims = np.zeros((len(vectors), len(vectors)))
    for i, u in enumerate(vectors):
        sims[i, i:] = sims[i:, i] = row_fn(u, vectors[i:])
    return sims.mean(axis=1)


def classify_energy(energy: float, bands: EnergyBands | None = None) -> str:
    if not np.isfinite(energy):
        raise ValueError("non-finite energy")
    bands = bands or EnergyBands()
    if bands.ground[0] <= energy <= bands.ground[1]:
        return BAND_GROUND
    if bands.excited[0] <= energy <= bands.excited[1]:
        return BAND_EXCITED
    return BAND_ERRONEOUS
