"""Similarity measures over measured-probability vectors and energy bands.

Two measures: the Jaccard-Tanimoto index sum(min)/sum(max), and the scalar
product of the square-rooted vectors (an upper bound on state fidelity,
since sqrt-probability vectors are unit norm). Batch profiling averages
each vector's similarity against every vector in its batch, itself
included. Energies classify into a ground basin, an excited band, or an
erroneous remainder.
"""

from __future__ import annotations

import numpy as np

from .sim import CountsVector

GROUND_BASIN = (-1.90, -1.70)
EXCITED_BAND = (-1.30, -1.20)

BAND_GROUND = "ground"
BAND_EXCITED = "excited"
BAND_ERRONEOUS = "erroneous"


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
    batch, self included.

    Each vector's row of measures is built and averaged on its own, so
    memory stays O(m d) for m vectors of length d; both measures are
    elementwise symmetric, so each row equals that row of the m x m matrix.
    """
    row_fn = _ROW_MEASURES.get(measure)
    if row_fn is None:
        raise ValueError(f"unknown measure {measure!r}; use 'jt' or 'sqrtdot'")
    vectors = np.array([probability_vector(b) for b in batch])
    if not len(vectors):
        raise ValueError("empty batch")
    return np.array([row_fn(u, vectors).mean() for u in vectors])


def classify_energy(energy: float) -> str:
    """Band of an H2 energy in Hartree; both bands are closed intervals."""
    if not np.isfinite(energy):
        raise ValueError("non-finite energy")
    if GROUND_BASIN[0] <= energy <= GROUND_BASIN[1]:
        return BAND_GROUND
    if EXCITED_BAND[0] <= energy <= EXCITED_BAND[1]:
        return BAND_EXCITED
    return BAND_ERRONEOUS
