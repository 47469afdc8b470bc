"""Similarity measures: trivial identities, fixture values, and laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2vqe import fixtures
from h2vqe.similarity import (
    BAND_ERRONEOUS,
    BAND_EXCITED,
    BAND_GROUND,
    batch_average_similarity,
    classify_energy,
    jt_index,
    probability_vector,
    sqrt_dot,
)


def oracle_jt(xs, ys):
    """Plain-loop reference, independent of the numpy implementation."""
    num = sum(min(a, b) for a, b in zip(xs, ys))
    den = sum(max(a, b) for a, b in zip(xs, ys))
    return num / den


def oracle_sqrt_dot(xs, ys):
    return sum(math.sqrt(a * b) for a, b in zip(xs, ys))


def normalized(name):
    raw = fixtures.raw_counts(name)
    return [c / fixtures.FIXTURE_SHOTS for c in raw]


class TestJtIndex:
    def test_identical(self):
        u = np.array([0.25, 0.25, 0.5])
        assert jt_index(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert jt_index([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5]) == 0.0

    def test_fixture_a0_vs_c0(self):
        a0, c0 = normalized("A0"), normalized("C0")
        value = jt_index(a0, c0)
        assert value == pytest.approx(oracle_jt(a0, c0), abs=1e-12)
        assert value < 0.05

    def test_fixture_a0_vs_b0(self):
        a0, b0 = normalized("A0"), normalized("B0")
        value = jt_index(a0, b0)
        assert value == pytest.approx(oracle_jt(a0, b0), abs=1e-12)
        assert value > 0.8

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jt_index([0.0, 0.0], [0.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            jt_index([1.0], [0.5, 0.5])


class TestSqrtDot:
    def test_identical(self):
        u = np.array([0.1, 0.2, 0.3, 0.4])
        assert sqrt_dot(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        assert sqrt_dot([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_uniform_vs_concentrated(self):
        uniform = np.full(16, 1 / 16)
        concentrated = np.zeros(16)
        concentrated[3] = 1.0
        assert sqrt_dot(uniform, concentrated) == pytest.approx(0.25, abs=1e-12)

    def test_fixture_values(self):
        a0, b0, c0 = normalized("A0"), normalized("B0"), normalized("C0")
        ab = sqrt_dot(a0, b0)
        ac = sqrt_dot(a0, c0)
        assert ab == pytest.approx(oracle_sqrt_dot(a0, b0), abs=1e-12)
        assert ac == pytest.approx(oracle_sqrt_dot(a0, c0), abs=1e-12)
        assert ab > 0.95
        assert ac < 0.3


class TestBatchAveraging:
    def test_identical_batch(self):
        u = np.array([0.5, 0.25, 0.25])
        averages = batch_average_similarity([u, u, u], "jt")
        assert np.allclose(averages, 1.0)

    def test_fixture_ranking(self):
        batch = [normalized("A0"), normalized("B0"), normalized("C0")]
        for measure in ("jt", "sqrtdot"):
            avg = batch_average_similarity(batch, measure)
            assert avg[0] > avg[2] and avg[1] > avg[2]

    def test_self_inclusion_discount(self):
        # 9 identical vectors + 1 orthogonal: majority averages 0.9, not 1
        major = np.zeros(4)
        major[0] = 1.0
        outlier = np.zeros(4)
        outlier[3] = 1.0
        batch = [major] * 9 + [outlier]
        avg = batch_average_similarity(batch, "jt")
        assert np.allclose(avg[:9], 0.9, atol=1e-12)
        assert avg[9] == pytest.approx(0.1, abs=1e-12)

    def test_single_vector(self):
        avg = batch_average_similarity([np.array([0.5, 0.5])], "sqrtdot")
        assert avg[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            batch_average_similarity([], "jt")

    def test_unknown_measure(self):
        with pytest.raises(ValueError, match="'cosine'.*'jt' or 'sqrtdot'"):
            batch_average_similarity([np.array([0.5, 0.5])], "cosine")

    @pytest.mark.parametrize("dim", [4, 16])
    def test_equals_pairwise_measures(self, dim):
        # the row-vectorized matrix reproduces the pairwise measures bit for bit
        rng = np.random.default_rng(dim)
        counts = rng.multinomial(4096, rng.dirichlet(np.full(dim, 0.5)), size=9)
        batch = [c / 4096 for c in counts]
        for measure, fn in (("jt", jt_index), ("sqrtdot", sqrt_dot)):
            sims = np.array([[fn(u, v) for v in batch] for u in batch])
            avg = batch_average_similarity(batch, measure)
            assert np.array_equal(avg, sims.mean(axis=1))


    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_equals_matrix_reference(self, m):
        # the m x m matrix of every pair, built by broadcasting, then its
        # row means: the batch average matches it bit for bit
        rng = np.random.default_rng([31, m])
        for dim in (2, 5, 16, 33):
            batch = rng.dirichlet(np.full(dim, 0.3), size=m)
            u, v = batch[:, None, :], batch[None, :, :]
            matrices = {
                "jt": np.minimum(u, v).sum(2) / np.maximum(u, v).sum(2),
                "sqrtdot": np.sqrt(u * v).sum(2),
            }
            for measure, sims in matrices.items():
                avg = batch_average_similarity(list(batch), measure)
                assert np.array_equal(avg, sims.mean(axis=1))


class TestClassification:
    def test_reference_energies(self):
        assert classify_energy(-1.842) == BAND_GROUND
        assert classify_energy(-1.2526) == BAND_EXCITED
        assert classify_energy(-1.5) == BAND_ERRONEOUS

    def test_boundaries_inclusive(self):
        assert classify_energy(-1.90) == BAND_GROUND
        assert classify_energy(-1.70) == BAND_GROUND
        assert classify_energy(-1.20) == BAND_EXCITED

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            classify_energy(math.nan)


class TestProbabilityVector:
    def test_counts_accepted(self):
        assert np.allclose(
            probability_vector(fixtures.fixture_counts("A0")).sum(), 1.0
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            probability_vector([-0.1, 1.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            probability_vector([0.5, 0.6])


def simplex_vectors(dim=8):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=dim,
        max_size=dim,
    ).filter(lambda xs: sum(xs) > 1e-6).map(
        lambda xs: np.array(xs) / sum(xs)
    )


@settings(max_examples=200, deadline=None)
@given(simplex_vectors(), simplex_vectors())
def test_law_symmetry_and_bounds(u, v):
    assert jt_index(u, v) == jt_index(v, u)
    assert sqrt_dot(u, v) == pytest.approx(sqrt_dot(v, u), abs=1e-15)
    assert 0.0 <= jt_index(u, v) <= 1.0
    assert 0.0 <= sqrt_dot(u, v) <= 1.0 + 1e-12


@settings(max_examples=100, deadline=None)
@given(simplex_vectors())
def test_law_identity(u):
    assert jt_index(u, u) == pytest.approx(1.0, abs=1e-12)
    assert sqrt_dot(u, u) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(simplex_vectors(), simplex_vectors(), st.randoms(use_true_random=False))
def test_law_permutation_equivariance(u, v, rand):
    order = list(range(len(u)))
    rand.shuffle(order)
    pu, pv = u[order], v[order]
    assert jt_index(pu, pv) == pytest.approx(jt_index(u, v), abs=1e-15)
    assert sqrt_dot(pu, pv) == pytest.approx(sqrt_dot(u, v), abs=1e-15)
