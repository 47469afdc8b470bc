"""Hamiltonian constants, dense matrices, grouping, and the eigen oracle."""

import json
import math

import numpy as np
import pytest

from h2vqe.pauli import (
    H2_2Q_COEFFS,
    Hamiltonian,
    PauliString,
    PauliTerm,
    check_measurable,
    eigenvalues,
    group_terms,
    h2_2qubit,
    h2_4qubit,
    load_hamiltonian,
    to_dense,
)

# classically determined spectrum of the 4-qubit operator, 3 decimals
REFERENCE_EIGENVALUES_4Q = [
    -1.867, -1.262, -1.262, -1.242, -1.242, -1.242, -1.160, -1.160,
    -0.881, -0.465, -0.465, -0.341, -0.341, -0.211, 0.000, 0.227,
]


def save_hamiltonian(h, path):
    with open(path, "w") as fh:
        json.dump(h.to_dict(), fh)


def two_qubit_block_spectrum():
    """Independent oracle: closed-form 2x2 block diagonalization.

    The 2-qubit operator couples only |00>-|11> and |01>-|10>; each block
    is avg(diag) +- sqrt(halfdiff^2 + offdiag^2).
    """
    c0, c1, c2, c3 = (H2_2Q_COEFFS[k] for k in ("c0", "c1", "c2", "c3"))
    d00 = c0 + 2 * c1 + c2
    d11 = c0 - 2 * c1 + c2
    d01 = c0 - c2
    avg, half = (d00 + d11) / 2, (d00 - d11) / 2
    r = math.sqrt(half * half + c3 * c3)
    return sorted([avg - r, avg + r, d01 - c3, d01 + c3])


class TestBuiltinHamiltonians:
    def test_4q_shape(self):
        h = h2_4qubit()
        assert len(h.terms) == 15
        assert h.n_qubits == 4

    def test_4q_identity_coefficient(self):
        assert h2_4qubit().identity_coefficient == pytest.approx(-0.80718)

    def test_4q_coefficient_sum_is_all_zeros_diagonal(self):
        # all Z-operators evaluate to +1 on |0000>; X terms are off-diagonal
        h = h2_4qubit()
        total = sum(t.coefficient for t in h.terms)
        m = to_dense(h)
        assert m[0, 0].real == pytest.approx(total, abs=1e-12)

    def test_2q_shape(self):
        h = h2_2qubit()
        assert len(h.terms) == 5
        assert h.n_qubits == 2

    def test_2q_ground_energy_matches_block_oracle(self):
        oracle = two_qubit_block_spectrum()
        ev = eigenvalues(to_dense(h2_2qubit()))
        assert ev[0] == pytest.approx(oracle[0], abs=1e-9)
        assert ev[0] == pytest.approx(-1.8671, abs=1e-3)

    def test_2q_odd_block_eigenvalues(self):
        ev = eigenvalues(to_dense(h2_2qubit()))
        # |01>/|10> block from the closed-form oracle
        c0, c2, c3 = (H2_2Q_COEFFS[k] for k in ("c0", "c2", "c3"))
        lo, hi = c0 - c2 - c3, c0 - c2 + c3
        assert lo == pytest.approx(-1.2419, abs=1e-3)
        assert hi == pytest.approx(-0.8811, abs=1e-3)
        assert np.abs(ev - lo).min() < 1e-9
        assert np.abs(ev - hi).min() < 1e-9


class TestToDense:
    def test_single_z(self):
        h = Hamiltonian(1, (PauliTerm(1.0, PauliString(("Z",))),))
        assert np.allclose(to_dense(h), np.diag([1.0, -1.0]))

    def test_single_x(self):
        h = Hamiltonian(1, (PauliTerm(1.0, PauliString(("X",))),))
        assert np.allclose(to_dense(h), np.array([[0, 1], [1, 0]]))

    def test_2q_diagonal(self):
        m = to_dense(h2_2qubit())
        assert np.allclose(
            np.diag(m).real, [-0.23039, -1.06151, -1.06151, -1.84723], atol=5e-6
        )
        assert np.allclose(m.imag, 0.0)

    def test_hermitian(self):
        for h in (h2_4qubit(), h2_2qubit()):
            m = to_dense(h)
            assert np.abs(m - m.conj().T).max() < 1e-12

    def test_qubit_cap(self):
        big = Hamiltonian(11, (PauliTerm(1.0, PauliString(("Z",) * 11)),))
        with pytest.raises(ValueError, match="cap"):
            to_dense(big)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        labels = ["II", "ZI", "IX", "ZZ", "XY"]
        for _ in range(10):
            t1 = tuple(
                PauliTerm(rng.normal(), PauliString.from_label(l)) for l in labels[:3]
            )
            t2 = tuple(
                PauliTerm(rng.normal(), PauliString.from_label(l)) for l in labels[2:]
            )
            h1, h2 = Hamiltonian(2, t1), Hamiltonian(2, t2)
            combined = Hamiltonian(2, t1 + t2)
            assert np.abs(
                to_dense(combined) - to_dense(h1) - to_dense(h2)
            ).max() < 1e-12

    def test_trace_equals_identity_coefficient(self):
        for h in (h2_4qubit(), h2_2qubit()):
            m = to_dense(h)
            expected = 2**h.n_qubits * h.identity_coefficient
            assert np.trace(m).real == pytest.approx(expected, abs=1e-10)


def random_hermitian(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(eigenvalues(np.diag([1.0, -1.0])), [-1.0, 1.0])

    def test_4q_reference_spectrum(self):
        ev = eigenvalues(to_dense(h2_4qubit()))
        assert len(ev) == 16
        assert np.abs(ev - np.array(REFERENCE_EIGENVALUES_4Q)).max() < 5e-3

    def test_matches_converged_scheme(self):
        for h in (h2_4qubit(), h2_2qubit()):
            m = to_dense(h)
            assert np.abs(
                eigenvalues(m) - np.sort(np.linalg.eigvalsh(m))
            ).max() < 1e-9

    def test_complex_hermitian_embedding(self):
        # Y term makes the matrix complex Hermitian
        h = Hamiltonian(
            2,
            (
                PauliTerm(0.7, PauliString.from_label("YZ")),
                PauliTerm(-0.3, PauliString.from_label("XY")),
                PauliTerm(0.2, PauliString.from_label("ZI")),
            ),
        )
        m = to_dense(h)
        assert np.abs(m.imag).max() > 0.1
        assert np.abs(eigenvalues(m) - np.sort(np.linalg.eigvalsh(m))).max() < 1e-9

    def test_tiny_off_diagonals(self):
        # two equal diagonal entries split by 1e-9 couplings: the near-degenerate
        # pair must still come out ascending
        m = np.full((4, 4), 1e-9)
        np.fill_diagonal(m, [1.0, 3.0, 3.0, 0.1])
        assert np.abs(eigenvalues(m) - np.sort(np.linalg.eigvalsh(m))).max() < 1e-12

    @pytest.mark.parametrize("m, tol", [
        (np.array([[2.5]]), 1e-12),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-12),  # zero diagonal, spectrum +-1
        (np.zeros((4, 4)), 1e-12),  # all zero: the Hermiticity scale falls back to 1
        (np.eye(5), 1e-12),  # degenerate spectrum
        (np.kron(np.eye(2), [[2.0, 1.0], [1.0, 2.0]]), 1e-12),  # blocks' values interleave
        (np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -3.0]]), 1e-12),
        (random_hermitian(256, np.random.default_rng(8)), 1e-9),  # the 8q cap
        (np.zeros((0, 0)), 1e-12),  # no entries: an empty spectrum, not an error
    ], ids=["1x1", "swap", "zero", "eye5", "block", "complex2", "complex256", "empty"])
    def test_edge_cases_match_eigvalsh(self, m, tol):
        ev = eigenvalues(m)
        assert ev.shape == (len(m),) and ev.dtype == np.float64
        assert np.abs(ev - np.linalg.eigvalsh(m)).max(initial=0.0) <= tol

    @pytest.mark.parametrize("m", [
        np.diag([np.nan, 1.0]),
        np.array([[0.0, np.inf], [np.inf, 0.0]]),
    ], ids=["nan-diagonal", "inf-off-diagonal"])
    def test_non_finite_rejected(self, m):
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues(m)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reorder_invariance(self):
        h = h2_4qubit()
        ev = eigenvalues(to_dense(h))
        reordered = Hamiltonian(4, tuple(reversed(h.terms)))
        assert np.abs(ev - eigenvalues(to_dense(reordered))).max() < 1e-9


class TestGrouping:
    def test_4q_two_groups(self):
        groups, identity = group_terms(h2_4qubit())
        assert len(groups) == 2
        assert identity == pytest.approx(-0.80718)
        assert all(b == "Z" for b in groups[0].basis)
        assert groups[1].basis == ("X", "Z", "X", "Z")
        # group 1 holds exactly the four terms carrying X on qubits 0 and 2
        assert len(groups[1].terms) == 4
        for t in groups[1].terms:
            assert t.string.labels[0] == "X" and t.string.labels[2] == "X"

    def test_2q_two_groups(self):
        groups, _ = group_terms(h2_2qubit())
        assert len(groups) == 2
        assert len(groups[1].terms) == 1
        assert groups[1].terms[0].string.to_label() == "XX"

    def test_all_z_single_group(self):
        h = Hamiltonian(
            3,
            tuple(
                PauliTerm(0.5, PauliString.from_label(l))
                for l in ("ZII", "IZI", "ZZZ")
            ),
        )
        groups, identity = group_terms(h)
        assert len(groups) == 1
        assert identity == 0.0

    def test_member_counts_sum(self):
        for h in (h2_4qubit(), h2_2qubit()):
            groups, _ = group_terms(h)
            n_grouped = sum(len(g.terms) for g in groups)
            has_identity = any(t.string.is_identity for t in h.terms)
            assert n_grouped + int(has_identity) == len(h.terms)


class TestConstruction:
    def test_duplicate_strings_merge(self):
        t = PauliString.from_label("ZZ")
        h = Hamiltonian(2, (PauliTerm(0.5, t), PauliTerm(0.25, t)))
        assert len(h.terms) == 1
        assert h.terms[0].coefficient == pytest.approx(0.75)

    def test_label_round_trip(self):
        s = PauliString.from_label("ZIXZ")
        assert s.labels == ("Z", "X", "I", "Z")  # qubit 0 first
        assert s.to_label() == "ZIXZ"
        assert s.support == (0, 1, 3)

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            PauliString.from_label("ZQ")

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            Hamiltonian(3, (PauliTerm(1.0, PauliString.from_label("ZZ")),))

    def test_non_finite_coefficient(self):
        with pytest.raises(ValueError):
            PauliTerm(float("nan"), PauliString.from_label("Z"))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        h = h2_4qubit()
        path = str(tmp_path / "h.json")
        save_hamiltonian(h, path)
        loaded = load_hamiltonian(path)
        assert loaded == h

    def test_y_terms_load_but_are_not_measurable(self, tmp_path):
        h = Hamiltonian(2, (PauliTerm(0.5, PauliString.from_label("ZZ")),
                            PauliTerm(0.2, PauliString.from_label("XY"))))
        path = str(tmp_path / "h.json")
        save_hamiltonian(h, path)
        assert load_hamiltonian(path) == h
        with pytest.raises(ValueError, match="XY"):
            check_measurable(h)
        check_measurable(h2_4qubit())

    def test_dict_layout(self):
        doc = h2_2qubit().to_dict()
        assert doc["bit_order"] == "q_high_left"
        assert doc["n_qubits"] == 2
        strings = [t["string"] for t in doc["terms"]]
        assert "XX" in strings and "ZZ" in strings

    def test_bad_bit_order_rejected(self):
        doc = h2_2qubit().to_dict()
        doc["bit_order"] = "little"
        with pytest.raises(ValueError, match="bit_order"):
            Hamiltonian.from_dict(doc)
