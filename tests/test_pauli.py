"""Pauli algebra, the embedded hydrogen Hamiltonian, and file parsing."""

import itertools
from functools import reduce

import numpy as np
import pytest

from tssim.errors import ContractError, ParseError
from tssim.linalg import max_abs
from tssim.pauli import (
    PauliSum,
    format_pauli_sum,
    h2_hamiltonian,
    normalize_for_encoding,
    parse_pauli_file,
    sum_matrix,
    word_matrix,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_word_matrix_matches_kron_oracle():
    got = word_matrix("XZY")
    want = np.kron(np.kron(X, Z), Y)
    assert max_abs(got - want) == 0.0


def test_every_short_word_matches_kron_oracle():
    single = {"I": I2, "X": X, "Y": Y, "Z": Z}
    for n in (1, 2, 3):
        for letters in itertools.product("IXYZ", repeat=n):
            want = reduce(np.kron, [single[ch] for ch in letters])
            assert np.array_equal(word_matrix("".join(letters)), want), letters


def test_sum_matrix_matches_kron_oracle():
    single = {"I": I2, "X": X, "Y": Y, "Z": Z}
    rng = np.random.default_rng(4)
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=3)]
    s = PauliSum([(float(rng.normal()), str(w)) for w in rng.choice(words, 12, replace=False)])
    want = np.zeros((8, 8), dtype=complex)
    for c, w in s.terms:
        want += c * reduce(np.kron, [single[ch] for ch in w])
    assert np.array_equal(sum_matrix(s), want)


def test_word_matrix_leftmost_letter_is_top_qubit():
    m = word_matrix("ZI")
    assert m[0, 0] == 1 and m[3, 3] == -1


def test_word_matrix_rejects_bad_letter():
    with pytest.raises(ContractError):
        word_matrix("XQ")


def test_sum_merges_duplicates_and_drops_zeros():
    s = PauliSum([(0.5, "XZ"), (0.25, "XZ"), (1.0, "II"), (-1.0, "II")])
    assert s.terms == [(0.75, "XZ")]


def test_sum_rejects_ragged_words():
    with pytest.raises(ContractError):
        PauliSum([(1.0, "X"), (1.0, "XX")])


def test_sum_rejects_complex_coefficients():
    with pytest.raises(ContractError):
        PauliSum([(1.0 + 0.5j, "X")])


def test_sum_matrix_is_hermitian():
    s = PauliSum([(0.3, "XY"), (-0.7, "ZZ"), (0.1, "YI")])
    h = sum_matrix(s)
    assert max_abs(h - h.conj().T) < 1e-15


def test_normalize_unit_one_norm():
    s = PauliSum([(3.0, "X"), (-1.0, "Z")])
    s_n, scale = normalize_for_encoding(s)
    assert scale == pytest.approx(4.0)
    assert s_n.coefficient_one_norm() == pytest.approx(1.0)
    assert max_abs(sum_matrix(s_n) * scale - sum_matrix(s)) < 1e-12


def test_h2_term_count_and_norms():
    s = h2_hamiltonian()
    assert len(s.terms) == 15
    assert s.n == 4
    assert s.coefficient_one_norm() == pytest.approx(2.697693, abs=1e-6)


def test_h2_matrix_structure():
    """16x16, Hermitian, four off-diagonal couplings outside the diagonal."""
    h = sum_matrix(h2_hamiltonian())
    assert h.shape == (16, 16)
    assert max_abs(h - h.conj().T) < 1e-14
    off = h - np.diag(np.diag(h))
    nz = {(i, j) for i, j in zip(*np.nonzero(np.abs(off) > 1e-12))}
    assert nz == {(1, 4), (4, 1), (3, 6), (6, 3)}
    assert abs(h[1, 4]) == pytest.approx(0.181287, abs=1e-6)


def test_h2_ground_energy_frozen_value():
    h = sum_matrix(h2_hamiltonian())
    e0 = float(np.linalg.eigvalsh(h)[0])
    assert e0 == pytest.approx(-1.8510456784448643, abs=1e-12)


def test_parse_round_trip():
    s = h2_hamiltonian()
    s2 = parse_pauli_file(format_pauli_sum(s))
    assert s2.terms == s.terms
    assert max_abs(sum_matrix(s2) - sum_matrix(s)) < 1e-12


def test_parse_skips_comments_and_blank_lines():
    s = parse_pauli_file("# header\n\n0.5 XZ\n  # inline note\n-0.25 ZI\n")
    assert len(s.terms) == 2
    assert s.n == 2


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_pauli_file("0.5 XZ\nnot-a-number XI\n")
    assert "2" in str(exc.value)


def test_parse_rejects_ragged_width():
    with pytest.raises(ParseError):
        parse_pauli_file("0.5 XZ\n0.5 X\n")


def test_fixture_file_matches_embedded_terms(tmp_path):
    import pathlib

    fixture = pathlib.Path(__file__).parent / "fixtures" / "h2.pauli"
    s = parse_pauli_file(fixture.read_text())
    assert max_abs(sum_matrix(s) - sum_matrix(h2_hamiltonian())) < 1e-15


@pytest.mark.parametrize("coeff", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ParseError) as exc:
        parse_pauli_file(f"1.0 XI\n{coeff} ZZ\n")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("coeff", [float("nan"), float("inf"), float("-inf")])
def test_sum_rejects_non_finite_coefficients(coeff):
    with pytest.raises(ContractError):
        PauliSum([(1.0, "XI"), (coeff, "ZZ")])


def test_sum_rejects_overflowing_merge():
    with pytest.raises(ContractError):
        PauliSum([(1e308, "XI"), (1e308, "XI")])
