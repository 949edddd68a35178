"""Quadrant-word bookkeeping, unitary splits, and reconstruction."""

import numpy as np
import pytest

from tssim.decompose import (
    Decomposition,
    assemble_uh,
    build_decomposition,
    decomposition_from_json,
    decomposition_to_json,
    dense_to_json,
    leaf_slice,
    load_dense_json,
    reconstruct,
    reconstruction_residual,
    recursive_decompose,
    term_matrix,
    unitary_split,
)
from tssim.errors import ContractError, DomainError, ParseError, SizeError
from tssim.linalg import max_abs
from tssim.pauli import h2_hamiltonian, sum_matrix


def test_leaf_slice_walks_quadrants():
    # word digits encode (row_half, col_half) pairs, most significant first
    assert leaf_slice("0", 4) == (0, 0)
    assert leaf_slice("3", 4) == (2, 2)
    # '1' is (top, right), then '2' is (bottom, left) inside that quadrant
    assert leaf_slice("12", 8) == (2, 4)
    assert leaf_slice("21", 8) == (4, 2)


def test_leaf_slice_rejects_wrong_depth():
    with pytest.raises(ContractError):
        leaf_slice("0", 8)


def test_recursive_decompose_group_words():
    m = np.arange(64, dtype=float).reshape(8, 8)
    groups = recursive_decompose(m)
    assert len(groups) == 4
    for j, x_mask, blocks in groups:
        assert x_mask == j
        assert len(blocks) == 4
        for r, leaf in enumerate(blocks):
            r0, c0 = leaf_slice(leaf.word, 8)
            assert (r0, c0) == (2 * r, 2 * (r ^ j))
            assert max_abs(leaf.entries - m[r0 : r0 + 2, c0 : c0 + 2]) == 0.0


def test_diagonal_words_use_only_diagonal_digits():
    groups = recursive_decompose(np.eye(8))
    words = [leaf.word for leaf in groups[0][2]]
    assert words == ["00", "03", "30", "33"]


def test_mask_flips_word_digits():
    groups = recursive_decompose(np.eye(8))
    # mask 1 flips the last position: 0 -> 1, 3 -> 2
    words = [leaf.word for leaf in groups[1][2]]
    assert words == ["01", "02", "31", "32"]


def test_unitary_split_hermitian_principal_root():
    a = np.diag([0.6, -0.8])
    up, um = unitary_split(a)
    assert max_abs(up - np.diag([0.6 + 0.8j, -0.8 + 0.6j])) < 1e-12
    assert max_abs(um - np.diag([0.6 - 0.8j, -0.8 - 0.6j])) < 1e-12
    assert max_abs((up + um) / 2.0 - a) < 1e-15


def test_unitary_split_non_normal_leaf():
    a = np.array([[0.0, 0.9], [0.0, 0.0]])  # nilpotent: eigendecomposition-free path
    up, um = unitary_split(a)
    for u in (up, um):
        assert max_abs(u.conj().T @ u - np.eye(2)) < 1e-10
    assert max_abs((up + um) / 2.0 - a) < 1e-10


def test_unitary_split_random_contractions():
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a /= np.linalg.svd(a, compute_uv=False)[0] * (1.0 + rng.random())
        up, um = unitary_split(a)
        assert max_abs(up.conj().T @ up - np.eye(2)) < 1e-9
        assert max_abs(um.conj().T @ um - np.eye(2)) < 1e-9
        assert max_abs((up + um) / 2.0 - a) < 1e-9


def test_unitary_split_rejects_expanding_leaf():
    with pytest.raises(DomainError):
        unitary_split(np.diag([1.2, 0.0]))


def test_identity_collapses_to_single_branch():
    d = build_decomposition(np.eye(4))
    assert len(d.terms) == 1
    assert d.terms[0].beta == 1.0
    assert reconstruction_residual(d, np.eye(4)) < 1e-12


def test_zero_groups_are_pruned():
    m = np.diag([0.5, -0.5, 0.25, 0.125])  # only the diagonal group survives
    d = build_decomposition(m)
    assert d.group_count() == 1
    assert {t.j for t in d.terms} == {0}
    assert reconstruction_residual(d, m) < 1e-12


def test_scale_is_inf_norm_when_above_one():
    m = np.diag([4.0, 1.0, 1.0, 1.0])
    d = build_decomposition(m)
    assert d.scale == pytest.approx(4.0)
    m_small = np.diag([0.5, 0.1, 0.1, 0.1])
    assert build_decomposition(m_small).scale == 1.0


def test_scale_bump_for_non_normal_rows():
    m = np.zeros((4, 4))
    m[0, 1] = 100.0
    d = build_decomposition(m)
    assert d.scale >= 100.0
    assert reconstruction_residual(d, m) < 1e-9


def test_reconstruction_random_matrices():
    rng = np.random.default_rng(31)
    for dim in (4, 8, 16):
        for _ in range(10):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            d = build_decomposition(m)
            assert reconstruction_residual(d, m) < 1e-9


def test_term_matrix_block_placement():
    d = build_decomposition(sum_matrix(h2_hamiltonian()))
    for term in d.terms:
        tm = term_matrix(term, d.n)
        assert max_abs(tm.conj().T @ tm - np.eye(d.dim)) < 1e-9
        for r in range(d.dim // 2):
            c = r ^ term.x_mask
            blk = tm[2 * r : 2 * r + 2, 2 * c : 2 * c + 2]
            assert max_abs(blk - term.v_blocks[r]) == 0.0


def test_h2_groups_and_branches():
    h = sum_matrix(h2_hamiltonian())
    d = build_decomposition(h)
    assert d.group_count() == 2
    assert len(d.terms) == 4
    assert sorted({t.j for t in d.terms}) == [0, 2]
    assert d.scale == pytest.approx(2.011748, abs=1e-6)
    assert reconstruction_residual(d, h) < 1e-12


def test_assemble_block_equals_matrix_over_scale():
    rng = np.random.default_rng(47)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    d = build_decomposition(m)
    enc = assemble_uh(d)
    assert max_abs(enc.matrix.conj().T @ enc.matrix - np.eye(enc.matrix.shape[0])) < 1e-9
    assert max_abs(enc.top_block() * enc.scale - m) < 1e-8


def test_assemble_h2_ancilla_dimension():
    d = build_decomposition(sum_matrix(h2_hamiltonian()))
    enc = assemble_uh(d)
    assert enc.ancilla_dim == 4
    assert enc.system_dim == 16
    assert enc.matrix.shape == (64, 64)


def test_assemble_respects_dimension_cap(monkeypatch):
    d = build_decomposition(sum_matrix(h2_hamiltonian()))
    monkeypatch.setenv("TS_SIM_MAX_DIM", "32")
    with pytest.raises(SizeError):
        assemble_uh(d)  # 4 branches of dimension 16


def test_assemble_rejects_empty():
    with pytest.raises(ContractError):
        assemble_uh(Decomposition(n=2, terms=[], scale=1.0))


def test_dense_json_round_trip():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_abs(load_dense_json(dense_to_json(m)) - m) == 0.0


def test_dense_json_real_shorthand():
    m = load_dense_json({"dim": 2, "real": [1, 2, 3, 4]})
    assert max_abs(m - np.array([[1, 2], [3, 4]])) == 0.0


def test_dense_json_rejects_bad_docs():
    with pytest.raises(ParseError):
        load_dense_json({"dim": 2, "entries": [[1, 0]]})
    with pytest.raises(ParseError):
        load_dense_json({"entries": []})
    with pytest.raises(ParseError):
        load_dense_json([1, 2, 3])


def test_decomposition_json_round_trip():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(8, 8))
    d = build_decomposition(m)
    doc = decomposition_to_json(d, m)
    d2 = decomposition_from_json(doc)
    assert max_abs(reconstruct(d2) - reconstruct(d)) < 1e-15
    assert max_abs(load_dense_json(doc["matrix"]) - m) == 0.0


def test_build_rejects_non_power_of_two():
    with pytest.raises(ContractError):
        build_decomposition(np.eye(6))
