"""Quadrant-word bookkeeping, unitary splits, and reconstruction."""

import dataclasses
import warnings

import numpy as np
import pytest

from tssim import decompose
from tssim.decompose import (
    Decomposition,
    assemble_uh,
    build_decomposition,
    decomposition_from_json,
    decomposition_to_json,
    dense_to_json,
    encoding_shape,
    load_dense_json,
    reconstruct,
    reconstruction_residual,
    unitary_split,
)
from tssim.errors import ContractError, DomainError, ParseError, SizeError
from tssim.linalg import max_abs
from tssim.pauli import h2_hamiltonian, sum_matrix

from quadrant_words import leaf_slice, recursive_decompose


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
        tm = reconstruct(Decomposition(d.n, [dataclasses.replace(term, beta=1.0)], 1.0))
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


def test_encoding_shape_rejects_what_the_encoding_would():
    with pytest.raises(ContractError, match="no branches"):
        encoding_shape(Decomposition(n=2, terms=[], scale=1.0))
    d = build_decomposition(sum_matrix(h2_hamiltonian()))
    d.terms[1].v_blocks[3] = d.terms[1].v_blocks[3] @ np.diag([1.0, 1.0 - 1e-8])
    with pytest.raises(ContractError, match="branch 1 .* not unitary"):
        encoding_shape(d)


def test_nan_prune_tolerance_is_rejected():
    with pytest.raises(ContractError, match="prune tolerance nan"):
        build_decomposition(np.eye(4), prune_tol=float("nan"))


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


def test_build_rejects_overflowing_widened_scale_without_warnings():
    # finite row sums, but the leaf's spectral norm is sqrt(2) times larger
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="overflows"):
            build_decomposition(np.array([[1.5e308, 0.0], [1.5e308, 0.0]]))


def test_leaf_gather_matches_recursive_decompose(monkeypatch):
    split = decompose._split_leaves
    seen = []
    monkeypatch.setattr(decompose, "_split_leaves", lambda a: seen.append(a) or split(a))
    rng = np.random.default_rng(41)
    for dim in (2, 4, 8, 16, 32, 64):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        seen.clear()
        d = build_decomposition(m, prune_tol=0.0)  # keeps every group, in order of j
        entries = [leaf.entries for _, _, blocks in recursive_decompose(m) for leaf in blocks]
        assert np.array_equal(seen[0], np.array(entries) / d.scale)


def _reference_split(a):
    """The former per-leaf split, formula by formula: (branch, u_plus, u_minus)."""

    def svd_form(branch):
        w, sig, vh = np.linalg.svd(a)
        root = np.sqrt(np.clip(1.0 - sig**2, 0.0, None))
        return branch, (w * (sig + 1j * root)) @ vh, (w * (sig - 1j * root)) @ vh

    m = np.eye(2) - a @ a
    if max_abs(a - a.conj().T) <= 1e-12:
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        branch, s = "hermitian", (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    else:
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        sq = np.sqrt(complex(det))
        tr = m[0, 0] + m[1, 1]
        tau_sq = tr + 2.0 * sq
        if abs(tau_sq) < 1e-30:
            tau_sq = tr - 2.0 * sq
            sq = -sq
            if abs(tau_sq) < 1e-30:
                return svd_form("defective")
        root = (m + sq * np.eye(2)) / np.sqrt(complex(tau_sq))
        branch, s = "principal", -root if root.trace().real < 0 else root
    u_plus, u_minus = a + 1j * s, a - 1j * s
    if all(max_abs(u.conj().T @ u - np.eye(2)) <= 1e-10 for u in (u_plus, u_minus)):
        return branch, u_plus, u_minus
    return svd_form("fallback")


def _branch_stack(rng):
    """Seeded contractions that take every branch of the split."""
    leaves = []
    for _ in range(40):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (g + g.conj().T) / 2.0
        h /= np.linalg.svd(h, compute_uv=False)[0] * (1.1 + rng.random())
        leaves.append(h)  # Hermitian
        leaves.append(h + 1e-11 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))  # principal root
        leaves.append(g / (np.linalg.svd(g, compute_uv=False)[0] * (1.0 + rng.random())))  # unitarity fallback
    for eps in (6e-13, 8e-13, 9e-13):
        # norm 1 + eps, anti-Hermitian part 2 eps > 1e-12, and a^2 rounds to I:
        # I - a^2 = 0 has a defective root
        for off in (1.0, -1.0, 1j):
            leaves.append(np.array([[1j * eps, off], [np.conj(off), -1j * eps]]))
    leaves.append(np.array([[0.0, 0.9], [0.0, 0.0]]))
    return np.array(leaves, dtype=complex)


def test_split_leaves_takes_the_per_leaf_branches(monkeypatch):
    stack = _branch_stack(np.random.default_rng(59))
    reference = [_reference_split(a) for a in stack]
    branches = np.array([b for b, _, _ in reference])
    assert set(branches) == {"hermitian", "principal", "defective", "fallback"}

    svd = np.linalg.svd
    full_svd_inputs = []

    def spy(a, *args, **kwargs):
        if kwargs.get("compute_uv", True):
            full_svd_inputs.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    u_plus, u_minus = decompose._split_leaves(stack)
    (fallen,) = full_svd_inputs
    assert np.array_equal(fallen, stack[np.isin(branches, ["defective", "fallback"])])
    for k, (_, up, um) in enumerate(reference):
        assert max_abs(u_plus[k] - up) <= 1e-15
        assert max_abs(u_minus[k] - um) <= 1e-15


def test_numpy_linalg_calls_do_not_grow_with_dimension(monkeypatch):
    calls = []
    for name in ("svd", "eigh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    rng = np.random.default_rng(61)
    counts = []
    for dim in (4, 64):
        calls.clear()
        build_decomposition(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        counts.append(sorted(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("n", range(2, 9))
def test_tridiagonal_keeps_n_groups(n):
    dim = 2**n
    rng = np.random.default_rng(n)
    off = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    m = np.diag(rng.normal(size=dim)) + np.diag(off, 1) + np.diag(off.conj(), -1)
    assert build_decomposition(m).group_count() == n


def test_sparse_groups_are_the_distinct_block_xors():
    rng = np.random.default_rng(67)
    m = np.where(rng.random((64, 64)) < 0.02, rng.normal(size=(64, 64)), 0.0)
    rows, cols = np.nonzero(m)
    xors = {int(r) // 2 ^ int(c) // 2 for r, c in zip(rows, cols)}
    assert 1 < len(xors) < 32
    d = build_decomposition(m)
    assert d.group_count() == len(xors)
    assert reconstruction_residual(d, m) < 1e-12
