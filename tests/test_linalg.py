"""Eigensolver and matrix-utility tests, checked against numpy oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tssim.errors import ContractError, SizeError
from tssim.linalg import (
    GRAM_ROWS,
    as_matrix,
    hermitian_eig,
    inf_norm,
    is_unitary,
    kron,
    max_abs,
    monomial_sum,
    unitary_blocks,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2.0


def test_as_matrix_rejects_non_square():
    with pytest.raises(ContractError):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ContractError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_norms_match_definitions():
    m = np.array([[1.0, -2.0], [3.0, 4.0j]])
    assert inf_norm(m) == pytest.approx(7.0)
    assert max_abs(m) == pytest.approx(4.0)


def test_kron_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("TS_SIM_MAX_DIM", "8")
    with pytest.raises(SizeError):
        kron(np.eye(4), np.eye(4))
    monkeypatch.delenv("TS_SIM_MAX_DIM")
    assert kron(np.eye(4), np.eye(4)).shape == (16, 16)


def test_is_unitary():
    assert is_unitary(np.eye(3), 1e-12)
    assert not is_unitary(2 * np.eye(3), 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 32])
def test_hermitian_eig_matches_oracle(n):
    h = random_hermitian(n, seed=100 + n)
    spec = hermitian_eig(h)
    assert np.allclose(spec.values, np.linalg.eigvalsh(h), atol=1e-10)
    assert max_abs(h @ spec.vectors - spec.vectors * spec.values) < 1e-10
    assert max_abs(spec.vectors.conj().T @ spec.vectors - np.eye(n)) < 1e-12


def test_hermitian_eig_values_ascending():
    spec = hermitian_eig(random_hermitian(9, seed=3))
    assert np.all(np.diff(spec.values) >= 0)


def test_hermitian_eig_real_diagonal_is_exact():
    spec = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(spec.values, [-1.0, 2.0, 3.0])


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ContractError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def dense_factor(mask, blocks):
    """A block permutation written out entry by entry."""
    rows, k = blocks.shape[0], blocks.shape[1]
    u = np.zeros((rows * k, rows * k), dtype=complex)
    for r in range(rows):
        c = r ^ mask
        u[r * k : (r + 1) * k, c * k : (c + 1) * k] = blocks[r]
    return u


@pytest.mark.parametrize("rows, k", [(1, 1), (4, 1), (8, 2), (2, 3)])
def test_monomial_sum_matches_dense_factors(rows, k):
    rng = np.random.default_rng(rows * 10 + k)
    count = 5
    weights = rng.normal(size=count)
    masks = rng.integers(0, rows, size=count)
    blocks = rng.normal(size=(count, rows, k, k)) + 1j * rng.normal(size=(count, rows, k, k))
    want = sum(w * dense_factor(m, b) for w, m, b in zip(weights, masks, blocks))
    assert max_abs(monomial_sum(weights, masks, blocks) - want) < 1e-12


def per_term_sum(weights, masks, blocks):
    """monomial_sum one term and one block at a time, in term order."""
    rows, k = blocks.shape[1], blocks.shape[2]
    out = np.zeros((rows * k, rows * k), dtype=complex)
    for w, mask, u in zip(weights, masks, blocks):
        for r in range(rows):
            c = r ^ mask
            out[r * k : (r + 1) * k, c * k : (c + 1) * k] += w * u[r]
    return out


@st.composite
def monomial_factors(draw):
    """Up to 40 terms with repeated masks, real or complex weights, and signed zeros."""
    count = draw(st.integers(0, 40))
    rows, k = 2 ** draw(st.integers(0, 3)), draw(st.sampled_from([1, 2]))
    masks = draw(st.lists(st.integers(0, rows - 1), min_size=count, max_size=count))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (count, rows, k, k)
    blocks = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for part in (blocks.real, blocks.imag):
        part[rng.random(shape) < 0.3] = -0.0
        part[rng.random(shape) < 0.1] = 0.0
    weights = rng.normal(size=count) + (1j * rng.normal(size=count) if draw(st.booleans()) else 0.0)
    weights[rng.random(count) < 0.2] = -0.0
    return weights.tolist(), masks, blocks


@settings(max_examples=200, deadline=None)
@given(monomial_factors(), st.integers(1, 16))
def test_monomial_sum_is_the_per_term_loop_bit_for_bit(factors, cap):
    weights, masks, blocks = factors
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("TS_SIM_MAX_DIM", str(cap))
        if blocks.shape[1] * blocks.shape[2] > cap:
            with pytest.raises(SizeError):
                monomial_sum(weights, masks, blocks)
            return
        got = monomial_sum(weights, masks, blocks)
    want = per_term_sum(weights, masks, blocks)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def test_monomial_sum_of_no_factors_is_zero():
    out = monomial_sum([], [], np.zeros((0, 4, 2, 2)))
    assert out.shape == (8, 8)
    assert not out.any()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_unitary_blocks_matches_is_unitary(k):
    rng = np.random.default_rng(k)
    q = [np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0] for _ in range(6)]
    stack = np.array(q).reshape(2, 3, k, k)
    stack[1, 2, 0, 0] *= 1.5
    got = unitary_blocks(stack, 1e-9)
    assert got.shape == (2, 3)
    assert got.tolist() == [[is_unitary(b, 1e-9) for b in row] for row in stack]
    assert got.sum() == 5


def test_is_unitary_across_row_steps():
    n = GRAM_ROWS + 44  # one full step of u^H u rows and one partial
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    assert is_unitary(q, 1e-10)
    for r, c in ((0, 0), (3, n - 1), (n - 1, 5), (n - 1, n - 1)):
        bent = q.copy()
        bent[r, c] *= 1.0 + 1e-6
        whole = max_abs(bent.conj().T @ bent - np.eye(n))  # the definition, in one product
        assert is_unitary(bent, whole * 1.01)
        assert not is_unitary(bent, whole * 0.99)


def test_is_unitary_needs_no_full_size_temporaries():
    n = 2 * GRAM_ROWS
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(n, n)).astype(complex))
    is_unitary(q[:4, :4], 1e-9)  # warm numpy's one-off allocations
    tracemalloc.start()
    try:
        assert is_unitary(q, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * q.nbytes  # u^H u and the conjugate copy would be 2 * nbytes
