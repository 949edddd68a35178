"""Dense complex linear algebra primitives.

Everything operates on square complex128 numpy arrays. Functions are pure;
nothing here keeps state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .errors import ContractError, NumericError, SizeError

HERMITIAN_TOL = 1e-12
GRAM_ROWS = 256  # rows of u^H u per step in is_unitary; BLAS stays efficient at this width


@dataclass
class Spectrum:
    """Eigenvalues in ascending order with matching orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Coerce to a square 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ContractError("matrix has non-finite entries")
    return m


def check_dim(dim: int) -> int:
    """Raise SizeError when a dense dimension exceeds the configured cap
    (TS_SIM_MAX_DIM, default 2**14); returns dim."""
    cap = config.max_dim()
    if dim > cap:
        raise SizeError(f"dense dimension {dim} exceeds cap {cap}")
    return dim


def kron(a, b) -> np.ndarray:
    """Kronecker product with a dimension guard (see check_dim)."""
    a = as_matrix(a)
    b = as_matrix(b)
    check_dim(a.shape[0] * b.shape[0])
    return np.kron(a, b)


def max_abs(a) -> float:
    """Largest entry magnitude; 0 for an empty array."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def inf_norm(a) -> float:
    """Maximum absolute row sum; a row sum that overflows raises ContractError."""
    with np.errstate(over="ignore"):
        nrm = float(np.max(np.sum(np.abs(as_matrix(a)), axis=1)))
    if not np.isfinite(nrm):
        raise ContractError(f"largest absolute row sum {nrm} is not finite")
    return nrm


def is_unitary(u, tol: float) -> bool:
    """Whether max-abs(u^H u - I) is at most tol.

    u^H u is formed GRAM_ROWS rows at a time, so the check holds two
    GRAM_ROWS x n temporaries instead of two n x n ones beside u.
    """
    u = as_matrix(u)
    for lo in range(0, u.shape[0], GRAM_ROWS):
        rows = u[:, lo : lo + GRAM_ROWS].conj().T @ u
        diag = np.arange(rows.shape[0])
        rows[diag, lo + diag] -= 1.0
        if not max_abs(rows) <= tol:
            return False
        del rows  # before the next step allocates its own
    return True


def unitary_blocks(u, tol: float) -> np.ndarray:
    """Per k x k block of a (..., k, k) array: whether max-abs(u^H u - I) is at most tol."""
    return np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1)) <= tol


def monomial_sum(weights, masks, blocks) -> np.ndarray:
    """Dense sum_i weights[i] U_i of block-permutation factors.

    U_i holds blocks[i, r], of an (L, R, k, k) stack, at block row r and
    block column r XOR masks[i], each mask in [0, R); it is (R k) x (R k).
    One scatter adds every entry, term-major, so each sum runs in term
    order from zero and the result is bit-identical to adding the terms
    one at a time.
    """
    blocks = np.asarray(blocks, dtype=complex)
    rows, k = blocks.shape[1], blocks.shape[2]
    n = check_dim(rows * k)
    out = np.zeros((n, n), dtype=complex)
    r = np.arange(rows)[:, None, None]
    a = np.arange(k)
    cols = r ^ np.asarray(masks, dtype=np.int64).reshape(-1, 1, 1, 1)
    flat = (r * k + a[:, None]) * n + cols * k + a  # (L, R, k, k) offsets of entries (r k + a, c k + b)
    np.add.at(out.reshape(-1), flat.reshape(-1), (np.reshape(weights, (-1, 1, 1, 1)) * blocks).reshape(-1))
    return out


def hermitian_eig(h) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix by LAPACK (numpy.linalg.eigh).

    The input must be Hermitian within 1e-12 entrywise and is symmetrised
    before the solve. Values are ascending, vector columns orthonormal; a
    LAPACK failure raises NumericError.
    """
    h = as_matrix(h)
    if max_abs(h - h.conj().T) > HERMITIAN_TOL:
        raise ContractError("matrix is not Hermitian within 1e-12")
    try:
        values, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
    except np.linalg.LinAlgError as e:
        raise NumericError(f"eigensolver failed: {e}") from None
    return Spectrum(values=values, vectors=vectors)
