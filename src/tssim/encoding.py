"""Block encodings as dense unitaries or as certified factors.

A block encoding is a unitary whose top-left system-sized block equals a
target operator divided by a known positive scale. Three constructions
live here: the exact two-block dilation of a Hermitian contraction, the
prepare/select encoding of a sum of block-permutation unitaries, and the
second-order truncated-series circuit that combines two applications of
the sum encoding with a routing permutation. Each stores only its block,
computed from certified factors, and multiplies the circuit out only on
request, yet is held to TS_SIM_MAX_DIM at its full dimension (2N, aN, 4aN).

The dilation's factor is the N x N unitary W = h + i sqrt(I - h^2), formed
on the spectrum of h; the dilation acts as W on the states (v, -i v)/sqrt(2)
that phase estimation reads. The sum encoding's block is
A = sum_i B[0, i] B[i, 0] U_i. The series block is
b00^2 A + i b01 b10 I - i b02 b20 A A, read from A and the coefficient gate
b alone, once two certificates hold: b feeds no inert branch
(b[0, 3] = b[3, 0] = 0), and the route isolates the leading block, so the
branch that applies the sum encoding twice reads A A.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .errors import ContractError, DomainError
from .linalg import (
    Spectrum,
    as_matrix,
    check_dim,
    hermitian_eig,
    is_unitary,
    kron,
    max_abs,
    monomial_sum,
    unitary_blocks,
)
from .pauli import PauliSum, sum_matrix, word_factors

BLOCK_TOL = 1e-9


class BlockEncoding:
    """Unitary `matrix` whose top-left block is target/scale.

    ancilla_dim * system_dim equals the full dimension; post-selecting the
    ancilla on zero recovers the block. An encoding given its matrix keeps
    it. One computed from certified factors keeps only the block and
    `build`, which multiplies the factors out on the first read of `matrix`
    and is then dropped for the cached result. A dilation also keeps its
    certified factor W as `upper` (see dilation_sqrt).

    `residual` is the certificate: this module's builders check the encoding
    unitary (whole or factor by factor), then record max-abs(scale * block -
    target). A caller's encoding has residual None; its consumer checks it.
    """

    upper: np.ndarray | None = None

    def __init__(self, matrix, system_dim: int, ancilla_dim: int, scale: float, *,
                 block=None, build: Callable[[], np.ndarray] | None = None):
        if (matrix is None) == (build is None) or (block is None) != (build is None):
            raise ContractError("an encoding takes its matrix, or its block and a builder")
        self.system_dim = system_dim
        self.ancilla_dim = ancilla_dim
        self.scale = scale
        self._matrix = matrix
        self._build = build
        self._block = matrix[:system_dim, :system_dim] if block is None else block
        self.residual: float | None = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._build()
            self._build = None
        return self._matrix

    def top_block(self) -> np.ndarray:
        return self._block


def _require_unitary(u, tol=BLOCK_TOL) -> None:
    if not is_unitary(u, tol):
        raise DomainError("constructed encoding is not unitary")


def _block_checked(enc: BlockEncoding, target, tol=BLOCK_TOL) -> BlockEncoding:
    enc.residual = max_abs(enc.scale * enc.top_block() - target)
    if not enc.residual <= tol:
        raise DomainError(f"block equality failed (residual {enc.residual:.3e})")
    return enc


def dilation_sqrt(h, spectrum: Spectrum | None = None) -> BlockEncoding:
    """Exact unitary dilation [[h, -s], [s, h]] with s = sqrt(I - h^2).

    Requires h Hermitian with spectral norm at most 1. Eigenphases come in
    conjugate pairs exp(+-i theta) with cos(theta) equal to the eigenvalues
    of h, so the block carries scale 1. The factor W = h + i s, kept as
    `upper`, is V diag(w + i sqrt(1 - w^2)) V^H on the spectrum (w, V) of h
    that the norm check reads; pass it as `spectrum` when it is already
    solved. 1 - w^2 in [-1e-10, 0) counts as zero, anything more negative
    raises DomainError. W is certified unitary and its Hermitian part equal
    to h; as h and s commute, that makes the dilation unitary. It maps
    (v, -i v)/sqrt(2) to (W v, -i W v)/sqrt(2), and is built on reading `.matrix`.
    """
    h = as_matrix(h)
    n = check_dim(2 * h.shape[0]) // 2
    spec = hermitian_eig(h) if spectrum is None else spectrum
    w = spec.values
    if np.max(np.abs(w)) > 1.0 + 1e-10:
        raise DomainError(f"spectral norm {np.max(np.abs(w)):.6f} exceeds 1")
    gap = 1.0 - w * w
    if np.min(gap) < -1e-10:
        raise DomainError(f"I - h^2 is not PSD (eigenvalue {np.min(gap):.3e})")
    upper = (spec.vectors * (w + 1j * np.sqrt(np.clip(gap, 0.0, None)))) @ spec.vectors.conj().T
    _require_unitary(upper)
    if not max_abs((upper + upper.conj().T) / 2.0 - h) <= BLOCK_TOL:
        raise DomainError("the spectrum does not reproduce h")
    s = (upper - upper.conj().T) / 2j
    enc = BlockEncoding(None, n, 2, 1.0, block=h, build=lambda: np.block([[h, -s], [s, h]]))
    enc.upper = upper
    return _block_checked(enc, h)


def prepare_oracle(coeffs) -> np.ndarray:
    """Real orthogonal gate whose leading column is sqrt(coeffs)/norm.

    Built as the Householder reflection that maps the first basis vector to
    the normalized amplitude vector; the leading row matches the leading
    column and the (0, 0) entry is non-negative. Input is padded with zeros
    to the next power of two.
    """
    c = np.asarray(coeffs, dtype=float).ravel()
    if c.size == 0:
        raise ContractError("empty coefficient vector")
    if np.any(c < 0):
        raise ContractError("coefficients must be non-negative")
    total = float(np.sum(c))
    if total <= 0.0:
        raise ContractError("all coefficients are zero")
    dim = 1 << max(0, (c.size - 1).bit_length())
    amp = np.zeros(dim)
    amp[: c.size] = np.sqrt(c / total)
    v = amp.copy()
    v[0] -= 1.0
    nv = float(v @ v)
    if nv < 1e-30:
        return np.eye(dim)
    return np.eye(dim) - 2.0 * np.outer(v, v) / nv


def _sandwich_matrix(b: np.ndarray, masks: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """(B (x) I) blkdiag(U_0, ..., U_{L-1}, I, ...) (B (x) I), multiplied out."""
    n = blocks.shape[1] * blocks.shape[2]
    sel = np.eye(check_dim(b.shape[0] * n), dtype=complex)
    for i, (mask, u) in enumerate(zip(masks, blocks)):
        sel[i * n : (i + 1) * n, i * n : (i + 1) * n] = monomial_sum([1.0], [mask], u[None])
    bw = kron(b, np.eye(n))
    return bw @ sel @ bw


def prepare_select(weights, masks, blocks, scale: float, target) -> BlockEncoding:
    """Sum-of-unitaries encoding (B (x) I) blkdiag(U_0, ..., U_{L-1}, I, ...) (B (x) I).

    U_i is the block permutation with k x k blocks[i, r] at block row r and
    block column r XOR masks[i] (see linalg.monomial_sum). B is the prepare
    oracle of the non-negative weights, so the block is
    sum_i B[0, i] B[i, 0] U_i = sum_i w_i U_i / sum_i w_i; it is checked
    against target / scale, and it is all the encoding stores. B is
    certified unitary, and each U_i block by block, as max-abs(U^H U - I)
    is its worst block's. The (a n)-dimensional matrix and the dense U_i
    are multiplied out only when `.matrix` is read.
    """
    n = target.shape[0]
    b = prepare_oracle(weights)
    check_dim(b.shape[0] * n)
    _require_unitary(b)
    masks = np.asarray(masks, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=complex)
    count = len(weights)
    if (blocks.ndim != 4 or masks.shape != (count,) or blocks.shape[0] != count
            or blocks.shape[2] != blocks.shape[3] or blocks.shape[1] * blocks.shape[2] != n):
        raise ContractError("factors do not fit the target")
    if not (np.all((masks >= 0) & (masks < blocks.shape[1])) and np.all(unitary_blocks(blocks, BLOCK_TOL))):
        raise DomainError("constructed encoding is not unitary")
    block = monomial_sum(b[0, :count] * b[:count, 0], masks, blocks)
    enc = BlockEncoding(None, n, b.shape[0], scale, block=block,
                        build=lambda: _sandwich_matrix(b, masks, blocks))
    return _block_checked(enc, target)


def uh_from_sum(s: PauliSum, target=None) -> BlockEncoding:
    """Prepare/select encoding of a Pauli sum.

    The block equals sum_matrix(s) / scale with scale the coefficient
    1-norm, and is checked against `target`, which is sum_matrix(s) when
    not given; pass it when already built. Signs fold into the word phases.
    Ancilla dimension is the word count rounded up to a power of two; a
    single-term sum needs no ancilla.
    """
    coeffs = np.array([c for c, _ in s.terms])
    masks, blocks = word_factors([w for _, w in s.terms], s.n)
    return prepare_select(np.abs(coeffs), masks, np.sign(coeffs)[:, None, None, None] * blocks,
                          s.coefficient_one_norm(), sum_matrix(s) if target is None else target)


def b_gate(t: float) -> np.ndarray:
    """4x4 orthogonal coefficient gate for the three-branch series.

    Leading row and column are (sqrt(t), 1, t/sqrt(2), 0) / norm, loading
    the branch weights t, 1, t^2/2 that realize t*H + i(I - t^2 H^2 / 2).
    The fourth branch carries weight zero and stays inert.
    """
    if t < 0:
        raise ContractError("time step must be non-negative")
    st = math.sqrt(t)
    w = t / math.sqrt(2.0)
    b = np.array(
        [
            [st, 1.0, w, 0.0],
            [1.0, -st, 0.0, w],
            [w, 0.0, -st, -1.0],
            [0.0, -w, 1.0, -st],
        ]
    )
    return b / math.sqrt(t + 1.0 + t * t / 2.0)


def b_norm_sq(t: float) -> float:
    """Squared norm of the branch-weight vector, t + 1 + t^2/2."""
    return t + 1.0 + t * t / 2.0


def pi_index(L_dim: int, N: int) -> np.ndarray:
    """Gather index of the routing permutation: (Pi x)[r] = x[index[r]].

    On a (2 * L_dim * N)-dimensional register it fixes the first and last N
    entries and swaps the two halves in between.
    """
    if L_dim < 2:
        raise ContractError("routing permutation needs L_dim >= 2")
    half = L_dim * N - N
    index = np.arange(2 * L_dim * N)
    index[N : N + half] += half
    index[N + half : N + 2 * half] -= half
    return index


def pi_permutation(L_dim: int, N: int) -> np.ndarray:
    """Routing permutation blkdiag(I_N, X (x) I_{L*N-N}, I_N) as a dense matrix.

    Acting on a (2 * L_dim * N)-dimensional register it fixes the first and
    last N states and swaps the two halves in between. Conjugating a
    controlled application of the sum encoding with it steers every
    non-zero ancilla branch away from the post-selected corner, which is
    what turns two applications into a squared block.
    """
    index = pi_index(L_dim, N)
    p = np.zeros((index.size, index.size))
    p[np.arange(index.size), index] = 1.0
    return p


# One phase per control branch (top qubit is the most significant bit):
# the identity branch picks up i, the squared branch -i, so the block sums
# to t*H + i*(I - t^2 H^2 / 2). Branch 3 has weight zero and stays at 1.
_BRANCH_PHASES = np.array([1.0, 1.0j, -1.0j, 1.0])


def _series_matrix(uh_m: np.ndarray, a: int, n: int, b: np.ndarray) -> np.ndarray:
    """Full series circuit (B (x) I) phases c1uh c1pi c2o (B (x) I), multiplied out."""
    d = a * n
    full = check_dim(4 * d)
    eye_d = np.eye(d)

    # open control on the second qubit: branches 00 and 10 get U_H
    c2o = np.zeros((full, full), dtype=complex)
    for q1 in (0, 1):
        for q2 in (0, 1):
            lo = (2 * q1 + q2) * d
            c2o[lo : lo + d, lo : lo + d] = uh_m if q2 == 0 else eye_d
    # filled control on the top qubit: routing permutation on (q2, ancilla, system)
    c1pi = np.eye(full, dtype=complex)
    if a > 1:
        c1pi[2 * d :, 2 * d :] = pi_permutation(a, n)
    # filled control on the top qubit: U_H on (ancilla, system) for either q2
    c1uh = np.eye(full, dtype=complex)
    c1uh[2 * d : 3 * d, 2 * d : 3 * d] = uh_m
    c1uh[3 * d :, 3 * d :] = uh_m

    v = c1uh @ c1pi @ c2o
    phases = np.kron(np.diag(_BRANCH_PHASES), eye_d)
    bw = np.kron(b, eye_d)
    return bw @ phases @ v @ bw


def _series_block(block: np.ndarray, b: np.ndarray, route: np.ndarray) -> np.ndarray:
    """Top n x n block of _series_matrix from the top block A of U_H.

    The block is sum_{q<3} b[0, q] phase_q b[q, 0] M_q with M = (A, I, A A):
    branch 0 applies U_H once, branch 1 not at all, and branch 2 applies it
    twice with the routing permutation between. Two certificates make that
    exact, each raising DomainError: the coefficient gate feeds no inert
    branch (b[0, 3] = b[3, 0] = 0), and the route isolates the leading
    block (it fixes the first n entries and sends the rest of the first
    a n to the second half), so branch 2 reads A A and nothing else of U_H.
    """
    n = block.shape[0]
    d = route.size // 2
    if not (b[0, 3] == 0.0 and b[3, 0] == 0.0):
        raise DomainError("coefficient gate feeds the inert branch")
    if not (np.array_equal(route[:n], np.arange(n)) and np.all(route[n:d] >= d)):
        raise DomainError("routing map does not isolate the leading block")
    # b[q, 0] weighs the input, as the coefficient gate acts first in the circuit
    m = (b[0, 0] * block, b[1, 0] * np.eye(n, dtype=complex), block @ (b[2, 0] * block))
    return sum(b[0, q] * _BRANCH_PHASES[q] * m[q] for q in range(3))


def taylor_encoding(uh: BlockEncoding, t: float) -> BlockEncoding:
    """Second-order truncated-series encoding built from a sum encoding.

    Sandwiches two controlled applications of `uh` (one conjugated by the
    routing permutation) between coefficient gates on two control qubits.
    With tau = t * uh.scale the block equals
    (t H + i (I - t^2 H^2 / 2)) / (tau + 1 + tau^2 / 2)
    where H is the physical operator, scale * top block A of uh. Requires
    0 <= tau <= 1.

    The block is b00^2 A + i b01 b10 I - i b02 b20 A A, read from A and the
    coefficient gate b alone. Every factor is certified: uh is unitary
    (checked here unless it carries its builder's residual), b is unitary,
    the routing map is a bijection, the branch phases have unit modulus,
    and `_series_block` certifies that b feeds no inert branch and that the
    route isolates the leading block. The block is checked against the
    dense target. The (4 * ancilla * system)-dimensional circuit matrix is
    multiplied out only when `.matrix` is read.
    """
    if t < 0:
        raise ContractError("time step must be non-negative")
    tau = t * uh.scale
    if tau > 1.0 + 1e-12:
        raise DomainError(f"t * scale = {tau:.6f} exceeds 1; shrink the step")
    n = uh.system_dim
    a = uh.ancilla_dim
    check_dim(4 * a * n)
    if uh.residual is None:
        _require_unitary(uh.matrix)
    b = b_gate(tau)
    _require_unitary(b)
    route = pi_index(a, n) if a > 1 else np.arange(2 * n)  # no ancilla, nothing to route
    if not np.array_equal(np.sort(route), np.arange(2 * a * n)):
        raise DomainError("routing map is not a permutation")
    if not max_abs(np.abs(_BRANCH_PHASES) - 1.0) <= BLOCK_TOL:
        raise DomainError("branch phases are not of unit modulus")

    h_phys = uh.scale * uh.top_block()
    target = t * h_phys + 1j * (np.eye(n) - (t * t / 2.0) * (h_phys @ h_phys))
    block = _series_block(uh.top_block(), b, route)
    enc = BlockEncoding(None, n, 4 * a, b_norm_sq(tau), block=block,
                        build=lambda: _series_matrix(uh.matrix, a, n, b))
    return _block_checked(enc, target)
