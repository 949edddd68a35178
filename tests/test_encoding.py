"""Block-encoding constructions: oracles, dilation, series sandwich."""

import tracemalloc

import numpy as np
import pytest

from tssim import encoding
from tssim.decompose import assemble_uh, build_decomposition
from tssim.encoding import (
    BlockEncoding,
    b_gate,
    b_norm_sq,
    dilation_sqrt,
    pi_index,
    pi_permutation,
    prepare_oracle,
    prepare_select,
    taylor_encoding,
    uh_from_sum,
)
from tssim.errors import ContractError, DomainError, SizeError
from tssim.linalg import Spectrum, is_unitary, max_abs
from tssim.pauli import PauliSum, h2_hamiltonian, normalize_for_encoding, sum_matrix


def random_sum(rng, n, terms):
    letters = "IXYZ"
    out = []
    for _ in range(terms):
        word = "".join(letters[i] for i in rng.integers(0, 4, size=n))
        out.append((float(rng.normal()), word))
    return PauliSum(out)


def test_prepare_oracle_loads_square_roots():
    coeffs = [0.5, 0.3, 0.2]
    b = prepare_oracle(coeffs)
    assert b.shape == (4, 4)  # padded to a power of two
    assert is_unitary(b, 1e-12)
    want = np.sqrt(np.array(coeffs + [0.0])) / np.sqrt(sum(coeffs))
    assert max_abs(b[:, 0] - want) < 1e-12


def test_prepare_oracle_rejects_negative_weights():
    with pytest.raises(ContractError):
        prepare_oracle([0.5, -0.1])


def test_uh_block_equals_sum_over_scale():
    rng = np.random.default_rng(17)
    for k in range(20):
        s = random_sum(rng, n=rng.integers(1, 4), terms=rng.integers(1, 9))
        uh = uh_from_sum(s)
        assert is_unitary(uh.matrix, 1e-9)
        assert max_abs(uh.top_block() * uh.scale - sum_matrix(s)) < 1e-9
        assert uh.scale == pytest.approx(s.coefficient_one_norm())


def small_sum_encodings(seed):
    """Pauli and divide-and-conquer sum encodings at 1 to 3 qubits."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(6):
        n = int(rng.integers(1, 4))
        s, _ = normalize_for_encoding(random_sum(rng, n=n, terms=rng.integers(2, 8)))
        out.append(uh_from_sum(s))
        m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        out.append(assemble_uh(build_decomposition(m)))
    return out


def test_sum_block_equals_leading_block_of_matrix():
    for uh in small_sum_encodings(29):
        n = uh.system_dim
        assert max_abs(uh.top_block() - uh.matrix[:n, :n]) < 1e-12


def test_prepare_select_rejects_a_non_unitary_factor():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    cases = [
        # a phase of modulus 0.5: the block still matches, so only the factor check sees it
        ([1, 0], [[[[1]], [[1]]], [[[1]], [[-0.5]]]], 0.5 * x + 0.5 * np.diag([1.0, -0.5])),
        # a bent 2x2 branch block beside a unitary swap of two 2x2 blocks
        ([1, 0], [[np.eye(2), np.eye(2)], [np.eye(2), np.diag([1.0, 0.5])]],
         0.5 * np.kron(x, np.eye(2)) + 0.5 * np.diag([1.0, 1.0, 1.0, 0.5])),
        # masks outside [0, R): no block column to place the factor in
        ([1, 2], [[[[1]], [[1]]], [[[1]], [[1]]]], x),
        ([1, -1], [[[[1]], [[1]]], [[[1]], [[1]]]], x),
    ]
    for masks, blocks, target in cases:
        with pytest.raises(DomainError, match="not unitary"):
            prepare_select([0.5, 0.5], masks, blocks, 1.0, target)


def test_builders_record_their_block_residual():
    s = PauliSum([(0.5, "ZX"), (-0.3, "XI"), (0.2, "YY")])
    for uh in (uh_from_sum(s), uh_from_sum(PauliSum([(-0.75, "XY")]))):
        assert uh.residual is not None and uh.residual <= encoding.BLOCK_TOL
    given = BlockEncoding(matrix=np.eye(2), system_dim=1, ancilla_dim=2, scale=1.0)
    assert given.residual is None


def test_uh_single_term_needs_no_ancilla():
    s = PauliSum([(-0.75, "XY")])
    uh = uh_from_sum(s)
    assert uh.ancilla_dim == 1
    assert max_abs(uh.top_block() * uh.scale - sum_matrix(s)) < 1e-12


def test_dilation_unit_eigenvalues_and_block():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    h = (a + a.T) / 2
    h /= np.linalg.norm(h, 2) * 1.25
    enc = dilation_sqrt(h)
    assert is_unitary(enc.matrix, 1e-10)
    assert max_abs(enc.top_block() - h) < 1e-12
    eigs = np.linalg.eigvals(enc.matrix)
    assert np.allclose(np.abs(eigs), 1.0, atol=1e-10)
    # real parts of the dilation's eigenvalues are the block's eigenvalues
    want = np.sort(np.repeat(np.linalg.eigvalsh(h), 2))
    assert np.allclose(np.sort(eigs.real), want, atol=1e-10)


def test_dilation_rejects_expanding_input():
    with pytest.raises(DomainError):
        dilation_sqrt(np.diag([1.5, 0.2]))


def sqrt_of_i_minus_h_squared(h):
    """sqrt(I - h^2) from the eigendecomposition of I - h^2 itself."""
    a = np.eye(h.shape[0]) - h @ h
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (root + root.conj().T) / 2.0


def test_dilation_root_matches_square_root_of_i_minus_h_squared():
    rng = np.random.default_rng(43)
    for qubits in range(1, 6):
        n = 2**qubits
        for _ in range(3):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (g + g.conj().T) / 2.0
            h /= np.linalg.norm(h, 2) * rng.uniform(1.05, 3.0)
            want = sqrt_of_i_minus_h_squared(h)
            w, v = np.linalg.eigh(h)
            for enc in (dilation_sqrt(h), dilation_sqrt(h, spectrum=Spectrum(w, v))):
                assert max_abs(enc.matrix[n:, :n] - want) < 1e-12
                assert max_abs(enc.matrix[:n, n:] + want) < 1e-12
                assert enc.residual == 0.0


def test_dilation_clamps_only_a_tiny_negative_gap():
    enc = dilation_sqrt(np.diag([1.0 + 4e-11, 0.2]))  # 1 - w^2 = -8e-11 counts as zero
    assert enc.matrix[2, 0] == 0.0
    with pytest.raises(DomainError, match="not PSD"):  # within the norm check, but 1 - w^2 = -1.4e-10
        dilation_sqrt(np.diag([1.0 + 7e-11, 0.2]))


def test_dilation_acts_as_its_factor_on_the_upper_branch():
    rng = np.random.default_rng(29)
    n = 8
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2.0
    h /= np.linalg.norm(h, 2) * 1.1
    enc = dilation_sqrt(h)
    assert max_abs(enc.upper - (enc.matrix[:n, :n] + 1j * enc.matrix[n:, :n])) < 1e-15
    v = rng.normal(size=n) + 1j * rng.normal(size=n)  # any vector, not only an eigenvector
    x = np.concatenate([v, -1j * v])
    wv = enc.upper @ v
    assert max_abs(enc.matrix @ x - np.concatenate([wv, -1j * wv])) < 1e-12


def test_dilation_rejects_a_spectrum_of_another_matrix():
    # W = diag(0.5 + i 0.87, -0.2 + i 0.98) is unitary, but its Hermitian part is not h
    with pytest.raises(DomainError, match="spectrum"):
        dilation_sqrt(np.diag([0.5, -0.25]), spectrum=Spectrum(np.array([0.5, -0.2]), np.eye(2)))


def test_dilation_builds_its_matrix_only_when_read(monkeypatch):
    blocks = []
    monkeypatch.setattr(encoding.np, "block", lambda parts: blocks.append(parts) or np.eye(4))
    enc = dilation_sqrt(np.diag([0.5, -0.25]))
    assert (blocks, enc.top_block().shape) == ([], (2, 2))
    assert enc.matrix is enc.matrix  # built on the first read, cached for the second
    assert len(blocks) == 1


def test_b_gate_rows_and_norm():
    t = 0.37
    b = b_gate(t)
    assert is_unitary(b, 1e-12)
    nrm = np.sqrt(b_norm_sq(t))
    assert np.allclose(b[0], np.array([np.sqrt(t), 1.0, t / np.sqrt(2.0), 0.0]) / nrm)
    assert np.allclose(b[:, 0], b[0])  # leading row equals leading column


def test_b_gate_rejects_negative_time():
    with pytest.raises(ContractError):
        b_gate(-0.1)


def test_pi_permutation_swaps_middle_halves():
    p = pi_permutation(4, 2)
    n_total = 2 * 4 * 2
    assert p.shape == (n_total, n_total)
    assert max_abs(p @ p - np.eye(n_total)) == 0.0  # an involution
    assert max_abs(p[:2, :2] - np.eye(2)) == 0.0
    assert max_abs(p[-2:, -2:] - np.eye(2)) == 0.0


def series_target(uh, t):
    """t H + i (I - t^2 H^2 / 2) for H = scale * block of uh, the series formula."""
    h = uh.scale * uh.top_block()
    return t * h + 1j * (np.eye(uh.system_dim) - (t * t / 2.0) * (h @ h))


def test_series_block_equals_target():
    s, _ = normalize_for_encoding(h2_hamiltonian())
    h = sum_matrix(s)
    t = 0.4
    uh = uh_from_sum(s)
    enc = taylor_encoding(uh, t)
    want = t * h + 1j * (np.eye(16) - t * t * (h @ h) / 2.0)
    assert max_abs(series_target(uh, t) - want) < 1e-12
    assert is_unitary(enc.matrix, 1e-9)
    assert max_abs(enc.top_block() * enc.scale - want) < 1e-9
    assert enc.scale == pytest.approx(b_norm_sq(t))


def test_series_rejects_time_budget_overflow():
    s = h2_hamiltonian()  # coefficient norm about 2.7
    with pytest.raises(DomainError):
        taylor_encoding(uh_from_sum(s), 0.9)


def test_series_single_term_sum():
    s = PauliSum([(1.0, "Z")])
    t = 0.6
    uh = uh_from_sum(s)
    enc = taylor_encoding(uh, t)
    z = np.diag([1.0, -1.0])
    want = t * z + 1j * (np.eye(2) - t * t * np.eye(2) / 2.0)
    assert max_abs(series_target(uh, t) - want) < 1e-12
    assert max_abs(enc.top_block() * enc.scale - want) < 1e-9


def test_series_respects_dimension_cap(monkeypatch):
    s_n, _ = normalize_for_encoding(h2_hamiltonian())
    uh = uh_from_sum(s_n)  # dimension 256
    monkeypatch.setenv("TS_SIM_MAX_DIM", "512")
    with pytest.raises(SizeError):
        taylor_encoding(uh, 0.2)  # dimension 4 * 256 = 1024


def test_sum_encoding_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("TS_SIM_MAX_DIM", "128")
    with pytest.raises(SizeError):
        uh_from_sum(h2_hamiltonian())  # 16 blocks of 16


def test_dilation_respects_dimension_cap(monkeypatch):
    monkeypatch.setenv("TS_SIM_MAX_DIM", "16")
    with pytest.raises(SizeError):
        dilation_sqrt(np.eye(16) / 2.0)  # dimension 2 * 16 = 32
    monkeypatch.setenv("TS_SIM_MAX_DIM", "32")
    assert dilation_sqrt(np.eye(16) / 2.0).system_dim == 16


# The factor path: the series block comes from the certified factors, and the
# full circuit matrix (the dense product) serves as the oracle at <= 3 qubits.

def small_series(seed, t=0.3):
    rng = np.random.default_rng(seed)
    s, _ = normalize_for_encoding(random_sum(rng, n=rng.integers(1, 4), terms=rng.integers(1, 7)))
    return taylor_encoding(uh_from_sum(s), t)


def test_series_block_equals_leading_block_of_matrix():
    pauli = [small_series(seed) for seed in range(12)]
    # Pauli and divide-and-conquer sum encodings, each at a step inside its time budget
    sums = [taylor_encoding(uh, min(0.3, 0.9 / uh.scale)) for uh in small_sum_encodings(31)]
    for enc in pauli + sums:
        n = enc.system_dim
        assert enc.matrix.shape == (n * enc.ancilla_dim,) * 2
        assert max_abs(enc.top_block() - enc.matrix[:n, :n]) < 1e-12


def test_series_rejects_a_gate_that_feeds_the_inert_branch(monkeypatch):
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))  # orthogonal, with q[0, 3] != 0
    assert q[0, 3] != 0.0
    monkeypatch.setattr(encoding, "b_gate", lambda t: q)
    s, _ = normalize_for_encoding(PauliSum([(0.5, "ZX"), (0.3, "XI"), (0.2, "YY")]))
    with pytest.raises(DomainError, match="feeds the inert branch"):
        taylor_encoding(uh_from_sum(s), 0.3)


def test_series_rejects_a_route_that_mixes_the_leading_block(monkeypatch):
    s, _ = normalize_for_encoding(PauliSum([(0.5, "ZX"), (0.3, "XI"), (0.2, "YY")]))
    uh = uh_from_sum(s)
    assert uh.ancilla_dim > 1
    # a bijection, so only the new certificate sees it
    monkeypatch.setattr(encoding, "pi_index", lambda L_dim, N: np.arange(2 * L_dim * N))
    with pytest.raises(DomainError, match="does not isolate the leading block"):
        taylor_encoding(uh, 0.3)


def traced_peak(build):
    """Peak of traced allocations while `build()` runs, above the start, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_sum_and_series_encodings_hold_no_ancilla_sized_slabs():
    rng = np.random.default_rng(606)
    words = set()
    while len(words) < 40:
        words.add("".join("IXYZ"[i] for i in rng.integers(0, 4, size=6)))
    s, _ = normalize_for_encoding(PauliSum([(float(rng.normal()), w) for w in sorted(words)]))
    n = 64
    entry = np.dtype(complex).itemsize
    target = sum_matrix(s)
    uh = uh_from_sum(s, target)
    assert (uh.system_dim, uh.ancilla_dim) == (n, 64)
    # a few n x n temporaries: no word matrix, nothing of size a n^2
    assert traced_peak(lambda: uh_from_sum(s, target)) < 8 * n * n * entry
    assert traced_peak(lambda: taylor_encoding(uh, 0.3)) < 16 * n * n * entry


def test_series_matrix_built_on_request_is_unitary():
    for seed in range(12):
        enc = small_series(seed)
        assert is_unitary(enc.matrix, 1e-9)


def test_series_matrix_built_once(monkeypatch):
    builds = []
    dense = encoding._series_matrix
    monkeypatch.setattr(encoding, "_series_matrix", lambda *a: builds.append(1) or dense(*a))
    enc = small_series(3)
    assert builds == []  # the block needs no circuit matrix
    first = enc.matrix
    assert enc.matrix is first
    assert builds == [1]


def dense_pi(L_dim, N):
    """The routing permutation written out block by block."""
    d = 2 * L_dim * N
    half = L_dim * N - N
    p = np.zeros((d, d))
    p[:N, :N] = np.eye(N)
    p[d - N :, d - N :] = np.eye(N)
    p[N : N + half, N + half : d - N] = np.eye(half)
    p[N + half : d - N, N : N + half] = np.eye(half)
    return p


@pytest.mark.parametrize("L_dim, N", [(2, 1), (2, 4), (4, 2), (8, 8), (16, 4)])
def test_routing_index_matches_permutation(L_dim, N):
    index = pi_index(L_dim, N)
    assert np.array_equal(np.sort(index), np.arange(2 * L_dim * N))
    x = np.arange(2 * L_dim * N, dtype=float) * 1.5 - 7.0
    assert np.array_equal(pi_permutation(L_dim, N) @ x, x[index])
    assert np.array_equal(pi_permutation(L_dim, N), dense_pi(L_dim, N))


def test_series_rejects_non_unitary_sum_encoding():
    s, _ = normalize_for_encoding(PauliSum([(0.5, "ZX"), (0.3, "XI"), (0.2, "YY")]))
    uh = uh_from_sum(s)
    bent = uh.matrix.copy()
    bent[-1, -1] *= 1.5  # far from the block: only the factor check sees it
    fake = BlockEncoding(matrix=bent, system_dim=uh.system_dim, ancilla_dim=uh.ancilla_dim,
                         scale=uh.scale)
    with pytest.raises(DomainError, match="not unitary"):
        taylor_encoding(fake, 0.3)
