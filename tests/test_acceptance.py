"""Acceptance gate.

Eight end-to-end checks, one test function each so `pytest -v` reports one
pass/fail line per criterion. Expected values are either frozen constants or
recomputed here by independent oracle code (numpy.linalg factorizations,
direct matrix arithmetic), never by the code paths under test.
"""

import math
import time

import numpy as np
import pytest

from tssim.decompose import build_decomposition, reconstruct
from tssim.encoding import dilation_sqrt, taylor_encoding, uh_from_sum
from tssim.gates import count_dc, count_dense, count_multiplexor, count_select_path
from tssim.linalg import hermitian_eig, max_abs
from tssim.pauli import PauliSum, h2_hamiltonian, normalize_for_encoding, sum_matrix
from tssim.phase import (
    eigenvalue_from_phase,
    estimate_ground_energy,
    histogram_prob_diff,
    ipea_msb,
    taylor_phase,
)

from quadrant_words import leaf_slice, recursive_decompose

E0_H2 = -1.8510456784448643
LETTERS = "IXYZ"


def random_sums(count, seed):
    """Seeded ensemble of Hermitian Pauli sums with n <= 3 and L <= 8."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 4))
        length = min(int(rng.integers(1, 9)), 4**n)
        words = set()
        while len(words) < length:
            words.add("".join(LETTERS[i] for i in rng.integers(0, 4, size=n)))
        s = PauliSum([(float(rng.normal()), w) for w in sorted(words)])
        if s.coefficient_one_norm() > 1e-6:
            out.append(normalize_for_encoding(s)[0])
    return out


def test_acc_1_series_block_matches_direct_target():
    """Series encoding block equals t*H + i(I - t^2 H^2 / 2) to 1e-9."""
    start = time.perf_counter()
    worst = 0.0
    for s in random_sums(100, seed=20260819):
        h = sum_matrix(s)
        dim = h.shape[0]
        uh = uh_from_sum(s)
        for t in (0.1, 0.5, 0.9):
            enc = taylor_encoding(uh, t)
            block = enc.matrix[:dim, :dim] * enc.scale
            want = t * h + 1j * (np.eye(dim) - t * t * (h @ h) / 2.0)
            worst = max(worst, float(np.max(np.abs(block - want))))
    assert worst <= 1e-9, f"worst block residual {worst}"
    assert time.perf_counter() - start < 30.0


def test_acc_2_dilation_real_parts_match_spectrum():
    """Dilation eigenvalue real parts reproduce t*eig(H) within 1e-10."""
    for s in random_sums(100, seed=20260819):
        h = sum_matrix(s)
        for t in (0.1, 0.5, 0.9):
            enc = dilation_sqrt(t * h)
            got = np.sort(np.linalg.eigvals(enc.matrix).real)
            want = np.sort(np.repeat(t * np.linalg.eigvalsh(h), 2))
            assert float(np.max(np.abs(got - want))) <= 1e-10
            mods = np.abs(np.linalg.eigvals(enc.matrix))
            assert float(np.max(np.abs(mods - 1.0))) <= 1e-10


def test_acc_3_decomposition_reconstructs_with_unitary_leaves():
    """200 random matrices: residual <= 1e-9, digit-flip address rule, leaves unitary."""
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    flip = {"0": "1", "3": "2"}
    for i in range(200):
        dim = int(rng.choice([4, 8, 16]))
        k = dim.bit_length() - 2
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m *= float(rng.uniform(0.05, 2.0)) / dim
        d = build_decomposition(m)
        assert float(max_abs(reconstruct(d) - m)) <= 1e-9, i
        for term in d.terms:
            assert term.x_mask == term.j
            for u in term.v_blocks:
                assert float(np.max(np.abs(u @ u.conj().T - np.eye(2)))) <= 1e-10
        for j, x_mask, leaves in recursive_decompose(m):
            assert x_mask == j
            for r, leaf in enumerate(leaves):
                word = ""
                for p in range(k):
                    base = "0" if (r >> (k - 1 - p)) & 1 == 0 else "3"
                    word += flip[base] if (j >> (k - 1 - p)) & 1 else base
                assert leaf.word == word
                r0, c0 = leaf_slice(word, dim)
                assert (r0, c0) == (2 * r, 2 * (r ^ j))
                assert np.array_equal(leaf.entries, m[r0 : r0 + 2, c0 : c0 + 2])
    assert time.perf_counter() - start < 60.0


def test_acc_4_hydrogen_ground_energy_all_routes():
    """Frozen reference energy, two eigensolver cross-checks, three routes at 1e-3."""
    start = time.perf_counter()
    s = h2_hamiltonian()
    h = sum_matrix(s)
    assert float(np.linalg.eigvalsh(h)[0]) == pytest.approx(E0_H2, abs=1e-12)
    assert float(hermitian_eig(h).values[0]) == pytest.approx(E0_H2, abs=1e-10)
    for method, t in (("exact", 1.0), ("taylor", 0.2), ("dc", 1.0)):
        energy, est = estimate_ground_energy(s, t=t, m=16, method=method)
        assert abs(energy - E0_H2) <= 1e-3, (method, energy)
        assert 0.0 < est.success_prob <= 1.0
    assert time.perf_counter() - start < 60.0


def test_acc_5_gate_tallies_exact():
    """Every closed-form tally pins to its exact integer."""
    s = h2_hamiltonian()
    assert count_multiplexor(4, 4) == 64
    assert count_multiplexor(4, 1) == 16
    assert count_select_path(s).cnots == 80
    assert count_select_path(s, extra_controls=2, copies=2).cnots == 640
    assert count_dense(8).cnots == 96
    assert count_dense(16).cnots == 384
    d = build_decomposition(sum_matrix(s))
    assert count_dc(d).singles == 32
    assert count_dc(d).cnots == 128
    assert count_dc(d, pea_control=True).cnots == 256


def test_acc_6_iterative_bits_exhaustive_and_quantized():
    """All bits exact for every representable phase m <= 8; 2^-12 bound at m = 12."""
    for m in range(1, 9):
        for j in range(2**m):
            phi = j / 2**m
            u = np.diag([1.0, np.exp(2j * np.pi * phi)])
            est = ipea_msb(u, np.array([0.0, 1.0]), m)
            assert est.bits == [(j >> (m - 1 - i)) & 1 for i in range(m)], (m, j)
    rng = np.random.default_rng(112)
    for phi in rng.random(1000):
        u = np.diag([1.0, np.exp(2j * np.pi * phi)])
        est = ipea_msb(u, np.array([0.0, 1.0]), 12)
        assert abs(est.phase - phi) <= 2**-12


def test_acc_7_probability_difference_distribution():
    """Ensemble tallies match the arcsine-law tail weights."""
    h = histogram_prob_diff(5000, 20, seed=7)
    assert abs(h["below_0.1"] - 0.0644) <= 0.03
    assert abs(h["above_0.9"] - 0.2862) <= 0.05
    assert sum(h["bins"]) == pytest.approx(1.0, abs=1e-12)


def test_acc_8_modulus_correction_tightens_series_estimates():
    """Corrected eigenvalue beats the raw cosine and meets the phase-grid bound."""
    rng = np.random.default_rng(88)
    words = ("XI", "IX", "YI", "IY", "ZI", "IZ", "XX", "YY", "ZZ", "XZ", "ZX", "XY")
    done = 0
    while done < 100:
        picks = rng.choice(len(words), size=4, replace=False)
        s = PauliSum([(float(rng.normal()), words[i]) for i in picks])
        if s.coefficient_one_norm() < 1e-6:
            continue
        s_n, _ = normalize_for_encoding(s)
        eig = hermitian_eig(sum_matrix(s_n))
        idx = int(np.argmax(np.abs(eig.values)))
        lam = float(eig.values[idx])
        if abs(lam) < 0.5:
            continue
        t = min(0.95, float(rng.uniform(0.45, 0.85)) / abs(lam))
        enc = taylor_encoding(uh_from_sum(s_n), t)
        est = taylor_phase(enc, eig.vectors[:, idx], 16)
        err_corr = abs(eigenvalue_from_phase(est, t) - lam)
        err_raw = abs(eigenvalue_from_phase(est, t, correct=False) - lam)
        assert err_corr <= err_raw + 1e-15, (done, err_corr, err_raw)
        assert err_corr <= max(8.0 * math.pi * 2**-16 / t, 1e-8), (done, err_corr)
        done += 1
