"""Phase estimators, eigenvalue recovery, and the probability-difference law."""

import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from tssim import encoding, linalg, pauli, phase
from tssim.cli import RunConfig, run
from tssim.encoding import BlockEncoding, dilation_sqrt, taylor_encoding, uh_from_sum
from tssim.errors import ContractError
from tssim.linalg import hermitian_eig
from tssim.pauli import PauliSum, h2_hamiltonian, normalize_for_encoding, sum_matrix
from tssim.phase import (
    METHOD_TAYLOR,
    PhaseEstimate,
    _pea_core,
    dilated_eigenvector,
    eigenvalue_from_phase,
    estimate_ground_energy,
    histogram_prob_diff,
    ipea_msb,
    pea_phase,
    taylor_phase,
)


def phase_unitary(phi):
    return np.diag([1.0, np.exp(2j * np.pi * phi)])


E1 = np.array([0.0, 1.0])


def test_pea_identity_phase_zero():
    est = pea_phase(np.eye(4), np.array([0, 1, 0, 0]), 8)
    assert est.phase == 0.0
    assert est.success_prob == 1.0


def test_pea_quarter_phase():
    est = pea_phase(phase_unitary(0.25), E1, 4)
    assert est.bits == [0, 1, 0, 0]
    assert est.phase == 0.25
    assert est.eigenvalue == pytest.approx(0.0, abs=1e-15)


def test_pea_on_dilation_reads_arccos():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    enc = dilation_sqrt(0.6 * sx)
    v = dilated_eigenvector(np.array([1.0, 1.0]) / math.sqrt(2.0))
    est = pea_phase(enc.matrix, v, 12)
    assert est.phase == pytest.approx(math.acos(0.6) / (2 * math.pi), abs=2**-12)


def test_pea_rejects_non_eigenvector():
    u = np.diag([1.0, -1.0])
    with pytest.raises(ContractError):
        pea_phase(u, np.array([1.0, 1.0]), 4)


def test_pea_rejects_non_unitary():
    with pytest.raises(ContractError):
        pea_phase(np.diag([2.0, 1.0]), E1, 4)


def test_estimators_read_a_certified_encoding_as_its_matrix():
    rng = np.random.default_rng(19)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (g + g.conj().T) / 2.0
    h /= np.linalg.norm(h, 2) * 1.2
    enc = dilation_sqrt(h)
    assert enc.residual is not None
    for k in range(8):
        v = dilated_eigenvector(hermitian_eig(h).vectors[:, k])
        for estimate in (pea_phase, ipea_msb):
            assert estimate(enc, v, 14) == estimate(enc.matrix, v, 14)


def test_estimators_check_an_encoding_without_residual():
    bent = BlockEncoding(matrix=np.diag([2.0, 1.0]), system_dim=1, ancilla_dim=2, scale=1.0)
    for estimate in (pea_phase, ipea_msb):
        with pytest.raises(ContractError, match="unitary"):
            estimate(bent, E1, 4)
    given = BlockEncoding(matrix=phase_unitary(0.25), system_dim=1, ancilla_dim=2, scale=1.0)
    assert pea_phase(given, E1, 4) == pea_phase(phase_unitary(0.25), E1, 4)


def counted(monkeypatch, module, name, record=None):
    """Count calls of module.name, patched wherever a tssim module holds it;
    each call appends record(*args, **kwargs), or name when record is None."""
    original = getattr(module, name)
    calls = []

    def counter(*args, **kwargs):
        calls.append(name if record is None else record(*args, **kwargs))
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod is module or (mod.__name__.startswith("tssim") and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counter)
    return calls


# exact solves h_n, dc the stacked leaf split and its reconstruction; each
# certifies its dilation through the N x N factor W alone, and dc's branches
# are certified 2x2 block by block
@pytest.mark.parametrize("method, eighs, unitary_checks", [("exact", 1, 1), ("dc", 2, 1)])
def test_dilation_routes_solve_and_certify_once(monkeypatch, method, eighs, unitary_checks):
    eigh = counted(monkeypatch, np.linalg, "eigh")
    dims = counted(monkeypatch, linalg, "is_unitary", lambda u, tol: len(u))
    energy, _ = estimate_ground_energy(h2_hamiltonian(), m=16, method=method)
    assert energy == pytest.approx(-1.8510456784448643, abs=1e-3)
    assert len(eigh) == eighs
    assert dims == [16] * unitary_checks  # N = 16; the 2N = 32 dilation is never checked


@pytest.mark.parametrize("method, t", [("exact", 1.0), ("dc", 1.0), ("taylor", 0.2)])
@pytest.mark.parametrize("estimator", ["pea", "ipea"])
def test_estimates_never_read_a_full_encoding_matrix(monkeypatch, method, t, estimator):
    def refuse(enc):
        raise AssertionError(f"an estimate read the {enc.ancilla_dim * enc.system_dim}-dimensional matrix")

    monkeypatch.setattr(BlockEncoding, "matrix", property(refuse))
    energy, _ = estimate_ground_energy(h2_hamiltonian(), t=t, m=12, method=method, estimator=estimator)
    assert energy == pytest.approx(-1.8510456784448643, abs=0.05)


def test_dc_route_checks_its_eigenvector_against_the_sum(monkeypatch):
    # a reconstruction whose ground state, the uniform superposition, is not the sum's
    monkeypatch.setattr(phase, "reconstruct", lambda d: -np.full((16, 16), 1.0 / 16.0))
    with pytest.raises(ContractError, match="eigenvector of the normalized Hamiltonian"):
        estimate_ground_energy(h2_hamiltonian(), m=8, method="dc")


H2_FILE = os.path.join(os.path.dirname(__file__), "fixtures", "h2.pauli")


# Each command builds only what it reads: h2 assembles one sum encoding (the
# series route's), builds H2's matrix once for itself and once normalized for
# all three routes, and solves three spectra: its own, the normalized one that
# exact and taylor share, and dc's reconstruction. The series route hands its
# matrix to the sum encoding; decompose and the dc route read the
# decomposition without assembling its encoding.
@pytest.mark.parametrize("cfg, prepares, sums, eighs", [
    (RunConfig(command="h2", bits=8), 1, 2, 3),
    (RunConfig(command="estimate", input_path=H2_FILE, method="taylor", t=0.2, bits=8), 1, 1, 1),
    (RunConfig(command="estimate", input_path=H2_FILE, method="dc", bits=8), 0, 1, 1),
    (RunConfig(command="decompose", input_path=H2_FILE), 0, 1, 0),
], ids=["h2", "taylor", "dc", "decompose"])
def test_commands_build_only_what_they_read(monkeypatch, cfg, prepares, sums, eighs):
    prepare = counted(monkeypatch, encoding, "prepare_select")
    sum_builds = counted(monkeypatch, pauli, "sum_matrix")
    solves = counted(monkeypatch, linalg, "hermitian_eig")
    code, _ = run(cfg)
    assert code == 0
    assert (len(prepare), len(sum_builds), len(solves)) == (prepares, sums, eighs)


@pytest.mark.parametrize("bits", [8, 16])
def test_h2_routes_equal_separate_estimates(bits):
    code, doc = run(RunConfig(command="h2", bits=bits))
    assert code == 0
    norm = phase._Normalized(h2_hamiltonian())  # shared by the routes, as h2 shares it
    for method, route in doc["estimates"].items():
        energy, est = estimate_ground_energy(h2_hamiltonian(), t=route["t"], m=bits, method=method)
        assert phase._ground_energy(norm, route["t"], bits, method) == (energy, est)
        assert (route["energy"], route["success_prob"]) == (energy, est.success_prob)


@pytest.mark.parametrize("kwargs, message", [
    ({"method": "bogus"}, "unknown method 'bogus'"),
    ({"t": 0.0}, "evolution time must be positive"),
    ({"m": 0}, "bit count must be an integer"),
    ({"t": 1e-6, "m": 8}, "phase resolution cannot bound the energy"),
], ids=["method", "time", "bits", "resolution"])
def test_estimate_checks_its_arguments_before_building(monkeypatch, kwargs, message):
    normalizations = counted(monkeypatch, pauli, "normalize_for_encoding")
    s = PauliSum([(1e-16, "X")])  # its only term is dropped, so normalizing it would raise
    assert s.terms == []
    with pytest.raises(ContractError, match=message):
        estimate_ground_energy(s, **kwargs)
    assert normalizations == []


def test_single_term_series_certifies_its_sum_encoding_once(monkeypatch):
    checks = counted(monkeypatch, linalg, "is_unitary")
    taylor_encoding(uh_from_sum(PauliSum([(-0.75, "XY")])), 0.5)
    assert len(checks) == 2  # the prepare oracle (1 x 1) and the coefficient gate


def test_taylor_estimate_certifies_its_factors_without_dense_words(monkeypatch):
    checks = counted(monkeypatch, linalg, "is_unitary")
    words = counted(monkeypatch, pauli, "word_matrix")
    estimate_ground_energy(h2_hamiltonian(), t=0.2, m=8, method="taylor")
    assert (len(checks), len(words)) == (2, 0)  # B and the coefficient gate; words block by block


def test_pea_large_register_uses_analytic_peak():
    est = pea_phase(phase_unitary(1.0 / 3.0), E1, 30)
    assert abs(est.phase - 1.0 / 3.0) <= 2**-30
    assert 0 < est.success_prob <= 1.0


def test_ipea_leading_bit_cases():
    # doubled phase 0.5: difference +1, leading bit 0
    est = ipea_msb(np.diag([1.0, np.exp(1j * np.pi * 0.5)]), E1, 2)
    assert est.bits[0] == 0
    # doubled phase 1.5: difference -1, leading bit 1
    est = ipea_msb(np.diag([1.0, np.exp(1j * np.pi * 1.5)]), E1, 2)
    assert est.bits[0] == 1


def test_ipea_exhaustive_small_registers():
    for m in range(1, 9):
        for j in range(2**m):
            phi = j / 2**m
            est = ipea_msb(phase_unitary(phi), E1, m)
            want = [(j >> (m - 1 - i)) & 1 for i in range(m)]
            assert est.bits == want, (m, j)
            assert est.phase == phi


def test_ipea_agrees_with_register_method():
    for m in (3, 5, 8):
        for j in range(2**m):
            phi = j / 2**m
            a = ipea_msb(phase_unitary(phi), E1, m)
            b = pea_phase(phase_unitary(phi), E1, m)
            assert a.bits == b.bits


def test_ipea_quantization_bound():
    rng = np.random.default_rng(42)
    for phi in rng.random(1000):
        est = ipea_msb(phase_unitary(phi), E1, 12)
        assert abs(est.phase - phi) <= 2**-12


def test_ipea_monotone_refinement():
    phi = 0.2971830931
    prev = []
    for m in range(1, 20):
        bits = ipea_msb(phase_unitary(phi), E1, m).bits
        assert bits[: len(prev)] == prev
        prev = bits


def test_ipea_boundary_phase_flagged_and_correct():
    est = ipea_msb(phase_unitary(0.5), E1, 4)
    assert est.tie
    assert est.bits == [1, 0, 0, 0]
    assert est.phase == 0.5


def test_ipea_sampling_mode_deterministic_per_seed():
    u = phase_unitary(0.3)
    a = ipea_msb(u, E1, 8, shots=400, seed=11)
    b = ipea_msb(u, E1, 8, shots=400, seed=11)
    assert a.bits == b.bits
    # plenty of shots: sampled bits match the exact-mode bits
    exact = ipea_msb(u, E1, 8)
    assert a.bits == exact.bits


def test_success_prob_in_unit_interval():
    rng = np.random.default_rng(7)
    for phi in rng.random(50):
        for est in (pea_phase(phase_unitary(phi), E1, 6), ipea_msb(phase_unitary(phi), E1, 6)):
            assert 0.0 < est.success_prob <= 1.0


def test_eigenvalue_from_phase_exact():
    p = PhaseEstimate(bits=[0, 1], phase=0.25, eigenvalue=0.0, success_prob=1.0,
                      method="exact-dilation")
    assert eigenvalue_from_phase(p, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_eigenvalue_from_phase_series_correction():
    mu = 0.5 + 0.875j  # value of 0.5*1 + i(1 - 0.125) at eigenvalue 1, t = 0.5
    phi = math.atan2(mu.imag, mu.real) / (2 * math.pi)
    p = PhaseEstimate(bits=[], phase=phi, eigenvalue=math.cos(2 * math.pi * phi),
                      success_prob=1.0, method=METHOD_TAYLOR)
    lam0 = eigenvalue_from_phase(p, 0.5, correct=False)
    lam = eigenvalue_from_phase(p, 0.5)
    assert lam0 == pytest.approx(0.9923, abs=5e-4)
    assert lam == pytest.approx(1.0, abs=1e-6)


def test_eigenvalue_from_phase_rejects_bad_time():
    p = PhaseEstimate(bits=[], phase=0.0, eigenvalue=1.0, success_prob=1.0)
    with pytest.raises(ContractError):
        eigenvalue_from_phase(p, 0.0)


def test_ground_energy_single_z():
    e, est = estimate_ground_energy(PauliSum([(1.0, "Z")]), t=1.0, m=12, method="exact")
    assert e == pytest.approx(-1.0, abs=2**-10)
    e, est = estimate_ground_energy(PauliSum([(1.0, "Z")]), t=1.0, m=12,
                                    method="exact", estimator="ipea")
    assert e == pytest.approx(-1.0, abs=2**-10)
    assert est.tie  # the lowest eigenvalue sits exactly on the phase boundary


def test_ground_energy_routes_agree_on_random_sum():
    rng = np.random.default_rng(13)
    s = PauliSum([(float(rng.normal()), w) for w in ("ZI", "IZ", "XX", "ZZ")])
    want = float(np.linalg.eigvalsh(sum_matrix(s))[0])
    for method, t in (("exact", 1.0), ("taylor", 0.3), ("dc", 1.0)):
        e, _ = estimate_ground_energy(s, t=t, m=20, method=method)
        assert e == pytest.approx(want, abs=1e-4), method


def test_ground_energy_rejects_unknown_method():
    for method in ("trotter", "exact-dilation"):  # the estimate's tag is not a route name
        with pytest.raises(ContractError, match="unknown method"):
            estimate_ground_energy(PauliSum([(1.0, "Z")]), method=method)


def test_eigenvalue_from_phase_takes_the_method_from_the_estimate():
    p = PhaseEstimate(bits=[], phase=0.1, eigenvalue=math.cos(0.2 * math.pi), success_prob=1.0,
                      method="trotter")
    with pytest.raises(ContractError, match="unknown method tag"):
        eigenvalue_from_phase(p, 0.5)


def test_series_phase_folds_postselection_probability():
    s, _ = normalize_for_encoding(h2_hamiltonian())
    h = sum_matrix(s)
    eig = hermitian_eig(h)
    v = eig.vectors[:, 0]
    t = 0.25
    m = 10
    enc = taylor_encoding(uh_from_sum(s), t)
    est = taylor_phase(enc, v, m)
    lam = eig.values[0]
    mu = t * lam + 1j * (1.0 - t * t * lam * lam / 2.0)
    phi = (math.atan2(mu.imag, mu.real) / (2 * math.pi)) % 1.0
    delta = phi - round(phi * 2**m) / 2**m
    peak = (math.sin(2**m * math.pi * delta) / (2**m * math.sin(math.pi * delta))) ** 2
    assert est.success_prob == pytest.approx(peak * abs(mu) ** 2 / enc.scale**2, rel=1e-6)
    assert est.method == METHOD_TAYLOR


def test_correction_never_hurts_on_series_ensemble():
    """Corrected eigenvalues beat uncorrected ones across random sums and times."""
    rng = np.random.default_rng(77)
    words = ("XI", "IX", "ZI", "IZ", "XX", "YY", "ZZ", "XZ")
    done = 0
    while done < 100:
        picks = rng.choice(len(words), size=4, replace=False)
        s = PauliSum([(float(rng.normal()), words[i]) for i in picks])
        s_n, _ = normalize_for_encoding(s)
        eig = hermitian_eig(sum_matrix(s_n))
        idx = int(np.argmax(np.abs(eig.values)))
        lam = float(eig.values[idx])
        if abs(lam) < 0.5:
            continue
        t = min(0.95, float(rng.uniform(0.45, 0.85)) / abs(lam))
        assert t * abs(lam) <= 0.9 + 1e-12
        enc = taylor_encoding(uh_from_sum(s_n), t)
        est = taylor_phase(enc, eig.vectors[:, idx], 20)
        err_corr = abs(eigenvalue_from_phase(est, t) - lam)
        err_raw = abs(eigenvalue_from_phase(est, t, correct=False) - lam)
        assert err_corr <= err_raw + 1e-15
        assert err_corr <= max(8 * math.pi * 2**-20 / t, 1e-8)
        done += 1


def test_histogram_single_round_values():
    # phase 0.25 gives |difference| 1; phase 0.375 gives about 0.707
    one = histogram_prob_diff(1, 1, seed=0)
    assert sum(one["bins"]) == pytest.approx(1.0)
    assert abs(math.sin(2 * math.pi * 0.25)) == pytest.approx(1.0)
    assert abs(math.sin(2 * math.pi * 0.375)) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)


def test_histogram_matches_arcsine_law():
    h = histogram_prob_diff(5000, 20, seed=7)
    assert h["below_0.1"] == pytest.approx(2 / math.pi * math.asin(0.1), abs=0.01)
    assert h["above_0.9"] == pytest.approx(1 - 2 / math.pi * math.asin(0.9), abs=0.01)
    assert sum(h["bins"]) == pytest.approx(1.0, abs=1e-12)
    assert h["samples"] == 5000 and h["seed"] == 7


def test_histogram_deterministic_for_seed():
    assert histogram_prob_diff(200, 5, seed=3) == histogram_prob_diff(200, 5, seed=3)


def test_histogram_rejects_bad_sizes():
    with pytest.raises(ContractError):
        histogram_prob_diff(0)
    with pytest.raises(ContractError):
        histogram_prob_diff(10, 0)


def test_bit_count_bounds():
    with pytest.raises(ContractError):
        pea_phase(np.eye(2), np.array([1.0, 0.0]), 0)
    with pytest.raises(ContractError):
        ipea_msb(np.eye(2), np.array([1.0, 0.0]), 49)


def register_peak(phi, m):
    """Most probable outcome of the m-bit register, by evaluating all 2^m outcomes."""
    size = 1 << m
    delta = phi - np.arange(size) / size
    num = np.sin(np.pi * size * delta)
    den = size * np.sin(np.pi * delta)
    exact = np.abs(den) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = np.where(exact, 1.0, (num / np.where(exact, 1.0, den)) ** 2)
    best = int(np.argmax(probs))
    return best, float(min(1.0, probs[best]))


def test_pea_peak_matches_register_formula():
    rng = np.random.default_rng(11)
    for m in range(1, 11):
        for phi in rng.random(40):
            bits, phase, prob = _pea_core(float(phi), m)
            best, want = register_peak(float(phi), m)
            assert phase * (1 << m) == best
            assert prob == pytest.approx(want, rel=1e-12)


def test_pea_half_grid_ties_take_lower_neighbour():
    for m in range(1, 11):
        size = 1 << m
        tie_prob = 1.0 / (size * math.sin(math.pi / (2 * size))) ** 2
        for k in range(size):
            phi = (k + 0.5) / size
            _, phase, prob = _pea_core(phi, m)
            assert phase * size == k  # floor(phi * 2^m), the wrap point k = 2^m - 1 included
            assert prob == pytest.approx(tie_prob, rel=1e-12)
            best, want = register_peak(phi, m)
            assert want == pytest.approx(tie_prob, rel=1e-12)
            if k < size - 1:  # at the wrap the formula picks 2^m - 1 or 0 by rounding
                assert best == k


def test_pea_half_grid_tie_beyond_ten_bits():
    m = 24
    size = 1 << m
    for k in (1, 3, 12345, size - 3):  # odd: rounding half to even would go up
        bits, phase, _ = _pea_core((k + 0.5) / size, m)
        assert phase * size == k
        assert bits == [(k >> (m - 1 - i)) & 1 for i in range(m)]


def buffered_histogram(ensemble_size, iterations, seed):
    """Every round's differences in one buffer, then one histogram."""
    rng = np.random.default_rng(seed)
    r = rng.random(ensemble_size)
    diffs = np.empty(ensemble_size * iterations)
    for k in range(iterations):
        diffs[k * ensemble_size : (k + 1) * ensemble_size] = np.abs(np.sin(2.0 * np.pi * r))
        r = (2.0 * r) % 1.0
    counts, _ = np.histogram(diffs, bins=10, range=(0.0, 1.0))
    return {
        "bins": [float(c) / diffs.size for c in counts],
        "below_0.1": float(np.mean(diffs < 0.1)),
        "above_0.9": float(np.mean(diffs > 0.9)),
        "samples": ensemble_size,
        "seed": seed,
    }


@pytest.mark.parametrize("size, rounds, seed", [(1, 1, 0), (37, 3, 1), (500, 20, 7), (999, 9, 42)])
def test_histogram_streaming_equals_buffered(size, rounds, seed):
    assert histogram_prob_diff(size, rounds, seed) == buffered_histogram(size, rounds, seed)


def test_histogram_memory_does_not_grow_with_rounds():
    histogram_prob_diff(10, 2, seed=1)  # warm numpy's one-off allocations
    tracemalloc.start()
    try:
        histogram_prob_diff(1000, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1000 * 200 / 4  # a quarter of the trials x rounds float buffer
