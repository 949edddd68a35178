"""Phase estimation and eigenvalue recovery for block-encoded Hamiltonians.

Two estimators share one convention: the phase is arg(eigenvalue) / 2pi in
[0, 1). The register method simulates the textbook m-bit estimator's final
statevector through its closed form and reads the most probable outcome.
The iterative method reads bits most-significant-first: round k applies the
unitary 2^(k-1) times, shifts the kicked-back phase by -pi/2, and compares
outcome probabilities; the probability difference is sin of 2pi times the
residual phase, so each round decides one binary digit. Eigenvalues of the
encoded Hermitian generator are then cosines of the recovered phase, with
an optional fixed-point correction for the truncated series' non-unit
eigenvalue modulus sqrt(1 + t^4 lambda^4 / 4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .decompose import build_decomposition, encoding_shape, reconstruct
from .encoding import BlockEncoding, dilation_sqrt, taylor_encoding, uh_from_sum
from .errors import ContractError, NumericError
from .linalg import Spectrum, as_matrix, hermitian_eig, is_unitary
from .pauli import PauliSum, normalize_for_encoding, sum_matrix

EIGVEC_TOL = 1e-8
UNITARY_TOL = 1e-9
TIE_TOL = 1e-12
MAX_BITS = 48
FIXED_POINT_ROUNDS = 128

METHOD_EXACT = "exact-dilation"
METHOD_TAYLOR = "taylor"
METHOD_DIRECT = "direct-unitary"
_METHODS = (METHOD_EXACT, METHOD_TAYLOR, METHOD_DIRECT)


@dataclass
class PhaseEstimate:
    """Recovered binary phase and its bookkeeping.

    bits are most-significant-first, so phase = sum bits[i] / 2^(i+1).
    eigenvalue stores cos(2pi phase), the encoded generator's eigenvalue in
    normalized units before any time or coefficient rescaling. tie is set
    when an iterative round landed exactly on the decision boundary; the
    bit then follows the terminating binary expansion.
    """

    bits: list
    phase: float
    eigenvalue: float
    success_prob: float
    method: str = METHOD_DIRECT
    tie: bool = False


def _check_bit_count(m: int) -> int:
    if int(m) != m or not 1 <= m <= MAX_BITS:
        raise ContractError(f"bit count must be an integer in [1, {MAX_BITS}]")
    return int(m)


def _unit_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    nrm = float(np.linalg.norm(v))
    if nrm < 1e-12:
        raise ContractError("state vector is numerically zero")
    return v / nrm


def _eigenvalue_on(a: np.ndarray, v, what: str) -> complex:
    """Rayleigh quotient mu of a on v, if |a v - mu v| <= EIGVEC_TOL max(1, |mu|)."""
    v = _unit_vector(v)
    if v.shape[0] != a.shape[0]:
        raise ContractError(f"vector length does not match the {what} dimension")
    w = a @ v
    mu = complex(np.vdot(v, w))
    if float(np.linalg.norm(w - mu * v)) > EIGVEC_TOL * max(1.0, abs(mu)):
        raise ContractError(f"vector is not an eigenvector of the {what}")
    return mu


def _eigenvalue_of(u, v) -> complex:
    """Unit-modulus eigenvalue of u on v, for a matrix or a BlockEncoding u;
    only an encoding that carries its builder's residual skips the unitarity check."""
    a = u.matrix if isinstance(u, BlockEncoding) else as_matrix(u)
    if getattr(u, "residual", None) is None and not is_unitary(a, UNITARY_TOL):
        raise ContractError("phase estimation needs a unitary matrix")
    mu = _eigenvalue_on(a, v, "unitary")
    return mu / abs(mu)


def _phase_of(mu: complex) -> float:
    return (math.atan2(mu.imag, mu.real) / (2.0 * math.pi)) % 1.0


def _bit_list(y: int, m: int) -> list:
    return [(y >> (m - 1 - i)) & 1 for i in range(m)]


def _phase_of_bits(bits) -> float:
    return sum(b * 2.0 ** -(i + 1) for i, b in enumerate(bits))


def _pea_core(phi: float, m: int) -> tuple[list, float, float]:
    """Most probable m-bit register outcome for eigenphase phi.

    Outcome y has probability sin^2(2^m pi d) / (2^m sin(pi d))^2 with
    d = phi - y/2^m, the squared geometric sum of the kicked-back phases.
    Its peak is the grid point nearest phi; at an exact half-grid tie the
    lower neighbour floor(phi 2^m) wins.
    """
    size = 1 << m
    x = phi * size  # exact: size is a power of two
    lower = math.floor(x)
    best = (lower if x - lower <= 0.5 else lower + 1) % size
    delta = phi - best / size
    if abs(delta) < 1e-18:
        prob = 1.0
    else:
        ratio = math.sin(math.pi * size * delta) / (size * math.sin(math.pi * delta))
        prob = min(1.0, ratio * ratio)
    return _bit_list(best, m), best / size, prob


def _ipea_core(phi: float, m: int, shots=None, seed: int = 0) -> tuple[list, float, float, bool]:
    rng = np.random.default_rng(seed) if shots is not None else None
    bits = []
    prob = 1.0
    tie = False
    r = phi % 1.0
    for _ in range(m):
        diff = math.sin(2.0 * math.pi * r)  # P(0) - P(1)
        if abs(diff) <= TIE_TOL:
            # decision boundary: residual phase 0 or 1/2; take the bit of
            # the terminating expansion (1 at the upper boundary) so exact
            # binary phases round-trip, and flag it
            tie = True
            bit = 1 if math.cos(2.0 * math.pi * r) < 0.0 else 0
            p_emit = 0.5
        elif shots is None:
            bit = 1 if diff < 0.0 else 0
            p_emit = (1.0 - diff) / 2.0 if bit else (1.0 + diff) / 2.0
        else:
            p_one = min(1.0, max(0.0, (1.0 - diff) / 2.0))
            ones = int(rng.binomial(int(shots), p_one))
            bit = 1 if 2 * ones > shots else 0
            p_emit = p_one if bit else 1.0 - p_one
        bits.append(bit)
        prob *= max(p_emit, 1e-300)
        r = (2.0 * r) % 1.0
    return bits, _phase_of_bits(bits), min(1.0, prob), tie


def _readout(phi: float, m: int, estimator: str, method: str, post: float = 1.0,
             shots=None, seed: int = 0) -> PhaseEstimate:
    """The named estimator's m-bit reading of eigenphase phi; success_prob is scaled by `post`."""
    if estimator == "pea":
        bits, phase, prob = _pea_core(phi, m)
        tie = False
    elif estimator == "ipea":
        bits, phase, prob, tie = _ipea_core(phi, m, shots, seed)
    else:
        raise ContractError(f"unknown estimator {estimator!r}")
    return PhaseEstimate(bits, phase, math.cos(2.0 * math.pi * phase), min(1.0, prob * post), method, tie)


def pea_phase(u, v, m: int) -> PhaseEstimate:
    """m-bit register phase estimation of u's eigenvalue on eigenvector v.

    u is a unitary matrix or a BlockEncoding. Deterministic: returns the
    most probable register outcome, computed in closed form; success_prob
    is that outcome's probability (1 for exactly representable phases,
    never below 4/pi^2).
    """
    m = _check_bit_count(m)
    return _readout(_phase_of(_eigenvalue_of(u, v)), m, "pea", METHOD_DIRECT)


def ipea_msb(u, v, m: int, shots=None, seed: int = 0) -> PhaseEstimate:
    """Iterative MSB-first phase estimation, m independent rounds.

    u is a unitary matrix or a BlockEncoding. Round k applies u 2^(k-1)
    times, so the probability difference P(0) - P(1) equals sin(2pi r)
    with r the phase left after k-1 binary digits; the sign decides bit k.
    Exact-probability mode is the default; pass shots for Bernoulli
    sampling with a seeded generator (boundary rounds still use the
    deterministic tie rule). Floating-point doubling keeps about 52 - m
    reliable trailing bits, which the cap on m respects.
    """
    m = _check_bit_count(m)
    if shots is not None and (int(shots) != shots or shots < 1):
        raise ContractError("shots must be a positive integer")
    return _readout(_phase_of(_eigenvalue_of(u, v)), m, "ipea", METHOD_DIRECT, shots=shots, seed=seed)


def eigenvalue_from_phase(p: PhaseEstimate, t: float, correct: bool = True) -> float:
    """Generator eigenvalue from a phase estimate at evolution time t.

    Unit-modulus encodings read lambda = cos(2pi phase) / t directly. The
    truncated-series method (p.method) first does the same, then reweights
    by the series modulus through the fixed point
    lambda <- cos(2pi phase) sqrt(1 + t^4 lambda^4 / 4) / t,
    because the estimator measures only the argument of
    t lambda + i (1 - t^2 lambda^2 / 2), not its length. The map contracts
    whenever |t lambda| <= 1, so it runs to float-level convergence,
    FIXED_POINT_ROUNDS rounds at most. Pass correct=False for the
    uncorrected first value.
    """
    if t <= 0:
        raise ContractError("evolution time must be positive")
    if p.method not in _METHODS:
        raise ContractError(f"unknown method tag {p.method!r}")
    c = math.cos(2.0 * math.pi * p.phase)
    lam = c / t
    if p.method == METHOD_TAYLOR and correct:
        for _ in range(FIXED_POINT_ROUNDS):
            new = c * math.sqrt(1.0 + t**4 * lam**4 / 4.0) / t
            done = abs(new - lam) <= 1e-15 * max(1.0, abs(new))
            lam = new
            if done:
                break
    return lam


def dilated_eigenvector(v) -> np.ndarray:
    """Eigenvector of the square-root dilation for the upper-branch phase.

    For h v = lambda v the dilation maps (v, -i v)/sqrt(2) to
    e^(i arccos lambda) times itself, so the recovered phase lands in
    [0, 1/2] and its cosine is lambda.
    """
    v = _unit_vector(v)
    return np.concatenate([v, -1j * v]) / math.sqrt(2.0)


def taylor_phase(enc: BlockEncoding, v, m: int, estimator: str = "pea") -> PhaseEstimate:
    """Phase of the post-selected series block on an eigenvector.

    The block's eigenvalue has modulus above one by the truncation term, so
    the estimate reads the phase of its unit direction; success_prob folds
    in the single-application post-selection probability (modulus over
    encoding scale, squared).
    """
    m = _check_bit_count(m)
    mu = _eigenvalue_on(enc.top_block() * enc.scale, v, "series block")
    if abs(mu) < 1e-14:
        raise NumericError("series block annihilates the vector")
    return _readout(_phase_of(mu / abs(mu)), m, estimator, METHOD_TAYLOR,
                    min(1.0, (abs(mu) / enc.scale) ** 2))


def _dilation_phase(enc: BlockEncoding, v, m: int, estimator: str) -> PhaseEstimate:
    """Reading of the dilation on dilated_eigenvector(v), taken from its factor W on v."""
    mu = _eigenvalue_on(enc.upper, v, "unitary")
    return _readout(_phase_of(mu / abs(mu)), m, estimator, METHOD_EXACT)


class _Normalized:
    """A Pauli sum over its coefficient 1-norm, for the routes run on it.

    Each part is built on its first read and kept: (s_n, ||c||_1), then
    h_n = sum_matrix(s_n), then h_n's spectrum.
    """

    def __init__(self, s: PauliSum):
        self._s = s

    @functools.cached_property
    def sum(self) -> tuple[PauliSum, float]:
        return normalize_for_encoding(self._s)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return sum_matrix(self.sum[0])

    @functools.cached_property
    def spectrum(self) -> Spectrum:
        return hermitian_eig(self.matrix)


def _ground_energy(norm: _Normalized, t: float, m: int, method: str, estimator: str = "pea",
                   correct: bool = True) -> tuple[float, PhaseEstimate]:
    """estimate_ground_energy on a normalized sum; t, m and method are checked first."""
    m = _check_bit_count(m)
    if t <= 0:
        raise ContractError("evolution time must be positive")
    if t < math.pi * 2.0**-m:  # the quantization bound ||c||_1 pi 2^-m / t would exceed ||c||_1
        raise ContractError(f"t = {t:.6g} is below pi * 2^-{m} = {math.pi * 2.0**-m:.6g}: "
                            "the phase resolution cannot bound the energy")
    if method not in ("exact", "taylor", "dc"):
        raise ContractError(f"unknown method {method!r}")
    h = h_n = norm.matrix
    if method == "dc":
        d = build_decomposition(h_n)
        encoding_shape(d)  # a branch, each block unitary; the encoding itself is not built
        h = reconstruct(d)
        h = (h + h.conj().T) / 2.0
        spectrum = hermitian_eig(h)
        _eigenvalue_on(h_n, spectrum.vectors[:, 0], "normalized Hamiltonian")
    else:
        spectrum = norm.spectrum
    v = spectrum.vectors[:, 0]
    s_n, scale = norm.sum
    if method == "taylor":
        est = taylor_phase(taylor_encoding(uh_from_sum(s_n, h_n), t), v, m, estimator)
    else:
        enc = dilation_sqrt(t * h, Spectrum(t * spectrum.values, spectrum.vectors))
        est = _dilation_phase(enc, v, m, estimator)
    return scale * eigenvalue_from_phase(est, t, correct), est


def estimate_ground_energy(s: PauliSum, t: float = 1.0, m: int = 16,
                           method: str = "exact", estimator: str = "pea",
                           correct: bool = True) -> tuple[float, PhaseEstimate]:
    """Lowest eigenvalue of a Pauli sum via the chosen encoding route.

    Coefficients are first divided by their 1-norm so every route's norm
    precondition holds; the reported energy multiplies the recovered
    normalized eigenvalue back by that 1-norm. Routes: "exact" dilates the
    normalized matrix directly; "dc" dilates the matrix reconstructed from
    its certified divide-and-conquer branches; "taylor" reads the phase of
    the second-order series block. The eigenvector comes from the in-package
    eigensolver, run once on the matrix the route encodes; dc checks it is
    an eigenvector of the normalized matrix too. State preparation is out
    of scope.

    Half a phase bit moves the energy by up to ||c||_1 pi 2^-m / t, which
    exceeds the whole range ||c||_1 once t < pi 2^-m; such a t raises
    ContractError. t, m and method are checked before anything is built.
    """
    return _ground_energy(_Normalized(s), t, m, method, estimator, correct)


def histogram_prob_diff(ensemble_size: int, iterations: int = 20, seed: int = 0) -> dict:
    """Distribution of per-round |P(0) - P(1)| over uniform random phases.

    Draws ensemble_size eigenphases uniformly in [0, 1), runs the iterative
    estimator's probability-difference computation for the given number of
    rounds each, and bins every |difference| into 10 equal bins over [0, 1].
    """
    if int(ensemble_size) != ensemble_size or ensemble_size < 1:
        raise ContractError("ensemble size must be a positive integer")
    if int(iterations) != iterations or iterations < 1:
        raise ContractError("iteration count must be a positive integer")
    rng = np.random.default_rng(seed)
    r = rng.random(int(ensemble_size))
    # one round at a time; integer counts add exactly
    counts = np.zeros(10, dtype=np.int64)
    below = above = 0
    for _ in range(int(iterations)):
        diffs = np.abs(np.sin(2.0 * np.pi * r))
        counts += np.histogram(diffs, bins=10, range=(0.0, 1.0))[0]
        below += int(np.count_nonzero(diffs < 0.1))
        above += int(np.count_nonzero(diffs > 0.9))
        r = (2.0 * r) % 1.0
    total = float(int(ensemble_size) * int(iterations))
    return {
        "bins": [float(c) / total for c in counts],
        "below_0.1": below / total,
        "above_0.9": above / total,
        "samples": int(ensemble_size),
        "seed": int(seed),
    }
