"""Pauli words and weighted real sums of them.

A word is a string over IXYZ. The leftmost character acts on the highest
qubit index, the rightmost on qubit 0, so "ZX" means kron(sigma_z, sigma_x)
and word order matches the usual sigma_{n-1} ... sigma_0 product notation.
Matrices are built from the symplectic form of a word (Aaronson and
Gottesman, arXiv:quant-ph/0406196): bit masks x and z, the leftmost letter
the most significant bit, and the count of Y letters, with
P|r> = i^#Y (-1)^popcount(r & z) |r XOR x>, a signed permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ParseError
from .linalg import check_dim, monomial_sum

COEFF_DROP_TOL = 1e-15

_LETTERS = "IXYZ"
_X_BITS = str.maketrans(_LETTERS, "0110")
_Z_BITS = str.maketrans(_LETTERS, "0011")
_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


def _check_word(word: str) -> str:
    if not word or any(ch not in _LETTERS for ch in word):
        raise ContractError(f"invalid Pauli word {word!r}")
    return word


def word_factors(words, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Words of n letters each as block-permutation factors with 1 x 1 blocks.

    Returns (masks, blocks) for linalg.monomial_sum: word i has mask x_i,
    and its block at row r is i^#Y (-1)^popcount((r XOR x_i) & z_i), the
    phase it gives the column r XOR x_i.
    """
    check_dim(1 << n)
    x = np.array([int(_check_word(w).translate(_X_BITS), 2) for w in words], dtype=np.int64)
    z = np.array([int(w.translate(_Z_BITS), 2) for w in words], dtype=np.int64)
    masked = (np.arange(1 << n) ^ x[:, None]) & z[:, None]  # column r XOR x, on the Z bits
    parity = np.zeros(masked.shape, dtype=np.int64)
    for bit in range(n):
        parity ^= masked >> bit & 1
    y = np.array([w.count("Y") % 4 for w in words], dtype=np.int64)
    return x, (np.array(_I_POWERS)[y][:, None] * (1 - 2 * parity))[:, :, None, None]


def word_matrix(word: str) -> np.ndarray:
    """Dense matrix of a Pauli word, leftmost letter on the top qubit."""
    return monomial_sum([1.0], *word_factors([word], len(word)))


@dataclass
class PauliSum:
    """Real-weighted sum of equal-length Pauli words.

    Duplicate words are merged in first-appearance order and terms whose
    merged coefficient is below 1e-15 in magnitude are dropped. Non-finite
    coefficients, and merged sums or a 1-norm that overflow, are rejected.
    """

    terms: list = field(default_factory=list)
    n: int = 0

    def __init__(self, terms):
        merged: dict[str, float] = {}
        n = None
        for coeff, word in terms:
            if isinstance(coeff, complex) and abs(coeff.imag) > 0:
                raise ContractError("coefficients must be real")
            coeff = float(coeff)
            _check_word(word)
            if n is None:
                n = len(word)
            elif len(word) != n:
                raise ContractError(f"word {word!r} has length {len(word)}, expected {n}")
            merged[word] = merged.get(word, 0.0) + coeff
        if n is None:
            raise ContractError("a Pauli sum needs at least one term")
        if not all(math.isfinite(c) for c in merged.values()):
            raise ContractError("coefficients must be finite")
        if not math.isfinite(sum(abs(c) for c in merged.values())):  # fsum would raise OverflowError
            raise ContractError("coefficient 1-norm overflows")
        self.n = n
        self.terms = [(c, w) for w, c in merged.items() if abs(c) >= COEFF_DROP_TOL]

    @property
    def dim(self) -> int:
        return 2**self.n

    def coefficient_one_norm(self) -> float:
        return float(sum(abs(c) for c, _ in self.terms))


def sum_matrix(s: PauliSum) -> np.ndarray:
    """Dense Hermitian matrix of the weighted word sum."""
    return monomial_sum([c for c, _ in s.terms], *word_factors([w for _, w in s.terms], s.n))


def normalize_for_encoding(s: PauliSum) -> tuple[PauliSum, float]:
    """Divide coefficients by their 1-norm; returns (rescaled sum, scale).

    The rescaled sum has coefficient 1-norm 1, so its matrix has spectral
    norm at most 1 and block-encoding preconditions hold.
    """
    if not s.terms:
        raise ContractError("cannot normalize an empty sum")
    scale = s.coefficient_one_norm()
    return PauliSum([(c / scale, w) for c, w in s.terms]), scale


# Minimal-basis hydrogen molecule after qubit reduction: 15 words on 4 qubits.
H2_TERMS = (
    (-0.81261, "IIII"),
    (0.171201, "IIIZ"),
    (0.16862325, "IIZI"),
    (-0.2227965, "IZII"),
    (0.171201, "IIZZ"),
    (0.12054625, "IZIZ"),
    (0.17434925, "ZIZI"),
    (0.04532175, "IXZX"),
    (0.04532175, "IYZY"),
    (0.165868, "IZZZ"),
    (0.12054625, "ZZIZ"),
    (-0.2227965, "ZZZI"),
    (0.04532175, "ZXZX"),
    (0.04532175, "ZYZY"),
    (0.165868, "ZZZZ"),
)


def h2_hamiltonian() -> PauliSum:
    """Embedded 4-qubit hydrogen-molecule Hamiltonian (15 Pauli terms)."""
    return PauliSum(H2_TERMS)


def parse_pauli_file(text: str) -> PauliSum:
    """Parse the '<float> <word>' per-line format.

    '#' starts a comment, blank lines are skipped, all words must have equal
    length. Errors carry 1-based line numbers.
    """
    entries = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<coefficient> <word>', got {raw!r}")
        coeff_text, word = parts
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise ParseError(f"line {lineno}: bad coefficient {coeff_text!r}") from None
        if not math.isfinite(coeff):
            raise ParseError(f"line {lineno}: non-finite coefficient {coeff_text!r}")
        if any(ch not in _LETTERS for ch in word):
            raise ParseError(f"line {lineno}: bad Pauli word {word!r}")
        if width is None:
            width = len(word)
        elif len(word) != width:
            raise ParseError(f"line {lineno}: word length {len(word)} != {width}")
        entries.append((coeff, word))
    if not entries:
        raise ParseError("no terms found")
    return PauliSum(entries)


def format_pauli_sum(s: PauliSum) -> str:
    """Inverse of parse_pauli_file, one term per line."""
    return "\n".join(f"{c!r} {w}" for c, w in s.terms) + "\n"
