"""Divide-and-conquer decomposition of a matrix into 2x2-multiplexed unitaries.

A 2^n square matrix is tiled into 2x2 leaves. Leaves are indexed by
quadrant words over the digits {0, 1, 2, 3}: reading a word left to right
walks the recursive quadrant split (digit = 2 * row_half + col_half), so a
word of length n-1 pins one leaf. Group j collects the leaves whose block
column is block row XOR j; it equals the block-diagonal V_j times the
X-pattern permutation P_j, and its words follow from the diagonal words
over {0, 3} by flipping 3 -> 2 and 0 -> 1 wherever the mask has an X.
Each surviving group is then written as a mean of two unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import BlockEncoding, prepare_select
from .errors import ContractError, DomainError, NumericError, ParseError
from .linalg import as_matrix, inf_norm, max_abs

PRUNE_TOL_DEFAULT = 1e-14
UNITARY_TOL = 1e-10

_RULE1 = {"0": "1", "3": "2", "1": "0", "2": "3"}


@dataclass
class LeafBlock:
    """One 2x2 tile and the quadrant word that locates it."""

    word: str
    entries: np.ndarray


@dataclass
class DecompositionTerm:
    """One unitary branch of one group.

    v_blocks holds a 2x2 unitary per block row; the term's matrix is
    blkdiag(v_blocks) @ (P_xmask (x) I_2). Bit i of x_mask (counted from
    the most significant word position) marks an X factor.
    """

    j: int
    beta: float
    v_blocks: list
    x_mask: int


@dataclass
class Decomposition:
    """Sum of weighted unitary branches reconstructing matrix / scale."""

    n: int
    terms: list
    scale: float

    @property
    def dim(self) -> int:
        return 2**self.n

    def group_count(self) -> int:
        return len({t.j for t in self.terms})


def _check_pow2_dim(m) -> tuple[np.ndarray, int]:
    m = as_matrix(m)
    d = m.shape[0]
    n = d.bit_length() - 1
    if d < 2 or 2**n != d:
        raise ContractError(f"dimension {d} is not a power of two >= 2")
    return m, n


def leaf_slice(word: str, dim: int) -> tuple[int, int]:
    """(row, col) of a leaf's top-left entry, by quadrant walk."""
    r0, c0, span = 0, 0, dim
    for ch in word:
        d = int(ch)
        if not 0 <= d <= 3:
            raise ContractError(f"bad quadrant digit in {word!r}")
        span //= 2
        r0 += (d >> 1) * span
        c0 += (d & 1) * span
    if span != 2:
        raise ContractError(f"word {word!r} does not reach leaf depth for dim {dim}")
    return r0, c0


def _diagonal_word(r: int, k: int) -> str:
    return "".join("3" if (r >> (k - 1 - i)) & 1 else "0" for i in range(k))


def _masked_word(r: int, j: int, k: int) -> str:
    word = _diagonal_word(r, k)
    out = []
    for i, ch in enumerate(word):
        if (j >> (k - 1 - i)) & 1:
            out.append(_RULE1[ch])
        else:
            out.append(ch)
    return "".join(out)


def recursive_decompose(m) -> list:
    """All 2^(n-1) groups of leaves as (j, x_mask, [LeafBlock, ...]).

    Group j holds one leaf per block row; the leaf words come from the
    diagonal words over {0, 3} with the mask's positions flipped.
    """
    m, n = _check_pow2_dim(m)
    k = n - 1
    rows = 2**k
    groups = []
    for j in range(rows):
        blocks = []
        for r in range(rows):
            word = _masked_word(r, j, k)
            r0, c0 = leaf_slice(word, m.shape[0])
            blocks.append(LeafBlock(word=word, entries=m[r0 : r0 + 2, c0 : c0 + 2].copy()))
        groups.append((j, j, blocks))
    return groups


def _spectral_norm_2x2(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _root_2x2(m: np.ndarray) -> np.ndarray:
    """Principal square root of a 2x2 matrix via the trace identity."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    sq = np.sqrt(complex(det))
    tr = m[0, 0] + m[1, 1]
    tau_sq = tr + 2.0 * sq
    if abs(tau_sq) < 1e-30:
        tau_sq = tr - 2.0 * sq
        sq = -sq
        if abs(tau_sq) < 1e-30:
            raise NumericError("defective 2x2 square root")
    tau = np.sqrt(complex(tau_sq))
    root = (m + sq * np.eye(2)) / tau
    if root.trace().real < 0:
        root = -root
    return root


def _svd_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, sig, vh = np.linalg.svd(a)
    root = np.sqrt(np.clip(1.0 - sig**2, 0.0, None))
    u_plus = (w * (sig + 1j * root)) @ vh
    u_minus = (w * (sig - 1j * root)) @ vh
    return u_plus, u_minus


def _is_unitary_2x2(u: np.ndarray, tol: float) -> bool:
    return max_abs(u.conj().T @ u - np.eye(2)) <= tol


def unitary_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Write a 2x2 contraction as the mean of two unitaries.

    For a Hermitian leaf this is a +- i sqrt(I - a^2) with the principal
    root, exactly the cosine/sine pairing. Otherwise the principal-root
    formula usually fails the unitarity check and the split falls back to
    the singular-value form W (S +- i sqrt(I - S^2)) V^H, which is unitary
    for any leaf with spectral norm at most 1 and still sums to 2a.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ContractError(f"expected a 2x2 leaf, got {a.shape}")
    if _spectral_norm_2x2(a) > 1.0 + 1e-12:
        raise DomainError("leaf norm exceeds 1; caller must pre-scale")
    m = np.eye(2) - a @ a
    hermitian = max_abs(a - a.conj().T) <= 1e-12
    if hermitian:
        w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
        s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    else:
        try:
            s = _root_2x2(m)
        except NumericError:
            return _svd_split(a)
    u_plus = a + 1j * s
    u_minus = a - 1j * s
    if _is_unitary_2x2(u_plus, UNITARY_TOL) and _is_unitary_2x2(u_minus, UNITARY_TOL):
        return u_plus, u_minus
    return _svd_split(a)


def build_decomposition(m, prune_tol: float = PRUNE_TOL_DEFAULT) -> Decomposition:
    """Scale, prune all-zero groups, and split each survivor into unitaries.

    The scale is the infinity norm when above one. Groups whose scaled
    leaves are all below prune_tol are dropped. A group whose leaves are
    already unitary (zero rotation part) collapses to a single branch with
    weight 1; every other group contributes two branches of weight 1/2.
    """
    m, n = _check_pow2_dim(m)
    if prune_tol < 0:
        raise ContractError("prune tolerance must be non-negative")
    nrm = inf_norm(m)
    scale = nrm if nrm > 1.0 else 1.0
    groups = recursive_decompose(m)

    # The infinity norm bounds each leaf's row sums but not, for strongly
    # non-normal input, its spectral norm; widen the scale if any leaf needs it.
    worst = 0.0
    for _, _, blocks in groups:
        for leaf in blocks:
            sig = _spectral_norm_2x2(leaf.entries / scale)
            if sig > worst:
                worst = sig
    if worst > 1.0:
        scale *= worst * (1.0 + 1e-12)

    terms = []
    for j, x_mask, blocks in groups:
        scaled = [leaf.entries / scale for leaf in blocks]
        if max(max_abs(b) for b in scaled) < prune_tol:
            continue
        splits = [unitary_split(b) for b in scaled]
        rotation = max(max_abs(up - um) for up, um in splits)
        if rotation < 1e-12:
            terms.append(DecompositionTerm(j=j, beta=1.0, v_blocks=[up for up, _ in splits], x_mask=x_mask))
        else:
            terms.append(DecompositionTerm(j=j, beta=0.5, v_blocks=[up for up, _ in splits], x_mask=x_mask))
            terms.append(DecompositionTerm(j=j, beta=0.5, v_blocks=[um for _, um in splits], x_mask=x_mask))
    return Decomposition(n=n, terms=terms, scale=scale)


def term_matrix(term: DecompositionTerm, n: int) -> np.ndarray:
    """Dense matrix of one branch, blkdiag(v_blocks) @ (P_j (x) I_2)."""
    rows = 2 ** (n - 1)
    if len(term.v_blocks) != rows:
        raise ContractError("v_blocks count does not match dimension")
    dim = 2 * rows
    out = np.zeros((dim, dim), dtype=complex)
    for r in range(rows):
        c = r ^ term.x_mask
        out[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = term.v_blocks[r]
    return out


def reconstruct(d: Decomposition) -> np.ndarray:
    """scale * sum of beta-weighted branch matrices."""
    out = np.zeros((d.dim, d.dim), dtype=complex)
    for term in d.terms:
        out += term.beta * term_matrix(term, d.n)
    return d.scale * out


def assemble_uh(d: Decomposition) -> BlockEncoding:
    """Prepare/select encoding whose block is the reconstruction over its scale.

    Branch weights feed the prepare oracle; the select operator is the
    block-diagonal of branch matrices padded with identities. The encoding
    scale is d.scale times the branch weight sum.
    """
    if not d.terms:
        raise ContractError("decomposition has no branches")
    betas = [t.beta for t in d.terms]
    unitaries = [term_matrix(t, d.n) for t in d.terms]
    return prepare_select(betas, unitaries, d.scale * float(sum(betas)), reconstruct(d))


def check_terms(d: Decomposition, dim: int, tol: float) -> None:
    """Reject branches that cannot reconstruct a dim x dim matrix.

    Raises ContractError unless dim is 2^n, every branch has a finite
    beta >= 0, an x_mask in range, one 2x2 block per block row, and every
    block unitary within tol. Weights and entry moduli are checked before
    any product is formed, so no input overflows.
    """
    if dim < 2 or d.n != dim.bit_length() - 1 or dim != 2**d.n:
        raise ContractError(f"decomposition of n = {d.n} does not fit dimension {dim}")
    if not (math.isfinite(d.scale) and d.scale > 0):
        raise ContractError(f"scale {d.scale} is not a positive number")
    rows = dim // 2
    for i, t in enumerate(d.terms):
        if not (math.isfinite(t.beta) and t.beta >= 0):
            raise ContractError(f"branch {i} has weight {t.beta}, not a finite non-negative number")
        if not 0 <= t.x_mask < rows or len(t.v_blocks) != rows:
            raise ContractError(f"branch {i} has a bad mask or block count")
        if not all(np.all(np.abs(b) <= 1.0 + tol) for b in t.v_blocks):
            raise ContractError(f"branch {i} has a block entry of modulus above 1 + {tol}")
        if not all(_is_unitary_2x2(b, tol) for b in t.v_blocks):
            raise ContractError(f"branch {i} has a block that is not unitary within {tol}")
    if not math.isfinite(d.scale * math.fsum(t.beta for t in d.terms)):
        raise ContractError("scale times the summed branch weights overflows")


def reconstruction_residual(d: Decomposition, m) -> float:
    """Max-abs difference between the reconstruction and a reference matrix."""
    return max_abs(reconstruct(d) - as_matrix(m))


def _integer(v) -> int:
    """int(v) for an integral value; raises ValueError rather than truncating."""
    if int(v) != v:
        raise ValueError(f"{v!r} is not an integer")
    return int(v)


def load_dense_json(doc: dict) -> np.ndarray:
    """Dense matrix from {"dim": N, "entries": [[re, im], ...]} row-major.

    A real matrix may use {"dim": N, "real": [...]} instead.
    """
    if not isinstance(doc, dict):
        raise ParseError("dense matrix document must be an object")
    try:
        dim = _integer(doc["dim"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParseError("missing or bad 'dim'") from None
    if dim < 1:
        raise ParseError(f"bad dimension {dim}")
    if "entries" in doc:
        entries = doc["entries"]
        if not isinstance(entries, list) or len(entries) != dim * dim:
            raise ParseError(f"'entries' must be a list of {dim * dim} pairs")
        try:
            flat = np.array([complex(float(re), float(im)) for re, im in entries])
        except (TypeError, ValueError):
            raise ParseError("entries must be [re, im] pairs") from None
    elif "real" in doc:
        vals = doc["real"]
        if not isinstance(vals, list) or len(vals) != dim * dim:
            raise ParseError(f"'real' must be a list of {dim * dim} numbers")
        try:
            flat = np.array([float(v) for v in vals], dtype=complex)
        except (TypeError, ValueError):
            raise ParseError("real entries must be numbers") from None
    else:
        raise ParseError("dense matrix needs 'entries' or 'real'")
    return flat.reshape(dim, dim)


def dense_to_json(m) -> dict:
    """Row-major [re, im] pair encoding of a dense matrix."""
    m = as_matrix(m)
    return {
        "dim": int(m.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def decomposition_to_json(d: Decomposition, m=None) -> dict:
    """Serializable decomposition, embedding the source matrix when given."""
    doc = {
        "n": d.n,
        "dim": d.dim,
        "scale": d.scale,
        "groups": d.group_count(),
        "branches": len(d.terms),
        "terms": [
            {
                "j": t.j,
                "x_mask": t.x_mask,
                "beta": t.beta,
                "v_blocks": [[[float(z.real), float(z.imag)] for z in blk.ravel()] for blk in t.v_blocks],
            }
            for t in d.terms
        ],
    }
    if m is not None:
        doc["matrix"] = dense_to_json(m)
    return doc


def decomposition_from_json(doc: dict) -> Decomposition:
    """Inverse of decomposition_to_json (ignores any embedded matrix)."""
    try:
        n = _integer(doc["n"])
        scale = float(doc["scale"])
        raw_terms = list(doc["terms"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParseError("malformed decomposition document") from None
    terms = []
    for rt in raw_terms:
        try:
            blocks = [
                np.array([complex(re, im) for re, im in blk], dtype=complex).reshape(2, 2)
                for blk in rt["v_blocks"]
            ]
            terms.append(
                DecompositionTerm(
                    j=_integer(rt["j"]),
                    beta=float(rt["beta"]),
                    v_blocks=blocks,
                    x_mask=_integer(rt["x_mask"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ParseError("malformed decomposition term") from None
    return Decomposition(n=n, terms=terms, scale=scale)
