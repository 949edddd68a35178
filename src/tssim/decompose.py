"""Divide-and-conquer decomposition of a matrix into 2x2-multiplexed unitaries.

A 2^n square matrix is tiled into 2x2 leaves. Group j collects the leaves
whose block column is block row XOR j, gathered by index; it equals the
block-diagonal V_j times the X-pattern permutation P_j. (The paper names
the leaves by quadrant words; the tests keep that bookkeeping as an
oracle for the gather.) Each surviving group is then written as a mean
of two unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoding import BLOCK_TOL, BlockEncoding, prepare_select
from .errors import ContractError, DomainError, ParseError
from .linalg import as_matrix, inf_norm, max_abs, monomial_sum, unitary_blocks

PRUNE_TOL_DEFAULT = 1e-14
UNITARY_TOL = 1e-10

@dataclass
class DecompositionTerm:
    """One unitary branch of one group.

    v_blocks holds a 2x2 unitary per block row, as a (rows, 2, 2) array
    or a list of 2x2 arrays; the term's matrix is
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


def _dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _split_leaves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write each leaf of a (k, 2, 2) stack of contractions as the mean of two unitaries.

    Masks pick one branch per leaf. A Hermitian leaf takes a +- i sqrt(I - a^2)
    with the eigh root, exactly the cosine/sine pairing; any other leaf takes
    the principal root from the trace identity. A defective root, or a pair
    that fails the unitarity check, falls back to the singular-value form
    W (S +- i sqrt(I - S^2)) V^H, unitary for any leaf of spectral norm at
    most 1 and still summing to 2a. The numpy calls made do not depend on k.
    """
    if np.any(np.linalg.svd(a, compute_uv=False)[:, 0] > 1.0 + 1e-12):
        raise DomainError("leaf norm exceeds 1; caller must pre-scale")
    m = np.eye(2) - a @ a
    hermitian = np.abs(a - _dagger(a)).max(axis=(1, 2)) <= 1e-12
    w, v = np.linalg.eigh((m + _dagger(m)) / 2.0)
    s_herm = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ _dagger(v)

    # principal root (m + sq I) / tau, tau^2 = tr(m) + 2 sq, sq^2 = det(m)
    sq = np.sqrt(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
    tr = m[:, 0, 0] + m[:, 1, 1]
    tau_sq = tr + 2.0 * sq
    flip = np.abs(tau_sq) < 1e-30
    tau_sq = np.where(flip, tr - 2.0 * sq, tau_sq)
    sq = np.where(flip, -sq, sq)
    defective = np.abs(tau_sq) < 1e-30
    root = (m + sq[:, None, None] * np.eye(2)) / np.sqrt(np.where(defective, 1.0, tau_sq))[:, None, None]
    root = np.where((root[:, 0, 0] + root[:, 1, 1]).real[:, None, None] < 0, -root, root)

    s = np.where(hermitian[:, None, None], s_herm, root)
    u_plus = a + 1j * s
    u_minus = a - 1j * s
    bad = (defective & ~hermitian) | ~(unitary_blocks(u_plus, UNITARY_TOL) & unitary_blocks(u_minus, UNITARY_TOL))
    w, sig, vh = np.linalg.svd(a[bad])
    rot = np.sqrt(np.clip(1.0 - sig**2, 0.0, None))
    u_plus[bad] = (w * (sig + 1j * rot)[:, None, :]) @ vh
    u_minus[bad] = (w * (sig - 1j * rot)[:, None, :]) @ vh
    return u_plus, u_minus


def unitary_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Write a 2x2 contraction as the mean of two unitaries (one leaf of _split_leaves)."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ContractError(f"expected a 2x2 leaf, got {a.shape}")
    u_plus, u_minus = _split_leaves(a[None])
    return u_plus[0], u_minus[0]


def build_decomposition(m, prune_tol: float = PRUNE_TOL_DEFAULT) -> Decomposition:
    """Scale, prune all-zero groups, and split each survivor into unitaries.

    The scale is the infinity norm when above one. Groups whose scaled
    leaves are all below prune_tol are dropped. A group whose leaves are
    already unitary (zero rotation part) collapses to a single branch with
    weight 1; every other group contributes two branches of weight 1/2.
    Leaf (j, r) of group j is m[2r:2r+2, 2(r^j):2(r^j)+2]; all leaves are
    scaled, checked and split as one (groups, rows, 2, 2) array.
    """
    m, n = _check_pow2_dim(m)
    if not prune_tol >= 0:  # NaN too
        raise ContractError(f"prune tolerance {prune_tol} is not a non-negative number")
    scale = max(inf_norm(m), 1.0)
    rows = 2 ** (n - 1)
    r = np.arange(rows)
    leaves = m.reshape(rows, 2, rows, 2).swapaxes(1, 2)[r, r ^ r[:, None]]

    # The infinity norm bounds each leaf's row sums but not, for strongly
    # non-normal input, its spectral norm; widen the scale if any leaf needs it.
    worst = float(np.linalg.svd(leaves / scale, compute_uv=False)[..., 0].max())
    if worst > 1.0:
        scale *= worst * (1.0 + 1e-12)
        if math.isinf(scale):
            raise ContractError("scale widened for a non-normal leaf overflows")

    scaled = leaves / scale
    kept = np.flatnonzero(~(np.abs(scaled).max(axis=(1, 2, 3)) < prune_tol))
    u_plus, u_minus = (u.reshape(len(kept), rows, 2, 2) for u in _split_leaves(scaled[kept].reshape(-1, 2, 2)))
    collapsed = np.abs(u_plus - u_minus).max(axis=(1, 2, 3)) < 1e-12
    terms = []
    for g, j in enumerate(kept.tolist()):
        halves = ((1.0, u_plus),) if collapsed[g] else ((0.5, u_plus), (0.5, u_minus))
        terms += [DecompositionTerm(j=j, beta=beta, v_blocks=u[g], x_mask=j) for beta, u in halves]
    return Decomposition(n=n, terms=terms, scale=scale)


def _factors(d: Decomposition) -> tuple[list, list, np.ndarray]:
    """(betas, masks, blocks) of d's branches; the reshape rejects a wrong block count."""
    blocks = np.array([t.v_blocks for t in d.terms], dtype=complex).reshape(len(d.terms), d.dim // 2, 2, 2)
    return [t.beta for t in d.terms], [t.x_mask for t in d.terms], blocks


def reconstruct(d: Decomposition) -> np.ndarray:
    """scale * sum of beta-weighted branch matrices."""
    return d.scale * monomial_sum(*_factors(d))


def encoding_shape(d: Decomposition) -> tuple[int, int, float]:
    """(system_dim, ancilla_dim, scale) of assemble_uh(d), without building it.

    Certifies that d has a branch and that every branch block is unitary
    within BLOCK_TOL, 2x2 block by block. The ancilla is the branch count
    padded to a power of two, as the prepare oracle pads it.
    """
    if not d.terms:
        raise ContractError("decomposition has no branches")
    check_terms(d, d.dim, BLOCK_TOL)
    return d.dim, 1 << (len(d.terms) - 1).bit_length(), d.scale * float(sum(t.beta for t in d.terms))


def assemble_uh(d: Decomposition) -> BlockEncoding:
    """Prepare/select encoding whose block is the reconstruction over its scale.

    Branch weights feed the prepare oracle; each branch enters the select
    operator as its mask and 2x2 blocks. The encoding scale is d.scale
    times the branch weight sum.
    """
    scale = encoding_shape(d)[2]
    return prepare_select(*_factors(d), scale, reconstruct(d))


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
        blocks = np.asarray(t.v_blocks)
        if not np.all(np.abs(blocks) <= 1.0 + tol):
            raise ContractError(f"branch {i} has a block entry of modulus above 1 + {tol}")
        if not np.all(unitary_blocks(blocks, tol)):
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
        except OverflowError:  # an integer literal beyond the float range
            raise ParseError("entries must lie within the float range") from None
    elif "real" in doc:
        vals = doc["real"]
        if not isinstance(vals, list) or len(vals) != dim * dim:
            raise ParseError(f"'real' must be a list of {dim * dim} numbers")
        try:
            flat = np.array([float(v) for v in vals], dtype=complex)
        except (TypeError, ValueError):
            raise ParseError("real entries must be numbers") from None
        except OverflowError:
            raise ParseError("real entries must lie within the float range") from None
    else:
        raise ParseError("dense matrix needs 'entries' or 'real'")
    return flat.reshape(dim, dim)


def _re_im(a: np.ndarray, shape: tuple) -> list:
    """Nested lists of [re, im] pairs of a complex array, reshaped to shape + (2,)."""
    return np.stack((a.real, a.imag), axis=-1).reshape(shape + (2,)).tolist()


def dense_to_json(m) -> dict:
    """Row-major [re, im] pair encoding of a dense matrix."""
    m = as_matrix(m)
    return {"dim": int(m.shape[0]), "entries": _re_im(m, (-1,))}


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
                "v_blocks": _re_im(np.asarray(t.v_blocks), (-1, 4)),
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
