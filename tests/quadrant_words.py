"""The paper's quadrant-word bookkeeping, kept as an oracle for the leaf gather.

A 2^n square matrix is tiled into 2x2 leaves, each located by a word over
the digits {0, 1, 2, 3}: reading it left to right walks the recursive
quadrant split (digit = 2 * row_half + col_half). Group j's words follow
from the diagonal words over {0, 3} by flipping 3 -> 2 and 0 -> 1 wherever
the mask j has an X. `tssim.decompose.build_decomposition` gathers the
same leaves by index; the tests compare the two.
"""

from dataclasses import dataclass

import numpy as np

from tssim.decompose import _check_pow2_dim
from tssim.errors import ContractError

_RULE1 = {"0": "1", "3": "2", "1": "0", "2": "3"}


@dataclass
class LeafBlock:
    """One 2x2 tile and the quadrant word that locates it."""

    word: str
    entries: np.ndarray


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
