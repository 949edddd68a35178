"""Runtime knobs read from the environment.

TS_SIM_MAX_DIM   dense-dimension cap for kron and matrix builders
                 (default 2**14); guards against accidental huge allocations.
                 A value that is not a positive integer raises ParseError.
"""

from __future__ import annotations

import os

from .errors import ParseError

DEFAULT_MAX_DIM = 2**14


def max_dim() -> int:
    """Current dense-dimension cap; TS_SIM_MAX_DIM overrides the default."""
    raw = os.environ.get("TS_SIM_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ParseError(f"TS_SIM_MAX_DIM must be a positive integer, got {raw!r}")
    return value

