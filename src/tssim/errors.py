"""Exception hierarchy shared by every module.

The CLI maps these onto exit codes: parse failures exit 2, contract and
domain violations exit 3, numeric failures exit 4.
"""

from __future__ import annotations


class TssimError(Exception):
    """Base class for all package errors."""


class ParseError(TssimError):
    """Malformed input text or JSON."""


class ContractError(TssimError):
    """A caller violated an operation's stated precondition."""


class DomainError(ContractError):
    """Input is structurally valid but outside the mathematical domain,
    e.g. a matrix with spectral norm above one where a contraction is
    required."""


class SizeError(ContractError):
    """A dimension product exceeded the configured dense-matrix cap."""


class NumericError(TssimError):
    """An iteration failed to converge or a result lost the required
    accuracy."""
