"""Truncated-series block encodings, unitary-sum decompositions, and
phase-estimation eigenvalue recovery, all as explicit dense matrices."""

from .decompose import (
    Decomposition,
    DecompositionTerm,
    assemble_uh,
    build_decomposition,
    reconstruct,
    unitary_split,
)
from .encoding import (
    BlockEncoding,
    b_gate,
    dilation_sqrt,
    prepare_oracle,
    prepare_select,
    taylor_encoding,
    uh_from_sum,
)
from .errors import (
    ContractError,
    DomainError,
    NumericError,
    ParseError,
    SizeError,
    TssimError,
)
from .gates import GateCount, count_dc, count_dense, count_multiplexor, count_select_path
from .linalg import Spectrum, hermitian_eig, inf_norm, is_unitary, max_abs
from .pauli import (
    PauliSum,
    format_pauli_sum,
    h2_hamiltonian,
    normalize_for_encoding,
    parse_pauli_file,
    sum_matrix,
    word_matrix,
)
from .phase import (
    PhaseEstimate,
    dilated_eigenvector,
    eigenvalue_from_phase,
    estimate_ground_energy,
    histogram_prob_diff,
    ipea_msb,
    pea_phase,
    taylor_phase,
)

__version__ = "0.1.0"

__all__ = [
    "BlockEncoding",
    "ContractError",
    "Decomposition",
    "DecompositionTerm",
    "DomainError",
    "GateCount",
    "NumericError",
    "ParseError",
    "PauliSum",
    "PhaseEstimate",
    "SizeError",
    "Spectrum",
    "TssimError",
    "assemble_uh",
    "b_gate",
    "build_decomposition",
    "count_dc",
    "count_dense",
    "count_multiplexor",
    "count_select_path",
    "dilated_eigenvector",
    "dilation_sqrt",
    "eigenvalue_from_phase",
    "estimate_ground_energy",
    "format_pauli_sum",
    "h2_hamiltonian",
    "hermitian_eig",
    "histogram_prob_diff",
    "inf_norm",
    "ipea_msb",
    "is_unitary",
    "max_abs",
    "normalize_for_encoding",
    "parse_pauli_file",
    "pea_phase",
    "prepare_oracle",
    "prepare_select",
    "reconstruct",
    "sum_matrix",
    "taylor_encoding",
    "taylor_phase",
    "uh_from_sum",
    "unitary_split",
    "word_matrix",
]
