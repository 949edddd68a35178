"""Command-line surface: file ingestion, JSON emission, exit-code mapping.

Documents are JSON with a "schema": "1" field, keys sorted, floats in
shortest round-trip form, so identical configurations produce byte-identical
output. Exit codes: 0 success, 2 unreadable input or flags, 3 contract or
domain violations, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .decompose import (
    PRUNE_TOL_DEFAULT,
    build_decomposition,
    check_terms,
    decomposition_from_json,
    decomposition_to_json,
    encoding_shape,
    load_dense_json,
    reconstruction_residual,
)
from .encoding import taylor_encoding, uh_from_sum
from .errors import ContractError, NumericError, ParseError, TssimError
from .gates import GateCount, count_dc, count_dense, count_multiplexor, count_select_path
from .linalg import hermitian_eig, inf_norm
from .pauli import h2_hamiltonian, parse_pauli_file, sum_matrix
from .phase import MAX_BITS, _ground_energy, _Normalized, estimate_ground_energy, histogram_prob_diff

SCHEMA = "1"
# verify accepts a residual up to this times max(1, inf-norm of the matrix)
VERIFY_TOL = 1e-9

_EXIT_BY_ERROR = ((ParseError, 2), (ContractError, 3), (NumericError, 4))
# --t per command, shared by the parser and RunConfig: encode builds no
# series unless asked; the commands not listed ignore t and keep 1.0
_DEFAULT_T = {"encode": 0.0, "estimate": 1.0}


@dataclass
class RunConfig:
    """One command invocation; flags not used by a command are ignored."""

    command: str
    input_path: str | None = None
    format: str = "pauli"
    t: float | None = None  # None: the command's own default, see _DEFAULT_T
    bits: int = 16
    method: str = "exact"
    seed: int = 0
    trials: int = 5000
    iterations: int = 20
    prune_tol: float = PRUNE_TOL_DEFAULT
    output_path: str | None = None
    estimator: str = "pea"
    correct: bool = True
    extra_controls: int = 0
    copies: int = 1
    pea_control: bool = False
    emit_matrix: bool = False

    def __post_init__(self) -> None:
        if self.t is None:
            self.t = _DEFAULT_T.get(self.command, 1.0)

    def validate(self) -> None:
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ContractError(f"t must be a finite non-negative number, not {self.t}")
        if self.command == "encode" and self.emit_matrix and self.t == 0:
            raise ContractError("--emit-matrix embeds the series matrix, so it needs --t > 0")
        if int(self.bits) != self.bits or not 1 <= self.bits <= MAX_BITS:
            raise ContractError(f"bits must be an integer in [1, {MAX_BITS}]")
        if int(self.trials) != self.trials or self.trials < 1:
            raise ContractError("trials must be a positive integer")
        if int(self.iterations) != self.iterations or self.iterations < 1:
            raise ContractError("iterations must be a positive integer")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e.reason}") from None


def _read_json(path: str) -> dict:
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from None
    except RecursionError:
        raise ParseError(f"{path} is not valid JSON: nesting too deep") from None


def _load_pauli(cfg: RunConfig):
    if cfg.format != "pauli":
        raise ContractError(f"command {cfg.command!r} needs --format pauli")
    if not cfg.input_path:
        raise ContractError("missing --input")
    return parse_pauli_file(_read_text(cfg.input_path))


def _load_matrix(cfg: RunConfig) -> np.ndarray:
    if not cfg.input_path:
        raise ContractError("missing --input")
    if cfg.format == "pauli":
        return sum_matrix(parse_pauli_file(_read_text(cfg.input_path)))
    return load_dense_json(_read_json(cfg.input_path))


def _gate_doc(gc: GateCount) -> dict:
    return {
        "cnots": int(gc.cnots),
        "singles": int(gc.singles),
        "ancilla_qubits": int(gc.ancilla_qubits),
        "notes": list(gc.notes),
    }


def _cmd_encode(cfg: RunConfig) -> dict:
    s = _load_pauli(cfg)
    uh = uh_from_sum(s)
    doc = {
        "schema": SCHEMA,
        "command": "encode",
        "terms": len(s.terms),
        "system_dim": int(uh.system_dim),
        "ancilla_dim": int(uh.ancilla_dim),
        "scale": float(uh.scale),
        "block_residual": float(uh.residual),
    }
    if cfg.t > 0:
        enc = taylor_encoding(uh, cfg.t)
        doc["series"] = {
            "t": float(cfg.t),
            "system_dim": int(enc.system_dim),
            "ancilla_dim": int(enc.ancilla_dim),
            "scale": float(enc.scale),
            "block_residual": float(enc.residual),
        }
        if cfg.emit_matrix:
            doc["series"]["matrix"] = [
                [float(z.real), float(z.imag)] for z in enc.matrix.ravel()
            ]
    return doc


def _cmd_decompose(cfg: RunConfig) -> dict:
    m = _load_matrix(cfg)
    d = build_decomposition(m, prune_tol=cfg.prune_tol)
    doc = decomposition_to_json(d, m)
    doc["schema"] = SCHEMA
    doc["command"] = "decompose"
    doc["residual"] = float(reconstruction_residual(d, m))
    system_dim, ancilla_dim, scale = encoding_shape(d)
    doc["encoding"] = {"system_dim": system_dim, "ancilla_dim": ancilla_dim, "scale": scale}
    return doc


def _cmd_verify(cfg: RunConfig) -> dict:
    if not cfg.input_path:
        raise ContractError("missing --input")
    doc = _read_json(cfg.input_path)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ParseError("document has no embedded matrix to verify against")
    d = decomposition_from_json(doc)
    m = load_dense_json(doc["matrix"])
    # the tolerance comes from the matrix itself, never from the document's claims
    tol = VERIFY_TOL * max(1.0, inf_norm(m))
    check_terms(d, m.shape[0], VERIFY_TOL)
    residual = reconstruction_residual(d, m)
    if not residual <= tol:
        raise ContractError(f"reconstruction residual {residual} exceeds tolerance {tol}")
    reported = doc.get("residual")  # echoed back, never trusted; null when absent
    if "residual" in doc:  # a bool's type is not int; an int may exceed the float range
        if type(reported) not in (int, float) or not abs(reported) <= sys.float_info.max:
            raise ParseError("reported residual is not a finite number")
        reported = float(reported)
    return {
        "schema": SCHEMA,
        "command": "verify",
        "ok": True,
        "residual": residual,
        "reported_residual": reported,
        "branches": len(d.terms),
    }


def _cmd_estimate(cfg: RunConfig) -> dict:
    s = _load_pauli(cfg)
    if cfg.method not in ("exact", "taylor", "dc"):
        raise ContractError(f"unknown estimate method {cfg.method!r}")
    energy, est = estimate_ground_energy(
        s, t=cfg.t, m=int(cfg.bits), method=cfg.method,
        estimator=cfg.estimator, correct=cfg.correct,
    )
    return {
        "schema": SCHEMA,
        "command": "estimate",
        "energy": float(energy),
        "method": cfg.method,
        "estimator": cfg.estimator,
        "t": float(cfg.t),
        "phase_bits": [int(b) for b in est.bits],
        "phase": float(est.phase),
        "success_prob": float(est.success_prob),
        "tie": bool(est.tie),
        "coefficient_norm": float(s.coefficient_one_norm()),
    }


def _cmd_gates(cfg: RunConfig) -> dict:
    if cfg.method == "select":
        s = _load_pauli(cfg)
        gc = count_select_path(s, extra_controls=int(cfg.extra_controls), copies=int(cfg.copies))
    elif cfg.method == "dense":
        m = _load_matrix(cfg)
        gc = count_dense(m.shape[0])
    elif cfg.method == "dc":
        m = _load_matrix(cfg)
        d = build_decomposition(m, prune_tol=cfg.prune_tol)
        gc = count_dc(d, pea_control=cfg.pea_control)
    else:
        raise ContractError(f"unknown gates method {cfg.method!r}")
    doc = _gate_doc(gc)
    doc["schema"] = SCHEMA
    doc["command"] = "gates"
    doc["method"] = cfg.method
    return doc


def _cmd_h2(cfg: RunConfig) -> dict:
    """Embedded 15-term hydrogen walkthrough; needs no input files."""
    s = h2_hamiltonian()
    h = sum_matrix(s)
    e0 = float(hermitian_eig(h).values[0])
    d = build_decomposition(h)
    dc_gates = _gate_doc(count_dc(d))
    bits = int(cfg.bits)
    routes = {}
    norm = _Normalized(s)  # one normalized sum, matrix and spectrum for all three routes
    for method, t in (("exact", 1.0), ("taylor", 0.2), ("dc", 1.0)):
        energy, est = _ground_energy(norm, t, bits, method)
        routes[method] = {
            "t": t,
            "energy": float(energy),
            "error": float(abs(energy - e0)),
            "success_prob": float(est.success_prob),
        }
    return {
        "schema": SCHEMA,
        "command": "h2",
        "terms": len(s.terms),
        "qubits": int(s.n),
        "coefficient_norm": float(s.coefficient_one_norm()),
        "ground_energy": e0,
        "select_path": {
            "select_cnots": count_multiplexor(4, 4),
            "prepare_cnots": count_multiplexor(4, 1),
            "encoding_cnots": _gate_doc(count_select_path(s))["cnots"],
            "series_cnots": _gate_doc(count_select_path(s, extra_controls=2, copies=2))["cnots"],
        },
        "decomposition": {
            "groups": int(d.group_count()),
            "branches": len(d.terms),
            "scale": float(d.scale),
            "residual": float(reconstruction_residual(d, h)),
            "ancilla_dim": encoding_shape(d)[1],
            "gates": dc_gates["singles"],
            "cnots": dc_gates["cnots"],
            "cnots_with_estimation_control": _gate_doc(count_dc(d, pea_control=True))["cnots"],
        },
        "dense_bound_cnots": _gate_doc(count_dense(h.shape[0]))["cnots"],
        "estimates": routes,
        "bits": bits,
    }


def _cmd_histogram(cfg: RunConfig) -> dict:
    doc = histogram_prob_diff(int(cfg.trials), int(cfg.iterations), int(cfg.seed))
    doc["schema"] = SCHEMA
    doc["command"] = "histogram"
    return doc


_COMMANDS = {
    "encode": _cmd_encode,
    "decompose": _cmd_decompose,
    "estimate": _cmd_estimate,
    "gates": _cmd_gates,
    "h2": _cmd_h2,
    "histogram": _cmd_histogram,
    "verify": _cmd_verify,
}


def _error_doc(e: Exception, code: int) -> dict:
    return {"schema": SCHEMA, "error": {"type": type(e).__name__, "message": str(e), "exit": code}}


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one command; returns (exit code, JSON document)."""
    try:
        if cfg.command not in _COMMANDS:
            raise ContractError(f"unknown command {cfg.command!r}")
        cfg.validate()
        return 0, _COMMANDS[cfg.command](cfg)
    except TssimError as e:
        code = next((c for cls, c in _EXIT_BY_ERROR if isinstance(e, cls)), 4)
        return code, _error_doc(e, code)


@functools.cache  # parse_args leaves the parser unchanged, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tssim",
        description="Block-encoding circuits, divide-and-conquer unitary sums, "
        "and phase-estimation eigenvalue recovery as dense matrices.",
    )
    p.add_argument("--version", action="version", version=f"tssim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, with_input=True, with_format=True):
        if with_input:
            sp.add_argument("--input", dest="input_path", metavar="PATH", required=True,
                            help="input file path")
        if with_format:
            sp.add_argument("--format", choices=("pauli", "dense"), default="pauli")
        sp.add_argument("--output", dest="output_path", metavar="PATH", default=None,
                        help="write JSON here instead of stdout")

    sp = sub.add_parser("encode", help="prepare/select encoding of a Pauli sum")
    common(sp)
    sp.add_argument("--t", type=float, default=_DEFAULT_T["encode"],
                    help="also build the series encoding at this time")
    sp.add_argument("--emit-matrix", action="store_true", help="embed the full unitary")

    sp = sub.add_parser("decompose", help="divide-and-conquer unitary decomposition")
    common(sp)
    sp.add_argument("--prune-tol", type=float, default=PRUNE_TOL_DEFAULT)

    sp = sub.add_parser("estimate", help="ground-energy estimation")
    common(sp)
    sp.add_argument("--method", choices=("exact", "taylor", "dc"), default="exact")
    sp.add_argument("--t", type=float, default=_DEFAULT_T["estimate"])
    sp.add_argument("--bits", type=int, default=16)
    sp.add_argument("--estimator", choices=("pea", "ipea"), default="pea")
    sp.add_argument("--no-correct", dest="correct", action="store_false",
                    help="skip the series modulus correction")

    sp = sub.add_parser("gates", help="closed-form gate tallies")
    common(sp)
    sp.add_argument("--method", choices=("select", "dense", "dc"), default="select")
    sp.add_argument("--extra-controls", type=int, default=0)
    sp.add_argument("--copies", type=int, default=1)
    sp.add_argument("--pea-control", action="store_true")
    sp.add_argument("--prune-tol", type=float, default=PRUNE_TOL_DEFAULT)

    sp = sub.add_parser("h2", help="embedded hydrogen-molecule walkthrough")
    common(sp, with_input=False, with_format=False)
    sp.add_argument("--bits", type=int, default=16)

    sp = sub.add_parser("histogram", help="probability-difference distribution")
    common(sp, with_input=False, with_format=False)
    sp.add_argument("--trials", type=int, default=5000)
    sp.add_argument("--iterations", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify", help="re-check a decompose document's reconstruction")
    common(sp, with_format=False)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    given = vars(args)
    return RunConfig(**{f.name: given[f.name] for f in fields(RunConfig) if f.name in given})


@functools.lru_cache(maxsize=64)  # one template per (shape, indent); the decompose terms share theirs
def _grid_template(shape: tuple, indent: str) -> str:
    """%-template that lays out a float grid of this shape as json's indent=2 does."""
    if not shape:
        return "%r"
    inner = indent + "  "
    row = _grid_template(shape[1:], inner)
    return f"[\n{inner}" + f",\n{inner}".join([row] * shape[0]) + f"\n{indent}]"


def _float_grid(items) -> tuple | None:
    """(shape, flat values) of a rectangular grid of finite floats, else None."""
    shape, level = [len(items)], items
    while (types := set(map(type, level))) == {list}:
        lengths = set(map(len, level))
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        level = list(itertools.chain.from_iterable(level))
    if types == {float} and all(map(math.isfinite, level)):  # %r of a float is float.__repr__
        return tuple(shape), tuple(level)
    return None


def _encode(o, indent: str = "") -> str:
    """json.dumps(o, sort_keys=True, indent=2), byte for byte; float grids in one % pass."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else ("Infinity" if o > 0 else "-Infinity")
    inner = indent + "  "
    sep = f",\n{inner}"
    if isinstance(o, dict):
        if not o:
            return "{}"
        for k in o:
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
        body = sep.join([f"{encode_basestring_ascii(k)}: {_encode(v, inner)}" for k, v in sorted(o.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        grid = _float_grid(o)
        if grid:
            return _grid_template(grid[0], indent) % grid[1]
        body = sep.join([_encode(v, inner) for v in o])
        return f"[\n{inner}{body}\n{indent}]"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _emit(doc: dict, output_path: str | None) -> None:
    text = _encode(doc) + "\n"
    if output_path:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    cfg = _config_from_args(_build_parser().parse_args(argv))
    code, doc = run(cfg)
    try:
        _emit(doc, cfg.output_path if code == 0 else None)
    except OSError as e:
        code = 2
        err = ParseError(f"cannot write {cfg.output_path}: {e.strerror or e}")
        _emit(_error_doc(err, code), None)
    return code


if __name__ == "__main__":
    sys.exit(main())
