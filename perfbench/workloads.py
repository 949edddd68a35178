"""Seeded inputs, independent oracles, output checks and the three workloads.

Nothing here imports tssim. Inputs are written as files the CLI reads; every
expected value is recomputed with numpy.linalg or taken from frozen pins, so
a check never trusts the code it checks.

A workload is a cycle of operations. One operation is one or two `tssim`
command lines whose documents are checked together; `op(i)` gives the i-th
operation of the closed loop.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from functools import reduce
from typing import Callable

import numpy as np

# Frozen H2 pins (minimal-basis hydrogen, 15 terms, 4 qubits).
H2_GROUND_ENERGY = -1.8510456784448643
H2_ENERGY_TOL = 1e-10
H2_ROUTE_TOL = 1e-3
H2_ENCODING_CNOTS = 80
H2_DC_CNOTS = 128
H2_GROUPS = 2
H2_BRANCHES = 4

BITS = 16
RESIDUAL_TOL = 1e-9
POOL = 4  # distinct generated inputs per kind, cycled through by the loop

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


# ---------------------------------------------------------------- generation

def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Generator for one workload and seed; workloads never share a stream."""
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def random_pauli_terms(rng, qubits: int, count: int) -> list:
    """`count` distinct Pauli words with standard-normal coefficients."""
    words = set()
    while len(words) < count:
        words.add("".join(rng.choice(list("IXYZ"), qubits)))
    return [(float(rng.standard_normal()), w) for w in sorted(words)]


def random_hermitian(rng, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_tridiagonal(rng, dim: int) -> np.ndarray:
    m = np.diag(rng.standard_normal(dim)).astype(complex)
    off = rng.standard_normal(dim - 1) + 1j * rng.standard_normal(dim - 1)
    idx = np.arange(dim - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off.conj()
    return m


def write_pauli(path: str, terms: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{c!r} {w}\n" for c, w in terms)


def write_dense(path: str, m: np.ndarray) -> None:
    doc = {"dim": int(m.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in m.ravel()]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ------------------------------------------------------------------- oracles

def pauli_sum_matrix(terms: list) -> np.ndarray:
    """Dense matrix of a Pauli sum by Kronecker products of the 2x2 Paulis."""
    return sum(c * reduce(np.kron, [_PAULI[ch] for ch in w]) for c, w in terms)


@dataclass
class EnergyCase:
    """A generated Pauli-sum file with its oracle ground energy."""

    path: str
    ground: float
    one_norm: float


def energy_case(path: str, terms: list) -> EnergyCase:
    write_pauli(path, terms)
    ground = float(np.linalg.eigvalsh(pauli_sum_matrix(terms))[0])
    return EnergyCase(path, ground, float(sum(abs(c) for c, _ in terms)))


def energy_bound(one_norm: float, t: float, bits: int = BITS) -> float:
    """Phase-quantization bound ||c||_1 * 2 pi * 2^-m / t on the energy error."""
    return one_norm * 2.0 * math.pi * 2.0**-bits / t


def doc_matrix(doc: dict) -> np.ndarray:
    dim = int(doc["dim"])
    return np.array([complex(re, im) for re, im in doc["entries"]]).reshape(dim, dim)


def reconstruct_doc(doc: dict) -> tuple[np.ndarray, float]:
    """Independent reconstruction of a decompose document.

    Each branch places 2x2 block v_blocks[r] at block row r, block column
    r XOR x_mask; the matrix is scale * sum(beta * branch). Returns the
    matrix and the largest deviation of any block from unitarity.
    """
    n, scale = int(doc["n"]), float(doc["scale"])
    rows = 2 ** (n - 1)
    out = np.zeros((2 * rows, 2 * rows), dtype=complex)
    worst = 0.0
    for term in doc["terms"]:
        if float(term["beta"]) < 0 or len(term["v_blocks"]) != rows:
            return out, math.inf
        for r, flat in enumerate(term["v_blocks"]):
            v = np.array([complex(re, im) for re, im in flat]).reshape(2, 2)
            worst = max(worst, float(np.max(np.abs(v.conj().T @ v - np.eye(2)))))
            c = r ^ int(term["x_mask"])
            out[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] += float(term["beta"]) * v
    return scale * out, worst


# -------------------------------------------------------------------- checks
# Each check returns (problems, energy error or None); no problems means pass.

def check_h2(docs: list) -> tuple[list, float]:
    (doc,) = docs
    problems = []
    if abs(doc["ground_energy"] - H2_GROUND_ENERGY) > H2_ENERGY_TOL:
        problems.append(f"ground_energy {doc['ground_energy']!r} != pin {H2_GROUND_ENERGY!r}")
    if doc["select_path"]["encoding_cnots"] != H2_ENCODING_CNOTS:
        problems.append(f"encoding_cnots {doc['select_path']['encoding_cnots']} != {H2_ENCODING_CNOTS}")
    dec = doc["decomposition"]
    for key, want in (("cnots", H2_DC_CNOTS), ("groups", H2_GROUPS), ("branches", H2_BRANCHES)):
        if dec[key] != want:
            problems.append(f"decomposition {key} {dec[key]} != {want}")
    errors = {}
    for route in ("exact", "taylor", "dc"):
        errors[route] = abs(doc["estimates"][route]["energy"] - H2_GROUND_ENERGY)
        if not errors[route] <= H2_ROUTE_TOL:
            problems.append(f"{route} route error {errors[route]:.3e} > {H2_ROUTE_TOL}")
    return problems, max(errors.values())


def check_estimate(docs: list, case: EnergyCase, method: str, estimator: str, t: float) -> tuple[list, float]:
    (doc,) = docs
    problems = []
    if doc.get("method") != method or doc.get("estimator") != estimator:
        problems.append(f"ran {doc.get('method')}/{doc.get('estimator')}, asked {method}/{estimator}")
    err = abs(doc["energy"] - case.ground)
    bound = energy_bound(case.one_norm, t)
    if not err <= bound:
        problems.append(f"energy error {err:.3e} > bound {bound:.3e}")
    return problems, err


def check_roundtrip(docs: list, matrix: np.ndarray) -> tuple[list, None]:
    dec, ver = docs
    problems = []
    if not dec["residual"] <= RESIDUAL_TOL:
        problems.append(f"decompose residual {dec['residual']:.3e} > {RESIDUAL_TOL}")
    if not np.array_equal(doc_matrix(dec["matrix"]), matrix):
        problems.append("embedded matrix differs from the input")
    rebuilt, worst = reconstruct_doc(dec)
    residual = float(np.max(np.abs(rebuilt - matrix)))
    if not residual <= RESIDUAL_TOL:
        problems.append(f"independent reconstruction residual {residual:.3e} > {RESIDUAL_TOL}")
    if not worst <= RESIDUAL_TOL:
        problems.append(f"branch block off unitary by {worst:.3e}")
    if ver.get("ok") is not True:
        problems.append("verify did not report ok")
    if not ver.get("residual", math.inf) <= RESIDUAL_TOL:
        problems.append(f"verify residual {ver.get('residual')} > {RESIDUAL_TOL}")
    if ver.get("branches") != dec["branches"]:
        problems.append(f"verify saw {ver.get('branches')} branches, decompose wrote {dec['branches']}")
    return problems, None


# ----------------------------------------------------------------- workloads

@dataclass
class Op:
    """One checked operation: command lines run in order, then one check.

    Each argv writes its document to the path after "--output"; `check`
    receives the documents in the same order.
    """

    kind: str
    argvs: list
    check: Callable[[list], tuple]


class Workload:
    name = ""
    cycle = 1  # ops per cycle; runs stop only on cycle boundaries

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.out = os.path.join(workdir, "out.json")

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def op(self, i: int) -> Op:
        raise NotImplementedError


class H2(Workload):
    name = "h2"

    def op(self, i: int) -> Op:
        return Op("h2", [["h2", "--bits", str(BITS), "--output", self.out]], check_h2)


class Series(Workload):
    name = "series"
    t = 0.2

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = rng_for(self.name, seed)
        self.cases = [energy_case(self.path(f"series{k}.pauli"), random_pauli_terms(rng, 5, 16))
                      for k in range(POOL)]

    def op(self, i: int) -> Op:
        case = self.cases[i % POOL]
        estimator = ("pea", "ipea")[i % 2]
        argv = ["estimate", "--input", case.path, "--method", "taylor", "--t", str(self.t),
                "--bits", str(BITS), "--estimator", estimator, "--output", self.out]
        return Op(f"taylor-{estimator}", [argv],
                  lambda docs: check_estimate(docs, case, "taylor", estimator, self.t))


class Dense(Workload):
    name = "dense"
    cycle = 4

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = rng_for(self.name, seed)
        self.sums = []
        self.dense = []
        self.tridiag = []
        for k in range(POOL):
            self.sums.append(energy_case(self.path(f"sum{k}.pauli"), random_pauli_terms(rng, 5, 40)))
            for store, m, name in ((self.dense, random_hermitian(rng, 32), f"dense{k}.json"),
                                   (self.tridiag, random_tridiagonal(rng, 64), f"tridiag{k}.json")):
                write_dense(self.path(name), m)
                store.append((self.path(name), m))

    def op(self, i: int) -> Op:
        k, slot = divmod(i, self.cycle)
        if slot < 2:
            case = self.sums[k % POOL]
            method = ("exact", "dc")[slot]
            estimator = ("pea", "ipea")[(k + slot) % 2]
            argv = ["estimate", "--input", case.path, "--method", method, "--t", "1.0",
                    "--bits", str(BITS), "--estimator", estimator, "--output", self.out]
            return Op(f"{method}-{estimator}", [argv],
                      lambda docs: check_estimate(docs, case, method, estimator, 1.0))
        path, m = (self.dense, self.tridiag)[slot - 2][k % POOL]
        doc = self.path("decomposition.json")
        argvs = [["decompose", "--input", path, "--format", "dense", "--output", doc],
                 ["verify", "--input", doc, "--output", self.out]]
        return Op(("roundtrip-dense32", "roundtrip-tridiag64")[slot - 2], argvs,
                  lambda docs: check_roundtrip(docs, m))


WORKLOADS = {w.name: w for w in (H2, Series, Dense)}
