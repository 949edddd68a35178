"""Property tests: the Pauli text format round-trips, decompositions
reconstruct their matrix, and the CLI maps every input file onto a
documented exit code with a JSON document."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tssim.cli import RunConfig, main, run
from tssim.decompose import build_decomposition, dense_to_json, reconstruct
from tssim.encoding import dilation_sqrt
from tssim.errors import ParseError
from tssim.pauli import PauliSum, format_pauli_sum, parse_pauli_file
from tssim.phase import _dilation_phase, dilated_eigenvector, ipea_msb, pea_phase

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)
EXIT_CODES = {0, 2, 3, 4}

# magnitudes stay far enough below the float maximum that merging a few
# duplicate words cannot overflow (overflow is rejected, see test_pauli)
finite_coeffs = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
any_floats = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def pauli_sums(draw):
    width = draw(st.integers(1, 3))
    words = st.text(alphabet="IXYZ", min_size=width, max_size=width)
    return PauliSum(draw(st.lists(st.tuples(finite_coeffs, words), min_size=1, max_size=6)))


@PROPERTY_SETTINGS
@given(pauli_sums())
def test_format_parse_round_trip(s):
    text = format_pauli_sum(s)
    if not s.terms:
        try:
            parse_pauli_file(text)
        except ParseError:
            return
        raise AssertionError("an empty sum must not parse")
    back = parse_pauli_file(text)
    assert back.terms == s.terms
    assert back.n == s.n


coeff_tokens = st.one_of(
    any_floats.map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "-0", "0x1p3", "1_0", "abc", "1e-320"]),
)
line_tokens = st.tuples(
    coeff_tokens,
    st.text(alphabet="IXYZQ", min_size=0, max_size=3),
    st.sampled_from(["", " # note", " extra"]),
).map(lambda t: f"{t[0]} {t[1]}{t[2]}")
pauli_files = st.one_of(
    st.lists(line_tokens, max_size=6).map("\n".join).map(str.encode),
    st.text(max_size=40).map(str.encode),
    st.binary(max_size=40),
)
PAULI_COMMANDS = [
    ["encode"],
    ["encode", "--t", "0.2"],
    ["estimate", "--method", "exact", "--bits", "8"],
    ["estimate", "--method", "taylor", "--t", "0.5", "--bits", "8", "--estimator", "ipea"],
    ["estimate", "--method", "dc", "--bits", "8"],
    ["gates", "--method", "select"],
    ["decompose"],
]

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 9), any_floats, st.text(max_size=3))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def dense_docs(draw):
    dim = draw(st.sampled_from([1, 2, 3, 4, 8]))
    count = draw(st.sampled_from([dim * dim, dim * dim, dim * dim - 1]))
    number = st.one_of(any_floats, st.integers(-2, 2), json_scalars)
    key = draw(st.sampled_from(["entries", "real"]))
    item = st.lists(number, min_size=2, max_size=2) if key == "entries" else number
    values = draw(st.one_of(st.lists(item, min_size=count, max_size=count), json_values))
    return {"dim": draw(st.one_of(st.just(dim), json_scalars)), key: values}


dense_files = st.one_of(
    dense_docs().map(lambda d: json.dumps(d).encode()),
    json_values.map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=40),
)
DENSE_COMMANDS = [
    ["decompose", "--format", "dense"],
    ["gates", "--format", "dense", "--method", "dense"],
    ["gates", "--format", "dense", "--method", "dc", "--pea-control"],
    ["verify"],
]


def _reject_constant(name):
    raise AssertionError(f"the CLI emitted {name}, which is not JSON")


def run_main(content: bytes, command: list) -> tuple[int, dict]:
    """Run the CLI on a file holding content; its output must be strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command[0], "--input", path, *command[1:]])
    return code, json.loads(out.getvalue(), parse_constant=_reject_constant)


@PROPERTY_SETTINGS
@given(pauli_files, st.sampled_from(PAULI_COMMANDS))
def test_cli_pauli_input_exits_with_documented_code(content, command):
    code, doc = run_main(content, command)
    assert code in EXIT_CODES
    assert doc["schema"] == "1"
    assert ("error" in doc) == (code != 0)


@PROPERTY_SETTINGS
@given(dense_files, st.sampled_from(DENSE_COMMANDS))
def test_cli_dense_input_exits_with_documented_code(content, command):
    code, doc = run_main(content, command)
    assert code in EXIT_CODES
    assert doc["schema"] == "1"
    assert ("error" in doc) == (code != 0)


def _decompose_document():
    m = np.random.default_rng(11).normal(size=(4, 4)) / 4.0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(dense_to_json(m), fh)
        code, doc = run(RunConfig(command="decompose", input_path=path, format="dense"))
    assert code == 0
    return doc


DECOMPOSE_DOC = _decompose_document()
MUTABLE_PATHS = [("scale",), ("n",), ("residual",), ("matrix", "entries", 5, 0)] + [
    path
    for i in range(len(DECOMPOSE_DOC["terms"]))
    for path in [("terms", i, "beta"), ("terms", i, "x_mask"), ("terms", i, "v_blocks"),
                 ("terms", i, "v_blocks", 1), ("terms", i, "v_blocks", 0, 3, 0)]
]


def _reconstructs(doc) -> bool:
    """Recompute the reconstruction from the raw document, asserting unitary blocks."""
    dim = doc["matrix"]["dim"]
    m = np.array([complex(re, im) for re, im in doc["matrix"]["entries"]]).reshape(dim, dim)
    rec = np.zeros((dim, dim), dtype=complex)
    for term in doc["terms"]:
        assert term["beta"] >= 0
        for r, blk in enumerate(term["v_blocks"]):
            v = np.array([complex(re, im) for re, im in blk]).reshape(2, 2)
            assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-9
            c = r ^ int(term["x_mask"])
            rec[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] += term["beta"] * v
    tol = 1e-9 * max(1.0, float(np.max(np.sum(np.abs(m), axis=1))))
    return float(np.max(np.abs(doc["scale"] * rec - m))) <= tol


@PROPERTY_SETTINGS
@given(st.sampled_from(MUTABLE_PATHS), st.one_of(json_values, st.integers(-4, 4), any_floats))
def test_verify_accepts_only_documents_that_reconstruct(path, value):
    doc = json.loads(json.dumps(DECOMPOSE_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    code, out = run_main(json.dumps(doc).encode(), ["verify"])
    assert code in EXIT_CODES
    if code == 0:
        assert out["ok"] is True
        assert _reconstructs(doc)


@st.composite
def contractions(draw):
    dim = draw(st.sampled_from([2, 4, 8]))
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    flat = draw(st.lists(st.tuples(parts, parts), min_size=dim * dim, max_size=dim * dim))
    m = np.array([complex(re, im) for re, im in flat]).reshape(dim, dim)
    return m / max(1.0, float(np.linalg.norm(m, 2)))


@settings(max_examples=40, deadline=None)
@given(contractions())
def test_decomposition_reconstructs_contraction(m):
    assert np.max(np.abs(reconstruct(build_decomposition(m)) - m)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 32), st.integers(0, 2**32 - 1), st.integers(1, 24))
def test_dilation_route_reads_what_the_dilation_matrix_gives(n, seed, m):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (g + g.conj().T) / 2.0
    h /= np.linalg.norm(h, 2) * rng.uniform(1.01, 3.0)
    enc = dilation_sqrt(h)
    u = enc.matrix
    for v in np.linalg.eigh(h)[1].T:
        for estimator, oracle in (("pea", pea_phase), ("ipea", ipea_msb)):
            got = _dilation_phase(enc, v, m, estimator)
            want = oracle(u, dilated_eigenvector(v), m)
            assert (got.bits, got.phase, got.tie) == (want.bits, want.phase, want.tie)
