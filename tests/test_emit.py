"""The CLI's JSON writer: byte for byte what json.dumps(sort_keys=True,
indent=2) writes, for every value a document can hold."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tssim import cli
from tssim.cli import main
from tssim.decompose import dense_to_json


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


H2_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "h2.pauli")

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),  # NaN, +-inf, -0.0 and subnormals included
    st.text(),  # non-ASCII and control characters included
)


@st.composite
def float_grids(draw):
    """Rectangular nested lists of floats, finite (the one-pass path) or not."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    values = draw(st.sampled_from([finite_floats, st.floats()]))

    def build(dims):
        return [build(dims[1:]) if len(dims) > 1 else draw(values) for _ in range(dims[0])]

    return build(shape)


ragged_grids = st.lists(st.lists(finite_floats, max_size=3), max_size=4)
documents = st.recursive(
    st.one_of(scalars, float_grids(), ragged_grids),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None)
@given(documents)
def test_writer_matches_json_dumps(value):
    assert cli._encode(value) == oracle(value)


def test_writer_matches_json_dumps_on_fixed_values():
    values = [{}, [], [[]], [[], [1.0]], [[1.0], [2.0, 3.0]], [[1.0, float("nan")]], [1.0, 2],
              [True, 1.0], [-0.0, 5e-324, 1.7976931348623157e308], [np.float64(0.1), 1.0],
              {"b": [[0.5, -0.5]], "a": {"é\n": None}}]
    for value in values:
        assert cli._encode(value) == oracle(value)


@pytest.mark.parametrize("value", [{1.0, 2.0}, np.int64(3), np.float32(0.5)], ids=["set", "int64", "float32"])
def test_writer_rejects_what_json_cannot_write(value):
    with pytest.raises(TypeError):
        oracle({"x": [value]})
    with pytest.raises(TypeError):
        cli._encode({"x": [value]})


def test_writer_rejects_a_non_str_key():
    with pytest.raises(TypeError):
        cli._encode({"x": {1: "a"}})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("emit")
    rng = np.random.default_rng(19)
    a = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    off = rng.normal(size=63)
    tridiagonal = np.diag(rng.normal(size=64)) + np.diag(off, 1) + np.diag(off, -1)
    paths = {"h2": H2_PATH, "small": str(folder / "small.pauli")}
    with open(paths["small"], "w") as fh:
        fh.write("0.5 ZI\n0.25 XX\n-0.125 YZ\n")  # H2's embedded matrix would be 47 MB
    for name, m in (("dense32", a + a.conj().T), ("tridiag64", tridiagonal)):
        paths[name] = str(folder / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(dense_to_json(m), fh)
    paths["decomposition"] = str(folder / "decomposition.json")
    assert main(["decompose", "--input", paths["dense32"], "--format", "dense",
                 "--output", paths["decomposition"]]) == 0
    return paths


COMMANDS = {
    "h2": (["h2", "--bits", "8"], 0),
    "encode-emit-matrix": (["encode", "--input", "{small}", "--t", "0.2", "--emit-matrix"], 0),
    "decompose-dense32": (["decompose", "--input", "{dense32}", "--format", "dense"], 0),
    "decompose-tridiag64": (["decompose", "--input", "{tridiag64}", "--format", "dense"], 0),
    "verify": (["verify", "--input", "{decomposition}"], 0),
    "estimate-exact": (["estimate", "--input", "{h2}", "--method", "exact", "--bits", "8"], 0),
    "estimate-taylor": (["estimate", "--input", "{h2}", "--method", "taylor", "--t", "0.2", "--bits", "8"], 0),
    "estimate-dc": (["estimate", "--input", "{h2}", "--method", "dc", "--bits", "8"], 0),
    "gates-select": (["gates", "--input", "{h2}", "--method", "select"], 0),
    "gates-dense": (["gates", "--input", "{dense32}", "--format", "dense", "--method", "dense"], 0),
    "gates-dc": (["gates", "--input", "{dense32}", "--format", "dense", "--method", "dc"], 0),
    "histogram": (["histogram", "--trials", "500"], 0),
    "error": (["estimate", "--input", "{h2}", "--t", "1e-300", "--bits", "4"], 3),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_output_is_json_dumps_of_its_document(inputs, capsys, name):
    argv, code = COMMANDS[name]
    assert main([arg.format(**inputs) for arg in argv]) == code
    out = capsys.readouterr().out
    assert out == oracle(json.loads(out)) + "\n"


def test_grids_take_the_one_pass_path(inputs):
    with open(inputs["decomposition"]) as fh:
        doc = json.load(fh)
    assert cli._float_grid(doc["matrix"]["entries"])[0] == (1024, 2)
    assert all(cli._float_grid(t["v_blocks"])[0] == (16, 4, 2) for t in doc["terms"])
    assert cli._float_grid([[1.0, 2.0], [3.0]]) is None
    assert cli._float_grid([1.0, float("inf")]) is None
