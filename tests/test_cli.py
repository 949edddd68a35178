"""CLI surface: config validation, exit codes, JSON documents, file round trips."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tssim import cli, encoding, phase
from tssim.cli import RunConfig, main, run
from tssim.decompose import assemble_uh, build_decomposition, dense_to_json
from tssim.linalg import max_abs
from tssim.pauli import PauliSum, parse_pauli_file, sum_matrix

H2_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "h2.pauli")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_dense(tmp_path, m, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(dense_to_json(m)))
    return str(path)


def test_encode_document_shape():
    code, doc = run(RunConfig(command="encode", input_path=H2_PATH, t=0.0))
    assert code == 0
    assert doc["schema"] == "1"
    assert doc["terms"] == 15
    assert doc["system_dim"] == 16
    assert doc["ancilla_dim"] == 16
    assert doc["scale"] == pytest.approx(2.697693, abs=1e-9)
    assert doc["block_residual"] < 1e-12
    assert "series" not in doc


def test_encode_with_series_block():
    code, doc = run(RunConfig(command="encode", input_path=H2_PATH, t=0.2))
    assert code == 0
    assert doc["series"]["block_residual"] < 1e-12
    assert doc["series"]["t"] == 0.2
    code, doc = run(RunConfig(command="encode", input_path=H2_PATH, t=0.2, emit_matrix=True))
    dim = doc["series"]["system_dim"] * doc["series"]["ancilla_dim"]
    assert len(doc["series"]["matrix"]) == dim * dim


def test_encode_reports_the_certified_block_residuals(tmp_path, monkeypatch):
    single = tmp_path / "single.pauli"
    single.write_text("-0.75 XY\n")
    for path in (H2_PATH, str(single)):
        s = parse_pauli_file(open(path).read())
        uh = encoding.uh_from_sum(s)
        enc = encoding.taylor_encoding(uh, 0.2)
        h = uh.scale * uh.top_block()  # the series target t H + i (I - t^2 H^2 / 2)
        target = 0.2 * h + 1j * (np.eye(uh.system_dim) - (0.2 * 0.2 / 2.0) * (h @ h))
        builds = []
        for module in (cli, encoding):
            monkeypatch.setattr(module, "sum_matrix", lambda s: builds.append(1) or sum_matrix(s))
        code, doc = run(RunConfig(command="encode", input_path=path, t=0.2))
        monkeypatch.undo()
        assert code == 0
        assert builds == [1]  # the residual is read from the encoding, not recomputed
        assert doc["block_residual"] == max_abs(uh.top_block() * uh.scale - sum_matrix(s))
        assert doc["series"]["block_residual"] == max_abs(enc.top_block() * enc.scale - target)


def test_encode_overlong_time_exits_3():
    code, doc = run(RunConfig(command="encode", input_path=H2_PATH, t=0.9))
    assert code == 3
    assert doc["error"]["exit"] == 3


def test_missing_input_exits_2():
    code, doc = run(RunConfig(command="encode", input_path="/nonexistent/x.pauli"))
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


def test_bad_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, doc = run(RunConfig(command="decompose", input_path=str(p), format="dense"))
    assert code == 2


def test_bad_config_exits_3():
    code, _ = run(RunConfig(command="estimate", input_path=H2_PATH, bits=0))
    assert code == 3
    code, _ = run(RunConfig(command="estimate", input_path=H2_PATH, t=-1.0))
    assert code == 3
    code, _ = run(RunConfig(command="nope"))
    assert code == 3


def test_estimate_requires_pauli_format(tmp_path):
    path = write_dense(tmp_path, np.diag([0.5, -0.5]))
    code, doc = run(RunConfig(command="estimate", input_path=path, format="dense"))
    assert code == 3


def test_estimate_matches_reference_energy():
    for method, t in (("exact", 1.0), ("taylor", 0.2), ("dc", 1.0)):
        code, doc = run(RunConfig(
            command="estimate", input_path=H2_PATH, method=method, t=t, bits=16))
        assert code == 0
        assert doc["energy"] == pytest.approx(-1.8510456784448643, abs=1e-3)
        assert len(doc["phase_bits"]) == 16
        assert 0 < doc["success_prob"] <= 1


def test_estimate_ipea_agrees_with_pea():
    base = dict(command="estimate", input_path=H2_PATH, method="exact", t=1.0, bits=14)
    _, a = run(RunConfig(estimator="pea", **base))
    _, b = run(RunConfig(estimator="ipea", **base))
    # rounding vs truncation: at most one grid step apart, scaled by the
    # steepest slope of scale * cos(2 pi phase)
    assert abs(a["energy"] - b["energy"]) <= 2.7 * 2 * np.pi * 2**-14


def test_decompose_then_verify_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    m = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))) / 16.0
    src = write_dense(tmp_path, m)
    out = tmp_path / "dec.json"
    code, doc = run(RunConfig(command="decompose", input_path=src, format="dense",
                              output_path=str(out)))
    assert code == 0
    assert doc["residual"] < 1e-9
    out.write_text(json.dumps(doc))
    code, vdoc = run(RunConfig(command="verify", input_path=str(out)))
    assert code == 0
    assert vdoc["ok"] is True
    assert vdoc["branches"] == doc["branches"]


def test_verify_rejects_tampered_document(tmp_path):
    rng = np.random.default_rng(6)
    m = rng.normal(size=(4, 4)) / 8.0
    src = write_dense(tmp_path, m)
    code, doc = run(RunConfig(command="decompose", input_path=src, format="dense"))
    assert code == 0
    doc["matrix"]["entries"][0][0] += 0.5
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    code, vdoc = run(RunConfig(command="verify", input_path=str(bad)))
    assert code == 3


def test_verify_requires_embedded_matrix(tmp_path):
    p = tmp_path / "no_matrix.json"
    p.write_text(json.dumps({"n": 1, "dim": 2, "scale": 1.0, "terms": []}))
    code, _ = run(RunConfig(command="verify", input_path=str(p)))
    assert code == 2


def test_gates_documents():
    code, doc = run(RunConfig(command="gates", input_path=H2_PATH, method="select"))
    assert (code, doc["cnots"], doc["ancilla_qubits"]) == (0, 80, 4)
    code, doc = run(RunConfig(command="gates", input_path=H2_PATH, method="dc",
                              pea_control=True))
    assert (code, doc["cnots"]) == (0, 256)
    code, doc = run(RunConfig(command="gates", input_path=H2_PATH, method="dense"))
    assert (code, doc["cnots"]) == (0, 384)
    code, _ = run(RunConfig(command="gates", input_path=H2_PATH, method="qft"))
    assert code == 3


def test_h2_walkthrough_pins():
    code, doc = run(RunConfig(command="h2", bits=16))
    assert code == 0
    assert doc["terms"] == 15
    assert doc["qubits"] == 4
    assert doc["ground_energy"] == pytest.approx(-1.8510456784448643, abs=1e-12)
    sel = doc["select_path"]
    assert sel["select_cnots"] == 64
    assert sel["prepare_cnots"] == 16
    assert sel["encoding_cnots"] == 80
    assert sel["series_cnots"] == 640
    dc = doc["decomposition"]
    assert dc["groups"] == 2
    assert dc["branches"] == 4
    assert dc["ancilla_dim"] == 4
    assert dc["gates"] == 32
    assert dc["cnots"] == 128
    assert dc["cnots_with_estimation_control"] == 256
    assert doc["dense_bound_cnots"] == 384
    for route in doc["estimates"].values():
        assert route["error"] < 1e-3


def test_histogram_command_deterministic():
    cfg = RunConfig(command="histogram", trials=500, iterations=10, seed=9)
    a = run(cfg)
    b = run(RunConfig(command="histogram", trials=500, iterations=10, seed=9))
    assert a == b
    assert a[0] == 0
    assert json.dumps(a[1], sort_keys=True) == json.dumps(b[1], sort_keys=True)


def test_main_writes_output_file(tmp_path, capsys):
    out = tmp_path / "doc.json"
    rc = main(["gates", "--input", H2_PATH, "--method", "select",
               "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["cnots"] == 80


def test_main_stdout_and_exit_codes(capsys):
    rc = main(["estimate", "--input", H2_PATH, "--method", "taylor",
               "--t", "0.2", "--bits", "12"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "estimate"
    rc = main(["encode", "--input", H2_PATH, "--t", "0.9"])
    assert rc == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["exit"] == 3
    rc = main(["encode", "--input", "/nonexistent/y.pauli"])
    assert rc == 2
    capsys.readouterr()


def test_main_rejects_unknown_flags():
    with pytest.raises(SystemExit) as e:
        main(["estimate", "--input", H2_PATH, "--frobnicate"])
    assert e.value.code == 2


def test_one_parser_serves_every_call(capsys):
    argvs = [["gates", "--input", H2_PATH, "--method", "select"],
             ["estimate", "--input", H2_PATH, "--method", "dc", "--bits", "8"],
             ["estimate", "--input", H2_PATH, "--bits", "8"],  # method falls back to exact
             ["h2", "--bits", "8"]]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        assert main(argv) == 0
        fresh.append(capsys.readouterr().out)
    assert json.loads(fresh[2])["method"] == "exact"
    for _ in range(2):
        for argv, want in zip(argvs, fresh):
            assert main(argv) == 0
            assert capsys.readouterr().out == want
        with pytest.raises(SystemExit) as e:
            main(["gates", "--method", "select", "--frobnicate"])
        assert e.value.code == 2
        capsys.readouterr()
    assert cli._build_parser() is cli._build_parser()


def test_identical_config_bytes(capsys):
    args = ["h2", "--bits", "10"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def _decompose_doc(tmp_path, seed=6):
    m = np.random.default_rng(seed).normal(size=(4, 4)) / 8.0
    code, doc = run(RunConfig(command="decompose", input_path=write_dense(tmp_path, m), format="dense"))
    assert code == 0 and doc["branches"] >= 2
    return doc


def _verify(tmp_path, doc):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    return run(RunConfig(command="verify", input_path=str(path)))


def test_verify_ignores_the_reported_residual(tmp_path):
    doc = _decompose_doc(tmp_path)
    doc["terms"][0]["v_blocks"][0] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]
    doc["residual"] = 100
    code, vdoc = _verify(tmp_path, doc)
    assert code == 3
    assert vdoc["error"]["type"] == "ContractError"


@pytest.mark.parametrize("residual", [float("nan"), float("inf"), "1e-3", True, 10**400],
                         ids=["nan", "infinity", "string", "bool", "int-beyond-float"])
def test_verify_rejects_a_reported_residual_that_is_not_a_finite_number(tmp_path, residual):
    doc = _decompose_doc(tmp_path)
    doc["residual"] = residual
    code, vdoc = _verify(tmp_path, doc)
    assert code == 2
    assert vdoc["error"]["type"] == "ParseError"


def test_verify_reports_a_missing_residual_as_null(tmp_path, capsys):
    doc = _decompose_doc(tmp_path)
    del doc["residual"]
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["reported_residual"] is None


def test_verify_rejects_non_unitary_blocks_that_reconstruct(tmp_path):
    # doubling one branch's blocks and halving its weight keeps the sum exact
    doc = _decompose_doc(tmp_path)
    term = doc["terms"][0]
    term["beta"] /= 2.0
    term["v_blocks"] = [[[2.0 * re, 2.0 * im] for re, im in blk] for blk in term["v_blocks"]]
    assert _verify(tmp_path, doc)[0] == 3


def test_verify_rejects_negative_weight(tmp_path):
    # negating a branch's weight and blocks keeps the sum exact and the blocks unitary
    doc = _decompose_doc(tmp_path)
    term = doc["terms"][0]
    term["beta"] = -term["beta"]
    term["v_blocks"] = [[[-re, -im] for re, im in blk] for blk in term["v_blocks"]]
    assert _verify(tmp_path, doc)[0] == 3


def test_verify_rejects_mask_out_of_range(tmp_path):
    doc = _decompose_doc(tmp_path)
    doc["terms"][0]["x_mask"] = 2
    assert _verify(tmp_path, doc)[0] == 3


def test_verify_rejects_fractional_mask(tmp_path):
    doc = _decompose_doc(tmp_path)
    doc["terms"][0]["x_mask"] += 0.5
    assert _verify(tmp_path, doc)[0] == 2


def test_verify_rejects_infinite_weight_without_warnings(tmp_path):
    doc = _decompose_doc(tmp_path)
    doc["terms"][1]["beta"] = float("inf")  # json writes Infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, vdoc = _verify(tmp_path, doc)
    assert code == 3
    assert "branch 1" in vdoc["error"]["message"]


def test_verify_rejects_huge_block_entry_without_warnings(tmp_path):
    doc = _decompose_doc(tmp_path)
    doc["terms"][1]["v_blocks"][0][3] = [1e200, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, vdoc = _verify(tmp_path, doc)
    assert code == 3
    assert "branch 1" in vdoc["error"]["message"]


def test_commands_never_multiply_out_the_sum_encoding(tmp_path, monkeypatch):
    builds = []
    dense = encoding._sandwich_matrix
    monkeypatch.setattr(encoding, "_sandwich_matrix", lambda *a: builds.append(1) or dense(*a))
    m = write_dense(tmp_path, np.random.default_rng(8).normal(size=(8, 8)))
    for cfg in (RunConfig(command="decompose", input_path=m, format="dense"),
                RunConfig(command="decompose", input_path=H2_PATH),
                RunConfig(command="estimate", input_path=H2_PATH, method="taylor", t=0.2, bits=8),
                RunConfig(command="estimate", input_path=H2_PATH, method="dc", bits=8),
                RunConfig(command="h2", bits=8)):
        code, _ = run(cfg)
        assert code == 0
    assert builds == []
    uh = encoding.uh_from_sum(PauliSum([(0.5, "XZ"), (-0.25, "YY")]))
    first = uh.matrix
    assert uh.matrix is first
    assert builds == [1]


@pytest.mark.parametrize("key", ["entries", "real"])
def test_dense_json_non_list_exits_2(tmp_path, key):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"dim": 2, key: 5}))
    code, doc = run(RunConfig(command="decompose", input_path=str(p), format="dense"))
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


def test_dense_json_infinite_dim_exits_2(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"dim": Infinity, "real": [1]}')
    code, _ = run(RunConfig(command="decompose", input_path=str(p), format="dense"))
    assert code == 2


BEYOND_FLOAT = "1" + "0" * 400  # a 401-digit integer literal, past the largest float


@pytest.mark.parametrize("key, body", [("entries", f"[[{BEYOND_FLOAT}, 0.0]]"), ("real", f"[{BEYOND_FLOAT}]")],
                         ids=["entries", "real"])
@pytest.mark.parametrize("argv", [["decompose"], ["gates", "--method", "dense"], ["gates", "--method", "dc"]],
                         ids=["decompose", "gates-dense", "gates-dc"])
def test_dense_json_int_beyond_the_float_range_exits_2(tmp_path, capsys, key, body, argv):
    # float() of the literal raised OverflowError, which escaped as a traceback with exit 1
    p = tmp_path / "m.json"
    p.write_text(f'{{"dim": 1, "{key}": {body}}}')
    assert main(argv + ["--input", str(p), "--format", "dense"]) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ParseError" and error["message"].endswith("within the float range")
    assert captured.err == ""


def test_dense_json_int_beyond_the_float_range_prints_no_traceback(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(f'{{"dim": 1, "entries": [[{BEYOND_FLOAT}, 0.0]]}}')
    done = _module_run("decompose", "--input", str(p), "--format", "dense")
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"]["type"] == "ParseError"
    assert done.stderr == ""


def test_verify_rejects_an_embedded_int_beyond_the_float_range(tmp_path):
    doc = _decompose_doc(tmp_path)
    doc["matrix"]["entries"][0] = [int(BEYOND_FLOAT), 0.0]
    code, vdoc = _verify(tmp_path, doc)
    assert code == 2
    assert vdoc["error"]["message"] == "entries must lie within the float range"


@pytest.mark.parametrize("argv", [["decompose", "--format", "dense"], ["verify"]], ids=["decompose", "verify"])
def test_json_nested_too_deep_exits_2(tmp_path, capsys, argv):
    # json.loads raised RecursionError, which escaped as a traceback with exit 1
    p = tmp_path / "deep.json"
    p.write_text("[" * 200000 + "]" * 200000)
    assert main(argv + ["--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["message"] == f"{p} is not valid JSON: nesting too deep"
    assert captured.err == ""


def test_non_utf8_input_exits_2(tmp_path):
    p = tmp_path / "h.pauli"
    p.write_bytes(b"0.5 \xff\xfe\n")
    code, doc = run(RunConfig(command="encode", input_path=str(p)))
    assert code == 2
    assert doc["error"]["type"] == "ParseError"


@pytest.mark.parametrize("coeff", ["nan", "inf", "-inf"])
def test_non_finite_coefficient_exits_2(tmp_path, coeff):
    p = tmp_path / "h.pauli"
    p.write_text(f"1.0 XI\n{coeff} ZZ\n")
    code, doc = run(RunConfig(command="encode", input_path=str(p)))
    assert code == 2
    assert "non-finite" in doc["error"]["message"]


def test_unwritable_output_exits_2_with_json_error(capsys):
    rc = main(["gates", "--input", H2_PATH, "--output", "/nonexistent/x.json"])
    assert rc == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["exit"] == 2
    assert "/nonexistent/x.json" in err["error"]["message"]


def test_overflowing_sum_exits_3_instead_of_emitting_nan(tmp_path):
    p = tmp_path / "h.pauli"
    p.write_text("1e308 ZI\n1e308 IZ\n")  # each coefficient is finite, their 1-norm is not
    for command, method in (("encode", "exact"), ("estimate", "exact"), ("estimate", "taylor"),
                            ("estimate", "dc")):
        code, doc = run(RunConfig(command=command, input_path=str(p), method=method, t=0.2))
        assert code == 3, (command, method)
        assert doc["error"]["message"] == "coefficient 1-norm overflows"


def test_run_config_time_defaults_follow_the_command(tmp_path):
    p = tmp_path / "h.pauli"
    p.write_text("2.0 ZZ\n0.5 XI\n")
    code, doc = run(RunConfig(command="encode", input_path=str(p)))
    assert code == 0  # like `tssim encode --input p`: no series at t = 0
    assert "series" not in doc
    code, doc = run(RunConfig(command="estimate", input_path=str(p), bits=8))
    assert code == 0
    assert doc["t"] == 1.0


@pytest.mark.parametrize("argv", [["decompose"], ["gates", "--method", "dc"]])
def test_overflowing_row_sum_exits_3_without_warnings(tmp_path, capsys, argv):
    # every entry is finite; only the first row sum overflows
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 2, "real": [1e308, 1e308, 0, 0]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(argv + ["--input", str(path), "--format", "dense"])
    err = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert err["error"]["message"] == "largest absolute row sum inf is not finite"


def test_verify_rejects_overflowing_row_sum_without_warnings(tmp_path):
    # an infinite norm made the tolerance infinite, so any residual passed
    doc = _decompose_doc(tmp_path)
    doc["matrix"] = {"dim": 4, "real": [1e308, 1e308] + [0.0] * 14}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, vdoc = _verify(tmp_path, doc)
    assert code == 3
    assert vdoc["error"]["message"] == "largest absolute row sum inf is not finite"


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
def test_malformed_dimension_cap_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("TS_SIM_MAX_DIM", value)
    assert main(["encode", "--input", H2_PATH]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ParseError"
    assert "TS_SIM_MAX_DIM" in err["message"] and repr(value) in err["message"]


@pytest.mark.parametrize("method", ["exact", "dc"])
def test_dilation_routes_exit_3_beyond_the_dimension_cap(monkeypatch, capsys, method):
    # the 2N = 32 dilation of H2 used to pass a cap of 16
    monkeypatch.setenv("TS_SIM_MAX_DIM", "16")
    assert main(["estimate", "--input", H2_PATH, "--method", method]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["message"] == "dense dimension 32 exceeds cap 16"


def test_encode_emit_matrix_needs_a_time(capsys):
    # without --t there is no series matrix to embed; it used to exit 0 without one
    assert main(["encode", "--input", H2_PATH, "--emit-matrix"]) == 3
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert "--emit-matrix" in message and "--t" in message


@pytest.mark.parametrize("argv", [["estimate", "--t", "nan"], ["estimate", "--t", "inf"],
                                  ["encode", "--t", "nan"]])
def test_non_finite_time_exits_3(capsys, argv):
    assert main(argv + ["--input", H2_PATH]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["message"].startswith("t must be a finite")


@pytest.mark.parametrize("t, bits", [(1e-300, 4), (0.19, 4), (0.2, 3)])
def test_time_below_the_phase_resolution_exits_3(capsys, t, bits):
    # below pi 2^-m the quantization bound exceeds ||c||_1; t = 1e-300 used to report 1.65e284
    for method in ([], ["--method", "taylor"]):  # the default route is exact
        assert main(["estimate", "--input", H2_PATH, "--t", str(t), "--bits", str(bits), *method]) == 3
        assert "phase resolution" in json.loads(capsys.readouterr().out)["error"]["message"]
    assert main(["estimate", "--input", H2_PATH, "--t", "0.2", "--bits", "4", "--method", "taylor"]) == 0
    capsys.readouterr()
    assert main(["h2", "--bits", "3"]) == 3  # its taylor route runs at t = 0.2 < pi / 8


@pytest.mark.parametrize("argv", [["decompose"], ["gates", "--method", "dc"]])
def test_nan_prune_tolerance_exits_3(capsys, argv):
    # NaN compared false with every leaf, so it pruned nothing and exited 0
    assert main(argv + ["--input", H2_PATH, "--prune-tol", "nan"]) == 3
    assert "prune tolerance" in json.loads(capsys.readouterr().out)["error"]["message"]


@pytest.mark.parametrize("matrix, prune_tol", [(np.zeros((4, 4)), 1e-14),
                                               (np.arange(16.0).reshape(4, 4), 1e300)])
def test_decompose_without_branches_exits_3(tmp_path, matrix, prune_tol):
    path = write_dense(tmp_path, matrix)
    code, doc = run(RunConfig(command="decompose", input_path=path, format="dense", prune_tol=prune_tol))
    assert code == 3
    assert doc["error"]["message"] == "decomposition has no branches"


def _tridiagonal(rng, dim):
    off = rng.normal(size=dim - 1)
    return np.diag(rng.normal(size=dim)) + np.diag(off, 1) + np.diag(off, -1)


def test_decompose_encoding_fields_match_the_assembled_encoding(tmp_path):
    rng = np.random.default_rng(44)
    cases = [(H2_PATH, "pauli", sum_matrix(parse_pauli_file(open(H2_PATH).read()))),
             (None, "dense", np.eye(2))]  # a single branch needs no ancilla
    for dim in (8, 32):
        cases.append((None, "dense", rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))
    cases.append((None, "dense", _tridiagonal(rng, 64)))
    for i, (path, fmt, m) in enumerate(cases):
        path = path or write_dense(tmp_path, m, f"m{i}.json")
        code, doc = run(RunConfig(command="decompose", input_path=path, format=fmt))
        assert code == 0
        enc = assemble_uh(build_decomposition(m))
        assert doc["encoding"] == {"system_dim": enc.system_dim, "ancilla_dim": enc.ancilla_dim,
                                   "scale": enc.scale}
        assert (enc.ancilla_dim == 1) == (fmt == "dense" and m.shape == (2, 2))


@pytest.mark.parametrize("cfg", [RunConfig(command="decompose", input_path=H2_PATH),
                                 RunConfig(command="estimate", input_path=H2_PATH, method="dc", bits=8)])
def test_a_branch_bent_off_unitarity_exits_3(monkeypatch, cfg):
    def bent(*args, **kwargs):
        d = build_decomposition(*args, **kwargs)
        d.terms[0].v_blocks[0] = 0.999 * d.terms[0].v_blocks[0]  # moduli stay below 1
        return d

    for module in (cli, phase):
        monkeypatch.setattr(module, "build_decomposition", bent)
    code, doc = run(cfg)
    assert code == 3
    assert "unitary" in doc["error"]["message"]


def test_decompose_beyond_the_nominal_encoding_cap(tmp_path):
    # 256 branches of dimension 256: an assembled encoding would be 65536 wide
    m = np.random.default_rng(45).normal(size=(256, 256))
    code, doc = run(RunConfig(command="decompose", input_path=write_dense(tmp_path, m), format="dense"))
    assert code == 0
    assert doc["residual"] <= 1e-9
    assert doc["encoding"]["system_dim"] == 256
    assert doc["encoding"]["ancilla_dim"] == 256


def _module_run(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "tssim", *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_module_entry_point_exits_with_the_command_code(tmp_path):
    done = _module_run("h2", "--bits", "4")
    assert done.returncode == 0
    assert json.loads(done.stdout)["command"] == "h2"
    bad = tmp_path / "bad.pauli"
    bad.write_text("0.5 XQ\n")
    done = _module_run("encode", "--input", str(bad))
    assert done.returncode == 2
    assert json.loads(done.stdout)["error"]["exit"] == 2
    assert done.stderr == ""  # no traceback escapes
