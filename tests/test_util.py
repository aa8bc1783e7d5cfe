import ast
import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kbound
from kbound import cli
from kbound._util import (finite_or_none, integer, load_json_object, row_blocks, write_csv,
                          write_json)
from kbound.algebras import AlgebraModel, closure_test, model_observables, parse_model_spec
from kbound.dynamics import deviation_time, evolve_amplitudes, short_time_coefficients
from kbound.ensembles import GoeSpec, ensemble_to_dict, goe_sample, run_ensemble
from kbound.errors import ValidationError
from kbound.lanczos import load_result_json, max_chain_length, run_lanczos
from kbound.operators import (SIGMA_X, SIGMA_Z, HermitianMatrix, InnerProductSpec,
                              OperatorVector, load_matrix, save_matrix)


_load_chain = cli._load_chain


def _load_realization(path):
    return _load_chain(path, realization=0)


@pytest.mark.parametrize("load", [load_matrix, load_result_json,
                                  _load_realization, _load_chain])
@pytest.mark.parametrize("payload", [[1, 2], "b D dim"])
def test_loaders_reject_json_that_is_not_an_object(load, payload, tmp_path):
    # A string holding every field name passes `"b" in payload` checks.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="expected a JSON object"):
        load(path)


@pytest.mark.parametrize("data, message", [
    (b'{"b": [1.0,\n      2.0,]}', "Expecting value: line 2 column 11"),   # json's message
    (b'{"b": "\xff"}', "can't decode byte 0xff"),                          # not UTF-8
])
def test_invalid_json_is_an_input_error(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match="not valid JSON") as info:
        load_json_object(path)
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


_ABSENT = object()
_MATRIX = {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}
_RESULT = {"b": [1.0], "D": 2, "dim": 2}
_CHAIN = {"b": [1.0, 2.0], "D": 3}
_BASIS = {"re": [[math.nan, 0.0, 0.0, 0.0], [0.0] * 4], "im": [[0.0] * 4] * 2}
_LOADERS = {
    "load_matrix": (load_matrix, _MATRIX, lambda p: p),
    "load_result_json": (load_result_json, _RESULT, lambda p: p),
    "_load_chain": (_load_chain, _CHAIN, lambda p: p),
    "_load_chain-realization": (_load_realization, _CHAIN,
                                lambda p: {"realizations": [p]}),
}
_CHAIN_FIELDS = [("b", _ABSENT), ("b", None), ("b", [1.0, math.nan]), ("b", "x"),
                 ("D", math.nan), ("D", "two"), ("truncated", "false")]
_FIELD_CASES = [
    ("load_matrix", "dim", _ABSENT), ("load_matrix", "dim", None),
    ("load_matrix", "dim", math.nan), ("load_matrix", "dim", "2"),
    ("load_matrix", "re", _ABSENT), ("load_matrix", "re", None),
    ("load_matrix", "re", [[1.0, math.nan], [0.0, 1.0]]), ("load_matrix", "re", "x"),
    ("load_matrix", "im", [[0.0, math.inf], [-math.inf, 0.0]]),
    ("load_matrix", "im", [[0.0, 1.0], [0.0, "1"]]),
    ("load_result_json", "D", _ABSENT), ("load_result_json", "D", None),
    ("load_result_json", "dim", _ABSENT), ("load_result_json", "dim", math.inf),
    ("load_result_json", "halt_tol", math.nan), ("load_result_json", "halt_tol", 2.0),
    ("load_result_json", "ortho_error", -3), ("load_result_json", "ortho_error", math.nan),
    ("load_result_json", "normalization", -1), ("load_result_json", "beta", math.nan),
    ("load_result_json", "basis", _BASIS), ("load_result_json", "basis", [1.0]),
    ("load_result_json", "reorth_passes", math.nan),
    *[(name, key, value) for name in ("load_result_json", "_load_chain",
                                      "_load_chain-realization")
      for key, value in _CHAIN_FIELDS],
    # orjson reads an integer past 64 bits as a float that rounds it.
    ("load_result_json", "D", 2**64 + 1),
]


@pytest.mark.parametrize("name, key, value", _FIELD_CASES)
def test_loaders_name_file_and_field(tmp_path, name, key, value):
    # Absent, null, NaN, an infinity, out of range or of the wrong type: each
    # refused field is named after the file it came from.
    load, base, wrap = _LOADERS[name]
    payload = {k: v for k, v in base.items() if k != key}
    if value is not _ABSENT:
        payload[key] = value
    path = tmp_path / "in.json"
    path.write_text(json.dumps(wrap(payload)))
    with pytest.raises(ValidationError) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and f"field {key!r}" in message, message
    if value is _ABSENT or value is None:
        assert f"missing field {key!r}" in message


_JSON_CALLS = {"dump", "dumps", "load", "loads"}


def _parsed_json_reads(tree):
    """Lines where a module encodes or decodes JSON or reads a field of a
    parsed payload: json.dump(s) and json.load(s), any use of orjson, an
    import from either, and [..] or .get on `payload` or on a name assigned
    from load_json_object(...)."""
    names = {"payload"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "load_json_object"):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and (node.value.id == "orjson"
                     or node.value.id == "json" and node.attr in _JSON_CALLS)):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module in {"json", "orjson"}:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "get"
                and getattr(node.value, "id", None) in names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and getattr(node.value, "id", None) in names):
            lines.append(node.lineno)
    return lines


def test_json_is_read_in_one_place():
    # Every artifact field goes through _util.json_field, so that each
    # absent, null or refused field is reported the same way, and every
    # artifact through the one codec of _util.write_json and load_json_object.
    package = Path(kbound.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name != "_util.py":
            lines = _parsed_json_reads(ast.parse(path.read_text()))
            if lines:
                found[path.name] = lines
    assert found == {}


def _eigh_and_spec_reads(tree) -> list[str]:
    """Calls of eigh and reads of a private attribute of a spec in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            name = getattr(owner, "id", getattr(owner, "attr", None))
            if node.attr == "eigh":
                found.append(f"{node.lineno}: eigh")
            elif name == "spec" and node.attr.startswith("_"):
                found.append(f"{node.lineno}: spec.{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "eigh":
            found.append(f"{node.lineno}: eigh")
    return found


def test_eigh_in_one_place():
    # operators._Frame builds the weighted eigenframe of H; no other module
    # decomposes H or reads what a spec holds privately.
    package = Path(kbound.__file__).parent
    found = {path.name: _eigh_and_spec_reads(ast.parse(path.read_text()))
             for path in sorted(package.glob("*.py"))}
    assert [line.split(": ")[1] for line in found.pop("operators.py")] == ["eigh"]
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_write_csv_cells(tmp_path):
    rows = [
        (math.nan, math.inf, -math.inf),
        (-0.0, 5e-324, np.float64(0.1)),
        (3, "x", ""),
        (np.float64(-2.5e-300), 1.0 / 3.0, 2**53 + 1),
    ]
    want = [
        "# tau_d = nan",
        "a,b,c",
        "nan,inf,-inf",
        "-0,4.9406564584124654e-324,0.10000000000000001",
        "3,x,",
        "-2.5e-300,0.33333333333333331,9007199254740993",
    ]
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b", "c"), rows, comment="tau_d = nan")
    assert path.read_text() == "\n".join(want) + "\n"
    handle = io.StringIO()
    write_csv(handle, ["a", "b", "c"], iter(rows[:1]))
    assert handle.getvalue() == "a,b,c\nnan,inf,-inf\n"


def _cli(*argv):
    """Run kbound; an input error (exit 1, "error: ...") is raised again here."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code == 1 and err.getvalue().startswith("error: "):
        raise ValidationError(err.getvalue())
    return code


def _file(tmp_path, payload):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    return path


def _hamiltonian(tmp_path):
    path = tmp_path / "H.json"
    save_matrix(path, SIGMA_Z)
    return path


_BAD_B = {"b": [1.0, -2.0], "D": 3, "dim": 2}
_NAN_B = {"b": [1.0, math.nan], "D": 3, "dim": 2}
_T = [0.0, 1.0]

# (call, want): call(tmp_path) returns want, an int; or, where want is a
# str, raises ValidationError whose message names the argument want.
_ARGUMENTS = [
    # Integers, integral floats and numpy integers are integers.
    pytest.param(lambda _: integer(0, "n", 0), 0, id="integer-0"),
    pytest.param(lambda _: integer(7, "n", 0), 7, id="integer-7"),
    pytest.param(lambda _: integer(3.0, "n", 0), 3, id="integer-3.0"),
    pytest.param(lambda _: integer(2**70, "n", 0), 2**70, id="integer-2**70"),
    pytest.param(lambda _: integer(np.int64(5), "n", 0), 5, id="integer-int64"),
    pytest.param(lambda _: integer(np.float64(4.0), "n", 0), 4, id="integer-float64"),
    # A float is exact as an integer only up to 2^53.
    pytest.param(lambda _: integer(2.0**53, "n", 0), 2**53, id="integer-2.0**53"),
    pytest.param(lambda _: integer(2.0**64, "n", 0), "n", id="integer-2.0**64"),
    # Fractions were truncated, bools read as 0 or 1, nested chains ravelled.
    pytest.param(lambda _: GoeSpec(dim=3.9), "dim", id="GoeSpec-dim"),
    pytest.param(lambda _: GoeSpec(dim=4, count=2.5), "count", id="GoeSpec-count"),
    pytest.param(lambda _: GoeSpec(dim=4, seed=1.7), "seed", id="GoeSpec-seed"),
    pytest.param(lambda _: GoeSpec(dim=4, seed=-1), "seed", id="GoeSpec-seed-negative"),
    # The JSON artifacts hold integers of 64 bits.
    pytest.param(lambda _: GoeSpec(dim=4, seed=2**64 - 1).seed, 2**64 - 1,
                 id="GoeSpec-seed-largest"),
    pytest.param(lambda _: GoeSpec(dim=4, seed=2**64), "seed", id="GoeSpec-seed-64-bits"),
    pytest.param(lambda _: GoeSpec(dim=4, sigma=math.nan), "sigma", id="GoeSpec-sigma"),
    pytest.param(lambda _: GoeSpec(dim=3, halt_tol=2.0), "halt_tol", id="GoeSpec-halt_tol"),
    pytest.param(lambda _: GoeSpec(dim=3, halt_tol="x"), "halt_tol",
                 id="GoeSpec-halt_tol-str"),
    pytest.param(lambda _: goe_sample(2.9), "dim", id="goe_sample-dim"),
    pytest.param(lambda _: goe_sample(3, seed=1.5), "seed", id="goe_sample-seed"),
    pytest.param(lambda _: run_ensemble(GoeSpec(dim=2), workers=1.5), "workers",
                 id="run_ensemble-workers"),
    pytest.param(lambda _: run_ensemble(GoeSpec(dim=2, halt_tol=2.0)), "halt_tol",
                 id="run_ensemble-halt_tol"),
    pytest.param(lambda _: run_lanczos(SIGMA_Z, SIGMA_X + SIGMA_Z, max_steps=1.5),
                 "max_steps", id="run_lanczos-max_steps"),
    pytest.param(lambda _: max_chain_length(2.5), "dim", id="max_chain_length-dim"),
    pytest.param(lambda _: OperatorVector(np.ones(4), 2.7), "dim", id="OperatorVector-dim"),
    pytest.param(lambda _: OperatorVector(np.eye(2), 2), "components",
                 id="OperatorVector-nested-components"),
    # Components: bools were read as 1, numeric strings parsed, others a bare ValueError.
    pytest.param(lambda _: OperatorVector([True] * 4, 2), "components",
                 id="OperatorVector-bool"),
    pytest.param(lambda _: OperatorVector(["1", "0", "0", "1"], 2), "components",
                 id="OperatorVector-numeric-str"),
    pytest.param(lambda _: OperatorVector(["a"] * 4, 2), "components",
                 id="OperatorVector-str"),
    pytest.param(lambda _: InnerProductSpec(0.0, math.inf), "normalization",
                 id="InnerProductSpec-normalization"),
    pytest.param(lambda _: closure_test([1.0], D=2.9), "D", id="closure_test-D"),
    pytest.param(lambda _: closure_test([1.0], D=True), "D", id="closure_test-D-bool"),
    pytest.param(lambda _: closure_test([[1.0, 2.0]]), "b", id="closure_test-nested-b"),
    pytest.param(lambda _: closure_test([1.0, 2.0], tol=math.nan), "tol",
                 id="closure_test-tol-nan"),
    pytest.param(lambda _: closure_test([1.0, 2.0], tol=math.inf), "tol",
                 id="closure_test-tol-inf"),
    pytest.param(lambda _: parse_model_spec("sat:alpha=-4,gamma=4,D=3.5"), "D",
                 id="parse_model_spec-D"),
    pytest.param(lambda _: AlgebraModel.from_rates(-4.0, 4.0, D=True), "D",
                 id="from_rates-D-bool"),
    pytest.param(lambda _: AlgebraModel.from_rates(-4.0, math.nan), "gamma",
                 id="from_rates-gamma"),
    pytest.param(lambda _: AlgebraModel.from_rates("-4", 4.0), "alpha",
                 id="from_rates-alpha-str"),
    pytest.param(lambda _: AlgebraModel.su2(1.0, nu=math.inf), "nu", id="su2-nu"),
    pytest.param(lambda _: AlgebraModel("su2", 1.0), "j", id="su2-j-missing"),
    pytest.param(lambda _: AlgebraModel.sl2r(-1.0), "eta", id="sl2r-eta"),
    pytest.param(lambda _: evolve_amplitudes([[1.0, 2.0]], _T), "b",
                 id="evolve_amplitudes-nested-b"),
    pytest.param(lambda _: evolve_amplitudes(True, _T), "b", id="evolve_amplitudes-bool"),
    pytest.param(lambda _: evolve_amplitudes([1.0, math.nan], _T), "b",
                 id="evolve_amplitudes-nan"),
    pytest.param(lambda _: evolve_amplitudes(lambda n: -1.0 * n, _T), "b_n",
                 id="evolve_amplitudes-family"),
    pytest.param(lambda _: short_time_coefficients(1.0, -1.0), "b2",
                 id="short_time_coefficients-b2"),
    pytest.param(lambda _: deviation_time(1.0, 2.0, math.nan), "b3",
                 id="deviation_time-b3"),
    # Time grids were read by float(): strings parsed, nested grids ravelled.
    pytest.param(lambda _: evolve_amplitudes([1.0], ["0", "1"]), "times",
                 id="evolve_amplitudes-times-str"),
    pytest.param(lambda _: evolve_amplitudes([1.0], [[0.0, 0.5], [1.0, 2.0]]), "times",
                 id="evolve_amplitudes-times-nested"),
    pytest.param(lambda _: evolve_amplitudes([1.0], [False, True]), "times",
                 id="evolve_amplitudes-times-bool"),
    pytest.param(lambda _: evolve_amplitudes([1.0], 0.5), "times",
                 id="evolve_amplitudes-times-scalar"),
    pytest.param(lambda _: run_ensemble(GoeSpec(dim=3), profile_times=["0", "1"]),
                 "profile_times", id="run_ensemble-profile_times"),
    pytest.param(lambda _: model_observables(AlgebraModel.hw(), ["0", "1"]), "times",
                 id="model_observables-times"),
    # Matrices: a string entry ended in a bare ValueError, a bool was read as 1.
    pytest.param(lambda _: HermitianMatrix(np.array([["a"]])), "entries",
                 id="HermitianMatrix-str"),
    pytest.param(lambda _: HermitianMatrix([[True]]), "entries", id="HermitianMatrix-bool"),
    pytest.param(lambda _: HermitianMatrix([[1.0, 0.0], [0.0]]), "entries",
                 id="HermitianMatrix-ragged"),
    pytest.param(lambda _: run_lanczos(np.eye(2), [["a", "b"], ["c", "d"]]), "matrix",
                 id="run_lanczos-operator-str"),
    pytest.param(lambda tmp: save_matrix(tmp / "m.json", [["a"]]), "matrix",
                 id="save_matrix-str"),
    pytest.param(lambda tmp: load_result_json(_file(tmp, _BAD_B)), "field 'b'",
                 id="load_result_json-negative-b"),
    pytest.param(lambda tmp: load_result_json(_file(tmp, _NAN_B)), "field 'b'",
                 id="load_result_json-nan-b"),
    # The command line exits 1 with "error: ..." naming the option or field.
    pytest.param(lambda _: _cli("goe", "--dim", 4, "--seed", -1), "--seed",
                 id="cli-goe-seed"),
    pytest.param(lambda _: _cli("goe", "--dim", 4, "--seed", 2**64), "seed",
                 id="cli-goe-seed-64-bits"),
    pytest.param(lambda _: _cli("goe", "--dim", 4, "--workers", 0), "--workers",
                 id="cli-goe-workers"),
    pytest.param(lambda _: _cli("goe", "--dim", 4, "--sigma", "nan"), "--sigma",
                 id="cli-goe-sigma"),
    pytest.param(lambda _: _cli("goe", "--dim", 4, "--tol-halt", 2), "--tol-halt",
                 id="cli-goe-tol-halt"),
    pytest.param(lambda _: _cli("goe", "--dim", 1), "--dim", id="cli-goe-dim"),
    pytest.param(lambda _: _cli("goe", "--dim", 4, "--count", 0), "--count",
                 id="cli-goe-count"),
    pytest.param(lambda _: _cli("model", "sat:alpha=-4,gamma=4,D=3.5"), "D",
                 id="cli-model-D"),
    pytest.param(lambda _: _cli("model", "hw:nu=1", "--coeffs", 0), "--coeffs",
                 id="cli-model-coeffs"),
    pytest.param(lambda _: _cli("model", "hw:nu=1", "--tmax", "inf"), "--tmax",
                 id="cli-model-tmax"),
    pytest.param(lambda _: _cli("model", "hw:nu=1", "--steps", 1), "--steps",
                 id="cli-model-steps"),
    pytest.param(lambda tmp: _cli("bound", _file(tmp, _BAD_B)), "field 'b'",
                 id="cli-bound-negative-b"),
    pytest.param(lambda tmp: _cli("bound", _file(tmp, _NAN_B)), "field 'b'",
                 id="cli-bound-nan-b"),
    pytest.param(lambda tmp: _cli("closure", _file(tmp, {"b": [1.0, 2.0]}),
                                  "--tol-closure", "inf"), "--tol-closure",
                 id="cli-closure-tol"),
    pytest.param(lambda tmp: _cli("lanczos", _hamiltonian(tmp), "--max-steps", 0),
                 "--max-steps", id="cli-lanczos-max_steps"),
    pytest.param(lambda tmp: _cli("lanczos", _hamiltonian(tmp), "--normalization", -1),
                 "--normalization", id="cli-lanczos-normalization"),
    pytest.param(lambda tmp: _cli("lanczos", _hamiltonian(tmp), "--beta", "nan"),
                 "--beta", id="cli-lanczos-beta"),
]


@pytest.mark.parametrize("call, want", _ARGUMENTS)
def test_argument_table(tmp_path, call, want):
    if not isinstance(want, str):
        out = call(tmp_path)
        assert out == want and type(out) is int
        return
    with pytest.raises(ValidationError) as info:
        call(tmp_path)
    # The name stands as a word of its own: "b" in "number" does not count.
    assert re.search(rf"(?<![\w-]){re.escape(want)}(?![\w-])", str(info.value)), \
        str(info.value)


def test_finite_or_none():
    for x in (None, math.nan, math.inf, -math.inf, np.float64(np.nan)):
        assert finite_or_none(x) is None
    out = finite_or_none(np.float64(1.5))
    assert out == 1.5 and type(out) is float


def _as_read(value):
    """value as a JSON reader gives it back: keys as strings, numpy as tolist()."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {str(key): _as_read(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_read(item) for item in value]
    return value


def _assert_round_trips(tmp_path, payload):
    """write_json(payload) reads back as _as_read(payload) through json and
    load_json_object, and a path, a binary and a text handle get one text."""
    path = tmp_path / "out.json"
    write_json(path, payload)
    data = path.read_bytes()
    assert data.endswith(b"\n") and data.count(b"\n") == 1
    want = _as_read(payload)
    assert json.loads(data) == want
    if isinstance(want, dict):
        assert load_json_object(path) == want
    binary, text = io.BytesIO(), io.StringIO()
    write_json(binary, payload)
    write_json(text, payload)
    assert binary.getvalue() == data and text.getvalue().encode() == data


@pytest.mark.parametrize("payload", [
    {"b": [0.1, 1.0 / 3.0, 2.5e-300], "D": 4, "name": "x\u00e9", "n": None},
    {"basis": {"re": [[1.0, 2.0], [3.0, 4.0]], "im": [[0.0, -1.0], [1e-300, 0.0]]},
     "rows": [{"a": 1}, {}, {"b": [[]]}], "empty": {}, "none": [], "ints": {1: 2}},
    [[1.5, 2.5], [3.5]],
    3.25,
    {"seed": 2**64 - 1, "index": -2**63},
], ids=["floats", "nested", "rows", "scalar", "64-bit-ints"])
def test_write_json_round_trips(tmp_path, payload):
    _assert_round_trips(tmp_path, payload)


def test_write_json_takes_numpy(tmp_path):
    # Arrays are written from their memory, a 2-D array row by row, a
    # strided view (the real part of a complex basis) too.
    basis = np.arange(6.0).reshape(2, 3) / 3.0 + 1j * np.arange(6.0).reshape(2, 3)
    _assert_round_trips(tmp_path, {
        "phi": np.arange(6.0).reshape(2, 3) / 3.0, "b": np.array([0.1, 2.5]),
        "re": basis.real, "im": basis.imag, "rows": [np.array([1.0]), np.arange(2)],
        "n": np.int64(4), "ok": np.bool_(True), "x": np.float64(1.0 / 3.0),
        "scalar": np.array(0.5), "empty": np.zeros((2, 0))})


# Signed zeros, the subnormal range and the largest finite doubles.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(xs=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_floats_round_trip_bit_for_bit(tmp_path, xs):
    # Through a list and through an array (1-D and rows), read back by
    # json and by load_json_object.
    xs = np.array(xs + _EDGE_FLOATS)
    path = tmp_path / "floats.json"
    write_json(path, {"list": xs.tolist(), "array": xs, "rows": np.stack([xs, -xs])})
    for payload in (json.loads(path.read_bytes()), load_json_object(path)):
        for back in (payload["list"], payload["array"], payload["rows"][0]):
            np.testing.assert_array_equal(np.array(back).view(np.int64), xs.view(np.int64))
        np.testing.assert_array_equal(np.array(payload["rows"][1]).view(np.int64),
                                      (-xs).view(np.int64))


def test_write_json_refuses_nan(tmp_path):
    path = tmp_path / "out.json"
    for bad in (math.nan, math.inf, np.float32("nan")):
        with pytest.raises(ValidationError, match="NaN or an infinity"):
            write_json(path, {"b": [[1.0], [bad]]})
    # A NaN in a later item is refused before the path is opened: the file
    # keeps what it held, not the items written ahead of it.
    path.write_text("before\n")
    with pytest.raises(ValidationError, match="NaN or an infinity"):
        write_json(path, {"a": [1.0], "b": [math.nan]})
    assert path.read_text() == "before\n"
    with pytest.raises(ValidationError, match="non-finite entries"):
        save_matrix(path, np.array([[1.0, np.nan], [np.nan, 0.0]]))
    assert path.read_text() == "before\n"


def test_ensemble_json_has_no_infinity():
    res = run_ensemble(GoeSpec(dim=4, sigma=1.0, count=2, seed=2),
                       profile_times=np.linspace(0.0, 1.0, 5))
    res.profile.ratio[1] = math.inf
    out = ensemble_to_dict(res)
    assert out["profile"]["ratio"][1] is None
    json.dumps(out, allow_nan=False)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second to import; nothing in the package
    # needs it, and a fresh `import kbound` must not pay for it.
    env = dict(os.environ, PYTHONPATH=str(Path(kbound.__file__).parents[1]))
    code = "import sys, kbound; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg adds roughly 0.1 s to a fresh `import kbound`; the
    # package evolves chains without an eigensolve and needs none of it.
    env = dict(os.environ, PYTHONPATH=str(Path(kbound.__file__).parents[1]))
    code = "import sys, kbound; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_runs_without_scipy(tmp_path):
    # kbound depends on numpy and orjson alone: with every scipy import
    # failing, the three families, the exact cut of a slow sl2r tail, the
    # closure test and the model, lanczos and bound commands all run.
    env = dict(os.environ, PYTHONPATH=str(Path(kbound.__file__).parents[1]))
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
from kbound import cli
from kbound.algebras import AlgebraModel, closure_test, model_amplitudes
from kbound.operators import save_matrix
t = np.linspace(0.0, 2.0, 21)
for model in (AlgebraModel.su2(3.5), AlgebraModel.hw(1.0), AlgebraModel.sl2r(2.0)):
    traj = model_amplitudes(model, t)
    assert traj.sites > 2 and closure_test(traj.b, D=model.D).closed
traj = model_amplitudes(AlgebraModel.sl2r(1e-12), np.array([0.0, 8.0]))
assert traj.sites == 588123 and traj.tail_mass <= 1e-12
work = {str(tmp_path)!r}
save_matrix(work + "/H.json", np.diag(np.arange(6.0)) + np.eye(6, k=1) + np.eye(6, k=-1))
for argv in (["model", "hw:nu=1", "--out", work + "/model.json"],
             ["lanczos", work + "/H.json", "--out", work + "/chain.json"],
             ["bound", work + "/chain.json", "--out", work + "/bound.json"]):
    assert cli.main(argv) == 0, argv
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr

def test_chain_longer_than_its_D_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"b": [1.0, 2.0, 3.0], "D": 2, "dim": 2}))
    message = re.escape(f"{path}: field 'b' lists 3 coefficients") + r".*'D' = 2.*D - 1 = 1"
    for load in (load_result_json, _load_chain):
        with pytest.raises(ValidationError, match=message):
            load(path)
    assert cli.main(["bound", str(path)]) == 1
    assert "field 'b' lists 3 coefficients" in capsys.readouterr().err


def test_chain_shorter_than_its_D(tmp_path):
    # A Lanczos result lists all D - 1 coefficients; the CLI reads a shorter
    # list as the head of a longer chain.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"b": [1.0, 2.0], "D": 5, "dim": 2}))
    message = re.escape(f"{path}: field 'b' lists 2 coefficients") + r".*'D' = 5.*D - 1 = 4"
    with pytest.raises(ValidationError, match=message):
        load_result_json(path)
    b, cut = _load_chain(path)
    assert b.size == 2 and cut


@pytest.mark.parametrize("points, sites", [(1, 1), (601, 2001), (5, (1 << 16) + 1),
                                           ((1 << 16) + 1, 1)])
def test_row_blocks_tile_the_grid_within_the_block(points, sites):
    blocks = list(row_blocks(points, sites))
    rows = [k for block in blocks for k in range(points)[block]]
    assert rows == list(range(points))
    for block in blocks:
        height = block.stop - block.start
        assert height >= 1
        assert height == 1 or height * sites <= kbound._util._BLOCK_CELLS
