import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbound
from kbound import cli
from kbound._util import finite_or_none, json_int, write_csv, write_json
from kbound.ensembles import GoeSpec, ensemble_to_dict, run_ensemble
from kbound.errors import ValidationError
from kbound.lanczos import load_result_json
from kbound.operators import load_matrix, save_matrix


def _load_chain(path, realization=None):
    return cli._load_chain(argparse.Namespace(command="bound", inputs=[str(path)],
                                              realization=realization))


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


@pytest.mark.parametrize("value, want", [(0, 0), (7, 7), (3.0, 3), (2**70, 2**70)])
def test_json_int_accepts_integers(value, want):
    # Integral floats such as 3.0 are integers too; fractional ones, bools and
    # negative counts are refused (see the malformed-field tests).
    out = json_int(value, 0)
    assert out == want and type(out) is int


def test_finite_or_none():
    for x in (None, math.nan, math.inf, -math.inf, np.float64(np.nan)):
        assert finite_or_none(x) is None
    out = finite_or_none(np.float64(1.5))
    assert out == 1.5 and type(out) is float


@pytest.mark.parametrize("payload", [
    {"b": [0.1, 1.0 / 3.0, 2.5e-300], "D": 4, "name": "x\u00e9", "n": None},
    {"basis": {"re": [[1.0, 2.0], [3.0, 4.0]], "im": [[0.0, -1.0], [1e-300, 0.0]]},
     "rows": [{"a": 1}, {}, {"b": [[]]}], "empty": {}, "none": [], "ints": {1: 2}},
    [[1.5, 2.5], [3.5]],
    3.25,
])
def test_write_json_matches_json_dumps(tmp_path, payload):
    path = tmp_path / "out.json"
    write_json(path, payload)
    assert path.read_text() == json.dumps(payload) + "\n"
    handle = io.StringIO()
    write_json(handle, payload)
    assert handle.getvalue() == path.read_text()


def test_write_json_refuses_nan(tmp_path):
    path = tmp_path / "out.json"
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="NaN or an infinity"):
            write_json(path, {"b": [[1.0], [bad]]})
    path.write_text("before\n")
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


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.special"])
def test_import_leaves_scipy_linalg_unloaded(module):
    # scipy.linalg adds roughly 0.1 s to a fresh `import kbound`; the
    # package evolves chains without an eigensolve and needs none of it.
    # scipy.special is most of the rest, and only the closed-form family
    # amplitudes need it: they import it when called.
    env = dict(os.environ, PYTHONPATH=str(Path(kbound.__file__).parents[1]))
    code = f"import sys, kbound; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

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
    b, D, cut = _load_chain(path)
    assert b.size == 2 and D == 5 and cut

