"""Byte contracts of the CLI output files.

Every JSON file is the text of ``json.dumps(payload, indent=2,
sort_keys=True, allow_nan=False)``; `_parent_dumps` and
`_parent_complex_matrix_to_json` below are the plain implementations the
faster emitter and payload builder must reproduce byte for byte, and
`_parent_gamma_lines` is the per-scalar CSV loop the `gamma` rows must
reproduce.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldlgen import TMatrix, cli, generator, load_model
from ldlgen.errors import NumericError
from ldlgen.model import complex_matrix_to_json

from conftest import MODELS, ladder_model_doc

NR = str(MODELS / "tm_nr.json")
RWA = str(MODELS / "tm_rwa.json")
LADDER_SEED = 3

EMITTER_PROFILE = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def _parent_dumps(payload):
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _parent_emit_json(payload, path):
    try:
        text = _parent_dumps(payload)
    except ValueError:
        raise NumericError("the output holds NaN or Infinity, which strict JSON "
                           "cannot carry; nothing was written") from None
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parent_complex_matrix_to_json(m):
    m = np.asarray(m)
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def _parent_gamma_lines(energies, values):
    lines = ["E,re_gamma,im_gamma"]
    for e, g in zip(energies.tolist(), values.tolist()):
        lines.append(f"{e!r},{g.real!r},{g.imag!r}")
    return lines


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("emit") / "out.json"


def _emitted(payload, path):
    cli._emit_json(payload, str(path))
    return path.read_text(encoding="utf-8")


# -- the emitter against json.dumps --------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = st.one_of(_finite, st.integers(), st.booleans(), st.none())
_json_values = st.recursive(
    st.one_of(_number, st.text(), st.lists(_number), st.lists(st.lists(_number, min_size=1))),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=20)


@EMITTER_PROFILE
@given(_json_values)
def test_emitter_matches_indented_dumps(out_path, payload):
    assert _emitted(payload, out_path) == _parent_dumps(payload) + "\n"


@pytest.mark.parametrize("payload", [
    [], {}, [[], [1.0]], [[1.0], []], {"a": [], "b": {}},
    [[1.0], [2.0, 3.0], [4.0]],                      # ragged rows
    [1.0, [2.0]], [[1.0], 2.0], [[[1.0, 2.0]], [[3.0]]], [[[]]],
    ["a, b", "]", "], [", "[1,2]", "tab\there", 'quote " and \\', "é中\U0001f600"],
    [[1.0, "], ["], [2.0]], {"], [": [1.0, 2.0], "k\n\"": [[0.5]]},
    [-0.0, 0.0, 1e-300, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308],
    [[-0.0, 1e-300], [1.7976931348623157e308, 0.1]],
    [True, 1, False, 0, None], [[True, 1], [1.0, None]], {"x": True, "y": 1},
    [{"w": 1.0, "op": [[0.0, -0.0]]}, [1.0, 2.0], 3],
    [{1: "a", 10: "b", -2: "c"}, {2.5: [1.0], -0.5: [], 1e-300: 0}, {True: 1}, {False: [0.0]},
     {None: "n"}],
    (1.0, (2.0, 3.0)), 2.5, 7, "s", None,
])
def test_emitter_pinned_cases(out_path, payload):
    assert _emitted(payload, out_path) == _parent_dumps(payload) + "\n"


@pytest.mark.parametrize("payload", [
    [math.nan], [1.0, math.inf], [[1.0, -math.inf]], {"w": math.nan},
    {"rows": [[0.0, 1.0], [2.0, math.inf]]}, [{"weight": -math.inf}], math.nan,
])
def test_nonfinite_payload_is_numeric_error_and_writes_nothing(tmp_path, payload):
    path = tmp_path / "out.json"
    with pytest.raises(NumericError):
        cli._emit_json(payload, str(path))
    assert not path.exists()


# -- the payload builder -------------------------------------------------------

@pytest.mark.parametrize("matrix", [
    np.array([[0.0, -0.0], [1e-300, -1.5]]),
    np.array([[1 + 2j, -0.0 - 0.0j], [complex(0.0, -0.0), 3e300 - 1e-310j]]),
    np.arange(9, dtype=complex).reshape(3, 3).T,                 # non-contiguous
    (np.arange(16) * (0.1 - 0.3j)).reshape(4, 4)[::2, 1::2],      # strided view
    np.array([[1, 2], [3, 4]]),
    np.array([[0.1 + 0.2j, 7.0]], dtype=np.complex64),
])
def test_complex_matrix_to_json_matches_scalar_loop(matrix):
    new = complex_matrix_to_json(matrix)
    old = _parent_complex_matrix_to_json(matrix)
    assert all(type(x) is float for pair in new for x in pair)
    assert repr(new) == repr(old)                                 # -0.0 kept


# -- CLI files against the parent emitter and builder --------------------------

def _ladder_model_path(tmp_path):
    path = tmp_path / "ladder_d3.json"
    path.write_text(json.dumps(ladder_model_doc(LADDER_SEED, 3)))
    return str(path)


COMMANDS = {
    "generator": [],
    "drift": [],
    "check": ["--suite", "all"],
    "validate": [],
    "tmatrix": ["--energy", "0.5"],
}


@pytest.mark.parametrize("model", ["tm_nr", "tm_rwa", "ladder_d3"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_files_match_parent_bytes(tmp_path, monkeypatch, model, command):
    path = {"tm_nr": NR, "tm_rwa": RWA}.get(model) or _ladder_model_path(tmp_path)
    argv = [command, path, *COMMANDS[command], "--out"]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    code = cli.run(argv + [str(new)])
    monkeypatch.setattr(cli, "_emit_json", _parent_emit_json)
    monkeypatch.setattr(cli, "complex_matrix_to_json", _parent_complex_matrix_to_json)
    monkeypatch.setattr(generator, "complex_matrix_to_json", _parent_complex_matrix_to_json)
    assert cli.run(argv + [str(old)]) == code == 0
    assert new.read_bytes() == old.read_bytes()


# -- gamma CSV rows ------------------------------------------------------------

@pytest.mark.parametrize("epsilon", ["0", "1"])
def test_gamma_csv_matches_scalar_loop(tmp_path, epsilon):
    out = tmp_path / "gamma.csv"
    argv = ["gamma", NR, "--epsilon", epsilon, "--emin", "-1.5", "--emax", "4.5",
            "--points", "97", "--out", str(out)]
    assert cli.run(argv) == 0
    energies = np.linspace(-1.5, 4.5, 97)
    values = TMatrix(load_model(NR)).gamma(int(epsilon), energies)
    assert out.read_text() == "".join(line + "\n" for line in _parent_gamma_lines(energies, values))
