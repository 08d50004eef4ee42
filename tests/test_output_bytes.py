"""Byte contracts of the CLI output files.

Every JSON file is the text of ``json.dumps(payload, indent=2,
sort_keys=True, allow_nan=False)``; `_parent_dumps` and
`_parent_complex_matrix_to_json` below are the plain implementations the
emitter and the payload builder must reproduce byte for byte, and
`_parent_gamma_lines` is the per-scalar CSV loop the `gamma` rows must
reproduce.  The `generator` file's Kraus family is laid out by
`cli._kraus_chunks` from a float table without building `to_json()`; the
file must equal the indented dump of `GKSLGenerator.to_json()`.
"""

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldlgen import GammaTable, TMatrix, build_generator, cli, generator, load_model
from ldlgen.bath import EnergyGrid
from ldlgen.errors import NumericError
from ldlgen.generator import GKSLGenerator
from ldlgen.model import complex_matrix_to_json, model_from_dict

from conftest import MODELS, ladder_model_doc

NR = str(MODELS / "tm_nr.json")
RWA = str(MODELS / "tm_rwa.json")
LADDER_SEED = 3


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
    monkeypatch.setattr(cli, "_emit_generator",
                        lambda gen, path: _parent_emit_json(gen.to_json(), path))
    monkeypatch.setattr(cli, "complex_matrix_to_json", _parent_complex_matrix_to_json)
    monkeypatch.setattr(generator, "complex_matrix_to_json", _parent_complex_matrix_to_json)
    assert cli.run(argv + [str(old)]) == code == 0
    assert new.read_bytes() == old.read_bytes()


# -- the generator file's Kraus layout ----------------------------------------

def _generator_dump(gen):
    return json.dumps(gen.to_json(), indent=2, sort_keys=True) + "\n"


def _emitted_generator(gen, path):
    cli._emit_generator(gen, str(path))
    return path.read_text(encoding="utf-8")


_MAX_FLOAT = 1.7976931348623157e308
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, _MAX_FLOAT, -_MAX_FLOAT,
            1.0, -3.0, 2.0 ** 60, 1e16, 0.1]
_WEIGHT_SPECIAL = [0.0, -0.0, 5e-324, 1e-300, _MAX_FLOAT, 1.0, 7.0, 2.0 ** 60, 1e16, 0.25]
_cells = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
_weights = st.one_of(st.sampled_from(_WEIGHT_SPECIAL),
                     st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
_grids = st.sampled_from([None, EnergyGrid(-1.5, 4.5, 481), EnergyGrid(-1e-300, _MAX_FLOAT, 16)])


def _complex_arrays(draw, shape):
    """A complex array of `shape`, +0.0 but for the re/im parts drawn at
    drawn positions (zeros dominate a Bohr-masked family); a view, so a
    -0.0 part stays -0.0."""
    parts = np.zeros(2 * math.prod(shape))
    if parts.size:
        cells = draw(st.dictionaries(st.integers(0, parts.size - 1), _cells, max_size=parts.size))
        parts[list(cells)] = list(cells.values())
    return parts.view(complex).reshape(shape)


@st.composite
def _generators(draw):
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, 24))
    weights = draw(st.lists(_weights, min_size=k, max_size=k))
    return GKSLGenerator(drift=_complex_arrays(draw, (d, d)),
                         hamiltonian=_complex_arrays(draw, (d, d)),
                         weights=np.array(weights, dtype=float),
                         ops=_complex_arrays(draw, (k, d, d)), grid=draw(_grids))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_generators(), st.integers(1, 30))
def test_generator_file_matches_indented_dumps(out_path, gen, chunk_floats):
    # budgets of 1 to 30 floats split a family of up to 24 entries into
    # chunks of one entry (d >= 3) up to ten (d = 1)
    with mock.patch.object(cli, "_KRAUS_CHUNK_FLOATS", chunk_floats):
        assert _emitted_generator(gen, out_path) == _generator_dump(gen)


def test_generator_file_across_default_chunks(out_path):
    rng = np.random.default_rng(5)
    d, rows = 3, cli._KRAUS_CHUNK_FLOATS // 19
    k = 2 * rows + 3                                     # three chunks, the last short
    ops = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    ops[rng.random((k, d, d)) < 0.8] = 0.0
    ops[::7, 0, 0] = complex(-0.0, 0.0)
    weights = rng.random(k)
    weights[::5] = 0.0
    gen = GKSLGenerator(drift=ops[0], hamiltonian=ops[1], weights=weights, ops=ops)
    assert _emitted_generator(gen, out_path) == _generator_dump(gen)


def test_generator_file_is_written_chunk_by_chunk(out_path, monkeypatch):
    # about 6 MB of text; the write may hold a few 4096-float chunks of it
    rng = np.random.default_rng(7)
    k, d = 20_000, 3
    ops = np.zeros((k, d, d), dtype=complex)
    ops[:, 0, 1] = rng.standard_normal(k)
    gen = GKSLGenerator(drift=np.eye(d), hamiltonian=np.eye(d), weights=rng.random(k), ops=ops)
    monkeypatch.setattr(cli, "_KRAUS_CHUNK_FLOATS", 4096)
    tracemalloc.start()
    try:
        cli._emit_generator(gen, str(out_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out_path.stat().st_size
    assert size > 5_000_000 and peak < size / 10


@pytest.mark.parametrize("model", ["tm_nr", "tm_rwa", "ladder_d3"])
def test_generator_cli_file_matches_indented_dumps(tmp_path, model):
    path = {"tm_nr": NR, "tm_rwa": RWA}.get(model) or _ladder_model_path(tmp_path)
    out = tmp_path / "gen.json"
    assert cli.run(["generator", path, "--out", str(out)]) == 0
    gen = build_generator(TMatrix(load_model(path)))
    assert out.read_text(encoding="utf-8") == _generator_dump(gen)


@pytest.mark.parametrize("field, index", [("weights", (3,)), ("ops", (5, 1, 0)),
                                          ("drift", (0, 1)), ("hamiltonian", (1, 1))])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_generator_nonfinite_value_exits_2_and_writes_nothing(tmp_path, monkeypatch,
                                                              field, index, value):
    gen = build_generator(TMatrix(model_from_dict(ladder_model_doc(LADDER_SEED, 2))))
    array = getattr(gen, field).copy()
    array[index] = value
    setattr(gen, field, array)                     # past the constructor's check
    monkeypatch.setattr(cli, "build_generator", lambda tm: gen)
    out = tmp_path / "gen.json"
    assert cli.run(["generator", NR, "--out", str(out)]) == cli.EXIT_NUMERIC
    assert not out.exists()


# -- gamma CSV rows ------------------------------------------------------------

@pytest.mark.parametrize("epsilon", ["0", "1"])
def test_gamma_csv_matches_scalar_loop(tmp_path, epsilon):
    out = tmp_path / "gamma.csv"
    argv = ["gamma", NR, "--epsilon", epsilon, "--emin", "-1.5", "--emax", "4.5",
            "--points", "97", "--out", str(out)]
    assert cli.run(argv) == 0
    energies = np.linspace(-1.5, 4.5, 97)
    values = GammaTable(load_model(NR).bath).gamma(int(epsilon), energies)
    assert out.read_text() == "".join(line + "\n" for line in _parent_gamma_lines(energies, values))
