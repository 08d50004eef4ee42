import json
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest

from ldlgen import cli, tmatrix, verification
from ldlgen.cli import MAX_SERIES_ORDERS, run
from ldlgen.dynamics import MAX_STORED_ENTRIES

from conftest import MODELS, ROOT, base_model_doc, write_model

NR = str(MODELS / "tm_nr.json")


def test_validate_good_model(tmp_path):
    out = tmp_path / "report.json"
    assert run(["validate", NR, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["valid"]
    assert report["model"]["bohr_set"] == [-1.0, 0.0, 1.0]
    assert report["bath"]["support_gap"] == 1.0


def test_parser_built_once_gives_the_same_results_as_fresh_ones(tmp_path, capsys):
    import ldlgen.cli

    steps = [["generator", NR, "--bogus"],
             ["--threads", "2", "generator", NR, "--out", "{dir}/gen.json"],
             ["drift", NR, "--out", "{dir}/drift.json"]]

    def run_steps(directory, fresh):
        directory.mkdir()
        results = []
        for argv in steps:
            if fresh:
                ldlgen.cli.build_parser.cache_clear()
            code = run([a.format(dir=directory) for a in argv])
            results.append((code, capsys.readouterr()))
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        return results, files

    ldlgen.cli.build_parser.cache_clear()
    shared = run_steps(tmp_path / "shared", fresh=False)
    assert ldlgen.cli.build_parser.cache_info().misses == 1
    assert [code for code, _ in shared[0]] == [64, 0, 0]
    assert sorted(shared[1]) == ["drift.json", "gen.json"]
    assert run_steps(tmp_path / "fresh", fresh=True) == shared


def test_validate_bad_model_exits_1(tmp_path):
    doc = base_model_doc()
    doc["bath"]["rho1"] = {"kind": "bump", "a": 0.5, "b": 3.0, "amplitude": 1.0}
    path = write_model(tmp_path, doc)
    assert run(["validate", path]) == 1


def test_unknown_command_exits_64(capsys):
    assert run(["frobnicate"]) == 64
    assert run([]) == 64
    capsys.readouterr()


def test_gamma_csv(tmp_path):
    out = tmp_path / "gamma.csv"
    code = run(["gamma", NR, "--epsilon", "0", "--emin", "-1", "--emax", "4",
                "--points", "6", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "E,re_gamma,im_gamma"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    assert float(first[1]) == 0.0            # off support: Re gamma = 0


def test_gamma_builds_no_tmatrix(tmp_path, monkeypatch):
    # gamma reads the bath alone: no TMatrix and no eigendecomposition of h_system
    from ldlgen import cli, model, tmatrix

    def never(*args, **kwargs):
        raise AssertionError("gamma built a TMatrix or decomposed h_system")

    monkeypatch.setattr(tmatrix.TMatrix, "__init__", never)
    for module in (model, tmatrix, cli):
        monkeypatch.setattr(module, "spectral_decompose", never)
    out = tmp_path / "gamma.csv"
    assert run(["gamma", NR, "--epsilon", "1", "--emin", "-1", "--emax", "4",
                "--points", "6", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 7


def test_star_import_binds_exactly_all():
    # a name left in __all__ after its definition is deleted fails the import
    import ldlgen

    namespace = {}
    exec("from ldlgen import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ldlgen.__all__)


@pytest.mark.parametrize("points", [MAX_STORED_ENTRIES + 1, 10 ** 15])
def test_gamma_points_above_cap_exits_1(tmp_path, capsys, points):
    out = tmp_path / "gamma.csv"
    code = run(["gamma", NR, "--epsilon", "0", "--emin", "-1", "--emax", "4",
                "--points", str(points), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"validation error: --points {points} exceeds the cap "
                                f"of {MAX_STORED_ENTRIES} energies"]
    assert not out.exists()


def test_gamma_at_rect_edge_exits_2(tmp_path):
    doc = base_model_doc()
    doc["bath"]["rho0"] = {"kind": "rect", "a": 0.0, "b": 1.0, "height": 1.0}
    path = write_model(tmp_path, doc)
    out = tmp_path / "gamma.csv"
    code = run(["gamma", path, "--epsilon", "0", "--emin", "0", "--emax", "1",
                "--points", "2", "--out", str(out)])
    assert code == 2


def test_tmatrix_output(tmp_path):
    out = tmp_path / "t.json"
    assert run(["tmatrix", NR, "--energy", "0.5", "--orders", "4",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["t_components"]) == {"00", "01", "10", "11"}
    sums = doc["appendix_partial_sums"]["10"]["cumulative"]
    assert 1 <= len(sums) <= 4
    # cumulative sums approach the solve-route component
    last = np.array(sums[-1])
    comp = np.array(doc["t_components"]["10"])
    assert np.abs(last - comp).max() < 1e-8


def test_drift_output_contains_both_routes(tmp_path):
    out = tmp_path / "d.json"
    assert run(["drift", NR, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["frobenius_discrepancy"] <= 1e-10
    assert len(doc["drift"]) == 4
    assert len(doc["drift_from_t_operator"]) == 4


def _inadmissible_models():
    """{name: (model document, gate message)} for each way a bath can fail
    `validate_bath` on the tm_nr grid (-1.5..4.5, spacing 0.0125)."""
    empty = base_model_doc()            # a bump on [0.001, 0.002] holds no node
    empty["bath"]["rho0"] = {"kind": "bump", "a": 0.001, "b": 0.002, "amplitude": 1.0}
    overlap = base_model_doc()
    overlap["bath"]["rho1"] = {"kind": "bump", "a": 0.5, "b": 3.0, "amplitude": 1.0}
    shifted = base_model_doc()          # Bohr shift 5 carries both supports off the grid
    shifted["system"]["hamiltonian"] = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]
    return {"empty": (empty, "no grid node lies inside the support [0.001, 0.002] of rho0"),
            "overlap": (overlap, "supports of rho0 and rho1 overlap"),
            "shifted": (shifted, "energy grid does not cover: support of rho0 shifted by -5")}


@pytest.mark.parametrize("command", ["validate", "drift", "generator", "evolve", "unravel",
                                     "check"])
def test_empty_density_support_exits_1(tmp_path, capsys, command):
    # every thermal command refuses every inadmissible bath with the one gate's message
    rho = tmp_path / "rho0.json"
    rho.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    psi = tmp_path / "psi0.json"
    psi.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    extra = {"evolve": ["--rho0", str(rho), "--tmax", "1", "--dt", "0.1"],
             "unravel": ["--psi0", str(psi), "--tmax", "1", "--dt", "0.1",
                         "--trajectories", "10", "--seed", "1"]}.get(command, [])
    for name, (doc, message) in _inadmissible_models().items():
        path = write_model(tmp_path, doc, f"{name}.json")
        out = tmp_path / f"{name}.out"
        assert run([command, path, *extra, "--out", str(out)]) == 1, name
        assert message in capsys.readouterr().err, name
        assert not out.exists(), name


def test_overlap_model_still_runs_gamma_and_tmatrix(tmp_path, capsys):
    # gamma and tmatrix never read the thermal quadrature, so the gate does not apply
    path = write_model(tmp_path, _inadmissible_models()["overlap"][0])
    out = str(tmp_path / "out")
    assert run(["gamma", path, "--epsilon", "1", "--emin", "0", "--emax", "3",
                "--points", "7", "--out", out]) == 0
    assert run(["tmatrix", path, "--energy", "0.5", "--out", out]) == 0
    capsys.readouterr()


def test_gamma_overflowing_principal_value_exits_2(tmp_path, capsys):
    # the bump's closed-form principal value overflows at E = +-1e300: a
    # numeric error naming the energy, with no warning and no output
    # (the command used to warn twice and write nan)
    out = tmp_path / "gamma.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["gamma", NR, "--epsilon", "0", "--emin=-1e300", "--emax=1e300",
                    "--points", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: gamma overflows at E = -1e+300")
    assert not out.exists()


def test_overflowing_series_exits_2(tmp_path, capsys):
    # the closed-form series of a 1000 sigma_x coupling overflows within 60
    # orders, and that of 1e9 sigma_x within the suite's 24: a numeric
    # failure naming the pair and order, with no warning and no output
    # (the suite used to drop the NaN residual and pass)
    for scale, argv in ((1000.0, ["tmatrix", "--energy", "0.5", "--orders", "60"]),
                        (1e9, ["check", "--suite", "identities"])):
        doc = base_model_doc()
        doc["system"]["coupling"] = [[0.0, 0.0], [scale, 0.0], [scale, 0.0], [0.0, 0.0]]
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([argv[0], write_model(tmp_path, doc), *argv[1:], "--out", str(out)]) == 2
        assert re.search(r"appendix series of pair 00 overflows at order n = \d+",
                         capsys.readouterr().err)
        assert not out.exists()


def test_overflowing_residual_fails_its_check_as_null(tmp_path, capsys):
    # the 1e6 sigma_x series stays finite, but the norm of its residual
    # overflows: a failed check with a null residual, in strict JSON, and
    # no RuntimeWarning (an error under this suite's warning filter)
    from ldlgen.model import read_json

    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0], [1e6, 0.0], [1e6, 0.0], [0.0, 0.0]]
    out = tmp_path / "check.json"
    assert run(["check", write_model(tmp_path, doc), "--suite", "identities",
                "--out", str(out)]) == 3
    assert capsys.readouterr().err == ""
    report = read_json(str(out))
    series = next(c for c in report["checks"] if c["check"] == "appendix_series_identity")
    assert series["residual"] is None and series["pass"] is False


def test_nonfinite_output_exits_2(tmp_path, monkeypatch, capsys):
    import ldlgen.cli

    monkeypatch.setattr(ldlgen.cli, "drift", lambda tm: np.full((2, 2), np.nan, dtype=complex))
    out = tmp_path / "drift.json"
    assert run(["drift", NR, "--out", str(out)]) == 2
    assert "NaN or Infinity" in capsys.readouterr().err
    assert not out.exists()


def test_generator_output_round_trips(tmp_path):
    out = tmp_path / "gen.json"
    assert run(["generator", NR, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 2
    assert all(entry["weight"] >= 0 for entry in doc["kraus"])
    # byte-identical on repeat
    out2 = tmp_path / "gen2.json"
    assert run(["generator", NR, "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_evolve_and_unravel_csv(tmp_path):
    rho = tmp_path / "rho0.json"
    rho.write_text(json.dumps({"matrix": [[0.5, 0.0], [0.25, 0.0], [0.25, 0.0], [0.5, 0.0]]}))
    out = tmp_path / "traj.csv"
    assert run(["evolve", NR, "--rho0", str(rho), "--tmax", "1.0", "--dt", "0.1",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    assert lines[0].startswith("t,re_00")

    psi = tmp_path / "psi0.json"
    psi.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    mc = tmp_path / "mc.csv"
    assert run(["unravel", NR, "--psi0", str(psi), "--tmax", "0.5", "--dt", "0.1",
                "--trajectories", "20", "--seed", "3", "--out", str(mc)]) == 0
    mc2 = tmp_path / "mc2.csv"
    assert run(["--threads", "2", "unravel", NR, "--psi0", str(psi), "--tmax", "0.5",
                "--dt", "0.1", "--trajectories", "20", "--seed", "3",
                "--out", str(mc2)]) == 0
    assert mc.read_bytes() == mc2.read_bytes()


def test_evolve_rejects_bad_state(tmp_path):
    rho = tmp_path / "rho0.json"
    rho.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}))
    out = tmp_path / "traj.csv"
    code = run(["evolve", NR, "--rho0", str(rho), "--tmax", "1.0", "--dt", "0.1",
                "--out", str(out)])
    assert code == 1


def test_check_pass_and_fail(tmp_path):
    out = tmp_path / "check.json"
    assert run(["check", NR, "--suite", "identities", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"]
    assert all({"check", "residual", "tolerance", "pass"} <= set(c) for c in report["checks"])

    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [0.0, 0.0]]
    path = write_model(tmp_path, doc)
    out2 = tmp_path / "check2.json"
    assert run(["check", path, "--suite", "identities", "--out", str(out2)]) == 3
    report2 = json.loads(out2.read_text())
    assert not report2["passed"]
    failing = [c["check"] for c in report2["checks"] if not c["pass"]]
    assert failing


def test_check_report_byte_identical_between_runs(tmp_path):
    # a cold run (the limit checks computed afresh) against a warm one (read
    # from the memo of the first)
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    verification._limit_checks.cache_clear()
    assert run(["check", NR, "--suite", "limits", "--out", str(out1)]) == 0
    assert run(["check", NR, "--suite", "limits", "--out", str(out2)]) == 0
    info = verification._limit_checks.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("suite", ["identities", "limits"])
def test_inadmissible_bath_exits_1_under_every_suite(tmp_path, capsys, suite):
    # the suite "all" is the default of test_empty_density_support_exits_1;
    # the identity checks validate through the thermal pass, the limit
    # checks alone directly: the same gate message either way
    for name, (doc, message) in _inadmissible_models().items():
        path = write_model(tmp_path, doc, f"{name}.json")
        out = tmp_path / f"{name}.out"
        assert run(["check", path, "--suite", suite, "--out", str(out)]) == 1, name
        assert message in capsys.readouterr().err, name
        assert not out.exists(), name


@pytest.mark.parametrize("suite", ["identities", "limits", "all"])
def test_cold_check_validates_the_bath_once(tmp_path, monkeypatch, suite):
    # every module that calls the gate calls the one counting wrapper
    seen = []
    real = tmatrix.validate_bath

    def counting(*args):
        seen.append(args)
        return real(*args)

    for module in (tmatrix, verification, cli):
        monkeypatch.setattr(module, "validate_bath", counting)
    assert run(["check", NR, "--suite", suite, "--out", str(tmp_path / "c.json")]) == 0
    assert len(seen) == 1


def test_full_check_report_byte_identical_between_runs_on_the_jumping_model(tmp_path):
    strong = str(MODELS / "tm_nr_strong.json")
    outs = [tmp_path / "c1.json", tmp_path / "c2.json"]
    for out in outs:
        assert run(["check", strong, "--suite", "all", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_emitted_json_matrices_reparse_exactly(tmp_path):
    out = tmp_path / "d.json"
    run(["drift", NR, "--out", str(out)])
    doc = json.loads(out.read_text())
    from ldlgen import TMatrix, load_model
    from ldlgen.generator import drift
    direct = drift(TMatrix(load_model(NR)))
    parsed = np.array([complex(re, im) for re, im in doc["drift"]]).reshape(2, 2)
    assert np.array_equal(parsed, direct)


# -- input hardening: each reproduces a defect that used to get through --------

def test_nan_coupling_rejected(tmp_path, capsys):
    doc = base_model_doc()
    doc["system"]["coupling"][1] = [float("nan"), 0.0]
    path = write_model(tmp_path, doc)
    assert "NaN" in (tmp_path / "model.json").read_text()
    assert run(["validate", path]) == 1
    assert run(["drift", path, "--out", str(tmp_path / "d.json")]) == 1
    assert "NaN" in capsys.readouterr().err


def test_infinite_beta_rejected(tmp_path, capsys):
    doc = base_model_doc()
    doc["bath"]["beta"] = float("inf")
    path = write_model(tmp_path, doc)
    assert run(["drift", path, "--out", str(tmp_path / "d.json")]) == 1
    assert "Infinity" in capsys.readouterr().err


def test_fractional_counts_rejected(tmp_path, capsys):
    doc = base_model_doc()
    doc["bath"]["grid"]["points"] = 481.9
    assert run(["validate", write_model(tmp_path, doc)]) == 1
    doc = base_model_doc()
    doc["truncation"]["neumann_max_order"] = 64.5
    assert run(["validate", write_model(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert "481.9" in err and "64.5" in err


def test_oversized_energy_grid_exits_1(tmp_path, capsys):
    # 50,000,001 nodes used to pass `validate` and end in a MemoryError
    doc = base_model_doc()
    doc["bath"]["grid"]["points"] = 50_000_001
    for argv in (["validate"], ["drift", "--out", str(tmp_path / "d.json")]):
        assert run([argv[0], write_model(tmp_path, doc), *argv[1:]]) == 1
        assert capsys.readouterr().err == ("validation error: energy grid has 50000001 points, "
                                           "above the cap of 65536\n")
    assert not (tmp_path / "d.json").exists()


def test_empty_table_profile_exits_1(tmp_path, capsys):
    # an empty table used to end in an IndexError traceback from energies[0]
    doc = base_model_doc()
    doc["bath"]["rho0"] = {"kind": "table", "energies": [], "values": []}
    assert run(["validate", write_model(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == ("validation error: table profile needs matching "
                                       "energies/values, len >= 2\n")


def _run_warnings_as_errors(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error", "-m", "ldlgen", *argv],
                          capture_output=True, text=True, env=env)


def test_overflowing_grid_span_exits_1_without_warnings(tmp_path):
    # the span 2e308 overflows: numpy warned in linspace and the bump profile
    # before the grid was refused
    doc = base_model_doc()
    doc["bath"]["grid"] = {"min": -1e308, "max": 1e308, "points": 481}
    done = _run_warnings_as_errors("validate", write_model(tmp_path, doc))
    assert done.returncode == 1
    assert done.stderr == ("validation error: energy grid span e_max - e_min overflows "
                           "(e_min = -1e+308, e_max = 1e+308)\n")
    # a finite span this wide puts nodes where the bump's product overflowed
    doc["bath"]["grid"] = {"min": -1e307, "max": 1e307, "points": 481}
    done = _run_warnings_as_errors("validate", write_model(tmp_path, doc))
    assert done.returncode == 1
    assert done.stderr.startswith("validation error: no grid node lies inside the support")


@pytest.mark.parametrize("model,command", [
    ("kraus_weight", "generator"), ("kraus_weight", "evolve"), ("kraus_weight", "validate"),
    ("kernel", "drift"), ("kernel", "generator"), ("kernel", "tmatrix"), ("kernel", "evolve")])
def test_overflow_exits_2_with_one_numeric_error_and_no_warning(tmp_path, model, command):
    # both used to print numpy RuntimeWarnings, then exit 1 with "Kraus weights
    # must be finite and nonnegative" or exit 2 with "SVD did not converge";
    # `validate` accepted the overflowing Kraus weights (exit 0), and now
    # makes the build's check on them, which needs no solve
    doc = base_model_doc()
    if model == "kraus_weight":
        doc["bath"]["rho0"] = {"kind": "bump", "a": 0, "b": 1, "amplitude": 1e200}
        message = ("numeric error: Kraus weight 2 w exp(-beta E) rho0(E) pi rho0(E + omega) "
                   "overflows at E = 0.0125")
    else:
        doc["system"]["coupling"] = [[0, 0], [1e200, 0], [1e200, 0], [0, 0]]
        message = ("numeric error: 1+T_0 at omega'=0.0, level 0, E="
                   + ("0.5" if command == "tmatrix" else "0.0125"))
    rho = tmp_path / "rho0.json"
    rho.write_text(json.dumps({"matrix": [[0.5, 0.0]] * 4}))
    extra = {"tmatrix": ["--energy", "0.5"],
             "evolve": ["--rho0", str(rho), "--tmax", "1", "--dt", "0.1"]}.get(command, [])
    out = tmp_path / "out"
    done = _run_warnings_as_errors(command, write_model(tmp_path, doc), *extra, "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.startswith(message)
    assert done.stderr.count("\n") == 1
    assert not out.exists()


def test_density_that_vanishes_at_its_grid_nodes_is_refused_without_asking_for_a_finer_grid(
        tmp_path, capsys):
    doc = base_model_doc()
    doc["bath"]["rho0"] = {"kind": "rect", "a": 0, "b": 1, "height": 0}
    assert run(["validate", write_model(tmp_path, doc)]) == 1
    assert capsys.readouterr().err == ("validation error: rho0 vanishes at every grid node of "
                                       "its support [0, 1]\n")


def test_overflowing_thermal_weight_exits_1(tmp_path, capsys):
    # beta * E overflowed to inf in thermal_pass, with a warning and exit 0
    doc = base_model_doc()
    doc["bath"]["beta"] = 1e308
    path = write_model(tmp_path, doc)
    for argv in (["validate"], ["drift", "--out", str(tmp_path / "d.json")]):
        assert run([argv[0], path, *argv[1:]]) == 1
        assert capsys.readouterr().err == (
            "validation error: thermal weight w*exp(-beta*E)*rho(E) is out of range at "
            "beta = 1e+308, E = 2.0125 (a support node of rho1): beta*E and the weight must "
            "be finite\n")
    assert not (tmp_path / "d.json").exists()
    # a weight that underflows to 0 is a valid model, and numpy does not warn
    doc["bath"]["beta"] = 1e3
    done = _run_warnings_as_errors("drift", write_model(tmp_path, doc),
                                   "--out", str(tmp_path / "d.json"))
    assert done.returncode == 0 and done.stderr == ""


def test_nonfinite_cli_float_is_usage_error(tmp_path, capsys):
    out = tmp_path / "gamma.csv"
    assert run(["gamma", NR, "--epsilon", "0", "--emin", "nan", "--emax", "1",
                "--points", "4", "--out", str(out)]) == 64
    assert not out.exists()
    capsys.readouterr()


def test_nonfinite_state_file_rejected(tmp_path):
    rho = tmp_path / "rho0.json"
    rho.write_text('{"matrix": [[0.5, 0.0], [NaN, 0.0], [0.0, 0.0], [0.5, 0.0]]}')
    code = run(["evolve", NR, "--rho0", str(rho), "--tmax", "1.0", "--dt", "0.1",
                "--out", str(tmp_path / "traj.csv")])
    assert code == 1


def test_linalg_failure_exits_2(tmp_path, monkeypatch, capsys):
    import ldlgen.cli

    def singular(tm):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(ldlgen.cli, "build_generator", singular)
    assert run(["generator", NR, "--out", str(tmp_path / "gen.json")]) == 2
    assert "Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 8.00 EiB for an array", ""])
def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys, message):
    import ldlgen.cli

    def exhausted(tm):
        raise MemoryError(message)

    monkeypatch.setattr(ldlgen.cli, "build_generator", exhausted)
    out = tmp_path / "gen.json"
    assert run(["generator", NR, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error: out of memory (")
    assert (message or "allocation failed") in err and "Traceback" not in err
    assert not out.exists()


def test_negative_counts_are_usage_errors(tmp_path, capsys, monkeypatch):
    import ldlgen.cli

    def never(path):
        raise AssertionError("usage errors must be caught before any model is loaded")

    monkeypatch.setattr(ldlgen.cli, "load_model", never)
    out = str(tmp_path / "out")
    psi = str(tmp_path / "psi0.json")
    for argv in (["gamma", NR, "--epsilon", "0", "--emin", "-1", "--emax", "4",
                  "--points", "-1", "--out", out],
                 ["gamma", NR, "--epsilon", "0", "--emin", "-1", "--emax", "4",
                  "--points", "0", "--out", out],
                 ["tmatrix", NR, "--energy", "0.5", "--orders", "0", "--out", out],
                 ["tmatrix", NR, "--energy", "0.5", "--orders", str(MAX_SERIES_ORDERS + 1),
                  "--out", out],
                 ["--threads", "0", "validate", NR],
                 ["unravel", NR, "--psi0", psi, "--tmax", "1", "--dt", "0.1",
                  "--trajectories", "10", "--seed", "-1", "--out", out]):
        assert run(argv) == 64, argv
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


def test_nonfinite_step_count_exits_1(tmp_path, capsys):
    rho = tmp_path / "rho0.json"
    rho.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    psi = tmp_path / "psi0.json"
    psi.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    span = ["--tmax", "1e300", "--dt", "1e-300", "--out", str(tmp_path / "t.csv")]
    assert run(["evolve", NR, "--rho0", str(rho), *span]) == 1
    assert run(["unravel", NR, "--psi0", str(psi), "--trajectories", "2",
                "--seed", "0", *span]) == 1
    assert "step count" in capsys.readouterr().err


def test_unravel_norm_raising_step_exits_1(tmp_path, capsys, monkeypatch):
    # dt only samples the grid: one step of 2e4 on tm_nr, whose RK4 no-jump
    # step had norm 10.6 and was refused, now runs.  A generator whose
    # Psi(1) has a negative eigenvalue would raise norms; no model builds
    # one (its Kraus weights are nonnegative), so it is handed in by hand
    psi = tmp_path / "psi0.json"
    psi.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    out = tmp_path / "u.csv"
    argv = ["unravel", NR, "--psi0", str(psi), "--tmax", "20000", "--dt", "20000",
            "--trajectories", "2", "--seed", "0", "--out", str(out)]
    assert run(argv) == 0
    assert len(out.read_text().splitlines()) == 3
    out.unlink()
    bad = cli.build_generator(cli.TMatrix(cli.load_model(NR))).compressed()
    bad.psi_one = np.diag([1e-3, -1e-3]).astype(complex)
    monkeypatch.setattr(cli, "build_generator", lambda tm: mock.Mock(compressed=lambda: bad))
    assert run(argv) == 1
    assert capsys.readouterr().err == ("validation error: Psi(1) has the eigenvalue -0.001 < 0: "
                                       "the no-jump evolution of this generator would raise "
                                       "norms\n")
    assert not out.exists()


def test_missing_input_file_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert run(["validate", missing]) == 1
    assert run(["evolve", NR, "--rho0", missing, "--tmax", "1.0", "--dt", "0.1",
                "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("missing.json" in line for line in err)


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "d.json"
    assert run(["drift", NR, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no_such_dir" in err[0]


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "ldlgen", "validate", NR],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert json.loads(done.stdout)["valid"]
    done = subprocess.run([sys.executable, "-m", "ldlgen"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 64


# Runs in a fresh interpreter: this test process has imported scipy already.
_COLD_START_SCRIPT = """
import json, sys
from pathlib import Path
import ldlgen
assert "scipy" not in sys.modules, "import ldlgen"
from ldlgen.cli import run
assert "scipy" not in sys.modules, "import ldlgen.cli"
model, tmp = sys.argv[1], Path(sys.argv[2])
(tmp / "rho0.json").write_text(json.dumps(
    {"matrix": [[0.5, 0.0], [0.25, 0.0], [0.25, 0.0], [0.5, 0.0]]}))
(tmp / "psi0.json").write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
commands = [
    ["validate", model, "--out", str(tmp / "v.json")],
    ["gamma", model, "--epsilon", "1", "--emin", "-1", "--emax", "4", "--points", "9",
     "--out", str(tmp / "g.csv")],
    ["tmatrix", model, "--energy", "0.5", "--out", str(tmp / "t.json")],
    ["drift", model, "--out", str(tmp / "d.json")],
    ["generator", model, "--out", str(tmp / "gen.json")],
    ["evolve", model, "--rho0", str(tmp / "rho0.json"), "--tmax", "0.5", "--dt", "0.1",
     "--out", str(tmp / "e.csv")],
    ["unravel", model, "--psi0", str(tmp / "psi0.json"), "--tmax", "0.5", "--dt", "0.1",
     "--trajectories", "5", "--seed", "1", "--out", str(tmp / "u.csv")],
    ["check", model, "--suite", "all", "--out", str(tmp / "c.json")],
]
for argv in commands:
    assert run(argv) == 0, argv
    assert "scipy" not in sys.modules, argv[0]
print(len(commands))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _COLD_START_SCRIPT, NR, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["8"]


def test_step_budget_exceeded_exits_1(tmp_path, capsys):
    rho = tmp_path / "rho0.json"
    rho.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    psi = tmp_path / "psi0.json"
    psi.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}))
    span = ["--tmax", "1e15", "--dt", "1", "--out", str(tmp_path / "t.csv")]
    assert run(["evolve", NR, "--rho0", str(rho), *span]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "budget" in err[0]
    assert run(["unravel", NR, "--psi0", str(psi), "--trajectories", "1",
                "--seed", "0", *span]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "budget" in err[0]
    assert not (tmp_path / "t.csv").exists()


def test_dynamics_input_checked_before_generator_build(tmp_path, capsys, monkeypatch):
    import ldlgen.cli

    def never(tm):
        raise AssertionError("bad dynamics input must be caught before the generator build")

    monkeypatch.setattr(ldlgen.cli, "build_generator", never)
    out = str(tmp_path / "t.csv")
    states = {"psi3": {"vector": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
              "psi_long": {"vector": [[1.0, 0.0], [1.0, 0.0]]},
              "rho_trace2": {"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}}
    for name, doc in states.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    unravel = ["unravel", NR, "--tmax", "1", "--dt", "0.1", "--seed", "0", "--out", out]
    assert run([*unravel, "--psi0", str(tmp_path / "psi3.json"), "--trajectories", "0"]) == 64
    assert "trajectories" in capsys.readouterr().err
    cases = [([*unravel, "--psi0", str(tmp_path / "psi3.json"), "--trajectories", "2"],
              "dimension"),
             ([*unravel, "--psi0", str(tmp_path / "psi_long.json"), "--trajectories", "2"],
              "normalized"),
             (["evolve", NR, "--rho0", str(tmp_path / "rho_trace2.json"), "--tmax", "1",
               "--dt", "0.1", "--out", out], "trace")]
    for argv, reason in cases:
        assert run(argv) == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and reason in err[0], err
    assert not (tmp_path / "t.csv").exists()
