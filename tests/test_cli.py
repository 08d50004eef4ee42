import json
import os
import subprocess
import sys

import numpy as np

from ldlgen.cli import run

from conftest import MODELS, ROOT, base_model_doc, write_model

NR = str(MODELS / "tm_nr.json")


def test_validate_good_model(tmp_path):
    out = tmp_path / "report.json"
    assert run(["validate", NR, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["valid"]
    assert report["model"]["bohr_set"] == [-1.0, 0.0, 1.0]
    assert report["bath"]["support_gap"] == 1.0


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
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert run(["check", NR, "--suite", "limits", "--out", str(out1)]) == 0
    assert run(["check", NR, "--suite", "limits", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
