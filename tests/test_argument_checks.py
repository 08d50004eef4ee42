"""Every public entry reads its arguments through the checks of `ldlgen.errors`:
a malformed argument is a ValidationError, never a bare TypeError or
ValueError and never a NaN result."""

import json

import numpy as np
import pytest

from ldlgen import ValidationError, block_transfer, verification
from ldlgen.bath import DensityProfile, EnergyGrid, GammaTable, validate_bath
from ldlgen.cli import run
from ldlgen.dynamics import evolve_master, unravel_jump
from ldlgen.generator import GKSLGenerator, theta_map
from ldlgen.model import ModelSpec
from ldlgen.tmatrix import TMatrix, richardson_extrapolate
from ldlgen.verification import (GaussianPacket, LimitCheckReport, check_causal_delta_limit,
                                 check_delta_limit, default_test_functions)

from conftest import MODELS

NR = str(MODELS / "tm_nr.json")
RHO = np.diag([1.0, 0.0])
PSI = np.array([1.0, 0.0])
NAN = np.full((2, 2), np.nan)


def _spec(nr_spec, **changes):
    fields = dict(dim=2, h_system=nr_spec.h_system, coupling=nr_spec.coupling,
                  beta=nr_spec.beta, bath=nr_spec.bath)
    return ModelSpec(**{**fields, **changes})


def _generator(**changes):
    parts = dict(drift=np.zeros((2, 2)), hamiltonian=np.zeros((2, 2)), weights=[0.3],
                 ops=[np.eye(2)])
    return GKSLGenerator(**{**parts, **changes})


def _limit(check, *args):
    f, g, h = default_test_functions()
    return check(f, g, h, *args)


BAD_CALLS = {
    # a bare TypeError at the parent
    "generator_from_json_int": lambda s, tm, gen: GKSLGenerator.from_json(3),
    "generator_from_json_none": lambda s, tm, gen: GKSLGenerator.from_json(None),
    "generator_from_json_str": lambda s, tm, gen: GKSLGenerator.from_json("kraus"),
    "evolve_master_t_max": lambda s, tm, gen: evolve_master(gen, RHO, "x", 0.1),
    "unravel_jump_t_max": lambda s, tm, gen: unravel_jump(gen, PSI, "x", 0.1, 10, 1),
    "model_spec_beta": lambda s, tm, gen: _spec(s, beta="x"),
    "energy_grid_e_min": lambda s, tm, gen: EnergyGrid("0", 1.0, 16),
    "richardson_value_str": lambda s, tm, gen: richardson_extrapolate(["x", 1.0], [1e-3, 2e-3]),
    # a bare UFuncTypeError, and True read as beta = 1, before beta went through _real
    "validate_bath_beta_str": lambda s, tm, gen: validate_bath(s.bath, tm.bohr, "x"),
    "validate_bath_beta_bool": lambda s, tm, gen: validate_bath(s.bath, tm.bohr, True),
    # a bare ValueError at the parent
    "psi_dimension": lambda s, tm, gen: gen.psi(np.eye(3)),
    "apply_generator_str": lambda s, tm, gen: gen.apply("ab"),
    "theta_map_str": lambda s, tm, gen: theta_map(tm, "ab", 0, 0, 0.0, 0.0, 0.5),
    "evolve_master_str": lambda s, tm, gen: evolve_master(gen, "ab", 1.0, 0.1),
    "unravel_jump_str": lambda s, tm, gen: unravel_jump(gen, "ab", 1.0, 0.1, 10, 1),
    "model_spec_h_system": lambda s, tm, gen: _spec(s, h_system="ab"),
    "generator_ops": lambda s, tm, gen: _generator(ops="ab"),
    "generator_weights": lambda s, tm, gen: _generator(weights=["a"]),
    "rect_profile": lambda s, tm, gen: DensityProfile.rect("a", 1, 1),
    "delta_limit_lambdas": lambda s, tm, gen: _limit(check_delta_limit, True, ["a"]),
    "causal_limit_lambdas": lambda s, tm, gen: _limit(check_causal_delta_limit, ["a"]),
    # a bare TypeError, a misleading panel-count refusal, and "no" read as
    # True, before mismatch went through _real and omega_match had to be a bool
    "delta_limit_mismatch_str": lambda s, tm, gen: _limit(check_delta_limit, False, [0.4], "x"),
    "delta_limit_mismatch_nan": lambda s, tm, gen: _limit(check_delta_limit, False, [0.4],
                                                          float("nan")),
    "delta_limit_omega_match_str": lambda s, tm, gen: _limit(check_delta_limit, "no", [0.4]),
    # a zero mismatch compared the matched pairing against 0 at the parent
    "delta_limit_mismatch_zero": lambda s, tm, gen: _limit(check_delta_limit, False,
                                                           [0.4, 0.2], 0.0),
    # packet inputs: at the parent sigma = 0 raised a bare ZeroDivisionError,
    # sigma < 0 reversed the extent and passed, center = inf warned twice and
    # coeffs = () gave an all-zero report
    "packet_sigma_zero": lambda s, tm, gen: GaussianPacket(sigma=0.0),
    "packet_sigma_negative": lambda s, tm, gen: GaussianPacket(sigma=-1.0),
    "packet_sigma_inf": lambda s, tm, gen: GaussianPacket(sigma=float("inf")),
    "packet_center_inf": lambda s, tm, gen: GaussianPacket(center=float("inf")),
    "packet_center_str": lambda s, tm, gen: GaussianPacket(center="0"),
    "packet_coeffs_empty": lambda s, tm, gen: GaussianPacket(coeffs=()),
    "packet_coeffs_nan": lambda s, tm, gen: GaussianPacket(coeffs=(1.0, float("nan"))),
    "packet_coeffs_scalar": lambda s, tm, gen: GaussianPacket(coeffs=1.0),
    "packet_coeffs_str": lambda s, tm, gen: GaussianPacket(coeffs="1"),
    # 2 sigma^2 underflows to 0 (a NaN with a divide warning at the parent)
    # or overflows (a bare OverflowError at the parent)
    "packet_sigma_tiny": lambda s, tm, gen: GaussianPacket(sigma=1e-300),
    "packet_sigma_huge": lambda s, tm, gen: GaussianPacket(sigma=1e155),
    # lambdas: none, or one <= 0 (a bare ZeroDivisionError when mismatched at
    # the parent), or one whose square underflows to 0 (the same)
    "delta_limit_no_lambda": lambda s, tm, gen: _limit(check_delta_limit, True, []),
    "causal_limit_no_lambda": lambda s, tm, gen: _limit(check_causal_delta_limit, []),
    "mismatched_limit_lambda_zero": lambda s, tm, gen: _limit(check_delta_limit, False,
                                                              [0.4, 0.0]),
    "delta_limit_lambda_negative": lambda s, tm, gen: _limit(check_delta_limit, True, [-0.1]),
    "mismatched_limit_lambda_tiny": lambda s, tm, gen: _limit(check_delta_limit, False,
                                                              [1e-200]),
    # a time shift lam^2 u whose square overflows: overflow warnings at
    # lam = 1e150, a bare OverflowError from lam ** 2 at 1.3e154 (parent)
    "delta_limit_lambda_huge": lambda s, tm, gen: _limit(check_delta_limit, True, [0.4, 1e150]),
    "delta_limit_lambda_overflows": lambda s, tm, gen: _limit(check_delta_limit, True,
                                                              [1.3e154]),
    "mismatched_limit_lambda_overflows": lambda s, tm, gen: _limit(check_delta_limit, False,
                                                                   [1.3e154, 0.4]),
    "causal_limit_lambda_huge": lambda s, tm, gen: _limit(check_causal_delta_limit, [1e150]),
    "causal_limit_lambda_overflows": lambda s, tm, gen: _limit(check_causal_delta_limit,
                                                               [0.4, 1.3e154]),
    # a NaN result at the parent
    "psi_nan": lambda s, tm, gen: gen.psi(NAN),
    "apply_generator_nan": lambda s, tm, gen: gen.apply(NAN),
    "richardson_value_nan": lambda s, tm, gen: richardson_extrapolate([np.nan, 1.0],
                                                                      [1e-3, 2e-3]),
    # a bare IndexError at the parent
    "table_profile_empty": lambda s, tm, gen: DensityProfile.table([], []),
    # overflow warnings from np.linspace at the parent
    "energy_grid_span": lambda s, tm, gen: EnergyGrid(-1e308, 1e308, 16).nodes,
    # NaN components, or a bare ValueError, at the parent
    "block_transfer_nan": lambda s, tm, gen: block_transfer(NAN, tm.spectral),
    "block_transfer_dimension": lambda s, tm, gen: block_transfer(np.eye(3), tm.spectral),
    "block_transfer_str": lambda s, tm, gen: block_transfer("ab", tm.spectral),
    # a zero block, a bare UFuncTypeError, or None (off the lattice) at the parent
    "d_block_nan": lambda s, tm, gen: tm.spectral.d_block(float("nan")),
    "d_block_str": lambda s, tm, gen: tm.spectral.d_block("x"),
    "bohr_index_nan": lambda s, tm, gen: tm.spectral.bohr_index(float("nan")),
    "bohr_index_inf": lambda s, tm, gen: tm.spectral.bohr_index(float("inf")),
    # True read as eps = 1 at the parent
    "gamma_eps_bool": lambda s, tm, gen: GammaTable(s.bath).gamma(True, 0.5),
    "support_nodes_eps_bool": lambda s, tm, gen: s.bath.support_nodes(True),
    # a NumericError (exit 2), or a bare ValueError, at the parent
    "gamma_energy_nan": lambda s, tm, gen: GammaTable(s.bath).gamma(0, float("nan")),
    "gamma_energy_str": lambda s, tm, gen: GammaTable(s.bath).gamma(0, "x"),
    # a bare TypeError at the parent
    "validate_bath_bohr_str": lambda s, tm, gen: validate_bath(s.bath, "ab", 1.0),
    # a bare ValueError from np.size of the ragged list at the parent
    "validate_bath_bohr_ragged": lambda s, tm, gen: validate_bath(s.bath, [[0.0], [1.0, 2.0]],
                                                                  1.0),
    # evaluated at the parent: the real part with a ComplexWarning, True as
    # E = 1, a numeric string parsed by the float cast
    "gamma_energy_complex": lambda s, tm, gen: GammaTable(s.bath).gamma(0, np.array([0.5 + 1j])),
    "gamma_energy_bool": lambda s, tm, gen: GammaTable(s.bath).gamma(0, True),
    "gamma_energy_bool_array": lambda s, tm, gen: GammaTable(s.bath).gamma(
        0, np.array([True, False])),
    "gamma_energy_numeric_str": lambda s, tm, gen: GammaTable(s.bath).gamma(0, "0.5"),
    # accepted at the parent, whose cast parsed numeric strings and bytes and
    # read booleans and objects as numbers; a complex bohr warned
    # ComplexWarning and was read at its real part
    "evolve_master_numeric_str": lambda s, tm, gen: evolve_master(gen, [["1", "0"], ["0", "0"]],
                                                                  1.0, 0.1),
    "evolve_master_bool": lambda s, tm, gen: evolve_master(gen, RHO.astype(bool), 1.0, 0.1),
    "evolve_master_object": lambda s, tm, gen: evolve_master(gen, RHO.astype(object), 1.0, 0.1),
    "unravel_jump_numeric_str": lambda s, tm, gen: unravel_jump(gen, ["1", "0"], 1.0, 0.1, 10, 1),
    "unravel_jump_bool": lambda s, tm, gen: unravel_jump(gen, PSI.astype(bool), 1.0, 0.1, 10, 1),
    "validate_bath_bohr_complex": lambda s, tm, gen: validate_bath(s.bath, np.array([0j + 1]),
                                                                   1.0),
    "validate_bath_bohr_numeric_str": lambda s, tm, gen: validate_bath(
        s.bath, ["-1.0", "0.0", "1.0"], 1.0),
    "validate_bath_bohr_bool": lambda s, tm, gen: validate_bath(s.bath, [True, False], 1.0),
    "apply_generator_numeric_str": lambda s, tm, gen: gen.apply([["1", "0"], ["0", "1"]]),
    "apply_generator_bytes": lambda s, tm, gen: gen.apply(np.array([[b"1", b"0"], [b"0", b"1"]])),
    "apply_generator_object": lambda s, tm, gen: gen.apply(np.eye(2, dtype=object)),
    "generator_weights_bool": lambda s, tm, gen: _generator(weights=[True]),
    "generator_weights_complex": lambda s, tm, gen: _generator(weights=[0.3 + 0j]),
    # limit-check entries: a bare ValueError or TypeError, or a NaN result,
    # for a packet argument at the parent
    "packet_call_str": lambda s, tm, gen: GaussianPacket()("abc"),
    "packet_call_complex": lambda s, tm, gen: GaussianPacket()(1j),
    "packet_call_none": lambda s, tm, gen: GaussianPacket()(None),
    "packet_call_nan": lambda s, tm, gen: GaussianPacket()(float("nan")),
    # a bare TypeError for a scalar, and a dict read as its keys, at the parent
    "delta_limit_lambdas_scalar": lambda s, tm, gen: _limit(check_delta_limit, True, 0.4),
    "delta_limit_lambdas_dict": lambda s, tm, gen: _limit(check_delta_limit, True,
                                                          {0.4: "a", 0.2: "b"}),
    # a bare AttributeError for a test function that is not a packet
    "delta_limit_f_number": lambda s, tm, gen: check_delta_limit(
        1.0, *default_test_functions()[1:], True, [0.4]),
    "causal_limit_g_none": lambda s, tm, gen: check_causal_delta_limit(
        default_test_functions()[0], None, default_test_functions()[2], [0.4]),
    # a bare TypeError, and a NaN lambda accepted, at the parent
    "limit_report_lambdas_str": lambda s, tm, gen: LimitCheckReport([0.4, "a"], [1.0, 0.5], 0j,
                                                                    True),
    "limit_report_lambdas_nan": lambda s, tm, gen: LimitCheckReport([float("nan")], [1.0], 0j,
                                                                    True),
    # accepted at the parent: every field but lambdas and the errors' entries
    # went unread
    "limit_report_all_fields_str": lambda s, tm, gen: LimitCheckReport([0.4], [1.0], "x", "no",
                                                                       "abc"),
    "limit_report_limit_value_str": lambda s, tm, gen: LimitCheckReport([0.4], [1.0], "x", True),
    "limit_report_limit_value_nan": lambda s, tm, gen: LimitCheckReport([0.4], [1.0],
                                                                        complex("nan"), True),
    "limit_report_monotone_str": lambda s, tm, gen: LimitCheckReport([0.4], [1.0], 0j, "no"),
    "limit_report_monotone_int": lambda s, tm, gen: LimitCheckReport([0.4], [1.0], 0j, 1),
    "limit_report_errors_short": lambda s, tm, gen: LimitCheckReport([0.4, 0.2], [1.0], 0j,
                                                                     True),
    "limit_report_errors_long": lambda s, tm, gen: LimitCheckReport([0.4], [1.0, 0.5], 0j, True),
    "limit_report_values_str": lambda s, tm, gen: LimitCheckReport([0.4], [1.0], 0j, True, "abc"),
    "limit_report_values_short": lambda s, tm, gen: LimitCheckReport([0.4, 0.2], [1.0, 0.5], 0j,
                                                                     True, [1j]),
    "limit_report_values_nan": lambda s, tm, gen: LimitCheckReport([0.4], [1.0], 0j, True,
                                                                   [complex("nan")]),
    # computed at the parent: 1001 series orders, over the cap of `tmatrix --orders`
    "appendix_partial_sums_orders_over_cap": lambda s, tm, gen: tm.appendix_partial_sums(
        "00", 0.5, max_orders=1001),
    "appendix_term_order_over_cap": lambda s, tm, gen: tm.appendix_term("01", 1001, 0.5),
    # a bare TypeError at the parent
    "limit_report_errors_scalar": lambda s, tm, gen: LimitCheckReport([0.4], 1.0, 0j, True),
}


@pytest.mark.parametrize("name", sorted(BAD_CALLS))
def test_malformed_argument_is_a_validation_error(nr_spec, nr_tm, nr_gen, name):
    with pytest.raises(ValidationError):
        BAD_CALLS[name](nr_spec, nr_tm, nr_gen)


def test_nan_mismatch_is_refused_as_a_mismatch():
    # refused before as needing more than MAX_OVERLAP_PANELS panels
    with pytest.raises(ValidationError, match="frequency mismatch must be finite"):
        _limit(check_delta_limit, False, [0.4], float("nan"))


def test_float_counts_are_stored_as_int(nr_spec):
    grid = EnergyGrid(0.0, 1.0, 16.0)
    assert type(grid.points) is int and grid.nodes.size == 16
    assert json.dumps(grid.to_json()) == '{"min": 0.0, "max": 1.0, "points": 16}'
    spec = _spec(nr_spec, dim=2.0, neumann_max_order=64.0)
    assert type(spec.dim) is int and type(spec.neumann_max_order) is int
    tm = TMatrix(spec)
    cols, c = verification.column_pass(tm, 0, [0.5]), tm.spectral.bohr_index(0.0)
    assert cols.converged[c] and cols.neumann[c].shape == (3, 2, 2)


def test_stacked_column_reads_eps_as_a_label(nr_tm):
    col = verification.stacked_column(nr_tm, 1.0, 0.0, 0.5)
    assert type(col.epsilon) is int and col.epsilon == 1
    with pytest.raises(ValidationError, match="eps must be 0 or 1"):
        verification.stacked_column(nr_tm, 2, 0.0, 0.5)


def test_state_file_with_unknown_key_exits_1(tmp_path, capsys):
    rho = tmp_path / "rho0.json"
    rho.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                               "note": 1}))
    psi = tmp_path / "psi0.json"
    psi.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]], "note": 1}))
    out = tmp_path / "t.csv"
    span = ["--tmax", "1", "--dt", "0.1", "--out", str(out)]
    assert run(["evolve", NR, "--rho0", str(rho), *span]) == 1
    assert run(["unravel", NR, "--psi0", str(psi), "--trajectories", "2", "--seed", "0",
                *span]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("unknown key(s) ['note'] in state file" in line for line in err)
    assert not out.exists()


def test_generator_document_with_unknown_key_rejected(nr_gen):
    doc = json.loads(json.dumps(nr_gen.to_json()))
    GKSLGenerator.from_json(doc)
    with pytest.raises(ValidationError, match=r"unknown key\(s\) \['note'\] in generator"):
        GKSLGenerator.from_json({**doc, "note": 1})
    doc["kraus"][0]["note"] = 1
    with pytest.raises(ValidationError, match=r"unknown key\(s\) \['note'\] in kraus entry"):
        GKSLGenerator.from_json(doc)


def test_mismatched_limit_checks_the_panel_budget_first(monkeypatch):
    # lambda = 1e-4 at unit mismatch asks for about 1.3e9 panels of the t
    # rule; the budget is checked for every lambda before any is paired
    def no_pairing(*args):
        raise AssertionError("paired before the panel budget was checked")

    monkeypatch.setattr(verification, "_pairings", no_pairing)
    with pytest.raises(ValidationError, match=r"lambda = 0\.0001 needs more than the 65536 "):
        _limit(check_delta_limit, False, [0.4, 1e-4])
    # the largest lambda past the budget at unit mismatch, and one just inside it
    f = default_test_functions()[0]
    span = f.extent()[1] - f.extent()[0]
    edge = (span / (2.0 * np.pi) * 4.0 / verification.MAX_OVERLAP_PANELS) ** 0.5
    with pytest.raises(ValidationError, match="panels of the t rule"):
        verification._overlap_panels(f, 0.99 * edge, 1.0)
    assert verification._overlap_panels(f, 1.01 * edge, 1.0) <= verification.MAX_OVERLAP_PANELS
