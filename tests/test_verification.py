import copy
import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from ldlgen import TMatrix, ValidationError, verification
from ldlgen.bath import gauss_legendre_nodes
from ldlgen.cli import run
from ldlgen.model import model_from_dict
from ldlgen.verification import (GaussianPacket, LimitCheckReport,
                                 check_causal_delta_limit, check_delta_limit,
                                 default_test_functions, run_identity_suite)

from conftest import MODELS, base_model_doc

LAMBDAS = [0.4, 0.2, 0.1]


@pytest.fixture(autouse=True)
def cold_limit_memo():
    """Every test starts on an empty memo of the limit checks and leaves
    none behind, so a result computed under a patch neither reads nor
    fills the one the other tests see."""
    verification._limit_checks.cache_clear()
    yield
    verification._limit_checks.cache_clear()


def test_report_requires_decreasing_lambdas():
    with pytest.raises(ValidationError):
        LimitCheckReport(lambdas=[0.1, 0.2], errors=[1.0, 2.0],
                         limit_value=0j, monotone=False)


def _overlap_vector_per_node(f, g, lam, u, mismatch_freq=0.0, factored=True):
    """The overlap G(u) one u node at a time (reference for the chunked form).
    factored=True splits the phase exp(i m t' / lam^2) into
    exp(i m t / lam^2) exp(i m u) as the chunked form does; False evaluates
    it directly at t' = t + lam^2 u."""
    af, bf = f.extent()
    if mismatch_freq:
        rate = abs(mismatch_freq) / lam ** 2
        n_panels = max(64, int(rate * (bf - af) / (2.0 * math.pi) * 4.0))
    else:
        n_panels = 64
    t, wt = verification._composite_gl(af, bf, n_panels)
    ft = f(t) * wt
    if mismatch_freq and factored:
        ft = ft * np.exp(1j * (mismatch_freq / lam ** 2) * t)
    out = np.empty(u.size, dtype=complex)
    for k, uk in enumerate(u):
        tp = t + lam ** 2 * uk
        vals = ft * g(tp)
        if mismatch_freq and not factored:
            vals = vals * np.exp(1j * (mismatch_freq / lam ** 2) * tp)
        out[k] = vals.sum()
    if mismatch_freq and factored:
        out *= np.exp(1j * mismatch_freq * u)
    return out


def _fourier_of_h_dense(h, u):
    """The transform with one exponential per (u, x) pair, in chunks of 512
    u rows (the reference for the factored form)."""
    a, b = h.extent()
    x, w = verification._composite_gl(a, b, 48)
    hw = h(x) * w
    out = np.zeros(u.size, dtype=complex)
    for chunk in range(0, u.size, 512):
        sl = slice(chunk, chunk + 512)
        out[sl] = np.exp(1j * np.outer(u[sl], x)) @ hw
    return out


@pytest.mark.parametrize("h", [GaussianPacket(), GaussianPacket(0.3, 0.5, (1.0, 0.2, -0.1))],
                         ids=["default", "shifted_poly"])
def test_factored_fourier_of_h_matches_dense(h):
    (ul, _), (ur, _) = verification._symmetric_u_grid(verification._u_extent(h), 160)
    u = np.concatenate([ul, ur])
    dense = _fourier_of_h_dense(h, u)
    diff = np.abs(verification._fourier_of_h(h, u) - dense).max()
    assert diff <= 1e-13 * np.abs(dense).max()


def _fourier_of_h_panel_exponentials(h, u):
    """The transform with one exponential per (u, panel midpoint) pair: the
    reference for the panel phases that `_exp_rows` builds."""
    a, b = h.extent()
    n_panels = 48
    x, w = verification._composite_gl(a, b, n_panels)
    xi, _ = verification._legendre_rule(verification._PANEL_NODES)
    half = 0.5 * (b - a) / n_panels
    mid = np.linspace(a + half, b - half, n_panels)
    panel_sums = np.exp(1j * half * np.outer(u, xi)) @ (h(x) * w).reshape(n_panels, -1).T
    return (np.exp(1j * np.outer(u, mid)) * panel_sums).sum(axis=1)


def test_limit_suite_on_panel_phase_steps_matches_panel_exponentials(nr_tm, monkeypatch):
    # every pairing within 1e-13 relative and every pass flag the same.  The
    # residuals are O(1) quantities less their limits (a relative error, a
    # ratio less 1/2), so they move by at most about 1e-13 absolute: a
    # roundoff move of a pairing moves the 2.5e-5 final error by far more
    # than 1e-13 of itself
    f, g, h = default_test_functions()

    def run():
        return run_identity_suite(nr_tm, "limits"), verification._matched_reports(f, g, h,
                                                                                  LAMBDAS)

    stepped, stepped_reports = run()
    monkeypatch.setattr(verification, "_fourier_of_h", _fourier_of_h_panel_exponentials)
    verification._limit_checks.cache_clear()
    direct, direct_reports = run()
    for new, old in zip(stepped_reports, direct_reports):
        for a, b in zip(new.values, old.values):
            assert abs(a - b) <= 1e-13 * abs(b)
    assert [c["check"] for c in stepped["checks"]] == [c["check"] for c in direct["checks"]]
    for new, old in zip(stepped["checks"], direct["checks"]):
        assert new["pass"] == old["pass"] and new["tolerance"] == old["tolerance"]
        assert abs(new["residual"] - old["residual"]) <= 1e-13
    assert stepped["passed"] == direct["passed"]


def _packet_out_of_place(packet, x):
    """poly(z) exp(-z^2 / (2 sigma^2)) with one temporary per operation, as
    `GaussianPacket.__call__` read before it wrote into its argument."""
    z = np.asarray(x, dtype=float) - packet.center
    poly = np.zeros_like(z)
    for c in reversed(packet.coeffs):
        poly = poly * z + c
    return poly * np.exp(-z * z / (2.0 * packet.sigma ** 2))


@pytest.mark.parametrize("packet", [GaussianPacket(), GaussianPacket(0.3, 0.5, (1.0, 0.2, -0.1)),
                                    GaussianPacket(-1.7, 2.3, (0.0, 0.0, 1.0)),
                                    GaussianPacket(0.4, 1.2, (2.5,)),
                                    GaussianPacket(0.0, 0.7, (0.0, 1.0, 0.5, -0.25)),
                                    GaussianPacket(-0.0, 1.0, (0.0, 1.0))],
                         ids=["default", "shifted_poly", "square", "scaled", "cubic",
                              "negative_zero_center"])
def test_packet_in_place_bitwise_equal_to_out_of_place_formula(packet):
    # the default packet skips the shift by +0.0 and the product with 1.0;
    # a center of -0.0 is still subtracted, as it turns -0.0 into +0.0
    x = np.concatenate([np.linspace(-12.0, 12.0, 4097), [-0.0, 0.0]])
    given = x.tobytes()
    got = packet(x)
    assert got.tobytes() == _packet_out_of_place(packet, x).tobytes()
    assert packet(0.37) == float(_packet_out_of_place(packet, 0.37))
    # the argument is copied, not overwritten
    assert x.tobytes() == given


@pytest.mark.parametrize("packet", [GaussianPacket(center=1e200),
                                    GaussianPacket(center=1.7e308, coeffs=(1.0, 0.0)),
                                    GaussianPacket(center=-1e200, coeffs=(0.0, 0.0, 2.0, -1.0))],
                         ids=["gaussian", "zero_leading_coefficient", "cubic"])
def test_packet_is_zero_where_the_squared_distance_overflows(packet):
    # z z, the polynomial and even z itself overflow: the packet is the
    # Gaussian's limit 0, with no warning and no NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert packet(0.0) == 0.0
        got = packet(np.array([0.0, -packet.center]))
    assert got.tolist() == [0.0, 0.0]


def _overlap_spy(monkeypatch):
    """A spy on `_overlap_vector`: the list of its calls."""
    calls = []
    overlap = verification._overlap_vector

    def counted(*args):
        calls.append(args)
        return overlap(*args)

    monkeypatch.setattr(verification, "_overlap_vector", counted)
    return calls


@pytest.mark.parametrize("call", [
    lambda f, g, h: check_delta_limit(GaussianPacket(sigma=9e153), g, h, True, [0.4]),
    lambda f, g, h: check_delta_limit(f, g, GaussianPacket(sigma=9e153), True, [0.4]),
    lambda f, g, h: check_delta_limit(GaussianPacket(center=1.7e308), GaussianPacket(-1.7e308),
                                      h, True, [0.4]),
    lambda f, g, h: check_delta_limit(GaussianPacket(center=-1e200), g, h, False, [0.4]),
    lambda f, g, h: check_causal_delta_limit(f, GaussianPacket(center=1e155), h, [0.4]),
    lambda f, g, h: check_delta_limit(f, g, GaussianPacket(center=1e308), True, [0.4]),
    lambda f, g, h: check_delta_limit(f, g, GaussianPacket(center=1e300, sigma=1e-10), True,
                                      [0.4]),
    lambda f, g, h: check_causal_delta_limit(f, g, GaussianPacket(center=1e308), [0.4]),
    lambda f, g, h: check_delta_limit(f, g, GaussianPacket(center=9e307, sigma=1e10), True,
                                      [0.4])],
    ids=["sigma_as_f", "sigma_as_h", "centers_overflow", "mismatched_centers",
         "causal_centers", "h_fourier_phase", "h_fourier_phase_narrow",
         "causal_h_fourier_phase", "h_pv_span"])
def test_limit_checks_refuse_packets_whose_distances_overflow(monkeypatch, call):
    # a 10 sigma extent, the distance of a shifted time from g's center, or
    # h's extent times its u grid or twice over (the principal value's grid)
    # past the float range: a ValidationError before any pairing, not an
    # overflow warning (both sigma cases and the four h cases used to warn,
    # the h cases once the pairings were computed)
    calls = _overlap_spy(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="packet sigma|g's center|h packet center"):
            call(*default_test_functions())
    assert calls == []


@pytest.mark.parametrize("omega_match", [True, False])
def test_limit_checks_refuse_increasing_lambdas_before_any_pairing(monkeypatch, omega_match):
    # three overlap vectors were computed before LimitCheckReport refused them
    calls = _overlap_spy(monkeypatch)
    f, g, h = default_test_functions()
    with pytest.raises(ValidationError, match="strictly decreasing"):
        check_delta_limit(f, g, h, omega_match, [0.1, 0.2, 0.4])
    assert calls == []


@pytest.mark.parametrize("n", [verification._PANEL_NODES])
def test_one_panel_composite_rule_is_gauss_legendre_nodes(n):
    for a, b in ((0.0, 1.0), (-1.5, 4.5), (0.3, 0.30001)):
        x, w = verification._composite_gl(a, b, 1)
        ref_x, ref_w = gauss_legendre_nodes(a, b, n)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes()


@pytest.mark.parametrize("check,args", [(check_delta_limit, (True,)),
                                        (check_delta_limit, (False,)),
                                        (check_causal_delta_limit, ())],
                         ids=["matching", "mismatched", "causal"])
def test_limit_reports_byte_identical_to_per_node_overlap(monkeypatch, check, args):
    f, g, h = default_test_functions()
    chunked = check(f, g, h, *args, LAMBDAS)
    monkeypatch.setattr(verification, "_overlap_vector", _overlap_vector_per_node)
    per_node = check(f, g, h, *args, LAMBDAS)
    assert dataclasses.asdict(chunked) == dataclasses.asdict(per_node)


@pytest.mark.parametrize("mismatch,lambdas", [(0.05, LAMBDAS), (1.0, LAMBDAS[:2])],
                         ids=["slow_phase", "unit_phase"])
def test_mismatched_limit_factoring_matches_direct_phase(monkeypatch, mismatch, lambdas):
    # the factored phase moves the mismatched report only at roundoff.  g != f,
    # because with f = g the real part of the report does not see the
    # exp(i m u) factor at all; the direct phase costs one complex
    # exponential per (u, t) node pair, so the unit mismatch, whose t grid
    # grows as 1/lambda^2, stops at the two larger lambdas
    f, _, h = default_test_functions()
    g = GaussianPacket(center=0.4, sigma=1.2, coeffs=(1.0, 0.3))
    factored = check_delta_limit(f, g, h, False, lambdas, mismatch=mismatch)
    monkeypatch.setattr(verification, "_overlap_vector",
                        functools.partial(_overlap_vector_per_node, factored=False))
    direct = check_delta_limit(f, g, h, False, lambdas, mismatch=mismatch)
    assert max(abs(a - b) for a, b in zip(factored.values, direct.values)) <= 1e-13
    assert max(abs(a - b) for a, b in zip(factored.errors, direct.errors)) <= 1e-13


def test_delta_limit_monotone_decay():
    f, g, h = default_test_functions()
    rep = check_delta_limit(f, g, h, True, LAMBDAS)
    assert rep.monotone
    assert all(e2 <= 0.5 * e1 for e1, e2 in zip(rep.errors, rep.errors[1:]))
    assert rep.errors[-1] / abs(rep.limit_value) <= 5e-2
    # limit is 2 pi h(0) * integral f g = 2 pi sqrt(pi)
    assert abs(rep.limit_value - 2 * math.pi * math.sqrt(math.pi)) < 1e-10


def test_delta_limit_h0_zero_kills_limit():
    f, g, _ = default_test_functions()
    h = GaussianPacket(0.0, 1.0, (0.0, 0.0, 1.0))   # X^2 e^{-X^2/2}
    rep = check_delta_limit(f, g, h, True, LAMBDAS)
    assert rep.limit_value == 0
    assert rep.monotone
    assert rep.errors[-1] < 1e-2


def test_delta_limit_frequency_mismatch_vanishes():
    f, g, h = default_test_functions()
    rep = check_delta_limit(f, g, h, False, LAMBDAS)
    assert rep.limit_value == 0
    assert all(abs(v) < 1e-2 for v in rep.values)
    assert abs(rep.values[-1]) < 1e-12


def test_causal_limit_even_h_is_half():
    f, g, h = default_test_functions()
    full = check_delta_limit(f, g, h, True, LAMBDAS)
    causal = check_causal_delta_limit(f, g, h, LAMBDAS)
    assert causal.monotone
    # limit: PV term vanishes for even h, so exactly half the full pairing
    assert abs(causal.limit_value - 0.5 * full.limit_value) < 1e-12
    for cv, fv in zip(causal.values, full.values):
        assert abs(cv / fv - 0.5) < 1e-3


def _pairing_spy(monkeypatch):
    """A spy on `_overlap_vector` and `_fourier_of_h`: the list of the names
    called."""
    calls = []
    for name in ("_overlap_vector", "_fourier_of_h"):
        def counted(*args, _name=name, _fn=getattr(verification, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(verification, name, counted)
    return calls


def test_limit_checks_compute_each_overlap_once(monkeypatch):
    calls = _pairing_spy(monkeypatch)
    checks = verification._limit_checks()
    assert sorted(calls) == ["_fourier_of_h"] + ["_overlap_vector"] * len(LAMBDAS)
    assert all(passed for *_, passed in checks)


def test_warm_suite_limit_entries_are_the_bits_of_a_fresh_computation(nr_tm):
    run_identity_suite(nr_tm, "limits")
    warm = run_identity_suite(nr_tm, "all")
    assert verification._limit_checks.cache_info().misses == 1
    verification._limit_checks.cache_clear()
    fresh = sorted(verification._limit_checks())
    names = {row[0] for row in fresh}
    got = [tuple(c[k] for k in verification._CHECK_KEYS)
           for c in warm["checks"] if c["check"] in names]
    # repr round-trips every float, so equal reprs are equal bits
    assert repr(got) == repr(fresh) and len(got) == 5


def test_editing_a_report_leaves_the_next_one_as_it_was(nr_tm):
    first = run_identity_suite(nr_tm, "all")
    expect = copy.deepcopy(first)
    limits = [c for c in first["checks"] if c["check"].startswith(("delta", "causal"))]
    limits[0]["pass"] = not limits[0]["pass"]
    del limits[1]["residual"]
    limits[2]["check"] = "renamed"
    assert run_identity_suite(nr_tm, "all") == expect
    assert run_identity_suite(nr_tm, "limits")["checks"] == [
        c for c in expect["checks"] if c["check"].startswith(("delta", "causal"))]


def test_later_suite_calls_compute_no_pairing(nr_tm, rwa_tm, monkeypatch):
    calls = _pairing_spy(monkeypatch)
    first = run_identity_suite(nr_tm, "all")
    assert sorted(calls) == ["_fourier_of_h"] + ["_overlap_vector"] * len(LAMBDAS)
    calls.clear()
    assert run_identity_suite(nr_tm, "all") == first
    run_identity_suite(rwa_tm, "limits")
    assert calls == []


def test_identities_suite_never_computes_the_limit_checks(nr_tm, tmp_path, monkeypatch):
    calls = _pairing_spy(monkeypatch)
    run_identity_suite(nr_tm, "identities")
    assert run(["check", str(MODELS / "tm_nr.json"), "--suite", "identities",
                "--out", str(tmp_path / "c.json")]) == 0
    info = verification._limit_checks.cache_info()
    assert (info.hits, info.misses, calls) == (0, 0, [])


def test_causal_pairing_equals_left_half_grid_pairing():
    # the causal values are the left half of the full grid's integrand; on
    # the left half's own nodes the pairing gives the same bits
    f, g, h = default_test_functions()
    (ul, wl), _ = verification._symmetric_u_grid(verification._u_extent(h), 160)
    hhat = verification._fourier_of_h(h, ul)
    own = [complex(np.dot(wl, verification._overlap_vector(f, g, lam, ul) * hhat))
           for lam in LAMBDAS]
    assert check_causal_delta_limit(f, g, h, LAMBDAS).values == own


def test_causal_limit_odd_h_is_imaginary():
    f, g, _ = default_test_functions()
    h = GaussianPacket(0.0, 1.0, (0.0, 1.0))   # X e^{-X^2/2}, h(0) = 0
    rep = check_causal_delta_limit(f, g, h, LAMBDAS)
    expect = -1j * math.sqrt(2.0 * math.pi) * math.sqrt(math.pi)
    assert abs(rep.limit_value - expect) < 1e-10
    assert abs(rep.limit_value.real) < 1e-12
    assert rep.errors[-1] / abs(expect) < 5e-2


def test_causal_limit_disjoint_ordering_vanishes():
    h = GaussianPacket(0.0, 1.0)
    f = GaussianPacket(-3.0, 0.6)   # f lives earlier
    g = GaussianPacket(3.0, 0.6)    # g later: causal ordering t' < t is empty
    rep = check_causal_delta_limit(f, g, h, LAMBDAS)
    assert abs(rep.limit_value) < 1e-9
    assert all(abs(v) < 1e-9 for v in rep.values)


def test_identity_suite_passes_on_shipped_models(nr_tm, rwa_tm):
    for tm in (nr_tm, rwa_tm):
        report = run_identity_suite(tm, which="identities")
        assert report["passed"], [c for c in report["checks"] if not c["pass"]]
        names = [c["check"] for c in report["checks"]]
        assert names == sorted(names)


def test_limit_suite_passes():
    doc = base_model_doc()
    tm = TMatrix(model_from_dict(doc))
    report = run_identity_suite(tm, which="limits")
    assert report["passed"]


def test_suite_refuses_overlapping_bath():
    doc = base_model_doc()
    doc["bath"]["rho1"] = {"kind": "bump", "a": 0.5, "b": 3.0, "amplitude": 1.0}
    tm = TMatrix(model_from_dict(doc))
    with pytest.raises(ValidationError, match="disjoint"):
        run_identity_suite(tm)


def test_suite_fails_honestly_at_divergent_coupling():
    # coupling far beyond the Neumann radius: the closed-form series cannot
    # converge, so the series-identity check reports a failure
    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [0.0, 0.0]]
    tm = TMatrix(model_from_dict(doc))
    report = run_identity_suite(tm, which="identities")
    assert not report["passed"]
    failing = {c["check"] for c in report["checks"] if not c["pass"]}
    assert "appendix_series_identity" in failing


def test_suite_rejects_unknown_selector(nr_tm):
    with pytest.raises(ValidationError):
        run_identity_suite(nr_tm, which="everything")


def test_nan_residual_fails_its_check(nr_tm, monkeypatch):
    # builtin max(0.0, nan) is 0.0, which once let a NaN residual pass
    column_pass = verification.column_pass

    def nan_residuals(tm, eps, energies):
        cols = column_pass(tm, eps, energies)
        return cols._replace(residual=np.full_like(cols.residual, np.nan))

    monkeypatch.setattr(verification, "column_pass", nan_residuals)
    report = run_identity_suite(nr_tm, which="identities")
    entry = next(c for c in report["checks"] if c["check"] == "block_column_residual")
    assert entry["residual"] is None and entry["pass"] is False
    assert not report["passed"]
    others = [c for c in report["checks"] if c["check"] != "block_column_residual"]
    assert all(c["pass"] for c in others)
