import dataclasses
import math

import numpy as np
import pytest

from ldlgen import TMatrix, ValidationError, verification
from ldlgen.model import model_from_dict
from ldlgen.verification import (GaussianPacket, LimitCheckReport,
                                 check_causal_delta_limit, check_delta_limit,
                                 default_test_functions, run_identity_suite)

from conftest import base_model_doc

LAMBDAS = [0.4, 0.2, 0.1]


def test_report_requires_decreasing_lambdas():
    with pytest.raises(ValidationError):
        LimitCheckReport(lambdas=[0.1, 0.2], errors=[1.0, 2.0],
                         limit_value=0j, monotone=False)


def _overlap_vector_per_node(f, g, lam, u, mismatch_freq=0.0):
    """The overlap G(u) one u node at a time (reference for the chunked form)."""
    af, bf = f.extent()
    if mismatch_freq:
        rate = abs(mismatch_freq) / lam ** 2
        n_panels = max(64, int(rate * (bf - af) / (2.0 * math.pi) * 4.0))
    else:
        n_panels = 64
    t, wt = verification._composite_gl(af, bf, n_panels)
    ft = f(t) * wt
    out = np.empty(u.size, dtype=complex)
    for k, uk in enumerate(u):
        tp = t + lam ** 2 * uk
        vals = ft * g(tp)
        if mismatch_freq:
            vals = vals * np.exp(1j * (mismatch_freq / lam ** 2) * tp)
        out[k] = vals.sum()
    return out


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
