import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldlgen import GammaTable, NumericError, TMatrix, ValidationError, validate_bath
from ldlgen.generator import (GKSLGenerator, build_generator, drift, drift_from_t_operator,
                              dual_generator_matrix, _structure_map, theta_map)
from ldlgen.model import model_from_dict

from ldlgen.verification import run_identity_suite

from conftest import (MODELS, ROOT, base_model_doc, chained_cluster_doc, ladder_model_doc,
                      random_density)


def _zero_model():
    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0]] * 4
    return TMatrix(model_from_dict(doc))


def _scaled_model(scale):
    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0], [scale, 0.0], [scale, 0.0], [0.0, 0.0]]
    return TMatrix(model_from_dict(doc))


def born_drift(tm):
    """Second-order (Born) drift oracle, straight from the D blocks and gamma:

    Gamma_2 = sum over nodes of exp(-beta E) [
        rho_0(E) sum_w D_{-w} D^+_{-w} gamma_1(E + w)
      + rho_1(E) sum_w D^+_{w} D_{w} gamma_0(E + w) ]
    on the same trapezoid grid as the production drift."""
    spec = tm.spec
    sd = tm.spectral
    gamma = GammaTable(spec.bath).gamma
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for eps in (0, 1):
        nodes, wts, rho = spec.bath.support_nodes(eps)
        for E, w, r in zip(nodes, wts, rho):
            mu = math.exp(-spec.beta * E) * r
            acc = np.zeros_like(out)
            for omega in sd.bohr:
                if eps == 0:
                    blk = sd.d_block(-omega) @ sd.d_block(-omega).conj().T
                    acc += blk * gamma(1, float(E + omega))
                else:
                    blk = sd.d_block(omega).conj().T @ sd.d_block(omega)
                    acc += blk * gamma(0, float(E + omega))
            out += (w * mu) * acc
    return out


def test_drift_zero_coupling():
    assert not drift(_zero_model()).any()


def test_drift_commutes_with_h_system(nr_tm, rwa_tm):
    for tm in (nr_tm, rwa_tm):
        g = drift(tm)
        h = tm.spec.h_system
        assert np.linalg.norm(g @ h - h @ g) < 1e-10


def test_drift_identity_both_models(nr_tm, rwa_tm):
    for tm in (nr_tm, rwa_tm):
        assert np.linalg.norm(drift(tm) - drift_from_t_operator(tm)) < 1e-10


def test_rwa_drift_needs_no_projection(rwa_tm):
    bare = drift_from_t_operator(rwa_tm, diagonal_projection=False)
    assert np.linalg.norm(drift(rwa_tm) - bare) < 1e-10


def test_drift_born_scaling():
    # discrepancy against the Born oracle is O(||D||^4)
    discrepancies = {}
    for scale in (0.1, 0.01):
        tm = _scaled_model(scale)
        discrepancies[scale] = np.linalg.norm(drift(tm) - born_drift(tm))
    assert discrepancies[0.1] < 5e-3
    assert discrepancies[0.01] < 5e-5


def test_theta_map_trivial_cases(nr_tm):
    zero = np.zeros((2, 2))
    assert not theta_map(nr_tm, zero, 0, 0, 0.0, 0.0, 0.5).any()
    tm0 = _zero_model()
    x = np.array([[0.2, 0.1], [0.1, 0.8]], dtype=complex)
    assert not theta_map(tm0, x, 0, 1, 0.0, 1.0, 0.5).any()


def test_theta_map_adjoint_symmetry(nr_tm):
    rng = np.random.default_rng(11)
    E = 2.33
    for _ in range(4):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = theta_map(nr_tm, x.conj().T, 1, 0, 1.0, 0.0, E)
        rhs = theta_map(nr_tm, x, 0, 1, 0.0, 1.0, E).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12


def _theta_map_per_frequency(tm, X, eps1, eps2, omega1, omega2, E):
    """theta_map with its R blocks gathered one frequency at a time, each by
    a scalar candidate loop over the searchsorted neighbours (the reference
    for the array lookup)."""
    sd = tm.spectral

    def at(blocks, omega):
        i = int(np.searchsorted(sd.bohr, omega))
        best, dist = None, sd.tolerance
        for j in (i - 1, i, i + 1):
            if 0 <= j < sd.bohr.size and abs(sd.bohr[j] - omega) <= dist:
                best, dist = j, abs(sd.bohr[j] - omega)
        if best is None:
            return np.zeros(blocks.shape[:-3] + blocks.shape[-2:], dtype=blocks.dtype)
        return blocks[..., best, :, :]

    R1 = tm.r_blocks(E, omega1)
    R2 = R1 if omega2 == omega1 else tm.r_blocks(E, omega2)
    ra = np.stack([at(R1[:, e, eps1], w - omega1) for e in (0, 1) for w in tm.bohr], axis=1)
    rb = np.stack([at(R2[:, e, eps2], w - omega2) for e in (0, 1) for w in tm.bohr], axis=1)
    re_g = tm._re_gamma(E).reshape(E.size, -1)
    return _structure_map(np.asarray(X, dtype=complex), at(R2[:, eps1, eps2], omega1 - omega2),
                          at(R1[:, eps2, eps1], omega2 - omega1), ra, rb, re_g)


@pytest.mark.parametrize("name", ["tm_nr", "chained"])
def test_theta_map_on_energy_array_matches_per_frequency_gathers(nr_tm, name):
    # bitwise; on the chained cluster 0.1 is off the lattice, so omega1 -
    # omega2 and some w - omega2 name no block
    tm = nr_tm if name == "tm_nr" else TMatrix(model_from_dict(chained_cluster_doc()))
    B = [float(w) for w in tm.bohr]
    rng = np.random.default_rng(5)
    x = rng.standard_normal((tm.dim, tm.dim)) + 1j * rng.standard_normal((tm.dim, tm.dim))
    E = np.array([0.3, 0.55, 2.4, 2.75])
    for eps1, eps2, omega1, omega2 in ((0, 0, 0.0, 0.0), (0, 1, 0.0, B[-1]), (1, 0, B[0], 0.0),
                                       (1, 1, B[1], B[-2]), (0, 1, 0.0, 0.1)):
        got = theta_map(tm, x, eps1, eps2, omega1, omega2, E)
        want = _theta_map_per_frequency(tm, x, eps1, eps2, omega1, omega2, E)
        assert got.shape == want.shape == (E.size, tm.dim, tm.dim)
        assert got.tobytes() == want.tobytes(), (eps1, eps2, omega1, omega2)


def test_build_generator_zero_coupling():
    gen = build_generator(_zero_model())
    assert not gen.kraus
    assert not gen.hamiltonian.any()
    assert not gen.drift.any()


def test_overflowing_kraus_weight_is_a_numeric_error():
    # 2 w exp(-beta E) rho0(E) pi rho0(E + omega) overflows for a bump of
    # amplitude 1e200; numpy warned and the generator's own check called
    # the weight a validation error.  The drift does not read the weights.
    doc = base_model_doc()
    doc["bath"]["rho0"] = {"kind": "bump", "a": 0, "b": 1, "amplitude": 1e200}
    tm = TMatrix(model_from_dict(doc))
    with pytest.raises(NumericError) as info:
        build_generator(tm)
    assert str(info.value) == ("Kraus weight 2 w exp(-beta E) rho0(E) pi rho0(E + omega) overflows "
                               "at E = 0.0125 (a support node of rho0), eps' = 0, omega = 0")
    assert np.isfinite(drift(tm)).all()


def test_generator_invariants(nr_gen, rwa_gen):
    for gen in (nr_gen, rwa_gen):
        assert np.linalg.norm(gen.hamiltonian - gen.hamiltonian.conj().T) < 1e-12
        assert all(w >= 0 for w, _ in gen.kraus)
        assert np.linalg.norm(gen.psi_one - (gen.drift + gen.drift.conj().T)) < 1e-10
        assert np.linalg.norm(gen.hamiltonian - (gen.drift - gen.drift.conj().T) / 2j) < 1e-10


def test_reconstruction_identity(nr_tm, nr_gen):
    # Kraus-form Theta0 against the independently summed three-term form
    rng = np.random.default_rng(21)
    spec = nr_tm.spec
    cache = {e: spec.bath.support_nodes(e) for e in (0, 1)}
    for _ in range(20):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = x + x.conj().T
        three = np.zeros_like(x, dtype=complex)
        for eps in (0, 1):
            nodes, wts, rho = cache[eps]
            mu = np.exp(-spec.beta * nodes) * rho
            three += np.einsum("n,nij->ij", wts * mu, theta_map(nr_tm, x, eps, eps, 0.0, 0.0, nodes))
        assert np.linalg.norm(nr_gen.apply(x) - three) < 1e-12


def test_apply_generator_unital_and_star(nr_gen):
    assert np.abs(nr_gen.apply(np.eye(2))).max() < 1e-10
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = x + x.conj().T
    out = nr_gen.apply(x)
    assert np.linalg.norm(out - out.conj().T) < 1e-12


def test_apply_generator_dimension_check(nr_gen):
    with pytest.raises(ValidationError):
        nr_gen.apply(np.eye(3))


def test_dual_matrix_zero_coupling():
    gen = build_generator(_zero_model())
    assert not dual_generator_matrix(gen).any()


def test_dual_matrix_trace_preserving(nr_gen):
    m = dual_generator_matrix(nr_gen)
    d = nr_gen.dim
    trace_rows = sum(m[(i * d) + i] for i in range(d))
    assert np.abs(trace_rows).max() < 1e-12


def test_duality_pairing(nr_gen):
    rng = np.random.default_rng(41)
    m_dual = dual_generator_matrix(nr_gen)
    for _ in range(10):
        rho = random_density(rng, 2)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        theta_star_rho = (m_dual @ rho.reshape(-1)).reshape(2, 2)
        lhs = np.trace(theta_star_rho @ x)
        rhs = np.trace(rho @ nr_gen.apply(x))
        assert abs(lhs - rhs) < 1e-12


def test_heisenberg_matrix_consistent(nr_gen):
    m = dual_generator_matrix(nr_gen).conj().T
    rng = np.random.default_rng(43)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    direct = nr_gen.apply(x)
    assert np.abs((m @ x.reshape(-1)).reshape(2, 2) - direct).max() < 1e-14


def test_choi_zero_and_psd(nr_gen):
    assert not build_generator(_zero_model()).choi.any()
    c = nr_gen.choi
    assert np.linalg.norm(c - c.conj().T) < 1e-14
    assert np.linalg.eigvalsh(c).min() >= -1e-10 * np.linalg.norm(c, 2)


def test_choi_single_kraus_rank_one():
    L = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=np.zeros((2, 2)),
                        weights=[0.3], ops=[L])
    c = gen.choi
    evals = np.linalg.eigvalsh(c)
    assert int((evals > 1e-10 * evals.max()).sum()) == 1


def test_compressed_generator_equivalent(nr_gen):
    comp = nr_gen.compressed()
    assert len(comp.kraus) <= nr_gen.dim ** 2
    rng = np.random.default_rng(53)
    for _ in range(5):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.abs(comp.psi(x) - nr_gen.psi(x)).max() < 1e-12
        assert np.abs(comp.apply(x) - nr_gen.apply(x)).max() < 1e-12


def test_grid_coverage_error():
    doc = base_model_doc()
    doc["system"]["hamiltonian"] = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]]
    tm = TMatrix(model_from_dict(doc))
    with pytest.raises(ValidationError, match="shifted by"):
        validate_bath(tm.spec.bath, tm.bohr, tm.spec.beta)


def test_empty_support_names_its_density():
    # no node of the grid (spacing 0.0125) lies inside [2.001, 2.002]
    doc = base_model_doc()
    doc["bath"]["rho1"] = {"kind": "bump", "a": 2.001, "b": 2.002, "amplitude": 1.0}
    tm = TMatrix(model_from_dict(doc))
    for call in (lambda: validate_bath(tm.spec.bath, tm.bohr, tm.spec.beta), lambda: drift(tm),
                 lambda: drift_from_t_operator(tm), lambda: build_generator(tm)):
        with pytest.raises(ValidationError, match=r"support \[2.001, 2.002\] of rho1"):
            call()


def test_three_level_cross_support_channels():
    # Bohr shift 1.8 bridges the two bath supports, so energy-exchanging
    # Kraus channels (nonzero transfer) are active; the structure identities
    # must hold with them in play, not only in the dephasing-only geometry
    rng = np.random.default_rng(99)
    d = 0.08 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    doc = {
        "system": {
            "hamiltonian": [[0.0, 0], [0, 0], [0, 0], [0, 0], [0.7, 0],
                            [0, 0], [0, 0], [0, 0], [1.8, 0]],
            "coupling": [[z.real, z.imag] for z in d.reshape(-1)],
        },
        "bath": {
            "beta": 0.5,
            "grid": {"min": -3.0, "max": 6.0, "points": 361},
            "rho0": {"kind": "bump", "a": 0.0, "b": 1.0, "amplitude": 1.0},
            "rho1": {"kind": "bump", "a": 2.0, "b": 3.0, "amplitude": 1.0},
        },
    }
    tm = TMatrix(model_from_dict(doc))
    assert tm.spectral.bohr.tolist() == [-1.8, -1.1, -0.7, 0.0, 0.7, 1.1, 1.8]
    gen = build_generator(tm)

    from ldlgen.model import block_transfer
    cross = 0
    for _, L in gen.kraus:
        comps = block_transfer(L, tm.spectral)
        if any(abs(mu) > 1e-9 and np.linalg.norm(m) > 1e-12
               for mu, m in comps.items()):
            cross += 1
    assert cross > 0

    assert np.linalg.norm(gen.psi_one - (gen.drift + gen.drift.conj().T)) < 1e-10
    assert np.linalg.norm(drift(tm) - drift_from_t_operator(tm)) < 1e-10
    c = gen.choi
    evals = np.linalg.eigvalsh(c)
    assert evals.min() >= -1e-10 * evals.max()

    comps = tm.t_components(0.5)
    sums, converged = tm.appendix_partial_sums("01", 0.5)
    assert converged
    assert np.linalg.norm(sums[-1] - comps[(0, 1)]) < 1e-10


def test_table_profile_bath_supports_full_stack():
    # interpolated densities drive the PV quadrature through its knot
    # breakpoints; the structure identities must survive unchanged
    e0 = np.linspace(0, 1, 13)
    v0 = np.sin(np.pi * e0) ** 2
    v0[0] = v0[-1] = 0.0
    e1 = np.linspace(2, 3, 13)
    v1 = 1.5 * (e1 - 2) * (3 - e1)
    v1[0] = v1[-1] = 0.0
    doc = base_model_doc()
    doc["bath"]["grid"]["points"] = 241
    doc["bath"]["rho0"] = {"kind": "table", "energies": list(e0), "values": list(v0)}
    doc["bath"]["rho1"] = {"kind": "table", "energies": list(e1), "values": list(v1)}
    tm = TMatrix(model_from_dict(doc))
    gen = build_generator(tm)
    assert np.linalg.norm(gen.psi_one - (gen.drift + gen.drift.conj().T)) < 1e-10
    assert np.linalg.norm(drift(tm) - drift_from_t_operator(tm)) < 1e-10
    comps = tm.t_components(0.52)
    sums, converged = tm.appendix_partial_sums("11", 0.52)
    assert converged
    assert np.linalg.norm(sums[-1] - comps[(1, 1)]) < 1e-10


def test_generator_serialization_round_trip(nr_gen):
    payload = json.loads(json.dumps(nr_gen.to_json()))
    back = GKSLGenerator.from_json(payload)
    assert np.array_equal(back.drift, nr_gen.drift)
    assert np.array_equal(back.hamiltonian, nr_gen.hamiltonian)
    assert back.grid == nr_gen.grid
    assert len(back.kraus) == len(nr_gen.kraus)
    for (w1, l1), (w2, l2) in zip(back.kraus, nr_gen.kraus):
        assert w1 == w2
        assert np.array_equal(l1, l2)


# -- the stacked Kraus family against explicit per-entry loops ----------------

def _loop_psi(weights, ops, x):
    out = np.zeros_like(x, dtype=complex)
    for w, L in zip(weights, ops):
        out += w * (L.conj().T @ x @ L)
    return out


def _loop_choi(weights, ops):
    d = ops.shape[-1]
    c = np.zeros((d * d, d * d), dtype=complex)
    for w, L in zip(weights, ops):
        v = L.reshape(-1)
        c += w * np.outer(v, v.conj())
    return c


def _loop_dual(weights, ops, h):
    d = h.shape[0]
    eye = np.eye(d)
    p1 = _loop_psi(weights, ops, eye)
    out = np.zeros((d * d, d * d), dtype=complex)
    for w, L in zip(weights, ops):
        out += w * np.kron(L, L.conj())
    out -= 0.5 * (np.kron(p1, eye) + np.kron(eye, p1.T))
    return out - 1j * (np.kron(h, eye) - np.kron(eye, h.T))


def _random_family_generator(rng, d, k):
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = h + h.conj().T
    weights = rng.uniform(0.1, 2.0, size=k)
    ops = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    return GKSLGenerator(drift=np.zeros((d, d), dtype=complex), hamiltonian=h,
                         weights=weights, ops=ops)


def test_stacked_family_matches_entry_loops():
    rng = np.random.default_rng(2024)
    gen = _random_family_generator(rng, 3, 7)
    assert gen.weights.shape == (7,) and gen.ops.shape == (7, 3, 3)
    w, ops = gen.weights, gen.ops
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    scale = float(w.sum() * (np.abs(ops) ** 2).sum())
    assert np.abs(gen.psi_one - _loop_psi(w, ops, np.eye(3))).max() <= 1e-14 * scale
    assert np.abs(gen.psi(x) - _loop_psi(w, ops, x)).max() <= 1e-14 * scale
    assert np.abs(gen.choi - _loop_choi(w, ops)).max() <= 1e-14 * scale
    dual = _loop_dual(w, ops, gen.hamiltonian)
    assert np.abs(dual_generator_matrix(gen) - dual).max() <= 1e-14 * scale
    comp = gen.compressed()
    assert comp.ops.shape[1:] == (3, 3) and comp.weights.shape == comp.ops.shape[:1]
    assert np.abs(comp.psi(x) - _loop_psi(w, ops, x)).max() <= 1e-12 * scale
    assert [pair[0] for pair in gen.kraus] == w.tolist()


def test_empty_family_is_zero():
    gen = GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=np.diag([1.0, -1.0]),
                        weights=[], ops=[])
    assert gen.weights.shape == (0,) and gen.ops.shape == (0, 2, 2)
    x = np.array([[0.3, 1j], [-1j, 0.7]])
    assert not gen.psi_one.any() and gen.psi_one.shape == (2, 2)
    assert not gen.psi(x).any()
    assert not gen.choi.any() and gen.choi.shape == (4, 4)
    eye = np.eye(2)
    h = gen.hamiltonian
    assert np.array_equal(dual_generator_matrix(gen),
                          -1j * (np.kron(h, eye) - np.kron(eye, h.T)))
    comp = gen.compressed()
    assert comp.weights.shape == (0,) and comp.ops.shape == (0, 2, 2)
    assert not comp.psi(x).any()
    back = GKSLGenerator.from_json(json.loads(json.dumps(gen.to_json())))
    assert back.weights.shape == (0,) and back.ops.shape == (0, 2, 2)
    assert back.kraus == []


def test_family_shape_mismatch_rejected():
    L = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError, match="Kraus"):
        GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=np.zeros((2, 2)),
                      weights=[0.1, 0.2], ops=[L])
    with pytest.raises(ValidationError, match="Kraus"):
        GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=np.zeros((2, 2)),
                      weights=[0.1] * 4, ops=np.zeros((1, 4, 4)))


@pytest.mark.parametrize("field, value, match", [
    ("weights", [np.nan], "finite and nonnegative"),
    ("weights", [-1.0], "finite and nonnegative"),
    ("weights", [np.inf], "finite and nonnegative"),
    ("ops", [[[np.nan, 0.0], [0.0, 0.0]]], "must be finite"),
    ("drift", [[np.inf, 0.0], [0.0, 0.0]], "must be finite"),
    ("hamiltonian", [[0.0, np.nan], [np.nan, 0.0]], "must be finite"),
    ("drift", np.zeros((3, 3)), "drift must be 2 x 2"),
    ("hamiltonian", np.zeros((2, 3)), "hamiltonian must be 2 x 2"),
    ("hamiltonian", np.array(1.0), "hamiltonian must be a matrix"),
])
def test_generator_rejects_bad_parts(field, value, match):
    parts = dict(drift=np.zeros((2, 2)), hamiltonian=np.zeros((2, 2)), weights=[0.3],
                 ops=[np.eye(2)])
    parts[field] = value
    with pytest.raises(ValidationError, match=match):
        GKSLGenerator(**parts)


def test_built_family_refuses_a_non_finite_column():
    # an entry off the level diagonal reaches kept Kraus entries, and
    # neither drift nor H
    tm = TMatrix(model_from_dict(ladder_model_doc(3, 3)))
    tm.thermal_pass().r[:, :, 0, 1] = np.nan
    with pytest.raises(ValidationError, match="Kraus operators must be finite"):
        build_generator(tm)


def test_generator_accepts_zero_weight():
    gen = GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=np.zeros((2, 2)), weights=[0.0],
                        ops=[np.eye(2)])
    assert not gen.psi_one.any()


def test_generator_from_json_rejects_bad_documents(nr_gen):
    doc = json.loads(json.dumps(nr_gen.to_json()))
    bad = json.loads(json.dumps(doc))
    bad["kraus"][0]["weight"] = -1.0
    with pytest.raises(ValidationError, match="nonnegative"):
        GKSLGenerator.from_json(bad)
    bad["kraus"][0]["weight"] = float("nan")
    with pytest.raises(ValidationError, match="kraus weight must be finite"):
        GKSLGenerator.from_json(bad)
    bad = json.loads(json.dumps(doc))
    bad["drift"] = [[0.0, 0.0]] * 4
    bad["hamiltonian"] = [[0.0, 0.0]] * 9
    with pytest.raises(ValidationError, match="drift must be 3 x 3"):
        GKSLGenerator.from_json(bad)
    for key in ("kraus", "drift", "hamiltonian"):
        bad = {k: v for k, v in doc.items() if k != key}
        with pytest.raises(ValidationError, match=f"missing required field '{key}'"):
            GKSLGenerator.from_json(bad)
    for key in ("weight", "operator"):
        bad = json.loads(json.dumps(doc))
        del bad["kraus"][1][key]
        with pytest.raises(ValidationError, match=f"missing required field '{key}'"):
            GKSLGenerator.from_json(bad)
    # "dim" is optional, but when given it is the Hamiltonian's dimension
    for dim, message in ((3, "generator dim 3 does not match its 2 x 2 hamiltonian"),
                         ("x", "generator dim must be an integer, got 'x'"),
                         (True, "generator dim must be an integer, got True")):
        bad = json.loads(json.dumps(doc))
        bad["dim"] = dim
        with pytest.raises(ValidationError, match=re.escape(message)):
            GKSLGenerator.from_json(bad)


@pytest.mark.parametrize("kraus", [3, ["weight"]])
def test_generator_from_json_rejects_malformed_kraus(nr_gen, kraus):
    doc = json.loads(json.dumps(nr_gen.to_json()))
    doc["kraus"] = kraus
    with pytest.raises(ValidationError, match="kraus must be a list"):
        GKSLGenerator.from_json(doc)


# -- one Choi matrix and one H_eff ------------------------------------------------

PSI_PROFILE = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@PSI_PROFILE
@given(d=st.integers(1, 4), k=st.integers(0, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_psi_representation_matches_entry_loops(d, k, seed):
    rng = np.random.default_rng(seed)
    gen = _random_family_generator(rng, d, k)
    w, ops, h = gen.weights, gen.ops, gen.hamiltonian
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    bound = 1e-14 * float(w.sum() * (np.abs(ops) ** 2).sum())
    p1 = _loop_psi(w, ops, np.eye(d))
    assert np.abs(gen.psi_one - p1).max() <= bound
    assert np.abs(gen.psi(x) - _loop_psi(w, ops, x)).max() <= bound
    assert np.abs(gen.choi - _loop_choi(w, ops)).max() <= bound
    dual = _loop_dual(w, ops, h)
    assert np.abs(dual_generator_matrix(gen) - dual).max() <= bound
    theta = _loop_psi(w, ops, x) - 0.5 * (p1 @ x + x @ p1) + 1j * (h @ x - x @ h)
    assert np.abs(gen.apply(x) - theta).max() <= bound


def test_choi_and_heff_are_read_only():
    rng = np.random.default_rng(11)
    gen = _random_family_generator(rng, 2, 3)
    for cached in (gen.choi, gen.heff, gen.psi_one):
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0
    # at d = 1 the realigned Choi matrix can be a view of the cached one
    gen = _random_family_generator(rng, 1, 4)
    before = gen.choi.copy()
    dual_generator_matrix(gen)
    assert np.array_equal(gen.choi, before)


def test_psi_builds_no_per_entry_stack():
    gen = _random_family_generator(np.random.default_rng(5), 5, 3000)
    x = np.eye(5) + 0.5j
    tracemalloc.start()
    try:
        _ = gen.choi
        _ = gen.psi_one
        gen.psi(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (K, d^2, d^2) stack alone would be 30 MB
    assert peak < 4e6


# -- the thermal pass ------------------------------------------------------------

def test_thermal_pass_solves_the_support_nodes_once(nr_spec, monkeypatch):
    tm = TMatrix(nr_spec)
    support = np.concatenate([nr_spec.bath.support_nodes(e)[0] for e in (0, 1)])
    calls = []
    r_eigen = TMatrix._r_eigen           # the batched solve under r_blocks and the pass

    def counting(self, energies, omega_prime):
        calls.append(np.array(energies, dtype=float).reshape(-1))
        return r_eigen(self, energies, omega_prime)

    monkeypatch.setattr(TMatrix, "_r_eigen", counting)
    drift(tm)
    drift_from_t_operator(tm)
    build_generator(tm)
    run_identity_suite(tm, "identities")
    assert sum(np.array_equal(E, support) for E in calls) == 1
    # every other call is one of the suite's few pointwise energies
    assert all(E.size <= 3 for E in calls if not np.array_equal(E, support))


def test_drift_routes_split_at_most_one_operator(monkeypatch):
    # the thermal pass keeps R unsplit: drift reads its level-diagonal
    # entries, and the t-route splits its one d x d node sum
    tm = TMatrix(model_from_dict(_rotated(ladder_model_doc(3, 3), seed=4)))
    split, operators = type(tm.spectral).split, []

    def counting(self, X):
        operators.append(math.prod(np.shape(X)[:-2]))
        return split(self, X)

    monkeypatch.setattr(type(tm.spectral), "split", counting)
    gamma = drift(tm)
    gamma_t = drift_from_t_operator(tm)
    assert sum(operators) <= 1
    assert np.linalg.norm(gamma - gamma_t) < 1e-10


def test_generator_splits_its_family_only_when_ops_is_read(monkeypatch):
    # the build, the Choi matrix and everything that reads it work by Bohr
    # sector on the unsplit eigenbasis column; `ops` splits that column, the
    # 2N operators of the thermal pass, once
    tm = TMatrix(model_from_dict(_rotated(ladder_model_doc(3, 3), seed=4)))
    tm.thermal_pass()
    split, operators = type(tm.spectral).split, []

    def counting(self, X):
        operators.append(math.prod(np.shape(X)[:-2]))
        return split(self, X)

    monkeypatch.setattr(type(tm.spectral), "split", counting)
    gen = build_generator(tm)
    _ = gen.choi, gen.psi_one
    gen.compressed()
    dual_generator_matrix(gen)
    assert sum(operators) == 0
    ops = gen.ops
    assert operators == [tm.thermal_pass().r.shape[0] * 2]
    assert gen.ops is ops and len(operators) == 1
    assert ops.shape == (gen.weights.size, 3, 3) and not ops.flags.writeable


def test_build_and_compression_hold_no_split_column():
    tm = TMatrix(model_from_dict(ladder_model_doc(0, 8)))
    tp = tm.thermal_pass()
    split_bytes = tp.r.nbytes * tm.bohr.size
    tracemalloc.start()
    try:
        build_generator(tm).compressed()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the split column, (2N, |B|, d, d) complex, is 316 * 57 * 64 * 16 B =
    # 18.4 MB.  The build holds the weights and the keep mask, (2N, |B|),
    # 0.14 MB, at most one gather of the stack, 2N d^2 complex = 0.32 MB, the
    # level-diagonal sum, N d^2 complex, and the d^2 x d^2 Choi matrix with
    # its eigendecomposition, 0.07 MB each: about 1 MB, so a quarter of the
    # column leaves a margin of four
    assert split_bytes == 316 * 57 * 64 * 16
    assert peak < split_bytes / 4


def _per_density_assembly(tm):
    """Drift, drift through t, H and the Kraus family assembled one density at
    a time: each density's own support nodes and r_blocks call, its terms
    summed in turn, its Kraus entries appended in the order (node, eps', omega)."""
    spec, sd = tm.spec, tm.spectral
    zero = sd.bohr_index(0.0)
    gamma, t, ham = (np.zeros((spec.dim, spec.dim), dtype=complex) for _ in range(3))
    weights, ops = [], []
    for eps in (0, 1):
        nodes, wts, rho = spec.bath.support_nodes(eps)
        coef = wts * (np.exp(-spec.beta * nodes) * rho)
        R = tm.r_blocks(nodes)
        r00 = R[:, eps, eps, zero]
        gamma -= np.einsum("n,nij->ij", coef, r00)
        t -= np.einsum("n,nij->ij", coef, R[:, eps, eps].sum(axis=1))
        ham += np.einsum("n,nij->ij", coef, (np.swapaxes(r00, 1, 2).conj() - r00) / 2j)
        shifted = nodes[:, None] + tm.bohr[None, :]
        re_g = np.stack([math.pi * spec.bath.density(e)(shifted) for e in (0, 1)], axis=1)
        weight = 2.0 * coef[:, None, None] * re_g
        ops_eps = R[:, :, eps]
        keep = (re_g > 0.0) & (weight > 0.0) & ops_eps.reshape(*re_g.shape, -1).any(axis=-1)
        weights.append(weight[keep])
        ops.append(ops_eps[keep])
    return gamma, sd.split_operator(t)[zero], ham, np.concatenate(weights), np.concatenate(ops)


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("model", ["tm_nr", "tm_rwa", "ladder_d3", "ladder_d3_rotated",
                                   "ladder_d3_near_degenerate", "chained"])
def test_thermal_pass_matches_per_density_assembly(request, model):
    # the rotated model has a non-diagonal H_S, so drift, H, the t-route and
    # the Choi matrix rotate their eigenbasis sums by a real change of basis
    docs = {"ladder_d3": lambda: ladder_model_doc(3, 3),
            "ladder_d3_rotated": lambda: _rotated(ladder_model_doc(3, 3), seed=4),
            "ladder_d3_near_degenerate": lambda: ladder_model_doc(3, 3, near_degenerate=True),
            "chained": chained_cluster_doc}
    if model in docs:
        tm = TMatrix(model_from_dict(docs[model]()))
    else:
        tm = request.getfixturevalue(model.replace("tm_", "") + "_tm")
    gamma, gamma_t, ham, weights, ops = _per_density_assembly(tm)
    gen = build_generator(tm)
    assert gen.weights.tobytes() == weights.tobytes()
    assert gen.ops.shape == ops.shape and gen.ops.tobytes() == ops.tobytes()
    scale = float(weights.sum() * (np.abs(ops) ** 2).sum())
    assert np.abs(gen.choi - _loop_choi(weights, ops)).max() <= 1e-14 * scale
    assert _relative(gen.drift, gamma) <= 1e-14
    assert _relative(gen.hamiltonian, ham) <= 1e-14
    assert _relative(drift_from_t_operator(tm), gamma_t) <= 1e-14


def _rotated(doc, seed):
    """doc with H_S and the coupling in a random unitary basis: the same
    spectrum and physics, a non-diagonal H_S."""
    rng = np.random.default_rng(seed)
    d = int(round(len(doc["system"]["hamiltonian"]) ** 0.5))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    for key in ("hamiltonian", "coupling"):
        m = np.array([complex(*z) for z in doc["system"][key]]).reshape(d, d)
        m = q @ m @ q.conj().T
        doc["system"][key] = [[z.real, z.imag] for z in ((m + m.conj().T) / 2.0).reshape(-1)]
    return doc


# Runs in a fresh interpreter, so OPENBLAS_NUM_THREADS takes effect.
_SPLIT_KEPT_HALF_SCRIPT = """
import hashlib, sys
import numpy as np
from ldlgen import TMatrix, load_model
from ldlgen.generator import build_generator, kraus_weights
for path in sys.argv[1:]:
    tm = TMatrix(load_model(path))
    tp = tm.thermal_pass()
    nodes = np.concatenate([tm.spec.bath.support_nodes(e)[0] for e in (0, 1)])
    kept = (np.arange(tp.eps.size), slice(None), tp.eps)
    full = tm._r_eigen(nodes, 0.0)[kept]
    assert tp.r.shape == full.shape and tp.r.tobytes() == full.tobytes(), path
    split = tm.r_blocks(nodes)[kept]
    weight = kraus_weights(tm)
    ops = split[(weight > 0.0) & split.reshape(*weight.shape, -1).any(axis=-1)]
    gen = build_generator(tm)
    choi = hashlib.sha256(gen.choi.tobytes()).hexdigest()
    assert gen.ops.shape == ops.shape and gen.ops.tobytes() == ops.tobytes(), path
    print(path, choi)
"""


def _split_kept_half_run(tmp_path, threads):
    docs = {"ladder_d3": ladder_model_doc(3, 3),
            "ladder_d3_rotated": _rotated(ladder_model_doc(3, 3), seed=4),
            "ladder_d5": ladder_model_doc(0, 5), "ladder_d6": ladder_model_doc(0, 6),
            "ladder_d5_rotated": _rotated(ladder_model_doc(0, 5), seed=0)}
    models = [str(MODELS / "tm_nr.json"), str(MODELS / "tm_rwa.json")]
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        models.append(str(tmp_path / f"{name}.json"))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _SPLIT_KEPT_HALF_SCRIPT, *models],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.split()
    assert printed[::2] == models
    return printed[1::2]


@pytest.fixture(scope="module")
def one_thread_choi(tmp_path_factory):
    return _split_kept_half_run(tmp_path_factory.mktemp("split"), "1")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_thermal_pass_splits_only_the_kept_half_bitwise(tmp_path, threads, one_thread_choi):
    # the pass keeps R^{e,eps} for each node's own eps only, unsplit, with
    # the bits of the full solve; the generator's family, read through `ops`,
    # has the bits of splitting all four pairs, keeping half and masking.
    # The rotated ladder models have a non-diagonal H_S, so `split` changes
    # basis.  The Choi matrix is a product per Bohr sector, small enough that
    # BLAS never splits it between threads, so it has the same bytes at one
    # and at two threads
    choi = one_thread_choi if threads == "1" else _split_kept_half_run(tmp_path, threads)
    assert choi == one_thread_choi
