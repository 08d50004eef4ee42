import json
import math

import numpy as np
import pytest

from ldlgen import TMatrix, ValidationError
from ldlgen.generator import (GKSLGenerator, apply_generator, build_generator,
                              check_grid_coverage, choi_matrix, drift,
                              drift_from_t_operator, dual_generator_matrix,
                              heisenberg_generator_matrix, theta_map)
from ldlgen.model import model_from_dict

from conftest import base_model_doc, random_density


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
    out = np.zeros((spec.dim, spec.dim), dtype=complex)
    for eps in (0, 1):
        nodes, wts, rho = spec.bath.support_nodes(eps)
        for E, w, r in zip(nodes, wts, rho):
            mu = math.exp(-spec.beta * E) * r
            acc = np.zeros_like(out)
            for omega in sd.bohr:
                if eps == 0:
                    blk = sd.d_block(-omega) @ sd.d_block(-omega).conj().T
                    acc += blk * tm.gamma(1, float(E + omega))
                else:
                    blk = sd.d_block(omega).conj().T @ sd.d_block(omega)
                    acc += blk * tm.gamma(0, float(E + omega))
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


def test_build_generator_zero_coupling():
    gen = build_generator(_zero_model())
    assert not gen.kraus
    assert not gen.hamiltonian.any()
    assert not gen.drift.any()


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
            for E, w, r in zip(nodes, wts, rho):
                mu = math.exp(-spec.beta * E) * r
                three += (w * mu) * theta_map(nr_tm, x, eps, eps, 0.0, 0.0, float(E))
        assert np.linalg.norm(nr_gen.apply(x) - three) < 1e-12


def test_apply_generator_unital_and_star(nr_gen):
    assert np.abs(apply_generator(nr_gen, np.eye(2))).max() < 1e-10
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = x + x.conj().T
    out = apply_generator(nr_gen, x)
    assert np.linalg.norm(out - out.conj().T) < 1e-12


def test_apply_generator_dimension_check(nr_gen):
    with pytest.raises(ValidationError):
        apply_generator(nr_gen, np.eye(3))


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
        rhs = np.trace(rho @ apply_generator(nr_gen, x))
        assert abs(lhs - rhs) < 1e-12


def test_heisenberg_matrix_consistent(nr_gen):
    m = heisenberg_generator_matrix(nr_gen)
    rng = np.random.default_rng(43)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    direct = apply_generator(nr_gen, x)
    assert np.abs((m @ x.reshape(-1)).reshape(2, 2) - direct).max() < 1e-14


def test_choi_zero_and_psd(nr_gen):
    assert not choi_matrix(build_generator(_zero_model())).any()
    c = choi_matrix(nr_gen)
    assert np.linalg.norm(c - c.conj().T) < 1e-14
    assert np.linalg.eigvalsh(c).min() >= -1e-10 * np.linalg.norm(c, 2)


def test_choi_single_kraus_rank_one():
    L = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=np.zeros((2, 2)),
                        weights=[0.3], ops=[L])
    c = choi_matrix(gen)
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
        check_grid_coverage(tm.spec, tm.spectral)


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
    assert tm.spectral.bohr_set == [-1.8, -1.1, -0.7, 0.0, 0.7, 1.1, 1.8]
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
    c = choi_matrix(gen)
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
    assert np.abs(choi_matrix(gen) - _loop_choi(w, ops)).max() <= 1e-14 * scale
    dual = _loop_dual(w, ops, gen.hamiltonian)
    assert np.abs(dual_generator_matrix(gen) - dual).max() <= 1e-14 * scale
    assert np.abs(heisenberg_generator_matrix(gen) - dual.conj().T).max() <= 1e-14 * scale
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
    assert not choi_matrix(gen).any() and choi_matrix(gen).shape == (4, 4)
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
