"""Acceptance criteria, one test per criterion, each printing a verdict line.

Reference models: TM-RWA (coupling 0.1 |e1><e2|) and TM-NR (coupling
0.1 sigma_x), bump baths on [0,1] and [2,3], beta = 0.5, grid
[-1.5, 4.5] with 481 points.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import math
import time

import numpy as np

from ldlgen import TMatrix
from ldlgen.dynamics import evolve_master, unravel_jump
from ldlgen.generator import (choi_matrix, drift, drift_from_t_operator,
                              dual_generator_matrix, theta_map)
from ldlgen.model import model_from_dict
from ldlgen.tmatrix import dyson_oracle, dyson_reference, richardson_extrapolate
from ldlgen.verification import (check_causal_delta_limit, check_delta_limit,
                                 default_test_functions)
from scipy.linalg import expm

from conftest import base_model_doc, random_density

ENERGIES = [0.1, 0.3, 0.5, 0.7, 0.9, 2.1, 2.3, 2.5, 2.7, 2.9]
PAIRS = {"00": (0, 0), "01": (0, 1), "10": (1, 0), "11": (1, 1)}


def _verdict(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_appendix_series_identity(nr_tm):
    start = time.time()
    worst = 0.0
    for E in ENERGIES:
        comps = nr_tm.t_components(E)
        for pair, key in PAIRS.items():
            sums, converged = nr_tm.appendix_partial_sums(pair, E, tol=1e-12)
            assert converged, f"series did not converge for {pair} at E={E}"
            worst = max(worst, float(np.linalg.norm(sums[-1] - comps[key])))
    elapsed = time.time() - start
    _verdict(1, worst <= 1e-10 and elapsed < 60.0,
             f"series identity max residual {worst:.3e} <= 1e-10 over "
             f"{len(ENERGIES)} energies x 4 pairs in {elapsed:.1f}s (< 60s)")


def test_criterion_02_neumann_vs_direct(nr_tm, rwa_tm):
    worst = 0.0
    for tm in (nr_tm, rwa_tm):
        for eps in (0, 1):
            for wp in tm.bohr:
                for E in ENERGIES:
                    direct = tm.solve_column(eps, float(wp), E)
                    series = tm.neumann_column(eps, float(wp), E, tol=1e-12)
                    assert series.converged
                    for b1, b2 in zip(direct.blocks_list, series.blocks_list):
                        diff = float(np.linalg.norm(b1 - b2))
                        if diff:
                            worst = max(worst, diff / max(np.linalg.norm(b1), 1e-300))
    _verdict(2, worst <= 1e-10,
             f"Neumann vs direct solve max relative block residual {worst:.3e} <= 1e-10 "
             f"(both models, all columns, {len(ENERGIES)} energies)")


def test_criterion_03_dyson_oracle(nr_tm):
    start = time.time()
    etas = [4e-3, 2e-3, 1e-3]
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    mix = np.array([0.6, 0.8])
    cases = [
        ("00", 2, e1, e1), ("00", 2, e2, e2), ("11", 2, mix, mix),
        ("01", 3, e1, e2), ("10", 3, e2, e1), ("01", 3, mix, e2),
    ]
    worst = 0.0
    for pair, n, u, v in cases:
        vals = [dyson_oracle(nr_tm, pair, n, u, v, eta, t_max=400.0, dt=0.01)
                for eta in etas]
        extrap = richardson_extrapolate(vals, etas)
        ref = dyson_reference(nr_tm, pair, n, u, v)
        worst = max(worst, abs(extrap - ref))
    elapsed = time.time() - start
    _verdict(3, worst <= 1e-3 and elapsed < 300.0,
             f"time-quadrature oracle vs closed forms: max |diff| {worst:.3e} <= 1e-3 "
             f"(n = 2 and 3, Richardson over eta) in {elapsed:.0f}s (< 300s)")


def test_criterion_04_drift_identity(nr_tm, rwa_tm):
    worst = 0.0
    for tm in (nr_tm, rwa_tm):
        worst = max(worst, float(np.linalg.norm(drift(tm) - drift_from_t_operator(tm))))
    bare = drift_from_t_operator(rwa_tm, diagonal_projection=False)
    rwa_resid = float(np.linalg.norm(drift(rwa_tm) - bare))
    _verdict(4, worst <= 1e-10 and rwa_resid <= 1e-10,
             f"drift identity residual {worst:.3e} <= 1e-10 on both models; "
             f"projection-free form on TM-RWA {rwa_resid:.3e} <= 1e-10")


def test_criterion_05_diagonal_projection(nr_tm, rwa_tm):
    worst = 0.0
    for tm in (nr_tm, rwa_tm):
        projs = [p for _, p in tm.spectral.levels]
        for E in ENERGIES:
            for eps in (0, 1):
                for w in tm.bohr:
                    if abs(w) <= tm.spectral.tolerance:
                        continue
                    r = tm.r_coefficient(eps, eps, float(w), 0.0, E)
                    diag = sum(p @ r @ p for p in projs)
                    worst = max(worst, float(np.linalg.norm(diag)))
    _verdict(5, worst <= 1e-10,
             f"diagonal projection of off-diagonal R blocks {worst:.3e} <= 1e-10 "
             f"at {len(ENERGIES)} energies")


def test_criterion_06_lindblad_structure(nr_tm, nr_gen, rwa_tm, rwa_gen):
    rng = np.random.default_rng(606)
    worst_rec, worst_herm, worst_unital, worst_hg, worst_choi = 0.0, 0.0, 0.0, 0.0, True
    for tm, gen in ((nr_tm, nr_gen), (rwa_tm, rwa_gen)):
        cache = {e: tm.spec.bath.support_nodes(e) for e in (0, 1)}
        for _ in range(20):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            x = x + x.conj().T
            three = np.zeros_like(x, dtype=complex)
            for eps in (0, 1):
                nodes, wts, rho = cache[eps]
                for E, w, r in zip(nodes, wts, rho):
                    mu = math.exp(-tm.spec.beta * E) * r
                    three += (w * mu) * theta_map(tm, x, eps, eps, 0.0, 0.0, float(E))
            worst_rec = max(worst_rec, float(np.linalg.norm(gen.apply(x) - three)))
        worst_herm = max(worst_herm, float(np.linalg.norm(gen.hamiltonian - gen.hamiltonian.conj().T)))
        worst_unital = max(worst_unital, float(np.linalg.norm(gen.psi_one - (gen.drift + gen.drift.conj().T))))
        worst_hg = max(worst_hg, float(np.linalg.norm(gen.hamiltonian - (gen.drift - gen.drift.conj().T) / 2j)))
        c = choi_matrix(gen)
        worst_choi = worst_choi and (np.linalg.eigvalsh(c).min() >= -1e-10 * np.linalg.norm(c, 2))
    ok = (worst_rec <= 1e-12 and worst_herm <= 1e-12 and worst_unital <= 1e-10
          and worst_hg <= 1e-10 and worst_choi)
    _verdict(6, ok,
             f"Lindblad structure: reconstruction {worst_rec:.3e} <= 1e-12, "
             f"H Hermitian {worst_herm:.3e} <= 1e-12, unitality {worst_unital:.3e} <= 1e-10, "
             f"H from drift {worst_hg:.3e} <= 1e-10, Choi PSD {worst_choi}")


def test_criterion_07_master_dynamics(nr_gen, rwa_gen):
    rng = np.random.default_rng(707)
    worst_trace, worst_eig, worst_expm = 0.0, 0.0, 0.0
    for gen in (nr_gen, rwa_gen):
        liouville = dual_generator_matrix(gen)
        propagator = expm(liouville * 1.0)
        for _ in range(10):
            rho0 = random_density(rng, 2)
            traj = evolve_master(gen, rho0, 20.0, 0.05)
            for state in traj.states:
                worst_trace = max(worst_trace, abs(np.trace(state).real - 1.0))
            for state in traj.states[::20]:
                herm = (state + state.conj().T) / 2
                worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(herm).min()))
            exact = (propagator @ rho0.reshape(-1)).reshape(2, 2)
            k = int(round(1.0 / 0.05))
            worst_expm = max(worst_expm, float(np.abs(traj.states[k] - exact).max()))
    ok = worst_trace <= 1e-9 and worst_eig <= 1e-8 and worst_expm <= 1e-8
    _verdict(7, ok,
             f"master dynamics: trace drift {worst_trace:.3e} <= 1e-9, "
             f"min eigenvalue >= -{worst_eig:.3e} (tol 1e-8), "
             f"matrix-exponential match {worst_expm:.3e} <= 1e-8 at t = 1")


def test_criterion_08_jump_unravelling(nr_gen):
    start = time.time()
    gen = nr_gen.compressed()
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    t_max, dt, m = 20.0, 0.05, 20000
    ens = unravel_jump(gen, psi0, t_max, dt, m, seed=2024, threads=1)
    ens2 = unravel_jump(gen, psi0, t_max, dt, m, seed=2024, threads=4)
    bitwise = all(np.array_equal(a, b) for a, b in zip(ens.mean_states, ens2.mean_states))
    traj = evolve_master(gen, np.outer(psi0, psi0.conj()), t_max, dt)
    steps_per_checkpoint = len(traj.states) // 10
    worst_excess = 0.0
    for k in range(steps_per_checkpoint, len(traj.states), steps_per_checkpoint):
        diff = np.abs(ens.mean_states[k] - traj.states[k])
        bound = np.maximum(4.0 * ens.stderr[k], 2e-2)
        worst_excess = max(worst_excess, float((diff - bound).max()))
    elapsed = time.time() - start
    ok = worst_excess <= 0.0 and bitwise and elapsed < 300.0
    _verdict(8, ok,
             f"jump unravelling M=20000: |mean - ODE| within max(4 stderr, 2e-2) "
             f"at 10 checkpoints (worst excess {worst_excess:.3e}), bitwise across "
             f"threads = {bitwise}, {elapsed:.0f}s (< 300s)")


def test_criterion_09_distributional_limits():
    f, g, h = default_test_functions()
    lambdas = [0.4, 0.2, 0.1]
    rep = check_delta_limit(f, g, h, True, lambdas)
    crep = check_causal_delta_limit(f, g, h, lambdas)
    ratios = [e2 / e1 for e1, e2 in zip(rep.errors, rep.errors[1:])]
    cratios = [e2 / e1 for e1, e2 in zip(crep.errors, crep.errors[1:])]
    final = rep.errors[-1] / abs(rep.limit_value)
    cfinal = crep.errors[-1] / abs(crep.limit_value)
    half = abs(crep.values[-1] / rep.values[-1] - 0.5)
    ok = (rep.monotone and crep.monotone
          and all(r <= 0.5 for r in ratios + cratios)
          and final <= 5e-2 and cfinal <= 5e-2 and half <= 1e-3)
    _verdict(9, ok,
             f"distributional limits: strictly decreasing errors, per-halving ratios "
             f"<= 0.5 (max {max(ratios + cratios):.3f}), final relative errors "
             f"{final:.2e}/{cfinal:.2e} <= 5e-2, causal half-ratio defect {half:.2e} <= 1e-3")


def test_criterion_10_born_scaling(nr_tm):
    from test_generator import born_drift
    discrepancy = {}
    for scale in (0.1, 0.01):
        doc = base_model_doc()
        doc["system"]["coupling"] = [[0.0, 0.0], [scale, 0.0], [scale, 0.0], [0.0, 0.0]]
        tm = TMatrix(model_from_dict(doc), gamma_table=nr_tm.gamma_table)
        discrepancy[scale] = float(np.linalg.norm(drift(tm) - born_drift(tm)))
    ratio = discrepancy[0.1] / discrepancy[0.01]
    ok = 5e3 <= ratio <= 2e4
    _verdict(10, ok,
             f"Born-order discrepancy scales as coupling^4: ratio {ratio:.3e} "
             f"in [5e3, 2e4] (discrepancies {discrepancy[0.1]:.3e} vs {discrepancy[0.01]:.3e})")
