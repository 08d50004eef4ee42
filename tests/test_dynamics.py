import numpy as np
import pytest
from scipy.linalg import expm

from ldlgen import TMatrix, ValidationError
from ldlgen.dynamics import (MAX_STORED_ENTRIES, _resolve_jumps, _step_count,
                             _taylor_step, evolve_master, trajectory_csv_lines,
                             unravel_jump, vacuum_decay)
from ldlgen.generator import GKSLGenerator, build_generator, dual_generator_matrix
from ldlgen.model import model_from_dict

from conftest import base_model_doc, random_density


def _zero_gen():
    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0]] * 4
    return build_generator(TMatrix(model_from_dict(doc)))


def _strong_gen():
    """Hand-built amplitude-damping-plus-dephasing generator with O(1) rates,
    strong enough that integrator error sits above the roundoff floor."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    h = 0.8 * sz
    weights, ops = [0.9, 0.4], [sm, sz]
    psi1 = sum(w * L.conj().T @ L for w, L in zip(weights, ops))
    gamma = 0.5 * psi1 + 1j * h       # keeps Psi(1) = Gamma + Gamma^+
    return GKSLGenerator(drift=gamma, hamiltonian=h, weights=weights, ops=ops)


def test_evolve_zero_generator_is_constant():
    gen = _zero_gen()
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
    traj = evolve_master(gen, rho0, 5.0, 0.1)
    for state in traj.states:
        assert np.abs(state - rho0).max() < 1e-15


def test_evolve_preserves_trace(nr_gen):
    rng = np.random.default_rng(1)
    traj = evolve_master(nr_gen, random_density(rng, 2), 20.0, 0.05)
    for state in traj.states:
        assert abs(np.trace(state).real - 1.0) < 1e-9


def test_evolve_matches_matrix_exponential(nr_gen):
    rng = np.random.default_rng(2)
    rho0 = random_density(rng, 2)
    traj = evolve_master(nr_gen, rho0, 1.0, 0.01)
    liouville = dual_generator_matrix(nr_gen)
    exact = (expm(liouville * 1.0) @ rho0.reshape(-1)).reshape(2, 2)
    assert np.abs(traj.states[-1] - exact).max() < 1e-8


def test_evolve_positivity(nr_gen, rwa_gen):
    rng = np.random.default_rng(3)
    for gen in (nr_gen, rwa_gen):
        for _ in range(10):
            traj = evolve_master(gen, random_density(rng, 2), 20.0, 0.1)
            for state in traj.states[::40]:
                assert np.linalg.eigvalsh((state + state.conj().T) / 2).min() >= -1e-8


def test_evolve_semigroup_property(nr_gen):
    rng = np.random.default_rng(4)
    rho0 = random_density(rng, 2)
    full = evolve_master(nr_gen, rho0, 3.0, 0.05).states[-1]
    half = evolve_master(nr_gen, rho0, 1.2, 0.05).states[-1]
    rest = evolve_master(nr_gen, half, 1.8, 0.05).states[-1]
    assert np.abs(full - rest).max() < 1e-8


def test_evolve_step_halving_fourth_order():
    gen = _strong_gen()
    rng = np.random.default_rng(5)
    rho0 = random_density(rng, 2)
    liouville = dual_generator_matrix(gen)
    exact = (expm(liouville * 3.0) @ rho0.reshape(-1)).reshape(2, 2)
    errs = {}
    for dt in (0.03, 0.015):
        traj = evolve_master(gen, rho0, 3.0, dt)
        errs[dt] = np.abs(traj.states[-1] - exact).max()
    assert errs[0.03] / errs[0.015] >= 12.0


def test_evolve_rejects_bad_initial_state(nr_gen):
    bad_trace = np.eye(2)
    with pytest.raises(ValidationError, match="trace"):
        evolve_master(nr_gen, bad_trace, 1.0, 0.1)
    non_hermitian = np.array([[0.5, 0.4], [0.1, 0.5]])
    with pytest.raises(ValidationError, match="Hermitian"):
        evolve_master(nr_gen, non_hermitian, 1.0, 0.1)
    not_psd = np.array([[1.2, 0.0], [0.0, -0.2]])
    with pytest.raises(ValidationError, match="positive"):
        evolve_master(nr_gen, not_psd, 1.0, 0.1)


def test_evolve_rejects_oversized_step():
    gen = _strong_gen()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError, match="dt"):
        evolve_master(gen, rho0, 1.0, 1.0)


def test_vacuum_decay_basics(nr_gen):
    assert np.abs(vacuum_decay(nr_gen, 0.0) - np.eye(2)).max() == 0.0
    assert np.abs(vacuum_decay(_zero_gen(), 7.5) - np.eye(2)).max() == 0.0
    two_path = vacuum_decay(nr_gen, 0.7) @ vacuum_decay(nr_gen, 1.3)
    assert np.abs(two_path - vacuum_decay(nr_gen, 2.0)).max() < 1e-12


def test_vacuum_decay_contractive_on_shipped_models(nr_gen, rwa_gen):
    # monitored property: the drift spectrum has nonnegative real part here
    for gen in (nr_gen, rwa_gen):
        for t in np.linspace(0.0, 10.0, 11):
            assert np.linalg.norm(vacuum_decay(gen, float(t)), 2) <= 1.0 + 1e-8


def test_unravel_requires_valid_arguments(nr_gen):
    psi = np.array([1.0, 0.0])
    with pytest.raises(ValidationError):
        unravel_jump(nr_gen, psi, 1.0, 0.1, 0, seed=1)
    with pytest.raises(ValidationError):
        unravel_jump(nr_gen, psi, 1.0, -0.1, 10, seed=1)
    with pytest.raises(ValidationError, match="normalized"):
        unravel_jump(nr_gen, 2.0 * psi, 1.0, 0.1, 10, seed=1)


@pytest.mark.parametrize("h, psi0, t_max, dt, trajectories, seed, exact_tol", [
    pytest.param([[0.4, 0.1], [0.1, -0.4]], [1.0, 0.0], 2.0, 0.02, 40, 9, 1e-9,
                 id="short_fine_step"),
    # RK4 loses 2.1e-4 of the norm per step here, so thresholds are crossed
    # with no channel to fire; the state must still move through every step
    pytest.param([[1.0, 0.0], [0.0, -1.0]], [2 ** -0.5, 2 ** -0.5], 50.0, 0.5, 400, 7,
                 None, id="lossy_coarse_step"),
])
def test_unravel_empty_kraus_is_unitary(h, psi0, t_max, dt, trajectories, seed, exact_tol):
    gen = GKSLGenerator(drift=np.zeros((2, 2)),
                        hamiltonian=np.array(h, dtype=complex), weights=[], ops=[])
    psi0 = np.array(psi0)
    ens = unravel_jump(gen, psi0, t_max, dt, trajectories, seed=seed)
    for state in ens.mean_states[::20]:
        assert abs(np.trace(state).real - 1.0) < 1e-10
    # identical trajectories: variance is zero up to summation roundoff
    for err in ens.stderr[::20]:
        assert err.max() < 1e-9
    # every trajectory follows the normalised no-jump propagation
    step = _taylor_step(-1j * gen.hamiltonian, dt)
    psi = psi0.astype(complex)
    for _ in range(len(ens.times) - 1):
        psi = step @ psi
    psi = psi / np.linalg.norm(psi)
    assert np.abs(ens.mean_states[-1] - np.outer(psi, psi.conj())).max() <= 1e-12
    if exact_tol is not None:
        exact = expm(-1j * gen.hamiltonian * t_max) @ psi0
        assert np.abs(ens.mean_states[-1] - np.outer(exact, exact.conj())).max() < exact_tol


def test_unravel_bitwise_reproducible_across_threads(nr_gen):
    genc = nr_gen.compressed()
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    runs = [unravel_jump(genc, psi0, 4.0, 0.05, 600, seed=77, threads=k)
            for k in (1, 2, 4)]
    for other in runs[1:]:
        for a, b in zip(runs[0].mean_states, other.mean_states):
            assert np.array_equal(a, b)
        for a, b in zip(runs[0].stderr, other.stderr):
            assert np.array_equal(a, b)


def test_unravel_mean_is_hermitian(nr_gen):
    genc = nr_gen.compressed()
    psi0 = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    ens = unravel_jump(genc, psi0, 2.0, 0.05, 100, seed=5)
    for state in ens.mean_states[::10]:
        assert np.linalg.norm(state - state.conj().T) < 1e-12


def test_unravel_agrees_with_master_equation():
    # strong generator so jumps actually fire at small trajectory counts
    gen = _strong_gen()
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ens = unravel_jump(gen, psi0, 2.0, 0.01, 4000, seed=123)
    traj = evolve_master(gen, np.outer(psi0, psi0.conj()), 2.0, 0.01)
    for k in range(0, len(traj.states), 40):
        diff = np.abs(ens.mean_states[k] - traj.states[k])
        bound = np.maximum(4.0 * ens.stderr[k], 2e-2)
        assert (diff <= bound).all()


def test_trajectory_csv_round_trip(nr_gen):
    rng = np.random.default_rng(8)
    traj = evolve_master(nr_gen, random_density(rng, 2), 0.5, 0.1)
    lines = list(trajectory_csv_lines(traj.times, traj.states))
    assert lines[0] == "t,re_00,re_01,re_10,re_11,im_00,im_01,im_10,im_11"
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.0
    parsed = np.array([float(x) for x in lines[-1].split(",")[1:]])
    back = (parsed[:4] + 1j * parsed[4:]).reshape(2, 2)
    assert np.array_equal(back, traj.states[-1])


class _ZeroDraws:
    """Stand-in RNG whose every uniform draw is exactly 0.0."""

    def uniform(self):
        return 0.0


def test_zero_draw_never_picks_a_zero_probability_channel():
    # at the jump |0> is annihilated by channel 0 (probability 0); a draw of
    # exactly 0 must still pick channel 1, the first with positive weight
    weights = np.array([1.0, 1.0])
    ops = np.array([[[0.0, 1.0], [0.0, 0.0]],
                    [[0.0, 0.0], [1.0, 0.0]]], dtype=complex)
    heff = -0.5j * np.einsum("j,jki,jkl->il", weights, ops.conj(), ops)
    psi = np.array([1.0, 0.0], dtype=complex)
    state, threshold = _resolve_jumps(psi, 2.0, 0.5, _ZeroDraws(), heff, weights, ops)
    assert np.isfinite(state).all()
    assert threshold == 0.0
    assert abs(state[0]) == 0.0 and abs(state[1]) > 0.0


def test_step_count_budget():
    for dim in (2, 3):
        largest = MAX_STORED_ENTRIES // (dim * dim) - 1
        assert _step_count(float(largest), 1.0, dim) == largest
        with pytest.raises(ValidationError, match="budget"):
            _step_count(float(largest + 1), 1.0, dim)
    with pytest.raises(ValidationError, match="budget"):
        _step_count(1e15, 1.0, 2)


def test_trajectories_are_arrays(nr_gen):
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    traj = evolve_master(nr_gen, rho0, 0.5, 0.1)
    assert traj.states.shape == (6, 2, 2) and traj.states.dtype == complex
    assert np.array_equal(traj.states[0], rho0)
    ens = unravel_jump(nr_gen.compressed(), np.array([1.0, 0.0]), 0.5, 0.1, 3, seed=2)
    assert ens.mean_states.shape == (6, 2, 2) and ens.stderr.shape == (6, 2, 2)
