import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from ldlgen import NumericError, TMatrix, ValidationError, dynamics, load_model
from ldlgen.dynamics import (_CHUNK, MAX_STORED_ENTRIES, MAX_TRAJECTORIES, _step_count,
                             _taylor_step, evolve_master, trajectory_csv_lines, unravel_jump,
                             vacuum_decay)
from ldlgen.generator import GKSLGenerator, build_generator, dual_generator_matrix
from ldlgen.model import model_from_dict

from conftest import MODELS, ROOT, base_model_doc, random_density


# Gram entry (j, k) of the Taylor rows feeds the tau^(j + k) coefficient of
# the squared norm; _POWERS are the exponents of tau in the step polynomial
_POWERS = np.arange(5)
_GRAM_DEGREE = np.add.outer(_POWERS, _POWERS).ravel()


def _resolve_jumps(psi_row, remaining, threshold, rng, heff, weights, ops):
    """The RK4 (Taylor) oracle of one trajectory's jumps: advance it through
    `remaining` time from the unnormalized state psi_row, known to cross
    `threshold` before the end; weights (K,) and ops (K, d, d) are the
    stacked Kraus family.  Returns (state, threshold, jumps fired,
    crossings no channel could fire, crossing times from the start).  The
    state inside the interval is the RK4 step polynomial sum_k tau^k v_k
    over the Taylor rows v_k = (-i H_eff)^k psi / k!, and its squared norm
    the degree-8 polynomial with c_m = sum_{j+k=m} Re<v_j, v_k>, bisected
    48 times for each crossing."""
    a = -1j * heff
    cur = psi_row
    jumps, elapsed, crossings = 0, 0.0, []
    while True:
        rows = [cur]
        for k in (1.0, 2.0, 3.0, 4.0):
            rows.append(a @ rows[-1] / k)
        rows = np.array(rows)
        gram = (rows.conj() @ rows.T).real
        coeffs = np.bincount(_GRAM_DEGREE, gram.ravel())[::-1].tolist()
        if np.polyval(coeffs, remaining) >= threshold:
            return remaining ** _POWERS @ rows, threshold, jumps, 0, crossings
        lo, hi = 0.0, remaining
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if np.polyval(coeffs, mid) > threshold:
                lo = mid
            else:
                hi = mid
        cur = hi ** _POWERS @ rows
        crossings.append(elapsed + hi)
        cumulative = np.cumsum(weights * np.sum(np.abs(ops @ cur) ** 2, axis=1))
        if cumulative.size == 0 or cumulative[-1] <= 0.0:
            return remaining ** _POWERS @ rows, threshold, jumps, 1, crossings
        xi = rng.uniform() * cumulative[-1]
        channel = np.searchsorted(cumulative, xi, side="right")
        jumped = ops[channel] @ cur
        cur = jumped / np.linalg.norm(jumped)
        jumps += 1
        threshold = rng.uniform()
        remaining, elapsed = remaining - hi, elapsed + hi
        if remaining <= 0.0:
            return cur, threshold, jumps, 0, crossings


def _zero_gen():
    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0]] * 4
    return build_generator(TMatrix(model_from_dict(doc)))


def _gksl(h, weights, ops):
    """The generator of Hamiltonian h and Kraus family (weights, ops)."""
    psi1 = sum(w * L.conj().T @ L for w, L in zip(weights, ops))
    gamma = 0.5 * psi1 + 1j * h       # keeps Psi(1) = Gamma + Gamma^+
    return GKSLGenerator(drift=gamma, hamiltonian=h, weights=weights, ops=ops)


def _strong_gen(rate=1.0):
    """Hand-built amplitude-damping-plus-dephasing generator with O(1) rates,
    strong enough that integrator error sits above the roundoff floor;
    `rate` scales both channel weights."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return _gksl(0.8 * sz, [0.9 * rate, 0.4 * rate], [sm, sz])


def _random_gen(rng, d, dt):
    """A random GKSL generator on d levels with d Kraus channels, scaled so
    that dt * ||L|| = 0.05 (L is linear in h and the weights together)."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    ops = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    h, weights = 0.5 * (a + a.conj().T), rng.uniform(0.1, 1.0, size=d)
    scale = 0.05 / (dt * np.linalg.norm(dual_generator_matrix(_gksl(h, weights, ops)), 2))
    return _gksl(scale * h, scale * weights, ops)


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


def _per_step_evolve(liouville, rho0, n_steps, dt):
    """Oracle for `evolve_master`: one `step @ y` per step, the trace drift
    checked after each.  Returns the states, or the first drift past 1e-6."""
    step = _taylor_step(liouville, dt)
    y = np.asarray(rho0, dtype=complex).reshape(-1)
    states = [y]
    for _ in range(n_steps):
        y = step @ y
        drift = abs(np.trace(y.reshape(rho0.shape)).real - 1.0)
        if not drift <= 1e-6:
            return drift
        states.append(y)
    return np.array(states).reshape(-1, *rho0.shape)


def _block_power_orbit(step, y0, n_steps, table_rows=256):
    """Oracle for `dynamics._orbit`: the powers S^1 ... S^b, each listed as
    S @ S^(j-1), and every block of up to b rows the stacked powers (b D, D)
    times the row before the block, over one orbit of n_steps rows.  b is
    min(table_rows, n_steps) within the 1 MiB table budget, and table_rows
    is evolve_master's 256 unless given; y0 is a vector or a (D, D) matrix
    of columns."""
    dim = step.shape[0]
    powers = [step]
    while len(powers) < min(table_rows, n_steps, (1 << 20) // (16 * dim * dim)):
        powers.append(step @ powers[-1])
    stacked = np.concatenate(powers)
    rows = [np.asarray(y0, dtype=complex)]
    while len(rows) <= n_steps:
        m = min(len(powers), n_steps + 1 - len(rows))
        rows.extend((stacked[:m * dim] @ rows[-1]).reshape(m, *rows[0].shape))
    return np.array(rows)


def _roundoff_bound(step, n_steps, y_max):
    """A first-order bound on |block-power orbit - per-step orbit| over
    n_steps, in the max norm.  A complex product of D terms errs by at most
    c u |A| |x| with c = 2 (D + 2) and u = 2^-53.  Each per-step product adds
    c u ||S|| Y, carried on by at most K = max_j ||S^j||, so the per-step
    orbit is off the exact one by n K c u ||S|| Y.  Each table power is off
    by j K^2 c u ||S||, and each block row adds c u K Y; carried over the
    blocks, the block orbit is off by about n K^3 c u ||S|| Y.  Their
    difference is within 3 n K^3 c u max(||S||, 1) Y."""
    dim = step.shape[0]
    k = np.abs(_block_power_orbit(step, np.eye(dim), n_steps)).sum(axis=-1).max()
    norm = max(np.abs(step).sum(axis=1).max(), 1.0)
    return 3.0 * n_steps * k ** 3 * 2.0 * (dim + 2) * 2.0 ** -53 * norm * y_max


def _assert_evolve_orbit(monkeypatch, gen, rho0, n_steps, dt):
    """evolve_master's states are the block-power oracle's bytes and lie
    within `_roundoff_bound` of the per-step loop; with the power table's
    budget at 0, so b = 1, they are the per-step loop's bytes."""
    liouville = dual_generator_matrix(gen)
    step = _taylor_step(liouville, dt)
    states = evolve_master(gen, rho0, n_steps * dt, dt).states
    y0 = np.asarray(rho0, dtype=complex).reshape(-1)
    assert states.tobytes() == _block_power_orbit(step, y0, n_steps).tobytes()
    per_step = _per_step_evolve(liouville, rho0, n_steps, dt)
    bound = _roundoff_bound(step, n_steps, np.abs(states).max())
    assert np.abs(states - per_step).max() <= bound
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_POWER_TABLE_BYTES", 0)
        one_row = evolve_master(gen, rho0, n_steps * dt, dt).states
    assert one_row.tobytes() == per_step.tobytes()


def test_evolve_bytes_match_per_step_loop(monkeypatch, nr_gen):
    # at b = 1 the kernel is the per-step gemv; at b = 256 each state is the
    # block oracle's and moves from the per-step loop at roundoff only.  On
    # the compressed tm_nr generator the move is 2.9e-15 against a bound of
    # 4.0e-12 here, and 4.6e-14 against 8.0e-11 over 40,000 steps: a margin
    # of about 1,400 and 1,700
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rho0 = np.outer(psi0, psi0.conj())
    for gen, t_max, dt in ((nr_gen.compressed(), 100.0, 0.05), (_strong_gen(), 3.0, 0.01)):
        n_steps = round(t_max / dt)
        assert n_steps > 256
        _assert_evolve_orbit(monkeypatch, gen, rho0, n_steps, dt)


def _vector_orbit(step, y0, n_steps, table_rows):
    """`dynamics._orbit` over n_steps from the vector y0, at a table of
    table_rows step powers."""
    flat = np.empty((n_steps + 1, y0.size), dtype=complex)
    flat[0] = y0
    dynamics._orbit(step, flat, table_rows)
    return flat


@pytest.mark.parametrize("d", [3, 4, 5])
def test_orbit_bytes_match_per_step_products_on_random_generators(monkeypatch, d):
    # over several blocks of the table each state of `_orbit` must be the
    # block oracle's bytes, within roundoff of `step @ y` per step, and its
    # bytes at b = 1, both at evolve_master's table and at a table of 23
    # rows.  At d = 5 (D = 25) evolve_master's 1 MiB table holds 104
    # powers, so its blocks do not end at multiples of 256 steps
    rng = np.random.default_rng(100 + d)
    dt, n_steps = 0.05, 2 * 256 + 7
    gen = _random_gen(rng, d, dt)
    _assert_evolve_orbit(monkeypatch, gen, random_density(rng, d), n_steps, dt)
    step = _taylor_step(-1j * (gen.hamiltonian - 0.5j * gen.psi_one), dt)
    c = [rng.standard_normal(d) + 1j * rng.standard_normal(d)]
    c[0] /= np.linalg.norm(c[0])
    for _ in range(n_steps):
        c.append(step @ c[-1])
    orbit = _vector_orbit(step, c[0], n_steps, 23)
    assert orbit.tobytes() == _block_power_orbit(step, c[0], n_steps, 23).tobytes()
    assert np.abs(orbit - c).max() <= _roundoff_bound(step, n_steps, 1.0)
    monkeypatch.setattr(dynamics, "_POWER_TABLE_BYTES", 0)
    assert _vector_orbit(step, c[0], n_steps, 23).tobytes() == np.array(c).tobytes()


def _digests_at_blas_threads(script):
    """The lines `script` prints in a fresh interpreter, so that
    OPENBLAS_NUM_THREADS takes effect, with BLAS on one and on two threads."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    digests = []
    for threads in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", script, str(ROOT / "tests")],
                              capture_output=True, text=True,
                              env={**env, "OPENBLAS_NUM_THREADS": threads})
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    return digests


# the SHA-256 of evolve_master's states and of a vector `_orbit` at a table
# of 25 rows on a random generator for each d, over a step count past
# several blocks of the table
_ORBIT_DIGEST_SCRIPT = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import test_dynamics as td
from conftest import random_density
from ldlgen.dynamics import _taylor_step, evolve_master
for d in (2, 3, 4, 5):
    rng = np.random.default_rng(300 + d)
    gen = td._random_gen(rng, d, 0.05)
    states = evolve_master(gen, random_density(rng, d), 600 * 0.05, 0.05).states
    step = _taylor_step(-1j * (gen.hamiltonian - 0.5j * gen.psi_one), 0.05)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    orbit = td._vector_orbit(step, psi / np.linalg.norm(psi), 600, 25)
    print(d, hashlib.sha256(states.tobytes() + orbit.tobytes()).hexdigest())
"""


def test_orbit_bytes_match_across_blas_threads():
    # from D = 9 on, a stacked product of up to 256 D rows is large enough
    # for OpenBLAS to split between threads; the states may not depend on it
    digests = _digests_at_blas_threads(_ORBIT_DIGEST_SCRIPT)
    assert len(digests[0]) == 8 and digests[0] == digests[1]


# the SHA-256 of unravel_jump's mean_states and stderr, with its jump
# counts, on random generators of d = 3 and 5 and on the compressed
# tm_nr_strong generator; the d = 5 generator is hand-built, so that no
# Choi matrix of a model build enters
_UNRAVEL_DIGEST_SCRIPT = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import test_dynamics as td
from conftest import MODELS
from ldlgen import TMatrix, load_model
from ldlgen.dynamics import unravel_jump
from ldlgen.generator import build_generator
runs = []
for d in (3, 5):
    gen = td._random_gen(np.random.default_rng(500 + d), d, 0.05)
    runs.append((gen, np.ones(d) / np.sqrt(d), 5.0, 2000, 7))
strong = build_generator(TMatrix(load_model(MODELS / "tm_nr_strong.json"))).compressed()
runs.append((strong, np.ones(2) / np.sqrt(2.0), 2.0, 9000, 2024))
for gen, psi0, t_max, m, seed in runs:
    ens = unravel_jump(gen, psi0, t_max, 0.05, m, seed)
    assert ens.jumps > 0
    digest = hashlib.sha256(ens.mean_states.tobytes() + ens.stderr.tobytes()).hexdigest()
    print(gen.dim, ens.jumps, ens.no_channel, digest)
"""


def test_unravel_bytes_match_across_blas_threads():
    digests = _digests_at_blas_threads(_UNRAVEL_DIGEST_SCRIPT)
    assert len(digests[0]) == 12 and digests[0] == digests[1]


def test_evolve_reports_first_trace_drift(monkeypatch):
    # a Liouvillian with uniform loss 2e-9 loses 1e-6 of the trace after
    # about 5,000 steps of 0.1: past the first block of the power table
    gen = _zero_gen()
    rho0 = np.diag([0.6, 0.4]).astype(complex)
    lossy = dual_generator_matrix(gen) - 2e-9 * np.eye(4)
    monkeypatch.setattr(dynamics, "dual_generator_matrix", lambda g: lossy)
    drift = _per_step_evolve(lossy, rho0, 10000, 0.1)
    assert isinstance(drift, float)
    message = f"trace drift {drift:.3e} exceeded 1e-6 during integration; use a smaller dt"
    with pytest.raises(NumericError) as err:
        evolve_master(gen, rho0, 1000.0, 0.1)
    assert str(err.value) == message


def test_evolve_reports_drift_before_overflow():
    # an anti-Hermitian "Hamiltonian" grows the trace by exp(0.08) per step
    # (dt * ||L|| = 0.08), so the 10,000-step orbit overflows; the first
    # step's drift is reported, without a RuntimeWarning from the overflow
    # (the test settings turn one into an error)
    gen = GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=0.4j * np.eye(2),
                        weights=[], ops=[])
    rho0 = np.diag([0.6, 0.4]).astype(complex)
    with pytest.raises(NumericError) as err:
        evolve_master(gen, rho0, 1000.0, 0.1)
    assert str(err.value) == ("trace drift 8.329e-02 exceeded 1e-6 during integration; "
                              "use a smaller dt")


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
    for trajectories in (2.5, True, "10", None):
        with pytest.raises(ValidationError, match="trajectories"):
            unravel_jump(nr_gen, psi, 1.0, 0.1, trajectories, seed=1)
    for seed in (-1, 1.5, False, float("nan")):
        with pytest.raises(ValidationError, match="seed"):
            unravel_jump(nr_gen, psi, 1.0, 0.1, 10, seed=seed)


@pytest.mark.parametrize("call", [
    pytest.param(lambda gen: evolve_master(gen, np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0, 0.1),
                 id="evolve_nan_rho0"),
    pytest.param(lambda gen: unravel_jump(gen, np.array([np.nan, 1.0]), 1.0, 0.1, 10, seed=1),
                 id="unravel_nan_psi0"),
    pytest.param(lambda gen: vacuum_decay(gen, float("nan")), id="vacuum_decay_nan_t"),
    pytest.param(lambda gen: vacuum_decay(gen, float("inf")), id="vacuum_decay_inf_t"),
])
def test_dynamics_rejects_non_finite_input(nr_gen, call):
    with pytest.raises(ValidationError, match="finite"):
        call(nr_gen)


@pytest.mark.parametrize("h, psi0, t_max, dt, trajectories, seed", [
    pytest.param([[0.4, 0.1], [0.1, -0.4]], [1.0, 0.0], 2.0, 0.02, 40, 9, id="short_fine_step"),
    # RK4 lost 2.1e-4 of the norm per step here, so thresholds were crossed
    # with no channel to fire; the exact no-jump map keeps the norm
    pytest.param([[1.0, 0.0], [0.0, -1.0]], [2 ** -0.5, 2 ** -0.5], 50.0, 0.5, 400, 7,
                 id="lossy_coarse_step"),
])
def test_unravel_empty_kraus_is_unitary(h, psi0, t_max, dt, trajectories, seed):
    gen = GKSLGenerator(drift=np.zeros((2, 2)),
                        hamiltonian=np.array(h, dtype=complex), weights=[], ops=[])
    psi0 = np.array(psi0)
    ens = unravel_jump(gen, psi0, t_max, dt, trajectories, seed=seed)
    assert (ens.jumps, ens.no_channel) == (0, 0)
    # identical trajectories: the spread is zero
    assert ens.stderr.max() == 0.0
    # every trajectory follows the exact unitary propagation
    exact = _exact_flow(gen.hamiltonian, psi0.astype(complex), ens.times)
    assert np.abs(ens.mean_states - exact[:, :, None] * exact[:, None, :].conj()).max() <= 1e-13


def test_unravel_identical_trajectories_across_chunks():
    # two full blocks of first draws and a partial one: identical
    # trajectories keep a zero spread
    h = np.array([[0.4, 0.1], [0.1, -0.4]], dtype=complex)
    gen = GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=h, weights=[], ops=[])
    psi0 = np.array([1.0, 0.0])
    ens = unravel_jump(gen, psi0, 1.0, 0.02, 2 * _CHUNK + 3, seed=4)
    exact = _exact_flow(h, psi0.astype(complex), ens.times)
    assert ens.stderr.max() == 0.0
    assert np.abs(ens.mean_states - exact[:, :, None] * exact[:, None, :].conj()).max() <= 1e-13


def _exact_flow(heff, phi, s):
    """expm(-i H_eff s) phi for each time in s: scipy's matrix exponential,
    independent of the eigendecomposition `unravel_jump` propagates with."""
    return expm(-1j * heff * np.asarray(s, dtype=float)[:, None, None]) @ phi


def _squared_norm(psi):
    return float(np.vdot(psi, psi).real)


def _exact_crossing(heff, phi, tau, threshold, lo, hi):
    """The time t in [lo, hi] at which the squared norm of the state phi,
    propagated exactly from time tau, falls to `threshold`: bisected until
    the midpoint is an end, and the end known below it."""
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if _squared_norm(_exact_flow(heff, phi, [mid - tau])[0]) >= threshold:
            lo = mid
        else:
            hi = mid
    return hi


def _per_trajectory_ensemble(gen, psi0, n_steps, dt, m, seed):
    """Oracle for `unravel_jump`: every trajectory run alone on exact
    propagation, each grid state scipy's expm of the time since the last
    jump applied to the state after it, and each crossing `_exact_crossing`
    in the first step whose state falls below the threshold.  Trajectory
    i's first threshold is draw i of the seed's stream, and its jumps draw
    from its own (seed, index) Generator.  A crossing no channel can fire is
    counted and ends the trajectory's jumps.  Returns the plain sample mean
    and standard error, the jumps fired by each trajectory and the
    crossings no channel could fire."""
    heff = gen.hamiltonian - 0.5j * gen.psi_one
    times = np.arange(n_steps + 1) * dt
    x = np.empty((m, n_steps + 1, gen.dim, gen.dim), dtype=complex)
    jumps, no_channel = np.zeros(m, dtype=int), 0
    for i, threshold in enumerate(_ensemble_stream(seed).random(m)):
        rng, testing = None, True
        phi, tau, k = psi0.astype(complex), 0.0, 1
        states = [phi]
        while k <= n_steps:
            ahead = _exact_flow(heff, phi, times[k:] - tau)
            below = np.flatnonzero(np.sum(np.abs(ahead) ** 2, axis=1) < threshold * testing)
            stop = below[0] if below.size else ahead.shape[0]
            states.extend(ahead[:stop])
            k += stop
            if k > n_steps:
                break
            t = _exact_crossing(heff, phi, tau, threshold, max(tau, times[k - 1]), times[k])
            cur = _exact_flow(heff, phi, [t - tau])[0]
            cumulative = np.cumsum(gen.weights * np.sum(np.abs(gen.ops @ cur) ** 2, axis=1))
            if cumulative.size == 0 or cumulative[-1] <= 0.0:
                no_channel, testing = no_channel + 1, False
                continue
            if rng is None:
                rng = dynamics._trajectory_rng(seed, i)
            channel = np.searchsorted(cumulative, rng.uniform() * cumulative[-1], side="right")
            jumped = gen.ops[channel] @ cur
            phi, tau, threshold = jumped / np.linalg.norm(jumped), t, rng.uniform()
            jumps[i] += 1
        normed = np.array(states) / np.linalg.norm(states, axis=1)[:, None]
        x[i] = normed[:, :, None] * normed[:, None, :].conj()
    mean = x.mean(axis=0)
    stderr = np.sqrt(np.sum(np.abs(x - mean) ** 2, axis=0) / (m * (m - 1)))
    return mean, stderr, jumps, no_channel


def _empty_family_gen():
    h = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return GKSLGenerator(drift=np.zeros((2, 2)), hamiltonian=h, weights=[], ops=[])


# tm_nr seeds 0 and 6 are the first two seeds >= 0 at which some trajectory
# of this run jumps
@pytest.mark.parametrize("case", ["tm_nr_seed_0", "tm_nr_seed_6", "strong", "tm_nr_strong",
                                  "random_d3"])
def test_moments_do_not_depend_on_the_work_budget(monkeypatch, nr_gen, case):
    # at a 20,000-byte budget the jumpers run in batches of at most 156
    # (d = 2) and their grid states in slices of at most 52 pairs, so the
    # merges cut each step's moments many times; every crossing keeps its
    # bits, and the moments move at roundoff only.  Each merge at a step
    # adds at least one sample, so a step sees at most m merges, and each
    # moves a mean whose entries lie in the unit disk by at most 4 u
    # (u = 2^-53), and the relative M2 by as much: the bound is 4 m u.
    # Measured: at most 8.9e-16 on the means and 1.0e-17 on the errors
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    if case.startswith("tm_nr_seed"):
        gen, t_max, dt, m, seed = nr_gen.compressed(), 20.0, 0.05, 20000, int(case[-1])
    elif case == "strong":
        gen, t_max, dt, m, seed = _strong_gen(), 2.0, 0.01, 1000, 123
    elif case == "tm_nr_strong":
        gen = build_generator(TMatrix(load_model(MODELS / "tm_nr_strong.json"))).compressed()
        t_max, dt, m, seed = 2.0, 0.05, 5000, 2024
    else:
        gen, t_max, dt, m, seed = _random_gen(np.random.default_rng(3), 3, 0.05), 5.0, 0.05, 600, 5
        psi0 = np.ones(3) / np.sqrt(3.0)
    want = unravel_jump(gen, psi0, t_max, dt, m, seed)
    monkeypatch.setattr(dynamics, "_WORK_BYTES", 20000)
    got = unravel_jump(gen, psi0, t_max, dt, m, seed)
    assert want.jumps > 0 and (got.jumps, got.no_channel) == (want.jumps, want.no_channel)
    bound = 4.0 * m * 2.0 ** -53
    assert np.abs(got.mean_states - want.mean_states).max() <= bound
    assert np.abs(got.stderr - want.stderr).max() <= bound * want.stderr.max()


def test_chunk_merge_matches_direct_moments(monkeypatch):
    # blocks of 4 first draws, so the merge runs over partial batches and,
    # in the weak case, over blocks holding both never-jumped and jumped
    # trajectories; with exact propagation the empty family crosses no
    # threshold
    psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    monkeypatch.setattr(dynamics, "_CHUNK", 4)
    for gen, t_max, dt, m, seed, who_jumps in (
            (_strong_gen(), 10.0, 0.05, 11, 3, "all"),
            (_strong_gen(0.1), 5.0, 0.02, 40, 5, "some"),
            (_empty_family_gen(), 50.0, 0.5, 40, 7, "none")):
        ens = unravel_jump(gen, psi0, t_max, dt, m, seed=seed)
        mean, stderr, jumps, no_channel = _per_trajectory_ensemble(
            gen, psi0, round(t_max / dt), dt, m, seed)
        assert np.abs(ens.mean_states - mean).max() <= 1e-14
        assert np.abs(ens.stderr - stderr).max() <= 1e-14
        assert ens.jumps == jumps.sum() and ens.no_channel == no_channel
        if who_jumps == "all":
            assert (jumps > 0).all() and stderr.max() > 0.05
        elif who_jumps == "some":
            jumped = (jumps > 0).reshape(-1, 4)
            assert (jumped.any(axis=1) & ~jumped.all(axis=1)).any()
        else:
            assert ens.jumps == 0 and ens.no_channel == 0


def _ensemble_stream(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _decay_gen(rate):
    """Amplitude damping alone: |1> decays at `rate` into |0>, which is dark."""
    sm = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    return _gksl(np.zeros((2, 2), dtype=complex), [rate], [sm])


def _first_thresholds(monkeypatch, m, seed):
    """The trajectories and first thresholds `unravel_jump` hands its
    `_jump_rounds` calls on a two-step run of m trajectories in which every
    one jumps (|1> decays at rate 1000), joined in call order."""
    seen, rounds = [], dynamics._jump_rounds

    def spy(gen, flow, times, psi0, index, u, *args):
        seen.append((index.copy(), u.copy()))
        return rounds(gen, flow, times, psi0, index, u, *args)

    monkeypatch.setattr(dynamics, "_jump_rounds", spy)
    ens = unravel_jump(_decay_gen(1000.0), np.array([0.0, 1.0]), 0.1, 0.05, m, seed)
    assert ens.jumps == m
    index, u = (np.concatenate(a) for a in zip(*seen))
    assert index.tolist() == list(range(m))
    return u


# seeds 2^70 + 3 and 2^200 + 17 have more than two and more than four
# 32-bit words
@pytest.mark.parametrize("seed", [0, 2024, 2 ** 70 + 3, 2 ** 200 + 17])
@pytest.mark.parametrize("m", [1, 1023, 1025, 9000])
def test_first_thresholds_are_the_ensemble_stream(monkeypatch, m, seed):
    # trajectory i's first threshold is draw i of the seed's one stream
    got = _first_thresholds(monkeypatch, m, seed)
    assert got.tobytes() == _ensemble_stream(seed).random(m).tobytes()


def test_first_thresholds_do_not_depend_on_the_chunk_size(monkeypatch):
    monkeypatch.setattr(dynamics, "_CHUNK", 4)
    for m in (1, 1023, 1025):
        for seed in (7, 2 ** 70 + 3):
            got = _first_thresholds(monkeypatch, m, seed)
            assert got.tobytes() == _ensemble_stream(seed).random(m).tobytes()


class _DrawLog:
    """A trajectory's Generator that records every uniform() it hands out."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def uniform(self):
        self.draws.append(self.rng.uniform())
        return self.draws[-1]


def test_jump_draws_are_the_spawned_stream_from_its_first_draw(monkeypatch):
    # a jump takes two draws, the channel's and then the next threshold's
    # (`test_closed_form_jumps_match_taylor_oracle`); the first channel
    # draw of a trajectory is the first uniform() of its spawned stream
    logs, trajectory_rng = {}, dynamics._trajectory_rng

    def logged(seed, index, *args):
        logs[index] = _DrawLog(trajectory_rng(seed, index, *args))
        return logs[index]

    monkeypatch.setattr(dynamics, "_trajectory_rng", logged)
    seed = 11
    ens = unravel_jump(_strong_gen(), np.array([1.0, 1.0]) / np.sqrt(2.0), 2.0, 0.01, 300, seed)
    assert ens.jumps > 0 and len(logs) > 1
    assert sum(len(log.draws) for log in logs.values()) == 2 * ens.jumps
    for index, log in logs.items():
        own = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            entropy=seed, spawn_key=(index,))))
        assert log.draws == [own.uniform() for _ in log.draws]


def test_unravel_rejects_more_trajectories_than_spawn_keys(monkeypatch):
    def never(*args):
        raise AssertionError("unravel_jump ran before rejecting its arguments")

    monkeypatch.setattr(dynamics, "_no_jump_flow", never)
    monkeypatch.setattr(dynamics, "_jump_rounds", never)
    with pytest.raises(ValidationError, match="the largest ensemble"):
        unravel_jump(_strong_gen(), np.array([1.0, 0.0]), 1.0, 0.1, MAX_TRAJECTORIES + 1, seed=1)


@pytest.mark.parametrize("threads", [0, -5, 1.5, "x", True, None])
def test_unravel_rejects_bad_thread_counts(monkeypatch, threads):
    def never(*args):
        raise AssertionError("unravel_jump ran before rejecting its arguments")

    monkeypatch.setattr(dynamics, "_no_jump_flow", never)
    monkeypatch.setattr(dynamics, "_jump_rounds", never)
    with pytest.raises(ValidationError, match="threads"):
        unravel_jump(_strong_gen(), np.array([1.0, 0.0]), 1.0, 0.1, 10, seed=1, threads=threads)


def test_unravel_rejects_norm_raising_step():
    # a Psi(1) with a negative eigenvalue makes a no-jump evolution that
    # raises norms: thresholds would stop being crossed and jumps stop
    # firing.  Kraus weights are nonnegative, so such a Psi(1) is set by hand
    gen, psi0 = _strong_gen(), np.array([0.0, 1.0])
    gen.psi_one = np.diag([0.4, -0.2]).astype(complex)
    with pytest.raises(ValidationError) as err:
        unravel_jump(gen, psi0, 2.0, 0.1, 200, seed=1)
    assert str(err.value) == ("Psi(1) has the eigenvalue -0.2 < 0: the no-jump evolution of "
                              "this generator would raise norms")
    with pytest.raises(ValidationError, match="trajectories"):
        unravel_jump(gen, psi0, 2.0, 0.1, 0, seed=1)
    # an eigenvalue of roundoff size passes, as -1e-13 does against the
    # bound 4e-13 here
    gen = _strong_gen()
    gen.psi_one = np.diag([0.4, -1e-13]).astype(complex)
    unravel_jump(gen, psi0, 2.0, 0.1, 20, seed=1)
    # dt only samples the grid: at dt = 10 the RK4 no-jump step of
    # _strong_gen had norm 365, and the run was refused
    assert unravel_jump(_strong_gen(), psi0, 200.0, 10.0, 200, seed=1).jumps > 0


def test_unravel_refuses_a_defective_effective_hamiltonian():
    # H_eff = g sigma_x - i Gamma |1><1| at Gamma = 2 g is an exceptional
    # point: its two eigenvectors coincide, and eig's are 1.7e-8 apart
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    gen = _gksl(0.5 * sx, [2.0], [np.diag([0.0, 1.0]).astype(complex)])
    with pytest.raises(NumericError) as err:
        unravel_jump(gen, np.array([1.0, 0.0]), 1.0, 0.1, 10, seed=1)
    assert str(err.value).startswith("H_eff is not diagonalizable to working accuracy: its "
                                     "eigenvector matrix has condition number 8.")
    assert str(err.value).endswith("> 1e+06")


def test_crossing_no_channel_can_fire_is_counted():
    # with exact propagation the norm falls at the rate sum_j w_j ||L_j psi||^2,
    # so a crossing always has a channel to fire unless Psi(1) and the Kraus
    # family disagree, or a norm that should stay 1 rounds below a threshold
    # just under 1.  Here Psi(1) is set by hand on an empty family: each
    # crossing is counted, fires nothing, and its trajectory goes on along
    # the cohort
    gen = _gksl(np.zeros((2, 2), dtype=complex), [], [])
    gen.psi_one = np.diag([1.0, 0.0]).astype(complex)
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ens = unravel_jump(gen, psi0, 5.0, 0.05, 200, seed=3)
    cohort = _exact_flow(gen.heff, psi0.astype(complex), ens.times)
    crossed = _ensemble_stream(3).random(200) > _squared_norm(cohort[-1])
    assert ens.jumps == 0 and ens.no_channel == crossed.sum() > 50
    normed = cohort / np.linalg.norm(cohort, axis=1)[:, None]
    assert np.abs(ens.mean_states - normed[:, :, None] * normed[:, None, :].conj()).max() <= 1e-15
    assert ens.stderr.max() == 0.0


def test_unravel_means_do_not_depend_on_the_grid():
    # the no-jump evolution is exact and each crossing time the root of its
    # closed-form norm, so dt only samples the trajectories: halving it
    # keeps every jump, and the means at shared times agree at roundoff
    # (the RK4 route moved them by 9.5e-9 here, with 362 jumps each)
    gen, psi0 = _strong_gen(), np.array([1.0, 1.0]) / np.sqrt(2.0)
    coarse = unravel_jump(gen, psi0, 2.0, 0.05, 300, 5)
    fine = unravel_jump(gen, psi0, 2.0, 0.025, 300, 5)
    assert coarse.jumps == fine.jumps == 362
    assert np.abs(coarse.mean_states - fine.mean_states[::2]).max() <= 1e-12
    assert np.abs(coarse.stderr - fine.stderr[::2]).max() <= 1e-12


def test_unravel_bitwise_reproducible_across_threads(nr_gen):
    # the compressed tm_nr generator fires about one jump; _strong_gen puts
    # the jump path under the same contract
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    for gen in (nr_gen.compressed(), _strong_gen()):
        runs = [unravel_jump(gen, psi0, 4.0, 0.05, 600, seed=77, threads=k)
                for k in (1, 2, 4)]
        for other in runs[1:]:
            assert other.jumps == runs[0].jumps
            for a, b in zip(runs[0].mean_states, other.mean_states):
                assert np.array_equal(a, b)
            for a, b in zip(runs[0].stderr, other.stderr):
                assert np.array_equal(a, b)
    assert runs[0].jumps > 0


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


def test_criterion_08_ensemble_on_a_model_whose_trajectories_jump():
    # criterion 08's ensemble and band on models/tm_nr_strong.json (coupling
    # sigma_x, ten times tm_nr's), where trajectories jump over a thousand times
    gen = build_generator(TMatrix(load_model(MODELS / "tm_nr_strong.json"))).compressed()
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    t_max, dt, m = 20.0, 0.05, 20000
    ens = unravel_jump(gen, psi0, t_max, dt, m, seed=2024, threads=1)
    ens4 = unravel_jump(gen, psi0, t_max, dt, m, seed=2024, threads=4)
    assert ens.jumps >= 1000 and ens4.jumps == ens.jumps
    assert all(np.array_equal(a, b) for a, b in zip(ens.mean_states, ens4.mean_states))
    traj = evolve_master(gen, np.outer(psi0, psi0.conj()), t_max, dt)
    steps_per_checkpoint = len(traj.states) // 10
    for k in range(steps_per_checkpoint, len(traj.states), steps_per_checkpoint):
        diff = np.abs(ens.mean_states[k] - traj.states[k])
        assert (diff <= np.maximum(4.0 * ens.stderr[k], 2e-2)).all()


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


def _csv_lines_per_scalar(times, states):
    """Oracle for `trajectory_csv_lines`: one float() and repr per scalar."""
    dim = states[0].shape[0]
    header = ["t"]
    header += [f"re_{i}{j}" for i in range(dim) for j in range(dim)]
    header += [f"im_{i}{j}" for i in range(dim) for j in range(dim)]
    yield ",".join(header)
    for t, state in zip(times, states):
        flat = state.reshape(-1)
        row = [repr(float(t))]
        row += [repr(float(z.real)) for z in flat]
        row += [repr(float(z.imag)) for z in flat]
        yield ",".join(row)


def test_trajectory_csv_bytes_match_per_scalar_oracle(nr_gen):
    rho0 = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
    traj = evolve_master(nr_gen, rho0, 20.0, 0.05)
    cases = [(traj.times, traj.states)]
    rng = np.random.default_rng(11)
    states = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
    states[1, 0, 0] = complex(-0.0, -0.0)
    states[2, 1, 2] = complex(5e-324, -2.5e-310)      # subnormal real and imaginary
    states[3, 2, 1] = complex(-np.finfo(float).tiny / 3, 0.0)
    states[4] = 1e300
    times = np.arange(7) * 0.1
    times[0] = -0.0
    cases.append((times, states))
    for times, states in cases:
        new = list(trajectory_csv_lines(times, states))
        assert new == list(_csv_lines_per_scalar(times, states))
    fields = [line.split(",") for line in new]
    assert fields[1][0] == "-0.0" and fields[2][1] == fields[2][10] == "-0.0"
    assert fields[3][6] == "5e-324" and fields[3][15] == "-2.5e-310"


def _resolve_jumps_rebuilt(psi_row, remaining, threshold, rng, heff, weights, ops):
    """Oracle for `_resolve_jumps`: rebuilds the RK4 step map for every
    trial time of the bisection and measures the propagated vector's norm.
    Returns (state, threshold, channels fired in order)."""
    channels = []
    cur = psi_row
    while True:
        after = _taylor_step(-1j * heff, remaining) @ cur
        if float(np.vdot(after, after).real) >= threshold:
            return after, threshold, channels
        lo, hi = 0.0, remaining
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            trial = _taylor_step(-1j * heff, mid) @ cur
            if float(np.vdot(trial, trial).real) > threshold:
                lo = mid
            else:
                hi = mid
        cur = _taylor_step(-1j * heff, hi) @ cur
        cumulative = np.cumsum(weights * np.sum(np.abs(ops @ cur) ** 2, axis=1))
        if cumulative.size == 0 or cumulative[-1] <= 0.0:
            return after, threshold, channels
        xi = rng.uniform() * cumulative[-1]
        channel = int(np.searchsorted(cumulative, xi, side="right"))
        channels.append(channel)
        jumped = ops[channel] @ cur
        cur = jumped / np.linalg.norm(jumped)
        threshold = rng.uniform()
        remaining = remaining - hi
        if remaining <= 0.0:
            return cur, threshold, channels


class _ReplayDraws:
    """Stand-in RNG that returns a fixed list of uniform draws in order."""

    def __init__(self, draws):
        self.draws, self.used = draws, 0

    def uniform(self):
        self.used += 1
        return self.draws[self.used - 1]


class _ChannelLog(np.ndarray):
    """Kraus stack that records the channel j of every lookup ops[j]."""

    def __array_finalize__(self, obj):
        self.picked = getattr(obj, "picked", None)

    def __getitem__(self, key):
        if self.ndim == 3 and isinstance(key, (int, np.integer)):
            self.picked.append(int(key))
        return super().__getitem__(key)


def test_zero_draw_never_picks_a_zero_probability_channel(monkeypatch):
    # at the jump |0> is annihilated by channel 0 (probability 0); a draw of
    # exactly 0 must still pick channel 1, the first with positive weight.
    # The next threshold, 0, is never crossed
    weights = np.array([1.0, 1.0])
    ops = np.array([[[0.0, 1.0], [0.0, 0.0]],
                    [[0.0, 0.0], [1.0, 0.0]]], dtype=complex)
    gen = _gksl(np.zeros((2, 2), dtype=complex), weights, ops)
    monkeypatch.setattr(dynamics, "_trajectory_rng", lambda seed, index: _ReplayDraws([0.0, 0.0]))
    # a seed whose first threshold lies above the no-jump norm e^-2 at t = 2
    seed = next(s for s in range(100) if _ensemble_stream(s).random() > np.exp(-2.0))
    ens = unravel_jump(gen, np.array([1.0, 0.0]), 2.0, 0.5, 1, seed)
    assert (ens.jumps, ens.no_channel) == (1, 0)
    assert np.isfinite(ens.mean_states).all()
    assert ens.mean_states[-1, 0, 0] == 0.0 and abs(ens.mean_states[-1, 1, 1] - 1.0) <= 1e-15


def _jumped_channel(gen, psi, after):
    """The channel j whose normalized L_j psi is `after`, up to a phase."""
    lpsi = gen.ops @ psi
    overlap = np.abs(lpsi.conj() @ after) / np.maximum(np.linalg.norm(lpsi, axis=1), 1e-300)
    return int(np.argmax(overlap))


def test_closed_form_jumps_match_taylor_oracle(monkeypatch):
    # one grid step of `remaining` from a random state through several
    # jumps, by unravel_jump's rounds and by the RK4 Taylor oracle
    # `_resolve_jumps`, on the same draws.  The bound is RK4's: with
    # A = -i H_eff and h <= remaining, the Taylor remainder gives
    # ||e^{Ah} - P_4(Ah)|| <= eps = (||A|| h)^5 / 5! e^{||A|| h}.  A state
    # error e at the start of a stretch and eps move its squared norm by at
    # most 2 (e + eps)(1 + e + eps); the norm falls at least at
    # lambda_min(Psi(1)) u >= 0.4 * 0.995, so the crossing moves by at most
    # that over 0.398, plus the bisection's remaining 2^-48; the state there
    # by e + eps + ||A|| dtau; and the state after the jump, L psi / ||L psi||,
    # by 2 ||L|| / ||L psi|| times that.  The closed form is exact to
    # roundoff, so the whole difference is the oracle's
    gen = _strong_gen()
    heff, flow = gen.heff, dynamics._no_jump_flow(gen)
    a_norm, rate = np.linalg.norm(heff, 2), np.linalg.eigvalsh(gen.psi_one)[0]
    rng = np.random.default_rng(12)
    most, worst = 0, 0.0
    for _ in range(40):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        # long enough that the first threshold, 0.999, is crossed
        remaining = float(rng.uniform(0.005, 0.02))
        draws = np.column_stack([rng.uniform(size=20),
                                 rng.uniform(0.995, 0.9995, size=20)]).ravel().tolist()
        want, _, jumps, no_channel, crossings = _resolve_jumps(
            psi, remaining, 0.999, _ReplayDraws(draws), heff, gen.weights, gen.ops)
        replay = _ReplayDraws(draws)
        monkeypatch.setattr(dynamics, "_trajectory_rng", lambda seed, index: replay)
        (_, _, start, coef), counts = dynamics._jump_rounds(
            gen, flow, np.array([0.0, remaining]), psi, np.array([0]), np.array([0.999]),
            np.array([1]), 0)
        assert counts.tolist() == [jumps, no_channel] and replay.used == 2 * jumps
        assert start.size == len(crossings) == jumps >= 1
        eps = (a_norm * remaining) ** 5 / 120.0 * np.exp(a_norm * remaining)
        err, before = 0.0, (np.linalg.solve(flow[1], psi), 0.0)
        for tau, want_tau, after in zip(start, crossings, coef):
            dtau = 2.0 * (err + eps) * (1.0 + err + eps) / (rate * 0.995) + remaining * 2.0 ** -48
            assert abs(tau - want_tau) <= dtau
            at = dynamics._propagate(flow, before[0], np.array(tau - before[1]))
            after = flow[1] @ after
            op = gen.ops[_jumped_channel(gen, at, after)]
            err = 2.0 * np.linalg.norm(op, 2) / np.linalg.norm(op @ at) * (
                err + eps + a_norm * dtau)
            before = (flow[2] @ after, tau)
        got = dynamics._propagate(flow, coef[-1], np.array(remaining - start[-1]))
        assert np.abs(got - want).max() <= err + eps
        most, worst = max(most, jumps), max(worst, np.abs(got - want).max() / (err + eps))
    # the oracle's error reaches 1.5 % of the bound (seed 12)
    assert most >= 3 and worst > 1e-3
def test_resolve_jumps_matches_rebuilt_step_oracle():
    gen = _strong_gen()
    heff = gen.hamiltonian - 0.5j * gen.psi_one
    rng = np.random.default_rng(11)
    fired = []
    for _ in range(40):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        remaining = float(rng.uniform(0.002, 0.02))
        # channel draws alternate with thresholds near 1, so an interval
        # holds several jumps
        draws = np.column_stack([rng.uniform(size=20),
                                 rng.uniform(0.995, 0.9995, size=20)]).ravel().tolist()
        ref = _ReplayDraws(draws)
        want, want_thr, channels = _resolve_jumps_rebuilt(psi, remaining, 0.999, ref, heff,
                                                          gen.weights, gen.ops)
        ops = gen.ops.copy().view(_ChannelLog)
        ops.picked = []
        got_rng = _ReplayDraws(draws)
        got, got_thr, jumps, no_channel, _ = _resolve_jumps(psi, remaining, 0.999, got_rng, heff,
                                                            gen.weights, ops)
        assert ops.picked == channels and (jumps, no_channel) == (len(channels), 0)
        assert got_rng.used == ref.used and got_thr == want_thr
        assert np.abs(np.asarray(got) - want).max() <= 1e-12
        fired.append(channels)
    assert {0, 1} <= {c for chans in fired for c in chans}
    assert max(len(chans) for chans in fired) >= 3


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
