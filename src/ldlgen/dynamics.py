"""Reduced dynamics: master-equation integration and jump unravelling.

The master equation is integrated with classical fixed-step 4th-order
Runge-Kutta on the vectorized equation; for this autonomous linear
system one RK4 step is exactly the degree-4 Taylor polynomial of the
step map, which is precomputed once.

The Monte-Carlo unravelling is the standard norm-loss construction
(Dalibard, Castin and Molmer, PRL 68, 580 (1992)): deterministic drift
under H_eff = H - (i/2) Psi(1), a jump when the squared norm crosses a
uniform threshold (located by bisection inside the step), channel j chosen
with probability proportional to w_j ||L_j psi||^2.  The jump
probabilities of the whole stacked Kraus family are one contraction, and
the channel is the first whose cumulative weight exceeds the uniform draw,
so a channel of zero probability is never chosen.  Per-trajectory RNG
streams derive from (seed, trajectory index), and the ensemble runs
serially over fixed-size index chunks added in index order, so results are
bitwise reproducible.  (Threads gained nothing: the per-step work is small
numpy calls and Python loops that hold the GIL.)

Trajectories are stored as (steps + 1, d, d) arrays.  Their size is fixed
before anything is allocated: (steps + 1) * d^2 may not exceed
MAX_STORED_ENTRIES, so a step count that would exhaust memory is a
validation error.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import NumericError, ValidationError
from .generator import dual_generator_matrix

_CHUNK = 1024
_BISECTION_ITERS = 48
# Largest stored trajectory, in matrix entries: (steps + 1) * d^2.  At
# d = 2 that is 1,048,575 steps, 64 MiB for a complex trajectory.
MAX_STORED_ENTRIES = 1 << 22


@dataclass
class DensityTrajectory:
    times: np.ndarray
    states: np.ndarray = field(repr=False)        # (steps + 1, d, d)


@dataclass
class JumpEnsemble:
    trajectories: int
    seed: int
    times: np.ndarray
    mean_states: np.ndarray = field(repr=False)   # (steps + 1, d, d)
    stderr: np.ndarray = field(repr=False)        # (steps + 1, d, d)


def _validate_density(rho, dim):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValidationError("initial state dimension does not match the generator")
    if np.linalg.norm(rho - rho.conj().T) > 1e-9:
        raise ValidationError("initial state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-12:
        raise ValidationError("initial state does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValidationError("initial state is not positive semidefinite")
    return rho


def _validate_pure_state(psi, dim):
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if psi.size != dim:
        raise ValidationError("psi0 dimension does not match the generator")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValidationError("psi0 must be normalized")
    return psi


def _taylor_step(matrix, h):
    """One classical RK4 step map for y' = matrix @ y (its exact form
    for a linear autonomous system)."""
    a = h * matrix
    out = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in (1.0, 2.0, 3.0, 4.0):
        term = term @ a / k
        out = out + term
    return out


def _step_count(t_max, dt, dim):
    """Number of fixed steps of size dt covering [0, t_max], for a stored
    trajectory of (steps + 1) d x d matrices within MAX_STORED_ENTRIES."""
    if not (dt > 0 and t_max >= 0):
        raise ValidationError("t_max must be >= 0 and dt > 0")
    if not math.isfinite(t_max / dt):
        raise ValidationError("t_max/dt is not a finite step count")
    n_steps = int(round(t_max / dt))
    if (n_steps + 1) * dim * dim > MAX_STORED_ENTRIES:
        raise ValidationError(
            f"{n_steps} steps at dimension {dim} exceed the stored-trajectory "
            f"budget of {MAX_STORED_ENTRIES} matrix entries; raise dt or lower t_max")
    return n_steps


def evolve_master(gen, rho0, t_max, dt):
    """Integrate rho' = Theta0*(rho) storing the state at every step."""
    n_steps = _step_count(t_max, dt, gen.dim)
    rho0 = _validate_density(rho0, gen.dim)
    liouville = dual_generator_matrix(gen)
    if dt * np.linalg.norm(liouville, 2) >= 0.1:
        raise ValidationError("dt too large for this generator: require dt*||L|| < 0.1")
    step = _taylor_step(liouville, dt)
    states = np.empty((n_steps + 1, gen.dim, gen.dim), dtype=complex)
    states[0] = rho0
    y = rho0.reshape(-1)
    for k in range(1, n_steps + 1):
        y = step @ y
        rho = y.reshape(gen.dim, gen.dim)
        drift = abs(np.trace(rho).real - 1.0)
        if drift > 1e-6:
            raise NumericError(
                f"trace drift {drift:.3e} exceeded 1e-6 during integration; "
                "use a smaller dt"
            )
        states[k] = rho
    times = np.arange(n_steps + 1) * dt
    return DensityTrajectory(times=times, states=states)


def vacuum_decay(gen, t):
    """Vacuum expectation of the limiting evolution operator, exp(-Gamma t)."""
    if t < 0:
        raise ValidationError("t must be >= 0")
    return expm(-gen.drift * t)


def _apply_matrix(matrix, psi):
    """psi @ matrix.T with a fixed accumulation order (columns of psi),
    so each trajectory row is computed identically regardless of batching."""
    d = matrix.shape[0]
    out = np.zeros_like(psi)
    for i in range(d):
        acc = matrix[i, 0] * psi[:, 0]
        for k in range(1, d):
            acc = acc + matrix[i, k] * psi[:, k]
        out[:, i] = acc
    return out


def _norm_sq(psi):
    d = psi.shape[1]
    acc = np.abs(psi[:, 0]) ** 2
    for i in range(1, d):
        acc = acc + np.abs(psi[:, i]) ** 2
    return acc


def _resolve_jumps(psi_row, remaining, threshold, rng, heff, weights, ops):
    """Advance one trajectory through `remaining` time, applying jumps.

    psi_row is the unnormalized state at the start of the interval, known
    to cross `threshold` before its end; weights (K,) and ops (K, d, d) are
    the stacked Kraus family.  Returns (state, threshold)."""
    cur = psi_row
    while True:
        full = _taylor_step(-1j * heff, remaining)
        after = full @ cur
        if float(np.vdot(after, after).real) >= threshold:
            return after, threshold
        lo, hi = 0.0, remaining
        for _ in range(_BISECTION_ITERS):
            mid = 0.5 * (lo + hi)
            trial = _taylor_step(-1j * heff, mid) @ cur
            if float(np.vdot(trial, trial).real) > threshold:
                lo = mid
            else:
                hi = mid
        t_jump = hi
        cur = _taylor_step(-1j * heff, t_jump) @ cur
        cumulative = np.cumsum(weights * _norm_sq(ops @ cur))
        if cumulative.size == 0 or cumulative[-1] <= 0.0:
            # norm lost with no channel able to fire (integrator loss, or an
            # empty Kraus family): no jump, so finish the interval unjumped
            return after, threshold
        # first channel whose cumulative weight exceeds xi < total: its own
        # weight is positive, even for a draw of exactly 0
        xi = rng.uniform() * cumulative[-1]
        channel = np.searchsorted(cumulative, xi, side="right")
        jumped = ops[channel] @ cur
        cur = jumped / np.linalg.norm(jumped)
        threshold = rng.uniform()
        remaining = remaining - t_jump
        if remaining <= 0.0:
            return cur, threshold


def _run_chunk(start, stop, psi0, seed, step, heff, weights, ops, dt, n_steps):
    d = psi0.size
    n = stop - start
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(idx,))))
            for idx in range(start, stop)]
    thresholds = np.array([rng.uniform() for rng in rngs])
    psi = np.tile(psi0, (n, 1))
    sum1 = np.zeros((n_steps + 1, d, d), dtype=complex)
    sum2 = np.zeros((n_steps + 1, d, d), dtype=float)

    def accumulate(k):
        nrm = _norm_sq(psi)
        normed = psi / np.sqrt(nrm)[:, None]
        for i in range(d):
            for j in range(d):
                entry = normed[:, i] * np.conj(normed[:, j])
                sum1[k, i, j] = np.sum(entry)
                sum2[k, i, j] = np.sum(np.abs(entry) ** 2)

    accumulate(0)
    for k in range(1, n_steps + 1):
        advanced = _apply_matrix(step, psi)
        crossed = np.nonzero(_norm_sq(advanced) < thresholds)[0]
        for idx in crossed:
            state, thr = _resolve_jumps(psi[idx].copy(), dt, thresholds[idx],
                                        rngs[idx], heff, weights, ops)
            advanced[idx] = state
            thresholds[idx] = thr
        psi = advanced
        accumulate(k)
    return sum1, sum2


def unravel_jump(gen, psi0, t_max, dt, trajectories, seed, threads=1):
    """Monte-Carlo wave-function ensemble for the generator's dual dynamics.

    Returns the ensemble mean of |psi><psi| (normalized states) at every
    step together with the componentwise Monte-Carlo standard error.
    Fixed (seed, trajectories, dt) give bitwise-identical results.
    ``threads`` is accepted for compatibility and has no effect: the
    ensemble always runs serially (see the module docstring).
    """
    if trajectories <= 0:
        raise ValidationError("trajectories must be > 0")
    n_steps = _step_count(t_max, dt, gen.dim)
    psi0 = _validate_pure_state(psi0, gen.dim)

    heff = gen.hamiltonian - 0.5j * gen.psi_one
    step = _taylor_step(-1j * heff, dt)

    d = gen.dim
    total1 = np.zeros((n_steps + 1, d, d), dtype=complex)
    total2 = np.zeros((n_steps + 1, d, d), dtype=float)
    for start in range(0, trajectories, _CHUNK):
        s1, s2 = _run_chunk(start, min(start + _CHUNK, trajectories), psi0, seed,
                            step, heff, gen.weights, gen.ops, dt, n_steps)
        total1 += s1
        total2 += s2
    m = float(trajectories)
    mean = total1 / m
    if trajectories > 1:
        var = np.maximum(total2 / m - np.abs(mean) ** 2, 0.0)
        stderr = np.sqrt(var * (m / (m - 1.0)) / m)
    else:
        stderr = np.zeros_like(total2)
    times = np.arange(n_steps + 1) * dt
    return JumpEnsemble(trajectories=trajectories, seed=seed, times=times,
                        mean_states=mean, stderr=stderr)


def trajectory_csv_lines(times, states):
    """Rows of the trajectory CSV: t, Re rho (row-major), Im rho."""
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
