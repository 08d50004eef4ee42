"""Reduced dynamics: master-equation integration and jump unravelling.

The master equation is integrated with classical fixed-step 4th-order
Runge-Kutta on the vectorized equation; for this autonomous linear
system one RK4 step is exactly the degree-4 Taylor polynomial of the
step map S, which is precomputed once.  The step is fixed, so the k-th
state of a block is S^k applied to the state before the block: `_orbit`,
which `evolve_master` and the no-jump cohort below each call once,
tabulates S^1 ... S^b, each power S times the one before, and fills the
trajectory in blocks of up to b rows, each one product of the stacked
table (b D, D) and the state before the block.  b is at most the steps,
and the table keeps within 1 MiB, so that it stays in cache; b is 1 from
D = 256 (d = 16) on, where the product is the per-step gemv `step @ y`
with its bytes.  `evolve_master` tabulates up to 256 powers (104 at
D = 25); the cohort ceil(sqrt(steps)), the fewest products, b for the
table and steps / b for the blocks.  A block's states differ from the
per-step product at roundoff (at most 4.6e-14 over 40,000 steps of the
compressed tm_nr generator).  The trace drift is checked once, over all
stored states, and the first offending step is reported.

The Monte-Carlo unravelling is the standard norm-loss construction
(Dalibard, Castin and Molmer, PRL 68, 580 (1992)): drift under
H_eff = H - (i/2) Psi(1), a jump when the squared norm crosses a uniform
threshold, channel j chosen with probability proportional to
w_j ||L_j psi||^2 (the first channel whose cumulative weight exceeds the
draw, so a zero-probability channel never fires).  Every trajectory starts
from psi0 and follows the same no-jump evolution c_k = step^k psi0 until
its first jump, so that evolution is integrated once per call (the
cohort): trajectory i first jumps at the first step k >= 1 where
||c_k||^2 falls below its first threshold u_i, found for a whole chunk by
one search against the running minimum of ||c_k||^2.  A no-jump step whose
2-norm exceeds 1 (+1e-12) is rejected: it would raise norms, so thresholds
would stop being crossed and jumps would stop firing.  Before a chunk's
earliest first jump its moments are those of the cohort alone; after it,
only the jumped trajectories are stepped, one matmul for the batch, and
each newcomer enters through the jump resolution from c_{k-1}.  Inside a
crossing step the state is sum_k tau^k v_k over the Taylor rows
v_k = (-i H_eff)^k psi / k!, and the crossing time is a bisection on its
squared norm, a degree-8 polynomial.  Each chunk keeps two-pass moments of
|psi><psi| (the mean and M2, the sum of |x - mean|^2): the jumped batch's
are merged with the cohort's (its projector, M2 = 0) at every step, and
the chunks are merged in index order, both by the update of Chan, Golub
and LeVeque (Am. Stat. 37, 242 (1983)).  The batch's states are held
while it keeps its size, up to 1 MiB of their |psi><psi| samples, and
their moments and merges are taken in one call per run of held steps.
The held steps' products run ahead of the threshold test, which finds the
first crossing among them in one call (`_advance`).  Each step's values
are the bytes of a product, a test and a moment call per step.

RNG streams derive from the seed.  Trajectory i's first threshold is draw i
of one ensemble stream, Generator(PCG64(SeedSequence(entropy=seed))), which
each chunk takes in index order by `random(n)`; PCG64 spends one 64-bit
output per double, so the chunk size moves no draw.  A trajectory that
jumps draws the rest from its own stream, Generator(PCG64(SeedSequence(
entropy=seed, spawn_key=(i,)))), built at its first jump: its first draw
picks that jump's channel.  SeedSequence keeps the spawned streams
independent of the ensemble's (O'Neill, HMC-CS-2014-0905 (2014)).  The
ensemble runs serially (threads gained nothing: the work holds the GIL),
so results are bitwise reproducible.

Trajectories are stored as (steps + 1, d, d) arrays; (steps + 1) * d^2 may
not exceed MAX_STORED_ENTRIES, so a step count that would exhaust memory
is a validation error.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError, _array, _count, _real
from .generator import dual_generator_matrix

_CHUNK = 1024
_BISECTION_ITERS = 48
# the jumped batch's states held for one `_moments` call make at most this
# many bytes of |psi><psi| samples
_MOMENT_BYTES = 1 << 20
# `evolve_master`'s `_orbit` tabulates at most this many step powers, so it
# steps at most this many rows per product
_TABLE_ROWS = 256
# the table of step powers stays within this many bytes, so it stays in
# cache; from D = 256 (d = 16) on it holds the step alone
_POWER_TABLE_BYTES = 1 << 20
# Gram entry (j, k) of the Taylor rows feeds the tau^(j + k) coefficient of
# the squared norm; _POWERS are the exponents of tau in the step polynomial
_POWERS = np.arange(5)
_GRAM_DEGREE = np.add.outer(_POWERS, _POWERS).ravel()
# Largest stored trajectory, in matrix entries: (steps + 1) * d^2.  At
# d = 2 that is 1,048,575 steps, 64 MiB for a complex trajectory.
MAX_STORED_ENTRIES = 1 << 22
# Largest ensemble accepted: a bound on the run's length, not on the streams,
# which take any trajectory index
MAX_TRAJECTORIES = 1 << 32


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
    jumps: int = 0          # jumps fired over the ensemble
    no_channel: int = 0     # threshold crossings no channel could fire


def _validate_density(rho, dim):
    rho = _array(rho, (dim, dim), "initial state")
    if np.linalg.norm(rho - rho.conj().T) > 1e-9:
        raise ValidationError("initial state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9 or abs(np.trace(rho).imag) > 1e-12:
        raise ValidationError("initial state does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValidationError("initial state is not positive semidefinite")
    return rho


def _validate_pure_state(psi, dim):
    psi = _array(np.ravel(psi), (dim,), "psi0")
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
    t_max, dt = _real(t_max, "t_max"), _real(dt, "dt")
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


def _orbit(step, flat, table_rows):
    """Rows 1 ... n - 1 of the C-contiguous (n, D) array `flat`, written in
    place from row 0 in blocks of up to b rows: row k of a block that starts
    at row s is S^(k - s + 1) flat[s - 1], with b = min(table_rows, n - 1,
    _POWER_TABLE_BYTES // (16 D^2)), at least 1.

    The powers S^1 ... S^b are tabulated once, each the step times the one
    before, S^j = S @ S^(j-1).  A block is one product of the stacked powers
    (b D, D) with the row before it, written straight into the block's rows.
    At b = 1 this is the gemv `step @ y` of every row."""
    rows, dim = flat.shape[0], step.shape[0]
    b = max(1, min(table_rows, rows - 1, _POWER_TABLE_BYTES // (16 * dim * dim)))
    powers = np.empty((b, dim, dim), dtype=complex)
    powers[0] = step
    for j in range(1, b):
        np.dot(step, powers[j - 1], out=powers[j])
    stacked = powers.reshape(b * dim, dim)
    for start in range(1, rows, b):
        stop = min(start + b, rows)
        np.dot(stacked[:(stop - start) * dim], flat[start - 1],
               out=flat[start:stop].reshape(-1))


def evolve_master(gen, rho0, t_max, dt):
    """Integrate rho' = Theta0*(rho) storing the state at every step."""
    n_steps = _step_count(t_max, dt, gen.dim)
    rho0 = _validate_density(rho0, gen.dim)
    liouville = dual_generator_matrix(gen)
    if dt * np.linalg.norm(liouville, 2) >= 0.1:
        raise ValidationError("dt too large for this generator: require dt*||L|| < 0.1")
    states = np.empty((n_steps + 1, gen.dim, gen.dim), dtype=complex)
    states[0] = rho0
    # a growing generator may overflow the states after its first offending
    # step; only that first step is reported
    with np.errstate(over="ignore", invalid="ignore"):
        _orbit(_taylor_step(liouville, dt), states.reshape(n_steps + 1, -1), _TABLE_ROWS)
        drift = np.abs(np.einsum("kii->k", states[1:].real) - 1.0)
    bad = np.flatnonzero(~(drift <= 1e-6))
    if bad.size:
        raise NumericError(f"trace drift {drift[bad[0]]:.3e} exceeded 1e-6 during "
                           "integration; use a smaller dt")
    times = np.arange(n_steps + 1) * dt
    return DensityTrajectory(times=times, states=states)


def vacuum_decay(gen, t):
    """Vacuum expectation of the limiting evolution operator, exp(-Gamma t).

    scipy is imported here, not at module level: this is its only use in
    ldlgen, and importing scipy.linalg would add about 0.3 s to every CLI
    start-up."""
    if _real(t, "t") < 0:
        raise ValidationError("t must be >= 0")
    from scipy.linalg import expm
    return expm(-gen.drift * t)


def _resolve_jumps(psi_row, remaining, threshold, rng, heff, weights, ops):
    """Advance one trajectory through `remaining` time, applying jumps.

    psi_row is the unnormalized state at the start of the interval, known
    to cross `threshold` before its end; weights (K,) and ops (K, d, d) are
    the stacked Kraus family.  Returns (state, threshold, jumps fired,
    crossings no channel could fire).  The Taylor rows are formed once per
    unjumped stretch; the squared norm's coefficients are
    c_m = sum_{j+k=m} Re<v_j, v_k>."""
    a = -1j * heff
    cur = psi_row
    jumps = 0
    while True:
        rows = [cur]
        for k in (1.0, 2.0, 3.0, 4.0):
            rows.append(a @ rows[-1] / k)
        rows = np.array(rows)
        gram = (rows.conj() @ rows.T).real
        coeffs = np.bincount(_GRAM_DEGREE, gram.ravel())[::-1].tolist()
        if _horner(coeffs, remaining) >= threshold:
            return remaining ** _POWERS @ rows, threshold, jumps, 0
        lo, hi = 0.0, remaining
        for _ in range(_BISECTION_ITERS):
            mid = 0.5 * (lo + hi)
            if _horner(coeffs, mid) > threshold:
                lo = mid
            else:
                hi = mid
        cur = hi ** _POWERS @ rows
        cumulative = np.cumsum(weights * np.sum(np.abs(ops @ cur) ** 2, axis=1))
        if cumulative.size == 0 or cumulative[-1] <= 0.0:
            # norm lost with no channel able to fire (integrator loss, or an
            # empty Kraus family): no jump, so finish the interval unjumped
            return remaining ** _POWERS @ rows, threshold, jumps, 1
        # first channel whose cumulative weight exceeds xi < total: its own
        # weight is positive, even for a draw of exactly 0
        xi = rng.uniform() * cumulative[-1]
        channel = np.searchsorted(cumulative, xi, side="right")
        jumped = ops[channel] @ cur
        cur = jumped / np.linalg.norm(jumped)
        jumps += 1
        threshold = rng.uniform()
        remaining = remaining - hi
        if remaining <= 0.0:
            return cur, threshold, jumps, 0


def _horner(coeffs, x):
    """The polynomial with coefficients `coeffs` (highest degree first) at x."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _trajectory_rng(seed, index):
    """Trajectory `index`'s own Generator, built at its first jump."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(int(index),))))


def _moments(psi):
    """Mean of the normalized |psi><psi| over the last axis of psi (..., d, n)
    and M2, the sum of |x - mean|^2; a leading axis is one set per step."""
    normed = psi / np.sqrt(np.sum(np.abs(psi) ** 2, axis=-2, keepdims=True))
    x = normed[..., :, None, :] * normed[..., None, :, :].conj()
    mean = np.sum(x, axis=-1) / psi.shape[-1]
    return mean, np.sum(np.abs(x - mean[..., None]) ** 2, axis=-1)


def _merge(mean, m2, n, other_mean, other_m2, n_other):
    """The (mean, M2) of two sets of n and n_other samples, by the update of
    Chan, Golub and LeVeque; an empty first set gives the second's as is."""
    if not n:
        return other_mean, other_m2
    total = n + n_other
    delta = other_mean - mean
    return (mean + delta * (n_other / total),
            m2 + (other_m2 + np.abs(delta) ** 2 * (n * n_other / total)))


def _no_jump_cohort(psi0, step, n_steps):
    """The shared no-jump evolution c_k = step^k psi0: the states
    (n_steps + 1, d), the running minimum of ||c_k||^2 over k >= 1 and the
    normalized projectors (n_steps + 1, d, d) (zero where the norm is)."""
    c = np.empty((n_steps + 1, psi0.size), dtype=complex)
    c[0] = psi0
    _orbit(step, c, math.ceil(math.sqrt(n_steps)))
    norm2 = np.sum(np.abs(c) ** 2, axis=1)
    norm = np.sqrt(norm2)[:, None]
    normed = np.divide(c, norm, out=np.zeros_like(c), where=norm > 0.0)
    floor = np.minimum.accumulate(norm2[1:])
    return c, floor, normed[:, :, None] * normed[:, None, :].conj()


def _run_chunk(start, u, seed, cohort, step, heff, weights, ops, dt):
    """Trajectories start, start + 1, ... with first draws u: the chunk
    mean of the normalized |psi><psi| at every step and M2, the sum of
    |x - mean|^2 over the chunk, both (n_steps + 1, d, d), with the jumps
    fired and the crossings no channel could fire."""
    c, floor, proj = cohort
    n_steps, d = c.shape[0] - 1, c.shape[1]
    n = u.size
    # each trajectory's first jump step: the first k >= 1 with ||c_k||^2 < u
    # (n_steps + 1 if none), which is where the running minimum falls below u
    first = np.searchsorted(-floor, -u, side="right") + 1
    order = np.argsort(first, kind="stable")
    joins = first[order].tolist()
    k0 = joins[0]
    mean = np.empty((n_steps + 1, d, d), dtype=complex)
    m2 = np.zeros((n_steps + 1, d, d))
    mean[:k0] = proj[:k0]
    # the jumped batch, in order of first jump, is `last` (d, active) at step
    # k; `held` keeps its states from step `since` on while it keeps its size
    thresholds = np.empty(n)
    rngs = []
    counts = np.zeros(2, dtype=int)
    k, last = k0, np.empty((d, 0), dtype=complex)
    while k <= n_steps:
        active = last.shape[1]
        joined = bisect.bisect_right(joins, k, lo=active)
        if joined != active:
            last = np.concatenate([last, np.empty((d, joined - active), dtype=complex)], axis=1)
            for j in range(active, joined):
                i = order[j]
                rngs.append(_trajectory_rng(seed, start + i))
                last[:, j], thresholds[j], *fired = _resolve_jumps(
                    c[k - 1], dt, u[i], rngs[j], heff, weights, ops)
                counts += fired
            # one spare row, for the step at which the held steps stop
            held = np.empty((max(1, _MOMENT_BYTES // (16 * d * d * joined)) + 1, d, joined),
                            dtype=complex)
        # the held steps stop where the next trajectory joins or `held` fills
        since = k
        k = min(since + held.shape[0] - 1, joins[joined] if joined < n else n_steps + 1)
        held[0] = last
        counts += _advance(held[:min(k, n_steps) + 1 - since], thresholds, rngs, step,
                           heff, weights, ops, dt)
        rows = slice(since, k)
        mean[rows], m2[rows] = _merge(proj[rows], 0.0, n - joined, *_moments(held[:k - since]),
                                      joined)
        if k <= n_steps:
            last = held[k - since].copy()
    return mean, m2, counts


def _advance(held, thresholds, rngs, step, heff, weights, ops, dt):
    """Fill rows 1, 2, ... of the jumped batch's states `held` (steps, d,
    active) from row 0: each row is `step` times the row before, except
    for a trajectory whose squared norm falls below its threshold in that
    step, which `_resolve_jumps` takes on from its state before the step.
    The products run ahead of the threshold test by a look-ahead that
    doubles while no trajectory crosses, so a held step costs one product.
    Returns the jumps fired and the crossings no channel could fire."""
    counts = np.zeros(2, dtype=int)
    rows, level = held.shape[0], thresholds[:held.shape[2]]
    r, ahead = 1, 1
    while r < rows:
        stop = min(r + ahead, rows)
        for s in range(r, stop):
            np.matmul(step, held[s - 1], out=held[s])
        below = (np.abs(held[r:stop]) ** 2).sum(axis=1) < level
        crossing = below.any(axis=1).nonzero()[0]
        if not crossing.size:
            r, ahead = stop, 2 * ahead
            continue
        s = r + int(crossing[0])
        for j in below[s - r].nonzero()[0]:
            held[s, :, j], thresholds[j], *fired = _resolve_jumps(
                held[s - 1, :, j], dt, thresholds[j], rngs[j], heff, weights, ops)
            counts += fired
        r, ahead = s + 1, 1
    return counts


def unravel_jump(gen, psi0, t_max, dt, trajectories, seed, threads=1):
    """Monte-Carlo wave-function ensemble for the generator's dual dynamics.

    Returns the ensemble mean of |psi><psi| (normalized states) at every
    step together with the componentwise Monte-Carlo standard error, the
    number of jumps fired and the number of threshold crossings that no
    channel could fire.  Trajectory i's first threshold is draw i of the
    seed's ensemble stream, and from its first jump on it draws from its own
    (see the module docstring).  Fixed (seed, trajectories, dt) give
    bitwise-identical results.  ``trajectories`` must be an integer in
    [1, 2^32] and ``seed`` a nonnegative one.  ``threads`` must be an
    integer >= 1, as on the command line; it has no effect: the ensemble
    always runs serially (see the module docstring).  A dt whose RK4
    no-jump step has 2-norm above 1 + 1e-12 is a ValidationError.
    """
    trajectories, seed = _count(trajectories, "trajectories"), _count(seed, "seed")
    if trajectories <= 0 or seed < 0:
        raise ValidationError(f"need trajectories > 0 and seed >= 0, got {trajectories}, {seed}")
    if _count(threads, "threads") < 1:
        raise ValidationError(f"threads must be at least 1, got {threads!r}")
    if trajectories > MAX_TRAJECTORIES:
        raise ValidationError(f"trajectories {trajectories} exceeds {MAX_TRAJECTORIES}, "
                              "the largest ensemble unravel_jump accepts")
    n_steps = _step_count(t_max, dt, gen.dim)
    psi0 = _validate_pure_state(psi0, gen.dim)

    step = _taylor_step(-1j * gen.heff, dt)
    step_norm = np.linalg.norm(step, 2)
    if not step_norm <= 1.0 + 1e-12:
        raise ValidationError(f"dt {dt!r} too large for this generator: the no-jump step "
                              f"has norm {step_norm:.6g} > 1; use a smaller dt")
    cohort = _no_jump_cohort(psi0, step, n_steps)

    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    mean = m2 = None
    counts = np.zeros(2, dtype=int)
    for start in range(0, trajectories, _CHUNK):
        stop = min(start + _CHUNK, trajectories)
        c_mean, c_m2, c_counts = _run_chunk(start, stream.random(stop - start), seed, cohort,
                                            step, gen.heff, gen.weights, gen.ops, dt)
        counts += c_counts
        mean, m2 = _merge(mean, m2, start, c_mean, c_m2, stop - start)
    m = float(trajectories)
    # a single trajectory has M2 = 0 and so a zero standard error
    stderr = np.sqrt(m2 / (m * max(m - 1.0, 1.0)))
    times = np.arange(n_steps + 1) * dt
    return JumpEnsemble(trajectories=trajectories, seed=seed, times=times,
                        mean_states=mean, stderr=stderr,
                        jumps=int(counts[0]), no_channel=int(counts[1]))


def trajectory_csv_lines(times, states):
    """Rows of the trajectory CSV: t, Re rho (row-major), Im rho."""
    dim = states[0].shape[0]
    header = ["t"]
    header += [f"re_{i}{j}" for i in range(dim) for j in range(dim)]
    header += [f"im_{i}{j}" for i in range(dim) for j in range(dim)]
    yield ",".join(header)
    # Python floats from .tolist() repr exactly like float(numpy scalar)
    flat = np.asarray(states).reshape(len(times), -1)
    for t, re, im in zip(np.asarray(times, dtype=float).tolist(),
                         flat.real.tolist(), flat.imag.tolist()):
        yield ",".join(map(repr, [t, *re, *im]))
