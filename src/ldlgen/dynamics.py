"""Reduced dynamics: master-equation integration and jump unravelling.

The master equation is integrated with classical fixed-step 4th-order
Runge-Kutta on the vectorized equation; for this autonomous linear
system one RK4 step is exactly the degree-4 Taylor polynomial of the
step map S, which is precomputed once.  The step is fixed, so the k-th
state of a block is S^k applied to the state before the block: `_orbit`
tabulates S^1 ... S^b, each power S times the one before, and fills the
trajectory in blocks of up to b rows, each one product of the stacked
table (b D, D) and the state before the block.  b is at most the steps
and 256, and the table keeps within 1 MiB, so that it stays in cache; b
is 1 from D = 256 (d = 16) on, where the product is the per-step gemv
`step @ y` with its bytes.  A block's states differ from the per-step
product at roundoff (at most 4.6e-14 over 40,000 steps of the compressed
tm_nr generator).  The trace drift is checked once, over all stored
states, and the first offending step is reported.

The Monte-Carlo unravelling is the waiting-time form of the standard
norm-loss construction (Dalibard, Castin and Molmer, PRL 68, 580 (1992);
Daley, Adv. Phys. 63, 77 (2014)): drift under H_eff = H - (i/2) Psi(1), a
jump when the squared norm falls to a uniform threshold, channel j chosen
with probability proportional to w_j ||L_j psi||^2 (the first channel
whose cumulative weight exceeds the draw, so a zero-probability channel
never fires).  The drift is exact: H_eff = V diag(lam) V^-1 from one `eig`
per call, so a state psi at time s after psi_0 is V (e^{-i lam s} * V^-1
psi_0).  A Psi(1) with an eigenvalue below -1e-12 ||Psi(1)||_2 is refused,
as its drift would raise norms; then every squared norm is nonincreasing,
with derivative -psi^+ Psi(1) psi, and dt only samples the grid.  A V of
condition above _COND_LIMIT is a NumericError.

Every trajectory starts from psi0 and follows the same no-jump evolution
c_k until its first jump (the cohort), so trajectory i jumps only if its
first threshold u_i lies above the cohort's last squared norm (the running
minimum over steps k >= 1), first in the step where that minimum falls
below u_i.  The others never leave the cohort and cost nothing but their
draw.  The jumpers advance in batches of bounded memory, round by round:
round r takes each one's r-th crossing, bracketed by its grid step and
solved by safeguarded Newton on the closed-form squared norm; the channels
of the round come from one cumulative sum over the (jumpers, channels)
weights.  The grid step of the next crossing is a bisection over the
grid, and the states between two jumps are computed in closed form from
the state after the first.  At each step the moments of |psi><psi|
(mean and M2, the sum of |x - mean|^2) are taken over the trajectories
that have jumped, in slices of bounded memory, and merged with each other
and then with the cohort's (count M minus the number jumped, M2 = 0) by
the update of Chan, Golub and LeVeque (Am. Stat. 37, 242 (1983)).

RNG streams derive from the seed.  Trajectory i's first threshold is draw i
of one ensemble stream, Generator(PCG64(SeedSequence(entropy=seed))), taken
in index order by `random(n)` per block of _CHUNK; PCG64 spends one 64-bit
output per double, so the block size moves no draw.  A trajectory that
jumps draws the rest from its own stream, Generator(PCG64(SeedSequence(
entropy=seed, spawn_key=(i,)))), built at its first jump: each jump draws
its channel, then the next threshold.  SeedSequence keeps the spawned
streams independent of the ensemble's (O'Neill, HMC-CS-2014-0905 (2014)).
The ensemble runs serially (threads gained nothing: the work holds the
GIL), and its products are numpy's own loops, not BLAS, so results are
bitwise reproducible and independent of the BLAS thread count.

Trajectories are stored as (steps + 1, d, d) arrays; (steps + 1) * d^2 may
not exceed MAX_STORED_ENTRIES, so a step count that would exhaust memory
is a validation error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError, _array, _count, _real
from .generator import dual_generator_matrix

# first thresholds are drawn per block of this many trajectories
_CHUNK = 1 << 16
# a batch of jumpers, and a slice of their grid states with its moment
# temporaries, keep within about this many bytes
_WORK_BYTES = 1 << 20
# largest condition number of H_eff's eigenvector matrix: the closed-form
# states err by about cond(V) 2^-52 relative, 2.2e-10 at the bound
_COND_LIMIT = 1e6
# Newton stops once a step moves the crossing time by at most this share
# of its bracket, or once the squared norm is within this many units of
# u (a few roundoffs of a norm near 1), and after _NEWTON_ITERS steps in
# any case
_NEWTON_TOL = 2.0 ** -40
_NORM_TOL = 2.0 ** -50
_NEWTON_ITERS = 100
# `evolve_master`'s `_orbit` tabulates at most this many step powers, so it
# steps at most this many rows per product
_TABLE_ROWS = 256
# the table of step powers stays within this many bytes, so it stays in
# cache; from D = 256 (d = 16) on it holds the step alone
_POWER_TABLE_BYTES = 1 << 20
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


def _trajectory_rng(seed, index):
    """Trajectory `index`'s own Generator, built at its first jump."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        entropy=seed, spawn_key=(int(index),))))


def _no_jump_flow(gen):
    """(lam, V, V^-1) with gen.heff = V diag(lam) V^-1, after the gates on
    Psi(1) and on cond(V).  With Psi(1) positive semidefinite every lam
    lies in the closed lower half-plane: a positive Im lam is roundoff,
    set to 0 so that no phase grows."""
    spectrum = np.linalg.eigvalsh(gen.psi_one)
    if not spectrum[0] >= -1e-12 * np.abs(spectrum).max():
        raise ValidationError(f"Psi(1) has the eigenvalue {spectrum[0]:.6g} < 0: the no-jump "
                              "evolution of this generator would raise norms")
    lam, vec = np.linalg.eig(gen.heff)
    cond = np.linalg.cond(vec)
    if not cond <= _COND_LIMIT:
        raise NumericError(f"H_eff is not diagonalizable to working accuracy: its eigenvector "
                           f"matrix has condition number {cond:.3e} > {_COND_LIMIT:g}")
    return lam.real + 1j * np.minimum(lam.imag, 0.0), vec, np.linalg.inv(vec)


def _propagate(flow, coef, s):
    """The states V (e^{-i lam s} * coef) for coef (..., d) and times s (...)."""
    lam, vec, _ = flow
    return np.einsum("...j,ij->...i", np.exp(-1j * s[..., None] * lam) * coef, vec)


def _norm2(psi):
    """Squared norms over the last axis."""
    return np.sum(psi.real ** 2 + psi.imag ** 2, axis=-1)


def _crossing_times(flow, psi_one, coef, start, u, lo, hi):
    """The times t in [lo, hi] at which ||psi(t - start)||^2 = u, psi(s)
    the state `_propagate(flow, coef, s)`: Newton on the squared norm, with
    its derivative -psi^+ Psi(1) psi, kept in a bracket that each step
    narrows, and a bisection step wherever Newton would leave it."""
    out, pos, t, tol = lo.copy(), np.arange(lo.size), lo, _NEWTON_TOL * (hi - lo)
    for _ in range(_NEWTON_ITERS):
        psi = _propagate(flow, coef, t - start)
        f = _norm2(psi) - u
        slope = -np.einsum("ni,ij,nj->n", psi.conj(), psi_one, psi).real
        lo, hi = np.where(f >= 0.0, t, lo), np.where(f >= 0.0, hi, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - f / slope
        # a norm within _NORM_TOL of u is the root to roundoff: one more
        # Newton step if it stays in the bracket, and no bisection after it
        close = np.abs(f) <= _NORM_TOL * u
        nxt = np.where((newton >= lo) & (newton <= hi), newton,
                       np.where(close, t, 0.5 * (lo + hi)))
        out[pos] = nxt
        go = ~close & (np.abs(nxt - t) > tol)
        if not go.any():
            break
        pos, t, lo, hi, tol, coef, start, u = (
            a[go] for a in (pos, nxt, lo, hi, tol, coef, start, u))
    return out


def _crossing_steps(flow, times, coef, start, u, lo, hi):
    """Each trajectory's first grid step k in (lo, hi] whose squared norm
    ||psi(t_k - start)||^2 is below u, by bisection over the grid; the
    norm at step hi must be below u, and it never rises."""
    todo = np.flatnonzero(hi - lo > 1)
    while todo.size:
        mid = (lo[todo] + hi[todo]) // 2
        below = _norm2(_propagate(flow, coef[todo], times[mid] - start[todo])) < u[todo]
        hi[todo] = np.where(below, mid, hi[todo])
        lo[todo] = np.where(below, lo[todo], mid)
        todo = todo[hi[todo] - lo[todo] > 1]
    return hi


def _jump_rounds(gen, flow, times, psi0, index, u, first, seed):
    """The trajectories `index`, whose first thresholds u the cohort crosses
    in steps `first`, advanced round by round to the end.  Returns their
    stretches after a jump, (since, until, start, coef): the state at grid
    step since <= k < until is `_propagate(flow, coef, t_k - start)`; and
    the jumps fired and the crossings no channel could fire.  A crossing
    that no channel can fire ends the trajectory's jumps: it goes on
    without one, its norm below its threshold for good."""
    n = times.size - 1
    coef = np.tile(np.einsum("ij,j->i", flow[2], psi0), (index.size, 1))
    start, since, k = np.zeros(index.size), np.zeros(index.size, dtype=int), first
    live, lo, rngs = np.arange(index.size), times[first - 1], {}
    stretches, counts = [], np.zeros(2, dtype=int)
    while live.size:
        tau = _crossing_times(flow, gen.psi_one, coef, start, u, lo, times[k])
        lpsi = np.einsum("jab,nb->nja", gen.ops, _propagate(flow, coef, tau - start))
        cum = np.cumsum(gen.weights * _norm2(lpsi), axis=1)
        total = cum[:, -1] if cum.shape[1] else np.zeros(live.size)
        fire = total > 0.0
        counts += fire.sum(), live.size - fire.sum()
        ends = np.where(fire, k, n + 1)
        stretches.append((since, ends, start, coef))
        live, k, tau, lpsi, cum, total = (a[fire] for a in (live, k, tau, lpsi, cum, total))
        draws = np.empty((live.size, 2))
        for row, j in enumerate(live.tolist()):
            if j not in rngs:
                rngs[j] = _trajectory_rng(seed, index[j])
            draws[row] = rngs[j].uniform(), rngs[j].uniform()
        # the first channel whose cumulative weight exceeds the draw, or the
        # last one of positive weight should the product round up to total
        x = (draws[:, 0] * total)[:, None]
        channel = np.minimum((cum <= x).sum(axis=1), (cum < total[:, None]).sum(axis=1))
        jumped = lpsi[np.arange(live.size), channel]
        jumped /= np.sqrt(_norm2(jumped))[:, None]
        coef, start, since, u = np.einsum("ij,nj->ni", flow[2], jumped), tau, k, draws[:, 1]
        # the next crossing: none where the norm at the last step stays >= u
        below = _norm2(_propagate(flow, coef, times[n] - start)) < u
        stretches.append((since[~below], np.full((~below).sum(), n + 1), start[~below],
                          coef[~below]))
        live, coef, start, since, u = (a[below] for a in (live, coef, start, since, u))
        k = _crossing_steps(flow, times, coef, start, u, since - 1, np.full(live.size, n))
        lo = np.maximum(start, times[k - 1])
    kept = [tuple(a[s[0] > 0] for a in s) for s in stretches]
    return tuple(np.concatenate(a) for a in zip(*kept)), counts


def _merge(mean, m2, n, other_mean, other_m2, n_other):
    """The (mean, M2, count) per step of two sets of n and n_other samples
    (arrays over the steps), by the update of Chan, Golub and LeVeque; a
    first set with n = 0 and mean 0 gives the second's values as they are."""
    total = n + n_other
    delta = other_mean - mean
    return (mean + delta * (n_other / total)[:, None, None],
            m2 + (other_m2 + np.abs(delta) ** 2 * (n * n_other / total)[:, None, None]), total)


def _add_stretches(flow, times, stretches, acc):
    """Merge into acc, the (mean, M2, count) per step of the trajectories
    that have jumped, the normalized |psi><psi| of every grid state of the
    stretches, one slice of pairs (stretch, step) at a time."""
    since, until, start, coef = stretches
    d = coef.shape[1]
    ends = np.cumsum(until - since)
    size = max(1, _WORK_BYTES // (96 * d * d))
    for first in range(0, int(ends[-1]) if ends.size else 0, size):
        pos = np.arange(first, min(first + size, int(ends[-1])))
        s = np.searchsorted(ends, pos, side="right")
        k = until[s] - (ends[s] - pos)
        order = np.argsort(k, kind="stable")
        k, s = k[order], s[order]
        psi = _propagate(flow, coef[s], times[k] - start[s])
        psi /= np.sqrt(_norm2(psi))[:, None]
        x = psi[:, :, None] * psi[:, None, :].conj()
        heads = np.flatnonzero(np.diff(k, prepend=-1))
        steps, count = k[heads], np.diff(heads, append=k.size)
        mean = np.add.reduceat(x, heads, axis=0) / count[:, None, None]
        m2 = np.add.reduceat(np.abs(x - np.repeat(mean, count, axis=0)) ** 2, heads, axis=0)
        acc[0][steps], acc[1][steps], acc[2][steps] = _merge(
            acc[0][steps], acc[1][steps], acc[2][steps], mean, m2, count.astype(float))


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
    always runs serially.  The module docstring gives the gates on Psi(1)
    and on the eigenvectors of H_eff; dt only samples the grid.
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
    psi0 = _validate_pure_state(psi0, gen.dim).astype(complex)

    flow = _no_jump_flow(gen)
    times = np.arange(n_steps + 1) * dt
    cohort = _propagate(flow, np.einsum("ij,j->i", flow[2], psi0), times)
    cohort[0] = psi0                                  # V V^-1 psi0 differs at roundoff
    norm2 = _norm2(cohort)
    norm = np.sqrt(norm2)[:, None]
    normed = np.divide(cohort, norm, out=np.zeros_like(cohort), where=norm > 0.0)
    # the running minimum of the cohort's squared norm over steps k >= 1
    floor = np.minimum.accumulate(norm2[1:])
    last = floor[-1] if n_steps else np.inf

    d = gen.dim
    acc = (np.zeros((n_steps + 1, d, d), dtype=complex), np.zeros((n_steps + 1, d, d)),
           np.zeros(n_steps + 1))
    # a batch's (jumpers, channels, d) array of L_j psi keeps within the budget
    batch = max(1, _WORK_BYTES // (16 * d * (gen.weights.size + 4)))
    stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    counts = np.zeros(2, dtype=int)
    for block in range(0, trajectories, _CHUNK):
        u = stream.random(min(_CHUNK, trajectories - block))
        jumpers = np.flatnonzero(u > last)
        for j in range(0, jumpers.size, batch):
            index = jumpers[j:j + batch]
            # the first step k >= 1 where the running minimum falls below u
            first = np.searchsorted(-floor, -u[index], side="right") + 1
            stretches, fired = _jump_rounds(gen, flow, times, psi0, block + index, u[index],
                                            first, seed)
            counts += fired
            _add_stretches(flow, times, stretches, acc)
    m = float(trajectories)
    proj = normed[:, :, None] * normed[:, None, :].conj()
    mean, m2, _ = _merge(*acc, proj, 0.0, m - acc[2])
    # a single trajectory has M2 = 0 and so a zero standard error
    stderr = np.sqrt(m2 / (m * max(m - 1.0, 1.0)))
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
