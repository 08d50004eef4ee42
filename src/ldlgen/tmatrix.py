"""Scattering blocks: T kernels, (1+T) inversion, R coefficients, series.

All omega bookkeeping lives on the finite Bohr set B.  A block with
definite transfer mu (meaning e^{itH_S} X e^{-itH_S} = e^{-it mu} X)
vanishes identically unless mu is in B, so every linear-algebra object
here can be restricted exactly to the finite index set
I(omega') = omega' + B: inverse-column blocks carry transfer
omega - omega', partial Neumann chains likewise, and rows outside I are
satisfied automatically because their would-be entries have off-lattice
transfer.

The same argument splits the |B|*d stacked block system further.  In the
eigenbasis of H_S the column of (1+T_eps)^{-1} belonging to eigen-column
m has exactly one candidate entry per row k, the one in the block
omega = omega' + rep(e_m - e_k), so the system reduces to d independent
d x d systems.  `TMatrix.r_blocks` solves them for every grid node at
once.  The stacked system (`stacked_column`, `neumann_column`,
`column_residual`, `t_kernel`) survives as the verification oracle: it is
assembled in the same eigenbasis, one array pass per (eps, omega', E),
with every kernel entry placed in the one block its canonical transfer
names, and the index-set stability invariant
(`stacked_column(index_depth=2)`) cross-checks the restriction
numerically.  The two routes solve the same system when the canonical
transfers compose, transfer[k, m] - transfer[k, p] = transfer[p, m]
within the Bohr tolerance for every eigen-index triple; chained Bohr
clusters can break that, and then no placement on the offset lattice
reproduces the per-eigen-column systems.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import GammaTable, _count, _real, gauss_legendre_nodes
from .errors import NumericError, ValidationError
from .model import _cluster_sorted, spectral_decompose

CONDITION_LIMIT = 1e12
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class BlockColumn:
    """One column of (1+T_eps)^{-1} at fixed (eps, omega', E).

    blocks[i] (original basis) solves sum over j of
    (1+T_eps)_{omega_i, omega_j}(E) blocks[j] = delta_{omega_i, omega'} Id
    on the index set omega_i = omega' + offsets[i], and has definite
    transfer offsets[i].  Columns from the Neumann series carry
    convergence metadata; direct solves leave it at its defaults.
    """

    epsilon: int
    omega_prime: float
    energy: float
    offsets: np.ndarray                 # omega - omega' values, sorted
    blocks: np.ndarray = field(repr=False)   # (|I|, d, d), ordered like offsets
    order: int = 0
    final_increment: float = 0.0
    converged: bool = True
    diverged: bool = False

    @property
    def omegas(self):
        return self.omega_prime + self.offsets


class TMatrix:
    """Bundles a validated model with its spectral data and gamma evaluator.

    Every method is a pure function of (model, bath).  The R blocks on the
    support nodes of each density are computed once per instance
    (`support_blocks`), so an instance is cheap to reuse and safe for
    read-only sharing once warmed up.
    """

    def __init__(self, spec, spectral=None):
        self.spec = spec
        self.spectral = spectral if spectral is not None else spectral_decompose(spec)
        self._gammas = GammaTable(spec.bath)
        sd = self.spectral
        self.condition_limit = CONDITION_LIMIT
        self._support = {}
        # eigenbasis data: the coupling (level solve and oracle), one representative
        # column per level and the transfers between those columns
        self._coupling = sd.basis.conj().T @ spec.coupling @ sd.basis
        self._level_columns = np.array([int(np.flatnonzero(sd.level_index == k)[0])
                                        for k in range(sd.energies.size)])
        self._level_transfer = sd.transfer[np.ix_(self._level_columns, self._level_columns)]

    # -- basic lookups -------------------------------------------------

    @property
    def dim(self):
        return self.spec.dim

    @property
    def bohr(self):
        return self.spectral.bohr

    def gamma(self, eps, E):
        return self._gammas.gamma(eps, E)

    def _gamma_where(self, eps, args, needed):
        """gamma_eps at args where `needed` (broadcast to args) holds, 0 elsewhere,
        so entries multiplied by a vanishing coupling never reach gamma."""
        needed = np.broadcast_to(needed, args.shape)
        out = np.zeros(args.shape, dtype=complex)
        out[needed] = self.gamma(eps, args[needed])
        return out

    # -- level-basis solve ---------------------------------------------------

    def _level_inverses(self, eps, energies, shifts):
        """Restricted inverses of 1+T_eps for every node and shift at once.

        By the finite-index-set argument of the module docstring, the
        column of (1+T_eps)^{-1} at omega' belonging to eigen-column m
        solves a d x d system: its entry x_k is the block at
        omega_k = omega' + rep(e_m - e_k), and with s_k = E + omega_k

            eps = 0:  1 + diag gamma_0(s) D~ diag gamma_1(s) D~^+
            eps = 1:  1 + diag gamma_1(s) D~^+ diag gamma_0(s) D~

        (D~ the coupling in the eigenbasis of H_S).  The inner gamma
        argument of entry (k, p) is formed as E - rep(e_p - e_k) + omega_k
        (eps = 0) or E + rep(e_k - e_p) + omega_k (eps = 1), along the
        canonical Bohr representatives the stacked kernel uses.  The
        result equals the stacked system's wherever the representatives
        compose (see the module docstring); on chained Bohr clusters they
        need not, and the two systems differ at the size of the entries
        that break it.

        energies: (n,); shifts: (L, S), shifts[l, s] the omega' of a column
        in level l.  Returns X of shape (n, L, S, d, d): X[..., :, m] for an
        eigen-column m of level l is the solution; the other columns belong
        to other levels' right-hand sides and are unused.  Raises
        NumericError when a system's condition number passes the limit.
        """
        if eps not in (0, 1):
            raise ValidationError("eps must be 0 or 1")
        d = self.dim
        E = np.asarray(energies, dtype=float)
        W = self.spectral.transfer
        Dt = self._coupling
        Dh = Dt.conj().T
        # omega_k = omega' + rep(e_m - e_k) for a column m of each level
        omega = shifts[:, :, None] + W[:, self._level_columns].T[:, None, :]
        outer_args = E[:, None, None, None] + omega
        if eps == 0:
            inner_args = (E[:, None, None] - W)[:, None, None] + omega[..., None]
            left, right = Dt, Dh
        else:
            inner_args = (E[:, None, None] + W.T)[:, None, None] + omega[..., None]
            left, right = Dh, Dt
        g_out = self._gamma_where(eps, outer_args, left.any(axis=1))
        g_in = self._gamma_where(1 - eps, inner_args, left != 0)
        A = g_out[..., None] * ((left * g_in) @ right)
        A += np.eye(d)
        cond = np.linalg.cond(A)
        worst = np.unravel_index(np.argmax(np.where(np.isfinite(cond), cond, np.inf)),
                                 cond.shape)
        if not np.isfinite(cond[worst]) or cond[worst] > self.condition_limit:
            n, l, s = worst
            raise NumericError(
                f"1+T_{eps} at omega'={shifts[l, s]}, E={E[n]} is numerically singular "
                f"(condition estimate {cond[worst]:.3e})"
            )
        return np.linalg.solve(A, np.broadcast_to(np.eye(d, dtype=complex), A.shape))

    def r_blocks(self, energies, omega_prime=0.0):
        """R^{eps1,eps2}_{omega,omega'}(E) for every node, pair and omega at once.

        Returns a complex array of shape (n, 2, 2, |B|, d, d) whose entry
        [i, eps1, eps2, b] is the block at E = energies[i] and
        omega = omega' + B[b] (transfer B[b]):

        R^{0,1} = -i sum D_{omega-omega_1} (1+T_1)^{-1}_{omega_1, omega'}
        R^{1,0} = -i sum D^+_{omega_1-omega} (1+T_0)^{-1}_{omega_1, omega'}
        R^{0,0} = -sum D_{omega-omega_1} (1+T_1)^{-1}_{omega_1, omega_2}
                       D^+_{omega'-omega_2} gamma_1(E+omega_2)
        R^{1,1} = -sum D^+_{omega_1-omega} (1+T_0)^{-1}_{omega_1, omega_2}
                       D_{omega_2-omega'} gamma_0(E+omega_2)

        with every off-lattice D subscript treated as zero.  In the
        eigenbasis the sum over omega_2 = omega' + rep(e_j - e_m) runs over
        the entries (j, m) of the outer D factor; for each level pair it
        needs one restricted inverse per node, so all of them come from a
        single batched solve (`_level_inverses`).
        """
        E = np.atleast_1d(np.asarray(energies, dtype=float))
        d = self.dim
        Dt = self._coupling
        Dh = Dt.conj().T
        lev, W = self.spectral.level_index, self.spectral.transfer
        shifts = omega_prime + self._level_transfer   # shifts[l, l'] = omega' + rep(e_l' - e_l)
        full = np.empty((E.size, 2, 2, d, d), dtype=complex)
        for eps in (0, 1):
            X = self._level_inverses(eps, E, shifts)
            # Y[i, m, k, j]: entry k of eigen-column j's solution at the
            # shift omega_2 = omega' + rep(e_j - e_m); own[i, k, m] at omega'
            Y = np.diagonal(X[:, lev][:, :, lev], axis1=1, axis2=4)
            own = np.diagonal(Y, axis1=1, axis2=3)
            # eps = 1 solves feed R^{0,1} and R^{0,0}; eps = 0 feed R^{1,0}, R^{1,1}
            a = 1 - eps
            left, right = (Dt, Dh) if eps == 1 else (Dh, Dt)
            g = self._gamma_where(eps, E[:, None, None] + (omega_prime + W), right != 0)
            full[:, a, eps] = -1j * (left @ own)
            full[:, a, a] = -np.einsum("xk,imkj,ijm->ixm", left, Y, g * right)
        return self.spectral.split(full)

    def support_blocks(self, eps):
        """R blocks at omega' = 0 on the grid nodes where rho_eps > 0.

        Returns (nodes, weights, rho, R) with R = r_blocks(nodes); computed
        once per instance and shared by drift, drift_from_t_operator,
        build_generator and the identity suite's three-term map.
        """
        hit = self._support.get(eps)
        if hit is None:
            nodes, wts, rho = self.spec.bath.support_nodes(eps)
            hit = self._support[eps] = (nodes, wts, rho, self.r_blocks(nodes))
        return hit

    # -- pointwise views ---------------------------------------------------

    def solve_column(self, eps, omega_prime, E):
        """Column of (1+T_eps)^{-1} at (omega', E) from the level-basis solve."""
        d = self.dim
        shifts = np.full((len(self._level_columns), 1), float(omega_prime))
        X = self._level_inverses(eps, np.array([float(E)]), shifts)[0, :, 0]
        own = X[self.spectral.level_index, :, np.arange(d)].T   # own[k, m] = X[level(m), k, m]
        offsets = np.array(self.bohr, dtype=float)
        return BlockColumn(epsilon=eps, omega_prime=float(omega_prime), energy=float(E),
                           offsets=offsets, blocks=self.spectral.split(own))

    def r_coefficient(self, eps1, eps2, omega, omega_prime, E):
        """Block coefficient R^{eps1,eps2}_{omega, omega'}(E) (see r_blocks);
        zero when omega - omega' is off the Bohr lattice."""
        if eps1 not in (0, 1) or eps2 not in (0, 1):
            raise ValidationError("R coefficient indices must be 0 or 1")
        b = self.spectral.bohr_index(omega - omega_prime)
        if b is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.r_blocks([E], omega_prime)[0, eps1, eps2, b]

    def t_components(self, E):
        """The four blocks t^{eps,eps'}(E) = sum over omega of R^{eps,eps'}_{omega,0}(E)."""
        R = self.r_blocks([E])[0]
        return {pair: R[pair].sum(axis=0) for pair in PAIRS}

    # -- stacked oracle --------------------------------------------------------
    #
    # The |I|*d block system on the index set I(omega') = omega' + offsets,
    # assembled in the eigenbasis of H_S in one array pass per (eps, omega', E).
    # Independent of the level-basis solve: its own dense solve, power series
    # and chain products; verification and tests compare the two.

    def _kernels(self, eps, omegas, E):
        """Kernel operators K_eps(omega) in the eigenbasis, one per omega:

        eps=0: gamma0(E+omega) sum_m gamma1(E - W[k,m] + omega) D~[k,m] D~^+[m,p]
        eps=1: gamma1(E+omega) sum_m gamma0(E + W[m,k] + omega) D~^+[k,m] D~[m,p]

        with W the canonical transfer and D~ the coupling in the eigenbasis;
        these are the Bohr-pair sums gamma D_{mu1} D^+_{mu2} and
        gamma D^+_{nu1} D_{nu2}, and entry (k, p) carries transfer W[k, p].
        Returns an array of shape (len(omegas), d, d).
        """
        if eps not in (0, 1):
            raise ValidationError("eps must be 0 or 1")
        W = self.spectral.transfer
        Dt = self._coupling
        Dh = Dt.conj().T
        left, right, inner = (Dt, Dh, E - W) if eps == 0 else (Dh, Dt, E + W.T)
        omegas = np.asarray(omegas, dtype=float)
        outer_args = np.broadcast_to((E + omegas)[:, None], (omegas.size, self.dim))
        g_out = self._gamma_where(eps, outer_args, left.any(axis=1))
        g_in = self._gamma_where(1 - eps, inner + omegas[:, None, None], left != 0)
        return g_out[..., None] * ((left * g_in) @ right)

    def t_kernel(self, eps, omega, omega_prime, E):
        """Block T^eps_{omega, omega'}(E) in the original basis: the part of
        K_eps(omega) (see `_kernels`) with canonical transfer omega - omega'.
        Off-lattice differences give the zero matrix.
        """
        K = self._kernels(eps, [omega], E)[0]
        b = self.spectral.bohr_index(omega - omega_prime)
        if b is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.spectral.split(K)[b]

    def _offsets(self, index_depth):
        """Offsets of the index set: the Bohr set B (depth 1), or B plus the
        smallest member of each tolerance cluster of the sums B + B that lie
        farther than the tolerance from every member of B (depth 2)."""
        if index_depth not in (1, 2):
            raise ValidationError("index_depth must be 1 or 2")
        B = np.array(self.bohr, dtype=float)
        if index_depth == 1:
            return B
        tol = self.spectral.tolerance
        sums = np.sort((B[:, None] + B).ravel())
        sums = sums[np.abs(sums[:, None] - B).min(axis=1) > tol]
        reps = [sums[idxs[0]] for idxs in _cluster_sorted(sums, tol)] if sums.size else []
        return np.sort(np.concatenate([B, reps]))

    def _stacked_t(self, eps, omega_prime, E, offsets):
        """The T part of the stacked block system on omega' + offsets, in the
        eigenbasis, shape (|I| d, |I| d).  Entry (k, p) of row block i's
        kernel goes to the one column block whose offset is nearest
        offsets[i] - W[k, p], and is dropped when none lies within the Bohr
        tolerance."""
        d, n = self.dim, len(offsets)
        K = self._kernels(eps, omega_prime + offsets, E)
        dist = np.abs((offsets[:, None, None] - self.spectral.transfer)[..., None] - offsets)
        j = dist.argmin(axis=-1)
        keep = dist.min(axis=-1) <= self.spectral.tolerance
        i, k, p = np.nonzero(keep)
        T = np.zeros((n, d, n, d), dtype=complex)
        T[i, k, j[keep], p] = K[keep]
        return T.reshape(n * d, n * d)

    def _rhs(self, offsets):
        d = self.dim
        m = len(offsets)
        i0 = int(np.argmin(np.abs(offsets)))
        if abs(offsets[i0]) > self.spectral.tolerance:
            raise ValidationError("index set does not contain the diagonal offset 0")
        rhs = np.zeros((m * d, d), dtype=complex)
        rhs[i0 * d:(i0 + 1) * d] = np.eye(d)
        return rhs

    def _column(self, eps, omega_prime, E, offsets, X, **series):
        """BlockColumn from a stacked eigenbasis solution X of shape (|I| d, d)."""
        basis = self.spectral.basis
        blocks = basis @ X.reshape(len(offsets), self.dim, self.dim) @ basis.conj().T
        return BlockColumn(epsilon=eps, omega_prime=float(omega_prime), energy=float(E),
                           offsets=offsets, blocks=blocks, **series)

    def stacked_column(self, eps, omega_prime, E, index_depth=1):
        """Column of (1+T_eps)^{-1} by dense solve of the stacked system on
        I(omega') (index_depth=1) or on the depth-2 index set (see `_offsets`);
        any other depth raises ValidationError."""
        offsets = self._offsets(index_depth)
        A = np.eye(len(offsets) * self.dim, dtype=complex) + self._stacked_t(eps, omega_prime, E, offsets)
        return self._column(eps, omega_prime, E, offsets, np.linalg.solve(A, self._rhs(offsets)))

    def neumann_column(self, eps, omega_prime, E, max_order=None, tol=None):
        """Column of (1+T_eps)^{-1} summed as the alternating T-power series.

        Accumulates until the added term drops below tol in Frobenius norm
        or max_order is reached; sets `diverged` when the increments have
        stopped decreasing over the last 5 orders.  Divergence is reported,
        not raised: the caller decides (the direct solve remains available).
        """
        if max_order is None:
            max_order = self.spec.neumann_max_order
        if tol is None:
            tol = self.spec.neumann_tolerance
        offsets = self._offsets(1)
        T = self._stacked_t(eps, omega_prime, E, offsets)
        rhs = self._rhs(offsets)
        term = rhs.copy()
        total = rhs.copy()
        increments = []
        converged = False
        diverged = False
        order = 0
        for k in range(1, max_order + 1):
            term = -(T @ term)
            total += term
            inc = float(np.linalg.norm(term))
            increments.append(inc)
            if inc < tol:
                # the truncation order actually needed excludes this term
                converged = True
                order = k - 1
                break
            order = k
            if len(increments) >= 5 and increments[-1] >= increments[-5]:
                diverged = True
                break
        return self._column(eps, omega_prime, E, offsets, total, order=order,
                            final_increment=increments[-1] if increments else 0.0,
                            converged=converged, diverged=diverged)

    def column_residual(self, col):
        """Frobenius norm of (1+T) @ column - rhs in the stacked system,
        relative to the rhs."""
        d = self.dim
        basis = self.spectral.basis
        X = (basis.conj().T @ col.blocks @ basis).reshape(-1, d)
        T = self._stacked_t(col.epsilon, col.omega_prime, col.energy, col.offsets)
        A = np.eye(len(col.offsets) * d, dtype=complex) + T
        R = A @ X - self._rhs(col.offsets)
        return float(np.linalg.norm(R) / math.sqrt(d))

    # -- closed-form series terms ------------------------------------------

    def appendix_term(self, pair, n, E):
        """Closed-form series term T^{pair}_k(E), k = 2n (diagonal pairs,
        n >= 1) or k = 2n+1 (off-diagonal pairs, n >= 0).

        Evaluates the alternating multi-sum over Bohr subscripts with
        cumulative-shift gamma arguments; terms with any off-lattice
        subscript vanish because the corresponding D block is zero.  In the
        eigenbasis the chain is built innermost factor first: each layer is
        (D~ or D~^+) @ L times the Hadamard factor gamma(E + W), because the
        accumulated shift of entry (k, p) of a partial chain is its
        canonical transfer W[k, p] (an exact regrouping of the printed sum
        on spectra whose representatives compose).
        """
        pair = str(pair)
        if pair not in ("00", "11", "01", "10"):
            raise ValidationError("pair must be one of 00, 11, 01, 10")
        a = int(pair[0])
        diagonal = pair[0] == pair[1]
        if diagonal:
            if n < 1:
                raise ValidationError("diagonal-pair series terms need n >= 1")
            J = 2 * n - 1
            pref = (-1.0) ** n
        else:
            if n < 0:
                raise ValidationError("off-diagonal series terms need n >= 0")
            J = 2 * n
            pref = -1j * (-1.0) ** n

        sd = self.spectral
        Dt = self._coupling
        factors = (Dt, Dt.conj().T)
        args = E + sd.transfer
        layer = np.eye(self.dim, dtype=complex)
        for j in range(J, 0, -1):
            # factor j from the left: D~^+ with gamma_1 when j + a is odd,
            # D~ with gamma_0 when it is even
            geps = (j + a) % 2
            layer = factors[geps] @ layer
            layer *= self._gamma_where(geps, args, layer != 0)
        full = self.spec.coupling if a == 0 else self.spec.coupling.conj().T
        return pref * (full @ (sd.basis @ layer @ sd.basis.conj().T))

    def appendix_partial_sums(self, pair, E, max_orders=24, tol=1e-12):
        """Cumulative series sums for one pair; stops at the first term
        whose Frobenius norm drops below tol.  Returns (sums, converged)."""
        diagonal = pair[0] == pair[1]
        start = 1 if diagonal else 0
        total = np.zeros((self.dim, self.dim), dtype=complex)
        sums = []
        converged = False
        for n in range(start, start + max_orders):
            term = self.appendix_term(pair, n, E)
            total = total + term
            sums.append(total.copy())
            if np.linalg.norm(term) < tol:
                converged = True
                break
        return sums, converged


# -- Dyson time-quadrature oracle ---------------------------------------------
#
# Independent check of the closed-form series terms: the n-th expansion
# term of the scattering operator is contracted in the one-particle state
# u (x) g_a against v (x) g_b by nested time quadrature over the ordered
# simplex with damping exp(-eta * sum t_i).  The bra overlap <g_a, g_a>
# is divided out so the value compares directly against
# i * integral dE u^+ T^{ab}_n(E) v rho_b(E).


def _parity_pair(pair, n):
    a, b = int(pair[0]), int(pair[1])
    if n % 2 == 0:
        return (a, b) if a == b else None
    return (a, b) if b == 1 - a else None


def _contraction_vectors(tm, pair, u, v, n_energy):
    """Validate the block label, the energy node count and the bra/ket
    vectors shared by the oracle and its reference; returns u, v as
    complex arrays."""
    if not isinstance(pair, str) or pair not in ("00", "01", "10", "11"):
        raise ValidationError(f"pair must be one of 00, 01, 10, 11, got {pair!r}")
    if _count(n_energy, "n_energy") < 1:
        raise ValidationError("n_energy must be >= 1")
    out = []
    for name, vec in (("u", u), ("v", v)):
        try:
            arr = np.asarray(vec, dtype=complex)
        except (TypeError, ValueError):
            raise ValidationError(f"{name} must be a numeric vector") from None
        if arr.shape != (tm.dim,):
            raise ValidationError(f"{name} must be a vector of length {tm.dim}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} must be finite")
        out.append(arr)
    return out


def _corr_weights(profile, n_nodes):
    x, w = gauss_legendre_nodes(profile.a, profile.b, n_nodes)
    return x, w * profile(x)


def _grid_exponentials(n_points, dt, x):
    """Split-exponent factors of the block exp(i k dt x), k < n_points.

    With m = ceil(sqrt(n_points)) and k = q m + r, exp(i k dt x) =
    giant[q] * baby[r], so only (ceil(n_points / m) + m) |x| exponentials
    are evaluated instead of n_points |x|.  Returns giant, shape
    (ceil(n_points / m), |x|), and baby, shape (m, |x|); grid index k is
    entry (q, r) of a row-major (ceil(n_points / m), m) array, zero-padded
    past n_points.
    """
    m = math.isqrt(n_points - 1) + 1
    giant = np.exp(1j * np.outer(np.arange(-(-n_points // m)) * m * dt, x))
    baby = np.exp(1j * np.outer(np.arange(m) * dt, x))
    return giant, baby


def _grid_corr(profile, dt, n_points, n_nodes):
    """corr(k dt) = integral rho(E) e^{i k dt E} dE for k < n_points, by
    Gauss-Legendre quadrature on the split-exponent factors."""
    x, c = _corr_weights(profile, n_nodes)
    giant, baby = _grid_exponentials(n_points, dt, x)
    return ((giant * c) @ baby.T).ravel()[:n_points]


def _grid_fourier(rows, dt, x):
    """sum over k of rows[..., k] exp(i k dt x) for every x, on the
    split-exponent factors: one matmul against baby, one contraction
    against giant."""
    n_points = rows.shape[-1]
    giant, baby = _grid_exponentials(n_points, dt, x)
    padded = np.zeros(rows.shape[:-1] + (giant.shape[0] * baby.shape[0],), dtype=complex)
    padded[..., :n_points] = rows
    blocks = padded.reshape(rows.shape[:-1] + (giant.shape[0], baby.shape[0])) @ baby
    return np.einsum("...qx,qx->...x", blocks, giant)


def _simpson_weights(n_points, h):
    """Composite Simpson weights on a uniform grid (n_points odd)."""
    if n_points % 2 == 0:
        raise ValidationError("Simpson rule needs an odd number of grid points")
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


def dyson_oracle(tm, pair, n, u, v, eta, *, t_max=400.0, dt=0.01, n_energy=320):
    """Time-domain contraction of the n-th scattering expansion term.

    Supports n in {1, 2, 3}.  Returns 0 when the (pair, n) parities are
    incompatible, i.e. when the exact matrix element vanishes.  Every
    input is checked first: eta, t_max and dt finite with eta > 0 and
    0 < dt <= t_max, n_energy a positive integer, pair one of 00, 01, 10,
    11, and u, v finite vectors of length d; anything else raises
    ValidationError.

    Cost, with N = t_max / dt + 1 grid points (step count rounded up to
    even) and n_energy = |x| correlation nodes: each correlation is
    evaluated on the grid from about 2 sqrt(N) |x| exponentials (the
    split-exponent factors of exp(i t x)) and N |x| multiply-adds; the
    eigen-index phase rows take d^2 N exponentials.  n = 2 needs two
    correlations; n = 3 needs two more correlations plus one
    split-exponent contraction of its 2 d^2 phase rows against the
    |x| nodes of rho_b, about 2 d^2 N |x| multiply-adds.
    """
    eta = _real(eta, "damping eta")
    if eta <= 0:
        raise ValidationError("damping eta must be > 0")
    t_max = _real(t_max, "t_max")
    dt = _real(dt, "dt")
    if dt <= 0:
        raise ValidationError("time step dt must be > 0")
    if t_max < dt:
        raise ValidationError(f"t_max must be >= dt, got t_max={t_max}, dt={dt}")
    if isinstance(n, bool) or n not in (1, 2, 3):
        raise ValidationError("dyson oracle supports n in {1, 2, 3}")
    u, v = _contraction_vectors(tm, pair, u, v, n_energy)
    ab = _parity_pair(pair, n)
    if ab is None:
        return 0.0 + 0.0j
    a, b = ab
    spec = tm.spec
    bath = spec.bath

    d_ops = (spec.coupling, spec.coupling.conj().T)
    if n == 1:
        return complex(u.conj() @ d_ops[a] @ v) * bath.density(b).norm_squared()

    evals, evecs = np.linalg.eigh(spec.h_system)
    ut = evecs.conj().T @ u
    vt = evecs.conj().T @ v
    da = evecs.conj().T @ d_ops[a] @ evecs
    dother = evecs.conj().T @ d_ops[1 - a] @ evecs
    row = ut.conj() @ da

    n_steps = int(np.rint(t_max / dt))
    if n_steps % 2 == 1:
        n_steps += 1
    t = np.arange(n_steps + 1) * dt
    wts = _simpson_weights(n_steps + 1, dt)
    # one phase row per eigen-index pair: phases[p, q] = exp(i (e_p - e_q) t)
    phases = np.exp(1j * (evals[:, None] - evals[None, :])[..., None] * t)

    if n == 2:
        # -i * integral_0^inf corr_{1-a}(-t) corr_a(t)
        #      u^+ D_a e^{-itH} D_{1-a} e^{itH} v * e^{-eta t} dt,
        # whose (l, m) eigen-entry carries the phase exp(i (e_m - e_l) t)
        corr_in = np.conj(_grid_corr(bath.density(1 - a), dt, t.size, n_energy))
        corr_out = _grid_corr(bath.density(a), dt, t.size, n_energy)
        base = wts * np.exp(-eta * t) * corr_in * corr_out
        coef = row[:, None] * dother * vt[None, :]
        return -1j * np.sum(coef * (phases @ base).T)

    # n == 3: gap variables s = t1 - t2 >= 0, r = t2 >= 0 parametrize the
    # ordered simplex exactly; the product-Simpson double sum is evaluated
    # in a separated form over the correlation quadrature nodes (an exact
    # regrouping of the nested sum, cross-checked in the test suite).
    x_b, c_b = _corr_weights(bath.density(b), n_energy)
    corr_s = np.conj(_grid_corr(bath.density(a), dt, t.size, n_energy))
    corr_r = np.conj(_grid_corr(bath.density(1 - a), dt, t.size, n_energy))
    base_s = wts * np.exp(-eta * t) * corr_s
    base_r = wts * np.exp(-2.0 * eta * t) * corr_r

    # rows: base_s and base_r times each pair's phase, all contracted
    # against exp(i t x_b) at once
    rows = np.stack([base_s * phases, base_r * phases])
    f_s, f_r = _grid_fourier(rows, dt, x_b)

    # entry (l, m, p) pairs the s-row of (p, m) with the r-row of (p, l)
    coef = row[:, None, None] * dother[:, :, None] * da[None] * vt[None, None, :]
    return -np.einsum("lmp,pmx,plx,x->", coef, f_s, f_r, c_b)


def dyson_reference(tm, pair, n, u, v, n_energy=192):
    """Energy-domain counterpart i * integral dE u^+ T^{pair}_n(E) v rho_b(E)
    built from the closed-form series term (the quantity the oracle checks).
    pair, u, v and n_energy are checked as in `dyson_oracle`."""
    u, v = _contraction_vectors(tm, pair, u, v, n_energy)
    ab = _parity_pair(pair, n)
    if ab is None:
        return 0.0 + 0.0j
    _, b = ab
    if n % 2 == 0:
        order = n // 2
    else:
        order = (n - 1) // 2
    prof = tm.spec.bath.density(b)
    x, w = gauss_legendre_nodes(prof.a, prof.b, n_energy)
    total = 0.0 + 0.0j
    for E, wt in zip(x, w):
        term = tm.appendix_term(pair, order, float(E))
        total += wt * prof(E) * (u.conj() @ term @ v)
    return 1j * total


def richardson_extrapolate(values, etas):
    """Value at eta = 0 from samples at the given etas (Lagrange at 0).

    Needs one value per eta, at least one sample, and finite, distinct
    etas; anything else raises ValidationError."""
    values = list(values)
    etas = [_real(e, "eta") for e in etas]
    if not etas or len(values) != len(etas):
        raise ValidationError(
            f"need one value per eta and at least one sample, got {len(values)} values "
            f"and {len(etas)} etas")
    if len(set(etas)) != len(etas):
        raise ValidationError(f"etas must be distinct, got {etas}")
    out = 0.0 + 0.0j
    for i, vi in enumerate(values):
        li = 1.0
        for j, ej in enumerate(etas):
            if j != i:
                li *= (0.0 - ej) / (etas[i] - ej)
        out += li * vi
    return out
