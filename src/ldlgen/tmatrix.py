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
once; the stacked system (`stacked_column`, `neumann_column`,
`column_residual`, `t_kernel`) survives as the verification oracle, and
the index-set stability invariant (`stacked_column(index_depth=2)`)
cross-checks the restriction numerically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import GammaTable, gauss_legendre_nodes
from .errors import NumericError, ValidationError
from .model import spectral_decompose

_SHIFT_DECIMALS = 9
CONDITION_LIMIT = 1e12
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass
class BlockColumn:
    """One column of (1+T_eps)^{-1} at fixed (eps, omega', E).

    blocks[omega] solves sum over omega_1 of
    (1+T_eps)_{omega, omega_1}(E) blocks[omega_1] = delta_{omega, omega'} Id
    for omega in I(omega'); blocks[omega] has definite transfer
    omega - omega'.  Columns from the Neumann series carry convergence
    metadata; direct solves leave it at its defaults.
    """

    epsilon: int
    omega_prime: float
    energy: float
    offsets: np.ndarray                 # omega - omega' values (the Bohr set)
    omegas: np.ndarray                  # omega' + offsets
    blocks_list: list = field(repr=False, default_factory=list)
    order: int = 0
    final_increment: float = 0.0
    converged: bool = True
    diverged: bool = False

    @property
    def blocks(self):
        return {float(w): blk for w, blk in zip(self.omegas, self.blocks_list)}

    def block(self, omega, tol=1e-9):
        for w, blk in zip(self.omegas, self.blocks_list):
            if abs(w - omega) <= tol:
                return blk
        raise KeyError(f"omega {omega} not in this column's index set")


class TMatrix:
    """Bundles a validated model with its spectral data and gamma table.

    Every method is a pure function of (model, bath).  The R blocks on the
    support nodes of each density are computed once per instance
    (`support_blocks`), so an instance is cheap to reuse and safe for
    read-only sharing once warmed up.
    """

    def __init__(self, spec, spectral=None, gamma_table=None):
        self.spec = spec
        self.spectral = spectral if spectral is not None else spectral_decompose(spec)
        self.gamma_table = gamma_table if gamma_table is not None else GammaTable(spec.bath)
        sd = self.spectral
        self._entries = [
            (float(w), sd.d_blocks[float(w)], sd.d_blocks[float(w)].conj().T)
            for w in sd.bohr if sd.d_blocks[float(w)].any()
        ]
        self.condition_limit = CONDITION_LIMIT
        self._support = {}
        # level-basis data: coupling in the eigenbasis, canonical transfer
        # of each entry, one representative column per level, and one
        # entry mask per Bohr frequency (for splitting R by omega)
        self._basis = sd.basis
        self._coupling = sd.basis.conj().T @ spec.coupling @ sd.basis
        self._transfer = sd.transfer
        self._levels = sd.level_index
        n_levels = len(sd.levels)
        self._level_columns = np.array([int(np.flatnonzero(sd.level_index == k)[0])
                                        for k in range(n_levels)])
        self._level_transfer = sd.transfer[np.ix_(self._level_columns, self._level_columns)]
        self._transfer_masks = sd.transfer[None] == sd.bohr[:, None, None]

    # -- basic lookups -------------------------------------------------

    @property
    def dim(self):
        return self.spec.dim

    @property
    def bohr(self):
        return self.spectral.bohr

    def gamma(self, eps, E):
        return self.gamma_table.gamma(eps, E)

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
        canonical Bohr representatives the stacked kernel uses, so
        tolerance-clustered spectra give the stacked system's numbers.

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
        W = self._transfer
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

    def _split_by_transfer(self, full):
        """Blocks of level-basis operators by transfer, in the original basis:
        (..., d, d) -> (..., |B|, d, d), entry b holding the part with
        transfer B[b]."""
        masked = full[..., None, :, :] * self._transfer_masks
        return self._basis @ masked @ self._basis.conj().T

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
        lev = self._levels
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
            g = self._gamma_where(eps, E[:, None, None] + (omega_prime + self._transfer),
                                  right != 0)
            full[:, a, eps] = -1j * (left @ own)
            full[:, a, a] = -np.einsum("xk,imkj,ijm->ixm", left, Y, g * right)
        return self._split_by_transfer(full)

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
        own = X[self._levels, :, np.arange(d)].T       # own[k, m] = X[level(m), k, m]
        offsets = np.array(self.bohr, dtype=float)
        return BlockColumn(
            epsilon=eps, omega_prime=float(omega_prime), energy=float(E),
            offsets=offsets, omegas=omega_prime + offsets,
            blocks_list=list(self._split_by_transfer(own)),
        )

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
    # The |I|*d block system on the index set I(omega') = omega' + B (or the
    # wider depth-2 set), assembled kernel by kernel.  Independent of the
    # level-basis solve; verification and tests compare the two.

    def t_kernel(self, eps, omega, omega_prime, E):
        """Block T^eps_{omega, omega'}(E).

        eps=0: gamma0(E+omega) * sum gamma1(E-mu1+omega) D_{mu1} D^+_{mu2}
               over Bohr pairs with mu1 - mu2 = omega - omega'.
        eps=1: gamma1(E+omega) * sum gamma0(E+nu1+omega) D^+_{nu1} D_{nu2}
               over pairs with nu1 - nu2 = omega' - omega.
        Off-lattice differences give the zero matrix.
        """
        return self._kernel_delta(eps, omega, omega - omega_prime, E)

    def _kernel_delta(self, eps, omega, delta, E):
        d = self.dim
        tol = self.spectral.tolerance
        out = np.zeros((d, d), dtype=complex)
        if eps == 0:
            for mu1, d1, _ in self._entries:
                for mu2, _, d2dag in self._entries:
                    if abs((mu1 - mu2) - delta) <= tol:
                        out += self.gamma(1, E - mu1 + omega) * (d1 @ d2dag)
            if out.any():
                out *= self.gamma(0, E + omega)
        elif eps == 1:
            for nu1, _, d1dag in self._entries:
                for nu2, d2, _ in self._entries:
                    if abs((nu1 - nu2) + delta) <= tol:
                        out += self.gamma(0, E + nu1 + omega) * (d1dag @ d2)
            if out.any():
                out *= self.gamma(1, E + omega)
        else:
            raise ValidationError("eps must be 0 or 1")
        return out

    def _offsets(self, index_depth):
        B = [float(b) for b in self.bohr]
        if index_depth <= 1:
            return np.array(B)
        tol = self.spectral.tolerance
        sums = sorted(b1 + b2 for b1 in B for b2 in B)
        reps = []
        for s in sums + B:
            if not any(abs(s - r) <= tol for r in reps):
                reps.append(s)
        return np.array(sorted(reps))

    def _stacked_t(self, eps, omega_prime, E, offsets):
        """The T part of the stacked block system on I(omega')."""
        d = self.dim
        m = len(offsets)
        T = np.zeros((m * d, m * d), dtype=complex)
        for i, bi in enumerate(offsets):
            for j, bj in enumerate(offsets):
                blk = self._kernel_delta(eps, omega_prime + bi, bi - bj, E)
                if blk.any():
                    T[i * d:(i + 1) * d, j * d:(j + 1) * d] = blk
        return T

    def _rhs(self, offsets):
        d = self.dim
        m = len(offsets)
        i0 = int(np.argmin(np.abs(offsets)))
        if abs(offsets[i0]) > self.spectral.tolerance:
            raise ValidationError("index set does not contain the diagonal offset 0")
        rhs = np.zeros((m * d, d), dtype=complex)
        rhs[i0 * d:(i0 + 1) * d] = np.eye(d)
        return rhs

    def stacked_column(self, eps, omega_prime, E, index_depth=1):
        """Column of (1+T_eps)^{-1} by dense solve of the stacked system on
        I(omega') (index_depth=1) or on the depth-2 index set B + B."""
        offsets = self._offsets(index_depth)
        d = self.dim
        A = np.eye(len(offsets) * d, dtype=complex) + self._stacked_t(eps, omega_prime, E, offsets)
        X = np.linalg.solve(A, self._rhs(offsets))
        return BlockColumn(
            epsilon=eps, omega_prime=float(omega_prime), energy=float(E),
            offsets=offsets, omegas=omega_prime + offsets,
            blocks_list=[X[i * d:(i + 1) * d] for i in range(len(offsets))],
        )

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
        d = self.dim
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
        return BlockColumn(
            epsilon=eps, omega_prime=float(omega_prime), energy=float(E),
            offsets=offsets, omegas=omega_prime + offsets,
            blocks_list=[total[i * d:(i + 1) * d] for i in range(len(offsets))],
            order=order, final_increment=increments[-1] if increments else 0.0,
            converged=converged, diverged=diverged,
        )

    def column_residual(self, col):
        """Frobenius norm of (1+T) @ column - rhs in the stacked system,
        relative to the rhs."""
        d = self.dim
        T = self._stacked_t(col.epsilon, col.omega_prime, col.energy, col.offsets)
        A = np.eye(len(col.offsets) * d, dtype=complex) + T
        X = np.vstack(col.blocks_list)
        R = A @ X - self._rhs(col.offsets)
        return float(np.linalg.norm(R) / math.sqrt(d))

    # -- closed-form series terms ------------------------------------------

    def appendix_term(self, pair, n, E):
        """Closed-form series term T^{pair}_k(E), k = 2n (diagonal pairs,
        n >= 1) or k = 2n+1 (off-diagonal pairs, n >= 0).

        Evaluates the alternating multi-sum over Bohr subscripts with
        cumulative-shift gamma arguments; terms with any off-lattice
        subscript vanish because the corresponding D block is zero.  The
        enumeration runs innermost-index first, binning partial chains by
        their accumulated shift (an exact regrouping of the printed sum).
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

        d = self.dim
        full = self.spec.coupling if a == 0 else self.spec.coupling.conj().T
        layer = {0.0: [0.0, np.eye(d, dtype=complex)]}
        for j in range(J, 0, -1):
            odd = (j % 2 == 1)
            use_dag = odd if a == 0 else not odd
            geps = (1 if odd else 0) if a == 0 else (0 if odd else 1)
            sign = (-1.0 if odd else 1.0) if a == 0 else (1.0 if odd else -1.0)
            chains = []
            for shift, mat in layer.values():
                for w, dw, dwdag in self._entries:
                    prod = (dwdag if use_dag else dw) @ mat
                    if prod.any():
                        chains.append((shift + sign * w, prod))
            gammas = self.gamma(geps, E + np.array([s for s, _ in chains]))
            new_layer = {}
            for (s, prod), g in zip(chains, gammas):
                prod *= g
                key = round(s, _SHIFT_DECIMALS)
                if key in new_layer:
                    new_layer[key][1] += prod
                else:
                    new_layer[key] = [s, prod]
            layer = new_layer
        total = np.zeros((d, d), dtype=complex)
        for _, mat in layer.values():
            total += mat
        return pref * (full @ total)

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


def _corr_weights(profile, n_nodes):
    x, w = gauss_legendre_nodes(profile.a, profile.b, n_nodes)
    return x, w * profile(x)


def _corr_on_grid(profile, t, n_nodes=320):
    """corr(t) = integral rho(E) e^{itE} dE by Gauss-Legendre quadrature."""
    x, c = _corr_weights(profile, n_nodes)
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for chunk in range(0, x.size, 64):
        sl = slice(chunk, chunk + 64)
        out += np.exp(1j * np.outer(t, x[sl])) @ c[sl]
    return out


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

    Supports n in {1, 2, 3} (cost grows with one time dimension per
    order).  Returns 0 when the (pair, n) parities are incompatible, i.e.
    when the exact matrix element vanishes.
    """
    if eta <= 0:
        raise ValidationError("damping eta must be > 0")
    if n < 1 or n > 3:
        raise ValidationError("dyson oracle supports n in {1, 2, 3}")
    ab = _parity_pair(pair, n)
    if ab is None:
        return 0.0 + 0.0j
    a, b = ab
    spec = tm.spec
    bath = spec.bath
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)

    d_ops = (spec.coupling, spec.coupling.conj().T)
    if n == 1:
        return complex(u.conj() @ d_ops[a] @ v) * bath.density(b).norm_squared()

    evals, evecs = np.linalg.eigh(spec.h_system)
    ut = evecs.conj().T @ u
    vt = evecs.conj().T @ v
    da = evecs.conj().T @ d_ops[a] @ evecs
    dother = evecs.conj().T @ d_ops[1 - a] @ evecs

    n_steps = int(round(t_max / dt))
    if n_steps % 2 == 1:
        n_steps += 1
    t = np.arange(n_steps + 1) * dt
    wts = _simpson_weights(n_steps + 1, dt)

    if n == 2:
        # -i * integral_0^inf corr_{1-a}(-t) corr_a(t)
        #      u^+ D_a e^{-itH} D_{1-a} e^{itH} v * e^{-eta t} dt
        corr_in = np.conj(_corr_on_grid(bath.density(1 - a), t, n_energy))
        corr_out = _corr_on_grid(bath.density(a), t, n_energy)
        base = wts * np.exp(-eta * t) * corr_in * corr_out
        row = ut.conj() @ da
        total = 0.0 + 0.0j
        for l in range(spec.dim):
            for m in range(spec.dim):
                c = row[l] * dother[l, m] * vt[m]
                if c == 0:
                    continue
                total += c * np.dot(base, np.exp(1j * (evals[m] - evals[l]) * t))
        return -1j * total

    # n == 3: gap variables s = t1 - t2 >= 0, r = t2 >= 0 parametrize the
    # ordered simplex exactly; the product-Simpson double sum is evaluated
    # in a separated form over the correlation quadrature nodes (an exact
    # regrouping of the nested sum, cross-checked in the test suite).
    x_b, c_b = _corr_weights(bath.density(b), n_energy)
    corr_s = np.conj(_corr_on_grid(bath.density(a), t, n_energy))
    corr_r = np.conj(_corr_on_grid(bath.density(1 - a), t, n_energy))
    base_s = wts * np.exp(-eta * t) * corr_s
    base_r = wts * np.exp(-2.0 * eta * t) * corr_r

    shifts = sorted({round(float(evals[p] - evals[q]), 12)
                     for p in range(spec.dim) for q in range(spec.dim)})
    # rows: base_s and base_r times each shift's phase; every chunk of the
    # exp(i t x) block is built once and contracted against all rows
    phases = np.exp(1j * np.outer(shifts, t))
    rows = np.vstack([base_s * phases, base_r * phases])
    f = np.empty((rows.shape[0], x_b.size), dtype=complex)
    for chunk in range(0, x_b.size, 64):
        sl = slice(chunk, chunk + 64)
        f[:, sl] = rows @ np.exp(1j * np.outer(t, x_b[sl]))
    f_s = dict(zip(shifts, f[:len(shifts)]))
    f_r = dict(zip(shifts, f[len(shifts):]))

    row = ut.conj() @ da
    total = 0.0 + 0.0j
    for l in range(spec.dim):
        for m in range(spec.dim):
            for p in range(spec.dim):
                c = row[l] * dother[l, m] * da[m, p] * vt[p]
                if c == 0:
                    continue
                am = round(float(evals[p] - evals[m]), 12)
                al = round(float(evals[p] - evals[l]), 12)
                total += c * np.dot(c_b, f_s[am] * f_r[al])
    return -total


def dyson_reference(tm, pair, n, u, v, n_energy=192):
    """Energy-domain counterpart i * integral dE u^+ T^{pair}_n(E) v rho_b(E)
    built from the closed-form series term (the quantity the oracle checks)."""
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
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    total = 0.0 + 0.0j
    for E, wt in zip(x, w):
        term = tm.appendix_term(pair, order, float(E))
        total += wt * prof(E) * (u.conj() @ term @ v)
    return 1j * total


def richardson_extrapolate(values, etas):
    """Value at eta = 0 from samples at the given etas (Lagrange at 0)."""
    etas = [float(e) for e in etas]
    out = 0.0 + 0.0j
    for i, vi in enumerate(values):
        li = 1.0
        for j, ej in enumerate(etas):
            if j != i:
                li *= (0.0 - ej) / (etas[i] - ej)
        out += li * vi
    return out
