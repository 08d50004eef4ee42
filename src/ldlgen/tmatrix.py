"""Scattering blocks: T kernels, (1+T) inversion, R coefficients, series.

All omega bookkeeping lives on the finite Bohr set B.  A block with
definite transfer mu (meaning e^{itH_S} X e^{-itH_S} = e^{-it mu} X)
vanishes identically unless mu is in B, so every linear-algebra object
here can be restricted exactly to the finite index set
I(omega') = omega' + B: inverse-column blocks carry transfer
omega - omega', partial Neumann chains likewise, and rows outside I are
satisfied automatically because their would-be entries have off-lattice
transfer.

In the eigenbasis of H_S the column of (1+T_eps)^{-1} belonging to
eigen-column m has exactly one candidate entry per row k, the one in the
block omega = omega' + rep(e_m - e_k).  These offsets depend on m only
through m's level, so the |B|*d stacked block system reduces to one
d x d system per level, whose inverse holds the columns of every
eigen-column of that level; `TMatrix._level_inverses` solves them for
every grid node and omega' at once.  The reduction holds when the canonical
transfers compose, transfer[k, m] - transfer[k, p] = transfer[p, m]
within the Bohr tolerance for every eigen-index triple; chained Bohr
clusters can break it.  The stacked system is the verification oracle
(`ldlgen.verification`); the series chains (`appendix_term`) and the
Dyson oracle never call `_kernels`, so they check the kernel entries
independently.

Every gamma argument of the kernels, the R blocks and the series chains is
(E_n - a) + b for a node E_n and an offset pair (a, b): (W[k, m], omega[k])
inside a kernel, (0, omega[k]) outside it, (0, omega' + W) in the R blocks
and (0, W) in the series chains.  The pairs do not depend on the node
unless the offsets omega do (the stacked oracle gives each column its own
omega'; each node then gets its own row of pairs).  Each call finds the
distinct pairs it needs and evaluates gamma on the table of nodes by
distinct pairs, then gathers it (`_gamma_pairs`), so it is asked each
distinct argument once and every value keeps its bits.  The products that
share a factor across nodes (L with the kernel sums, D with the solutions)
are each one flat GEMM over every row, not one small matmul per node.
"""

import itertools
import math
from collections import namedtuple

import numpy as np

from .bath import GammaTable, _exp_rows, gauss_legendre_nodes, _thermal_weights, validate_bath
from .errors import NumericError, ValidationError, _array, _count, _energies, _index, _real
from .model import spectral_decompose

CONDITION_LIMIT = 1e12
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
# Largest Dyson-oracle time grid, in steps (the grid has steps + 1 points);
# at d = 2 the kept d^2 phase rows then take 64 MiB, and the n = 3
# zero-padded buffer, at most 2 d^2 rows, 128 MiB.
MAX_GRID_STEPS = 1 << 20
# Most energy nodes a Dyson contraction takes.  The Gauss-Legendre rule is a
# dense n^2 eigensolve (8 MiB and about 0.1 s at the cap), and each density's
# split-exponent factors at MAX_GRID_STEPS hold about 2 sqrt(N) n complex
# entries, 2 * 1025 * 1024 * 16 B = 32 MiB at the cap.
MAX_ENERGY_NODES = 1 << 10
# Most orders `appendix_partial_sums` sums, highest n of `appendix_term` and
# `tmatrix --orders`.  The tmatrix JSON holds 4 * orders d x d matrices, and a
# series whose terms are still above the 1e-12 stopping tolerance after 1000
# orders shrinks by a factor of 0.97 or more per order: too slow to tell from
# divergence, so more orders add output and time, not information.
MAX_SERIES_ORDERS = 1000


def _frobenius(X):
    """np.linalg.norm of each matrix of a stack X (..., m, n), bit for bit: the
    same strided dot products of the real and of the imaginary parts."""
    flat = X.reshape(X.shape[:-2] + (1, X.shape[-2] * X.shape[-1]))
    re, im = flat.real, flat.imag
    return np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0]


def _series_pair(pair):
    """An eps-pair label: exactly one of the strings 00, 01, 10, 11."""
    if not isinstance(pair, str) or pair not in ("00", "01", "10", "11"):
        raise ValidationError(f"pair must be one of 00, 01, 10, 11, got {pair!r}")
    return pair


ThermalPass = namedtuple("ThermalPass", "eps coef r")
# The eta-independent part of the Dyson oracle on one time grid (see
# `_dyson_grid`), and one density's correlation on it.
DysonGrid = namedtuple("DysonGrid", "t wts evecs phases corr")
GridCorrelation = namedtuple("GridCorrelation", "x c giant baby corr")


def _support(bath):
    """The support nodes of rho0, then of rho1, on one axis of N nodes:
    nodes, trapezoid weights and density values (N,), and each node's eps."""
    parts = [bath.support_nodes(e) for e in (0, 1)]
    nodes, wts, rho = (np.concatenate(a) for a in zip(*parts))
    return nodes, wts, rho, np.repeat([0, 1], [part[0].size for part in parts])


class TMatrix:
    """Bundles a validated model with its spectral data and gamma evaluator.

    Every method is a pure function of (model, bath).  The thermal pass
    over the support nodes of both densities is computed once per instance
    (`thermal_pass`) and holds the R column unsplit, in the eigenbasis, so
    an instance is cheap to reuse and to keep; it is safe for read-only
    sharing once its thermal pass is built.
    """

    def __init__(self, spec, spectral=None):
        self.spec = spec
        self.spectral = spectral if spectral is not None else spectral_decompose(spec)
        self._gammas = GammaTable(spec.bath)
        sd = self.spectral
        self._thermal = None
        # eigenbasis data: the coupling pair (D~, D~^+), indexed by eps in the
        # kernels, the R blocks and the series chains, and one representative
        # column per level
        coupling = sd.basis.conj().T @ spec.coupling @ sd.basis
        self._pair = (coupling, coupling.conj().T)
        self._level_columns = np.array([int(np.flatnonzero(sd.level_index == k)[0])
                                        for k in range(sd.energies.size)])

    # -- basic lookups -------------------------------------------------

    @property
    def dim(self):
        return self.spec.dim

    @property
    def bohr(self):
        return self.spectral.bohr

    def _gamma_pairs(self, eps, nodes, a, b, needed):
        """gamma_eps((E_n - a[q]) + b[., q]) at the nodes E_n (N,), 0 where
        needed[q] fails: shape (N, Q), for a and needed (Q,) and b (1, Q), or
        (N, Q) for one row per node.  One lexsort finds the distinct needed
        pairs by their bits; gamma is asked once per node and distinct pair
        and gathered, so each value has its own argument's bits."""
        q = np.flatnonzero(needed)
        bits = np.vstack([b[:, q], a[q]]).view(np.int64)
        order = np.lexsort(bits)
        sorted_bits = bits[:, order]
        new = np.ones(q.size, dtype=bool)
        new[1:] = (sorted_bits[:, 1:] != sorted_bits[:, :-1]).any(axis=0)
        first = q[order[new]]
        inv = np.full(a.size, first.size)     # P, the zero column, where not needed
        inv[q[order]] = np.cumsum(new) - 1
        g = np.zeros((nodes.size, first.size + 1), dtype=complex)
        g[:, :-1] = self._gammas.gamma(eps, (nodes[:, None] - a[first]) + b[:, first])
        return np.take(g, inv, axis=1)

    # -- the scattering kernel ------------------------------------------------

    def _kernels(self, eps, nodes, omega):
        """Rows of the kernel operators K_eps in the eigenbasis: row k of
        K_eps(omega[r, j, k]) at each node E = nodes[n], for nodes (N,) and
        per-row offsets omega (R, M, d), R = 1 when every node shares them
        and R = N for one row of offsets per node.  With (L, R) = (D~, D~^+)
        for eps = 0 and (D~^+, D~) for eps = 1, D~ the coupling in the
        eigenbasis and W the canonical transfer,

            K_eps(omega)[k, p] = gamma_eps(E + omega)
                sum_m gamma_{1-eps}(E - W[k, m] + omega) L[k, m] R[m, p],

        the Bohr-pair sums gamma D_{mu1} D^+_{mu2} (eps = 0) and
        gamma D^+_{nu1} D_{nu2} (eps = 1); entry (k, p) carries transfer
        W[k, p].  Returns an array of shape (N, M, d, d).  gamma is asked
        once per node and distinct pair (`_gamma_pairs`): (0, omega[k])
        outside, (W[k, m], omega[k]) inside.  The sum over m is one GEMM.
        """
        eps = _index(eps, "eps")
        left, right = self._pair[eps], self._pair[1 - eps]
        rows, m, d = omega.shape
        b, q = omega.reshape(rows, m * d), m * d
        g_out = self._gamma_pairs(eps, nodes, np.zeros(q), b, np.resize(left.any(axis=1), q))
        g_in = self._gamma_pairs(1 - eps, nodes, np.resize(self.spectral.transfer, q * d),
                                 np.repeat(b, d, axis=1), np.resize(left != 0, q * d))
        summed = (left * g_in.reshape(-1, d, d)).reshape(-1, d) @ right
        return (g_out.reshape(-1, d, 1) * summed.reshape(-1, d, d)).reshape(nodes.size, m, d, d)

    # -- level-basis solve ---------------------------------------------------

    def _level_inverses(self, eps, energies, omega_prime):
        """Restricted inverses of 1+T_eps for every node, omega' and level.

        By the finite-index-set argument of the module docstring, the
        column of (1+T_eps)^{-1} at omega' belonging to eigen-column m
        solves a d x d system: its entry x_k is the block at
        omega_k = omega' + rep(e_m - e_k), so the system matrix is
        1 + `_kernels` with row k at the offset omega_k.  It depends on m
        only through m's level, so one system per target level serves
        every column of that level.  The result equals the stacked
        system's wherever the canonical transfers compose (see the module
        docstring); on chained Bohr clusters they need not, and the two
        systems differ at the size of the entries that break it.

        energies: (n,); omega_prime: (S,).  Returns X of shape
        (n, S, L, d, d): X[i, s, l] inverts the system of target level l
        at omega' = omega_prime[s] and E = energies[i], whose row k sits
        at omega_prime[s] + W[k, c] for a column c of level l, W the
        canonical transfer; these offsets are shared by every node, one
        `_kernels` row (R = 1).  Raises NumericError when a system has an
        entry that is not finite (the kernel overflows), naming the first
        such system, or when a system's 2-norm condition number passes the
        limit, naming the system of largest condition number.

        The gate is screened with the inverse the batched solve returns:
        since kappa_2 <= kappa_F = |A|_F |A^-1|_F <= d kappa_2, a system
        whose kappa_F is finite and at most half the limit passes (the
        half covers rounding in the computed inverse, about kappa u
        relative at the limit), and only the others get the SVD of
        `np.linalg.cond` (`_condition_gate`).  Every system past the limit
        is among them, so the decision and the system named are those of
        an SVD of every system.  When the solve meets an exactly singular
        system (LinAlgError), every system gets the SVD.
        """
        d = self.dim
        E, omega_prime = np.asarray(energies, dtype=float), np.asarray(omega_prime, dtype=float)
        # omega[s, l, k] = omega'[s] + rep(e_c - e_k) for the column c of level l
        omega = omega_prime[:, None, None] + self.spectral.transfer[:, self._level_columns].T
        with np.errstate(over="ignore", invalid="ignore"):
            K = self._kernels(eps, E, omega.reshape(1, -1, d))
            A = np.eye(d) + K.reshape((E.size,) + omega.shape + (d,))
        finite = np.isfinite(A).all(axis=(-2, -1))
        if not finite.all():
            i, s, level = np.argwhere(~finite)[0]
            raise NumericError(f"1+T_{eps} at omega'={omega_prime[s]}, level {level}, E={E[i]} "
                               f"overflows: the scattering kernel is not finite there")
        try:
            X = np.linalg.solve(A, np.broadcast_to(np.eye(d, dtype=complex), A.shape))
        except np.linalg.LinAlgError:
            self._condition_gate(eps, E, omega_prime, A, np.ones(A.shape[:-2], dtype=bool))
            raise
        with np.errstate(over="ignore", invalid="ignore"):
            kappa_f = np.linalg.norm(A, axis=(-2, -1)) * np.linalg.norm(X, axis=(-2, -1))
        self._condition_gate(eps, E, omega_prime, A, ~(kappa_f <= CONDITION_LIMIT / 2))
        return X

    def _condition_gate(self, eps, E, omega_prime, A, unsure):
        """NumericError if the largest 2-norm condition number of the systems
        A (n, S, L, d, d) is not finite or passes the limit, naming that
        system by its omega', target level and E; only the systems marked
        `unsure` get an SVD, the others count as 0."""
        if not unsure.any():
            return
        cond = np.zeros(unsure.shape)
        cond[unsure] = np.linalg.cond(A[unsure])
        i, s, level = np.unravel_index(np.argmax(np.where(np.isfinite(cond), cond, np.inf)),
                                       cond.shape)
        worst = cond[i, s, level]
        if not np.isfinite(worst) or worst > CONDITION_LIMIT:
            raise NumericError(
                f"1+T_{eps} at omega'={omega_prime[s]}, level {level}, E={E[i]} is numerically "
                f"singular (condition estimate {worst:.3e})"
            )

    def r_blocks(self, energies, omega_prime=0.0):
        """R^{eps1,eps2}_{omega,omega'}(E) for every node, pair and omega at once.

        Returns a complex array of shape (n, 2, 2, |B|, d, d) whose entry
        [i, eps1, eps2, b] is the block at E = energies[i] and
        omega = omega' + B[b] (transfer B[b]); a scalar energy gives the
        shape without the node axis (see `_energies`):

        R^{0,1} = -i sum D_{omega-omega_1} (1+T_1)^{-1}_{omega_1, omega'}
        R^{1,0} = -i sum D^+_{omega_1-omega} (1+T_0)^{-1}_{omega_1, omega'}
        R^{0,0} = -sum D_{omega-omega_1} (1+T_1)^{-1}_{omega_1, omega_2}
                       D^+_{omega'-omega_2} gamma_1(E+omega_2)
        R^{1,1} = -sum D^+_{omega_1-omega} (1+T_0)^{-1}_{omega_1, omega_2}
                       D_{omega_2-omega'} gamma_0(E+omega_2)

        with every off-lattice D subscript treated as zero.  In the
        eigenbasis, with W the canonical transfer (W[i, j] = rep(e_j - e_i)),
        the sum over omega_2 = omega' + W[j, m] = omega' + rep(e_m - e_j)
        runs over the entries (j, m) of the outer D factor.  Column j of
        the inverse at omega_2 is column j of the system of m's level at
        omega', whose row k sits at omega' + W[k, m], so one restricted
        inverse per node and level serves every (j, m), and all of them
        come from a single batched solve (`_level_inverses`).
        """
        energies, omega_prime = _energies(energies), _real(omega_prime, "omega'")
        R = self.spectral.split(self._r_eigen(energies.reshape(-1), omega_prime))
        return R.reshape(energies.shape + R.shape[1:])

    def _r_eigen(self, E, omega_prime):
        """The four R^{eps1,eps2}_{., omega'}(E) of `r_blocks` at the nodes E (n,),
        before the split by transfer: shape (n, 2, 2, d, d), in the eigenbasis.
        gamma_eps(E + omega') at the offsets omega' + W is asked once per
        node and distinct offset (`_gamma_pairs`), and both products with
        the outer D factor are one flat GEMM over every node."""
        lev, W = self.spectral.level_index, self.spectral.transfer
        d = self.dim
        full = np.empty((E.size, 2, 2, d, d), dtype=complex)
        for eps in (0, 1):
            # Y[i, m, k, j]: entry k of eigen-column j's solution at the
            # shift omega_2 = omega' + W[j, m] = omega' + rep(e_m - e_j), from
            # the system of m's level
            Y = self._level_inverses(eps, E, [omega_prime])[:, 0, lev]
            # eps = 1 solves feed R^{0,1} and R^{0,0}; eps = 0 feed R^{1,0}, R^{1,1}
            a = 1 - eps
            left, right = self._pair[a], self._pair[eps]
            g = self._gamma_pairs(eps, E, np.zeros(d * d), (omega_prime + W).reshape(1, -1),
                                  (right != 0).reshape(-1))
            # rows[0][i, m, k] = Y[i, m, k, m], the solution at omega' itself;
            # rows[1][i, m, k] = sum_j Y[i, m, k, j] g[i, j, m] right[j, m]
            rows = np.stack([np.diagonal(Y, axis1=1, axis2=3).transpose(0, 2, 1),
                             np.einsum("imkj,ijm->imk", Y, g.reshape(-1, d, d) * right)])
            # out[., i, x, m] = sum_k left[x, k] rows[., i, m, k]
            out = (rows.reshape(-1, d) @ left.T).reshape(rows.shape).swapaxes(-1, -2)
            full[:, a, eps] = -1j * out[0]
            full[:, a, a] = -out[1]
        return full

    def _re_gamma(self, nodes):
        """Re gamma_e(E + omega) = pi rho_e(E + omega), shape (n, 2, |B|)."""
        shifted = nodes[:, None] + self.bohr[None, :]
        return np.stack([math.pi * self.spec.bath.density(e)(shifted) for e in (0, 1)], axis=1)

    def thermal_pass(self):
        """The support nodes of rho0, then of rho1, on one axis of N nodes:
        eps (N,), each node's density; coef (N,), w exp(-beta E) rho_eps(E);
        r (N, 2, d, d), the R column R^{e,eps}_{.,0}(E) in the eigenbasis of
        H_S, unsplit, so entry (i, j) is the part of transfer W[i, j].  Built
        once per instance, after `validate_bath`, from one batched solve of
        the R blocks (`_r_eigen`, what `r_blocks` splits), keeping the pairs
        (e, eps) of each node's own eps: r equals
        _r_eigen(nodes, 0.0)[arange(N), :, eps].  Read by drift,
        drift_from_t_operator, build_generator and the three-term map.
        """
        if self._thermal is None:
            validate_bath(self.spec.bath, self.bohr, self.spec.beta)
            nodes, wts, rho, eps = _support(self.spec.bath)
            self._thermal = ThermalPass(
                eps=eps, coef=_thermal_weights(nodes, wts, rho, self.spec.beta),
                r=self._r_eigen(nodes, 0.0)[np.arange(eps.size), :, eps])
        return self._thermal

    # -- pointwise views ---------------------------------------------------

    def r_coefficient(self, eps1, eps2, omega, omega_prime, E):
        """Block coefficient R^{eps1,eps2}_{omega, omega'}(E) (see r_blocks);
        zero when omega - omega' is off the Bohr lattice."""
        eps1, eps2 = _index(eps1, "eps1"), _index(eps2, "eps2")
        R = self.r_blocks(E, omega_prime)[..., eps1, eps2, :, :, :]
        return self.spectral.at(R, _real(omega, "omega") - omega_prime)

    def t_components(self, E):
        """The four blocks t^{eps,eps'}(E) = sum over omega of R^{eps,eps'}_{omega,0}(E)."""
        R = self.r_blocks(E)
        return {(a, b): R[..., a, b, :, :, :].sum(axis=-3) for a, b in PAIRS}

    # -- closed-form series terms ------------------------------------------

    def _appendix_terms(self, pair, E):
        """Yields (n, T^{pair}_k(E)) for n = 1, 2, ... (diagonal pairs,
        k = 2n) or n = 0, 1, ... (off-diagonal pairs, k = 2n+1).

        Evaluates the alternating multi-sum over Bohr subscripts with
        cumulative-shift gamma arguments; terms with any off-lattice subscript
        vanish because the corresponding D block is zero.  In the eigenbasis the
        chain of factors j = 2n - [diagonal], ..., 1 is built innermost first:
        each is a layer (D~, D~^+)[eps] @ L times gamma_eps(E + W) on its
        non-zero entries, because the accumulated shift of entry (k, p) of a
        partial chain is its canonical transfer W[k, p] (an exact regrouping of
        the printed sum on spectra whose representatives compose).  A layer
        depends on j only through (j + a) % 2, so the order-(n+1) chain is the
        order-n chain with layers 2 and 1 applied on the left, and one chain
        serves every order.  gamma_eps(E + W) is one table, built at the first
        layer of eps on the rows (D~, D~^+)[eps] reaches (`_gamma_pairs`).  As
        W[k, p] = W[k, c], c the column of p's level, `r_blocks(E)` asks the
        same at omega' = 0, and it refuses each E a direct call refuses
        (E + W on a rect support edge in a reached row).
        """
        a, diagonal = int(pair[0]), pair[0] == pair[1]
        sd, d = self.spectral, self.dim
        W = sd.transfer.reshape(1, -1)
        full = (self.spec.coupling, self.spec.coupling.conj().T)[a]
        chain = np.broadcast_to(np.eye(d, dtype=complex), E.shape + (d, d))
        layers, tables = (1,) if diagonal else (), [None, None]
        for n in itertools.count(int(diagonal)):
            for j in layers:
                # D~^+ with gamma_1 when j + a is odd, D~ with gamma_0 when even
                geps = (j + a) % 2
                if tables[geps] is None:
                    tables[geps] = self._gamma_pairs(geps, E.ravel(), np.zeros(d * d), W, np.repeat(
                        self._pair[geps].any(axis=1), d)).reshape(chain.shape)
                chain = self._pair[geps] @ chain
                chain = chain * np.where(chain != 0, tables[geps], 0)
            pref = (-1.0) ** n * (1.0 if diagonal else -1j)
            yield n, pref * (full @ (sd.basis @ chain @ sd.basis.conj().T))
            layers = (2, 1)

    def appendix_term(self, pair, n, E):
        """Closed-form series term T^{pair}_k(E), k = 2n (diagonal pairs,
        n >= 1) or k = 2n+1 (off-diagonal pairs, n >= 0), with n at most
        MAX_SERIES_ORDERS; see `_appendix_terms`."""
        pair, n, E = _series_pair(pair), _count(n, "series order n"), _energies(E)
        diagonal = pair[0] == pair[1]
        if not diagonal <= n <= MAX_SERIES_ORDERS:
            raise ValidationError(f"pair {pair} needs {diagonal:d} <= n <= {MAX_SERIES_ORDERS}")
        return next(itertools.islice(self._appendix_terms(pair, E), n - diagonal, None))[1]

    def appendix_partial_sums(self, pair, E, max_orders=24, tol=1e-12):
        """Cumulative series sums for one pair; stops at the first term
        whose Frobenius norm drops below tol.  Returns (sums, converged).
        A 1-D array of energies sums every energy at once: each entry of
        sums then stacks the energies' totals, an energy's total is frozen
        once its own term drops below tol, and converged is an array, so
        sums[-1][i] and converged[i] are those of energy E[i] alone.  tol
        must be a finite number >= 0, max_orders at most MAX_SERIES_ORDERS.
        A sum that overflows to a non-finite value before it is frozen
        raises NumericError."""
        pair, E, tol = _series_pair(pair), _energies(E), _real(tol, "series tolerance tol")
        if not 1 <= _count(max_orders, "max_orders") <= MAX_SERIES_ORDERS:
            raise ValidationError(f"max_orders must be between 1 and {MAX_SERIES_ORDERS}")
        if tol < 0:
            raise ValidationError(f"series tolerance tol must be >= 0, got {tol!r}")
        total = np.zeros(E.shape + (self.dim, self.dim), dtype=complex)
        live = np.ones(E.shape, dtype=bool)
        sums = []
        with np.errstate(over="ignore", invalid="ignore"):
            for n, term in itertools.islice(self._appendix_terms(pair, E), max_orders):
                total = np.where(live[..., None, None], total + term, total)
                if not np.isfinite(total).all():
                    raise NumericError(f"appendix series of pair {pair} overflows at "
                                       f"order n = {n}; the series diverges here")
                sums.append(total)
                live = live & ~(_frobenius(term) < tol)
                if not live.any():
                    break
        return sums, (~live if E.ndim else not live)


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
    vectors shared by the oracle and its reference; returns n_energy as
    an int, then u, v as complex arrays."""
    _series_pair(pair)
    n_energy = _count(n_energy, "n_energy")
    if not 1 <= n_energy <= MAX_ENERGY_NODES:
        raise ValidationError(f"n_energy must be between 1 and {MAX_ENERGY_NODES}, "
                              f"got {n_energy}")
    return n_energy, _array(u, (tm.dim,), "u"), _array(v, (tm.dim,), "v")


def _corr_weights(profile, n_nodes):
    x, w = gauss_legendre_nodes(profile.a, profile.b, n_nodes)
    return x, w * profile(x)


def _grid_exponentials(n_points, dt, x):
    """Split-exponent factors of the block exp(i k dt x), k < n_points.

    With m = ceil(sqrt(n_points)) and k = q m + r, exp(i k dt x) =
    giant[q] * baby[r].  Returns giant, shape (ceil(n_points / m), |x|),
    and baby, shape (m, |x|); grid index k is entry (q, r) of a row-major
    (ceil(n_points / m), m) array, zero-padded past n_points.  Each factor
    table is itself built by the same split (`bath._exp_rows`), so about
    4 n_points^(1/4) |x| exponentials are evaluated instead of n_points |x|
    (18,560 instead of 128,320 at 40,001 points and 320 nodes).
    """
    m = math.isqrt(n_points - 1) + 1
    return _exp_rows(-(-n_points // m), m * dt, x), _exp_rows(m, dt, x)


def _grid_correlation(profile, dt, n_points, n_nodes):
    """corr(k dt) = integral rho(E) e^{i k dt E} dE for k < n_points, by
    Gauss-Legendre quadrature on the split-exponent factors, with the
    nodes, weights and factors it is built from."""
    x, c = _corr_weights(profile, n_nodes)
    giant, baby = _grid_exponentials(n_points, dt, x)
    return GridCorrelation(x, c, giant, baby, ((giant * c) @ baby.T).ravel()[:n_points])


def _grid_fourier(padded, giant, baby):
    """sum over k of rows[..., k] exp(i k dt x) for every node x, on the
    split-exponent factors of exp(i k dt x) (`_grid_exponentials`); padded
    holds the rows zero-padded to giant.shape[0] * baby.shape[0] grid
    indices.  One matmul against baby, one contraction against giant."""
    blocks = padded.reshape(padded.shape[:-1] + (giant.shape[0], baby.shape[0])) @ baby
    return np.einsum("...qx,qx->...x", blocks, giant)


def _simpson_weights(n_points, h):
    """Composite Simpson weights on a uniform grid (n_points odd)."""
    if n_points % 2 == 0:
        raise ValidationError("Simpson rule needs an odd number of grid points")
    w = np.full(n_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (h / 3.0)


# The one Dyson time grid a process keeps, as (key, DysonGrid); see `_dyson_grid`.
_dyson = None


def _dyson_grid(spec, dt, n_steps, n_energy):
    """The eta-independent part of `dyson_oracle` on the grid t = k dt,
    k = 0..n_steps: t and its Simpson weights; evecs, the eigenbasis of
    H_S; phases (d, d, N), phases[p, q] = exp(i (e_p - e_q) t); and corr,
    one GridCorrelation of n_energy nodes per density eps.

    A process keeps one grid, read-only, in `_dyson`.  Its key is all the
    grid reads, compared by exact content: the shape and bytes of
    h_system, the two density profiles, dt, n_steps and n_energy.  So a
    fresh TMatrix of the same model, or of an equal one loaded again,
    reuses the grid, and a call with another key drops it before building
    its own.
    """
    global _dyson
    h = spec.h_system
    key = (h.shape, h.tobytes(), spec.bath.rho0, spec.bath.rho1, dt, n_steps, n_energy)
    kept = _dyson
    if kept is not None and kept[0] == key:
        return kept[1]
    # the old grid is freed before the new one is built
    _dyson = kept = None
    evals, evecs = np.linalg.eigh(h)
    t = np.arange(n_steps + 1) * dt
    # phases[q, p] = conj(phases[p, q]) and phases[p, p] = 1 exactly,
    # so only the d (d - 1) / 2 rows p < q take exponentials
    upper = np.triu_indices(evals.size, 1)
    above = np.exp(1j * (evals[:, None] - evals[None, :])[upper][:, None] * t)
    phases = np.empty((evals.size, evals.size, t.size), dtype=complex)
    phases[upper] = above
    phases[upper[::-1]] = np.conj(above)
    phases[np.diag_indices(evals.size)] = 1.0
    wts = _simpson_weights(t.size, dt)
    corr = tuple(_grid_correlation(spec.bath.density(e), dt, t.size, n_energy) for e in (0, 1))
    for a in (t, wts, evecs, phases, *itertools.chain.from_iterable(corr)):
        a.flags.writeable = False
    grid = DysonGrid(t=t, wts=wts, evecs=evecs, phases=phases, corr=corr)
    _dyson = (key, grid)
    return grid


def dyson_oracle(tm, pair, n, u, v, eta, *, t_max=400.0, dt=0.01, n_energy=320):
    """Time-domain contraction of the n-th scattering expansion term.

    Supports n in {1, 2, 3}.  Returns 0 when the (pair, n) parities are
    incompatible, i.e. when the exact matrix element vanishes.  Every
    input is checked first: eta, t_max and dt finite with eta > 0,
    0 < dt <= t_max and t_max / dt <= MAX_GRID_STEPS, n_energy an integer
    in 1..MAX_ENERGY_NODES, pair one of 00, 01, 10, 11, and u, v finite
    vectors of length d; anything else raises ValidationError.

    Cost, with N = t_max / dt + 1 grid points (step count rounded up to
    even) and n_energy = |x| correlation nodes.  Everything that does not
    depend on eta is one grid per process (`_dyson_grid`), keyed by H_S,
    both densities, dt, the step count and n_energy, and kept until a call
    with another key replaces it, so it outlives its TMatrix (about 8.6 MB
    on the grid of acceptance criterion 03): the Simpson weights, the
    eigenbasis of H_S and its d^2 phase rows (d (d - 1) N / 2
    exponentials, the rest by conjugate symmetry), and both correlations
    on the grid, each from about 4 N^(1/4) |x| exponentials (the
    split-exponent factors of exp(i t x), each table itself split;
    `_grid_exponentials`), 2 sqrt(N) |x| complex products and N |x|
    multiply-adds.  A call then pays for the eta-dependent part only: the
    N damping exponentials, a d^2 N contraction for n = 2, and for n = 3
    one split-exponent contraction against the |x| nodes of rho_b of the
    K of its 2 d^2 damped phase rows that a non-zero coefficient reads,
    about K N |x| multiply-adds; on the n = 3 cases of acceptance
    criterion 03 on models/tm_nr.json, K = 2 of the 8 rows.
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
    if not t_max / dt <= MAX_GRID_STEPS:
        raise ValidationError(f"t_max/dt = {t_max / dt:.6g} exceeds the time-grid budget of "
                              f"{MAX_GRID_STEPS} steps; raise dt or lower t_max")
    if isinstance(n, bool) or n not in (1, 2, 3):
        raise ValidationError("dyson oracle supports n in {1, 2, 3}")
    n_energy, u, v = _contraction_vectors(tm, pair, u, v, n_energy)
    ab = _parity_pair(pair, n)
    if ab is None:
        return 0.0 + 0.0j
    a, b = ab
    spec = tm.spec

    d_ops = (spec.coupling, spec.coupling.conj().T)
    if n == 1:
        return complex(u.conj() @ d_ops[a] @ v) * spec.bath.density(b).norm_squared()

    n_steps = int(np.rint(t_max / dt))
    if n_steps % 2 == 1:
        n_steps += 1
    t, wts, evecs, phases, corr = _dyson_grid(spec, dt, n_steps, n_energy)
    ut = evecs.conj().T @ u
    vt = evecs.conj().T @ v
    da = evecs.conj().T @ d_ops[a] @ evecs
    dother = evecs.conj().T @ d_ops[1 - a] @ evecs
    row = ut.conj() @ da

    if n == 2:
        # -i * integral_0^inf corr_{1-a}(-t) corr_a(t)
        #      u^+ D_a e^{-itH} D_{1-a} e^{itH} v * e^{-eta t} dt,
        # whose (l, m) eigen-entry carries the phase exp(i (e_m - e_l) t)
        # a huge eta overflows -eta t to -inf, whose exp is the limit 0
        with np.errstate(over="ignore"):
            damping = np.exp(-eta * t)
        base = wts * damping * np.conj(corr[1 - a].corr) * corr[a].corr
        coef = row[:, None] * dother * vt[None, :]
        return -1j * np.sum(coef * (phases @ base).T)

    # n == 3: gap variables s = t1 - t2 >= 0, r = t2 >= 0 parametrize the
    # ordered simplex exactly; the product-Simpson double sum is evaluated
    # in a separated form over the correlation quadrature nodes (an exact
    # regrouping of the nested sum, cross-checked in the test suite).
    # -eta (2 t), not -2 eta t: at t = 0 a huge eta would give -inf * 0 = NaN;
    # doubling t is exact, so at any other eta the bits are the same
    with np.errstate(over="ignore"):
        damping_s, damping_r = np.exp(-eta * t), np.exp(-eta * (2.0 * t))
    base_s = wts * damping_s * np.conj(corr[a].corr)
    base_r = wts * damping_r * np.conj(corr[1 - a].corr)

    # entry (l, m, p) pairs the s-row of (p, m) with the r-row of (p, l).
    # Only the rows that a non-zero entry reads are transformed: any other
    # row would add exact zeros to the sum.  They are written straight into
    # the zero-padded split-exponent buffer and contracted against
    # exp(i t x_b) at once.
    coef = row[:, None, None] * dother[:, :, None] * da[None] * vt[None, None, :]
    read = coef != 0
    s_p, s_q = np.nonzero(read.any(axis=0).T)
    r_p, r_q = np.nonzero(read.any(axis=1).T)
    giant, baby = corr[b].giant, corr[b].baby
    f_s, f_r = np.zeros((2, tm.dim, tm.dim, giant.shape[1]), dtype=complex)
    if s_p.size:
        padded = np.zeros((s_p.size + r_p.size, giant.shape[0] * baby.shape[0]), dtype=complex)
        np.multiply(base_s, phases[s_p, s_q], out=padded[:s_p.size, :t.size])
        np.multiply(base_r, phases[r_p, r_q], out=padded[s_p.size:, :t.size])
        rows = _grid_fourier(padded, giant, baby)
        f_s[s_p, s_q] = rows[:s_p.size]
        f_r[r_p, r_q] = rows[s_p.size:]
    return -np.einsum("lmp,pmx,plx,x->", coef, f_s, f_r, corr[b].c)


def dyson_reference(tm, pair, n, u, v, n_energy=192):
    """Energy-domain counterpart i * integral dE u^+ T^{pair}_n(E) v rho_b(E)
    built from the closed-form series term (the quantity the oracle checks).
    pair, u, v and n_energy are checked as in `dyson_oracle`, and n must be
    an integer."""
    n_energy, u, v = _contraction_vectors(tm, pair, u, v, n_energy)
    ab = _parity_pair(pair, _count(n, "expansion order n"))
    if ab is None:
        return 0.0 + 0.0j
    prof = tm.spec.bath.density(ab[1])
    x, w = gauss_legendre_nodes(prof.a, prof.b, n_energy)
    terms = u.conj() @ tm.appendix_term(pair, n // 2, x) @ v
    return 1j * complex(np.dot(w * prof(x), terms))


def richardson_extrapolate(values, etas):
    """Value at eta = 0 from samples at the given etas (Lagrange at 0).

    Needs one finite value per eta, at least one sample, and finite,
    distinct etas; anything else raises ValidationError."""
    values = list(values)
    etas = [_real(e, "eta") for e in etas]
    if not etas or len(values) != len(etas):
        raise ValidationError(
            f"need one value per eta and at least one sample, got {len(values)} values "
            f"and {len(etas)} etas")
    values = _array(values, (len(etas),), "values")
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
