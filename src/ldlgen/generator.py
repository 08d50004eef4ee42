"""Markovian generator assembly and the scattering-theory cross-checks.

The Heisenberg generator acts as

    Theta0(X) = Psi(X) - (1/2){Psi(1), X} + i[H, X]

with a completely positive part Psi(X) = sum_j w_j L_j^+ X L_j whose
weights are manifestly nonnegative: each is
2 * w_grid * exp(-beta E) rho_eps(E) * pi rho_eps'(E + omega), where the
last factor is Re gamma evaluated straight from the density (never from
the principal-value part), so Kraus positivity carries no PV noise.

The Kraus family, in the order (eps, grid node, eps', omega), is held by
Bohr sector: weights (K,), and for each entry a row of an operator stack and
a sector, the stack entries of one transfer.  A built generator's stack is
the thermal pass's R column in the eigenbasis of H_S, so there each
operator lies on its sector's entries, and the cached Choi matrix
C = sum_j w_j |vec L_j><vec L_j| is block-diagonal by sector: one small
product per sector, then one rotation to the original basis.  A hand-built,
`from_json` or compressed family is the case of one sector and no
rotation.  The (K, d, d) operators are split from the stack only when
`ops` is read.  Psi(X), Psi(1), the compressed family and the Liouvillian's
Kraus part read C; the rest reads the cached H_eff = H - (i/2) Psi(1), as in
Theta0(X) = Psi(X) + i(H_eff^+ X - X H_eff).

The drift Gamma is assembled twice: directly from the diagonal R blocks,
and through the energy-resolved scattering components t^{eps,eps}(E)
(the partial thermal expectation of the one-particle scattering
operator, diagonally projected); the two routes must agree.  Both
routes, the generator and the identity suite's three-term map read one
thermal pass (`TMatrix.thermal_pass`): the support nodes of both
densities on one axis, with their quadrature weights and the R column
R^{e,eps}_{.,0}(E) in the eigenbasis of H_S, so each is one contraction
over the node axis.  The Bohr frequency omega labels only the jump part:
drift and H read the omega = 0 blocks, which in the eigenbasis are the
level-diagonal entries, and rotate their node sum back once; the Kraus
family reads every entry, by sector.
"""

from functools import cached_property

import numpy as np

from .bath import EnergyGrid, _thermal_weights
from .errors import NumericError, ValidationError, _array, _count, _energies, _fields, _index, _real
from .model import complex_matrix_from_json, complex_matrix_to_json
from .tmatrix import _support


def _level_diagonal(tm, tp):
    """R^{eps,eps}_{0,0}(E) at each node of the thermal pass in the eigenbasis
    of H_S, (N, d, d): the entries of R^{eps,eps}_{.,0}(E) between two states
    of one level.  They are exactly the entries of transfer 0.0, since every
    other entry carries a level difference above the Bohr tolerance."""
    r = tp.r[np.arange(tp.eps.size), tp.eps]
    return np.where(tm.spectral.transfer == 0.0, r, 0)


def _to_original(tm, X):
    """The operator X, given in the eigenbasis of H_S, in the original basis."""
    basis = tm.spectral.basis
    return basis @ X @ basis.conj().T


def drift(tm):
    """Gamma = -sum_eps integral dE exp(-beta E) rho_eps(E) R^{eps,eps}_{0,0}(E)."""
    tp = tm.thermal_pass()
    return _to_original(tm, np.einsum("n,nij->ij", -tp.coef, _level_diagonal(tm, tp)))


def drift_from_t_operator(tm, diagonal_projection=True):
    """Gamma through the one-particle scattering components.

    Computes i * (thermal partial expectation of the scattering operator)
    = -sum_eps integral dE exp(-beta E) rho_eps(E) t^{eps,eps}(E) and
    projects onto the level diagonal, its transfer-0 component by `split`.
    With diagonal_projection=False the bare partial expectation is returned
    (for the single-Bohr-block special case it already equals the drift).
    The sum over omega is the unsplit R column, so the node sum is taken in
    the eigenbasis.
    """
    tp = tm.thermal_pass()
    m = np.einsum("n,nij->ij", -tp.coef, tp.r[np.arange(tp.eps.size), tp.eps])
    if not diagonal_projection:
        return _to_original(tm, m)
    sd = tm.spectral
    return sd.split(m)[sd.bohr_index(0.0)]


def _structure_map(X, r12, r21, ra, rb, re_g):
    """X r12 + r21^+ X + 2 sum_k re_g[k] ra[k]^+ X rb[k], batched over a
    leading node axis: r12, r21 (n, d, d); ra, rb (n, K, d, d); re_g (n, K)."""
    out = X @ r12 + _dagger(r21) @ X
    out += 2.0 * np.einsum("nk,nkim->nim", re_g, _dagger(ra) @ X @ rb)
    return out


def theta_map(tm, X, eps1, eps2, omega1, omega2, E):
    """Structure map of the pre-averaged Heisenberg equation:

    X R^{e1,e2}_{w1,w2} + (R^{e2,e1}_{w2,w1})^+ X
      + 2 sum_{e,w} Re gamma_e(E+w) (R^{e,e1}_{w,w1})^+ X R^{e,e2}_{w,w2}

    E is a finite energy or a 1-D array of them; an array adds a leading
    node axis to the result.
    """
    eps1, eps2 = _index(eps1, "eps1"), _index(eps2, "eps2")
    X, E = _array(X, (tm.dim, tm.dim), "X"), _energies(E)
    nodes = E.reshape(-1)
    at = tm.spectral.at
    R1 = tm.r_blocks(nodes, omega1)
    R2 = R1 if omega2 == omega1 else tm.r_blocks(nodes, omega2)
    blocks = 2 * tm.bohr.size
    ra = at(R1[:, :, eps1], tm.bohr - omega1).reshape(nodes.size, blocks, tm.dim, tm.dim)
    rb = at(R2[:, :, eps2], tm.bohr - omega2).reshape(ra.shape)
    re_g = tm._re_gamma(nodes).reshape(nodes.size, blocks)
    out = _structure_map(X, at(R2[:, eps1, eps2], omega1 - omega2),
                         at(R1[:, eps2, eps1], omega2 - omega1), ra, rb, re_g)
    return out.reshape(E.shape + X.shape)


class GKSLGenerator:
    """Drift, effective Hamiltonian and weighted Kraus family.

    Psi(X) = sum_j weights[j] ops[j]^+ X ops[j], with weights (K,) and ops
    (K, d, d); an empty family has shapes (0,) and (0, d, d).  The family is
    held by Bohr sector: entry j is row `_row[j]` of an operator stack given
    in a basis U, masked to the entries of its sector `_sector[j]`, and
    ops[j] is that masked row rotated by U.  A generator built from a model
    holds the thermal pass's R column in the eigenbasis of H_S, with one
    sector per transfer (`SpectralData`); any other holds ops itself as one
    sector of every entry, with U = 1.
    """

    def __init__(self, drift, hamiltonian, weights, ops, grid=None):
        d = self._parts(drift, hamiltonian, weights, grid)
        # an empty family may come as [] rather than of shape (0, d, d)
        ops = ops if np.size(ops) else np.zeros((0, d, d))
        self.ops = _array(ops, (self.weights.size, d, d), "Kraus operators")
        self._stack, self._spectral = self.ops, None
        self._row, self._sector = np.arange(self.weights.size), np.zeros(self.weights.size, int)

    @classmethod
    def _by_sector(cls, drift, hamiltonian, weights, grid, stack, row, sector, spectral):
        """The family of rows of `stack` (M, d, d), in the eigenbasis of
        `spectral`, with sectors indexed like its ``bohr``."""
        gen = cls.__new__(cls)
        d = gen._parts(drift, hamiltonian, weights, grid)
        gen._stack = _array(stack, (None, d, d), "Kraus operators")
        gen._row, gen._sector, gen._spectral = row, sector, spectral
        return gen

    def _parts(self, drift, hamiltonian, weights, grid):
        """Check and set every part but the family's operators; returns d."""
        shape = np.shape(hamiltonian)
        if len(shape) != 2:
            raise ValidationError(f"hamiltonian must be a matrix, not of shape {shape}")
        d = shape[0]
        self.hamiltonian = _array(hamiltonian, (d, d), "hamiltonian")
        self.drift = _array(drift, (d, d), "drift")
        weights = np.ravel(weights)
        self.weights = _array(weights, weights.shape, "Kraus weights", dtype=float,
                              nonnegative=True)
        self.grid = grid
        return d

    @cached_property
    def ops(self):
        """The operators (K, d, d) in the original basis.  A built generator
        splits its stack by transfer (`SpectralData.split`) on the first read
        and takes each entry's sector, read-only; any other holds them."""
        return _read_only(self._spectral.split(self._stack)[self._row, self._sector])

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    @property
    def kraus(self):
        """The family as (weight, operator) pairs."""
        return list(zip(self.weights.tolist(), self.ops))

    @cached_property
    def choi(self):
        """Choi matrix sum_j w_j |vec L_j><vec L_j| (row-major vec), read-only:
        Hermitian, positive semidefinite whenever the weights are nonnegative, of
        rank the number of independent Kraus directions.

        In the stack's basis each L_j lies on the entries E_g of its sector g,
        so the matrix there is block-diagonal by sector: block g is
        sum over j in g of w_j r_j[E_g] r_j[E_g]^+, r_j the flattened stack
        row, one product per sector.  It is rotated once, by V = U (x) conj(U)
        (`_rotate`).  With one sector and U = 1 the product is
        (vecs^T * w) @ conj(vecs) over the whole family."""
        d2 = self.dim ** 2
        if self._spectral is None:
            entries, groups, starts = np.arange(d2), [0], [0]
        else:
            entries, groups, starts = self._spectral._scatter[:3]
        vecs = self._stack.reshape(-1, d2)
        choi = np.zeros((d2, d2), dtype=complex)
        for g, lo, hi in zip(groups, starts, [*starts[1:], entries.size]):
            cols, member = entries[lo:hi], self._sector == g
            a = vecs[self._row[member][:, None], cols]
            choi[cols[:, None], cols] = (a.T * self.weights[member]) @ a.conj()
        if self._spectral is not None:
            choi = _rotate(choi, self._spectral.basis)
        return _read_only(choi)

    @cached_property
    def heff(self):
        """Effective Hamiltonian H - (i/2) Psi(1), read-only."""
        return _read_only(self.hamiltonian - 0.5j * self.psi_one)

    @cached_property
    def psi_one(self):
        """Psi(1) = sum_j w_j L_j^+ L_j."""
        return _read_only(self.psi(np.eye(self.dim)))

    def psi(self, X):
        """Psi(X)_il = sum_jk X_jk conj(C[(j,i),(k,l)])."""
        X = _array(X, (self.dim, self.dim), "X")
        return np.einsum("jk,jikl->il", X, self.choi.reshape((self.dim,) * 4).conj())

    def apply(self, X):
        """Theta0(X) = Psi(X) - (1/2){Psi(1), X} + i[H, X] = Psi(X) + i(H_eff^+ X - X H_eff)."""
        X = _array(X, (self.dim, self.dim), "X")
        return self.psi(X) + 1j * (self.heff.conj().T @ X - X @ self.heff)

    def compressed(self):
        """Equivalent generator whose Kraus family has at most dim^2 members.

        Eigendecomposes the Choi matrix of Psi and keeps the eigenvalues above
        1e-12 times the largest; Psi, and hence the generator, is unchanged
        up to the truncation.
        """
        evals, evecs = np.linalg.eigh(self.choi)
        keep = (evals > 1e-12 * max(float(evals.max()), 0.0)) & (evals > 0.0)
        return GKSLGenerator(drift=self.drift, hamiltonian=self.hamiltonian,
                             weights=evals[keep],
                             ops=evecs.T[keep].reshape(-1, self.dim, self.dim),
                             grid=self.grid)

    def to_json(self):
        payload = self._json_head()
        payload["kraus"] = [{"weight": w, "operator": complex_matrix_to_json(L)}
                            for w, L in self.kraus]
        return payload

    def _json_head(self):
        """Every key of `to_json` but "kraus", which sorts after all of them."""
        head = {
            "dim": self.dim,
            "drift": complex_matrix_to_json(self.drift),
            "hamiltonian": complex_matrix_to_json(self.hamiltonian),
        }
        if self.grid is not None:
            head["grid"] = self.grid.to_json()
        return head

    @classmethod
    def from_json(cls, obj):
        _fields(obj, "generator", ("kraus", "drift", "hamiltonian"), ("dim", "grid"))
        entries = obj["kraus"]
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValidationError("kraus must be a list of {weight, operator} objects")
        for entry in entries:
            _fields(entry, "kraus entry", ("weight", "operator"))
        gen = cls(
            drift=complex_matrix_from_json(obj["drift"], "drift"),
            hamiltonian=complex_matrix_from_json(obj["hamiltonian"], "hamiltonian"),
            weights=[_real(entry["weight"], "kraus weight") for entry in entries],
            ops=[complex_matrix_from_json(entry["operator"], "kraus operator")
                 for entry in entries],
            grid=EnergyGrid.from_json(obj["grid"]) if "grid" in obj else None,
        )
        if "dim" in obj and _count(obj["dim"], "generator dim") != gen.dim:
            raise ValidationError(f"generator dim {obj['dim']} does not match its "
                                  f"{gen.dim} x {gen.dim} hamiltonian")
        return gen


def _dagger(ops):
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(ops, -1, -2).conj()


def _read_only(a):
    a.flags.writeable = False
    return a


def _rotate(choi, basis):
    """V C V^+ for V = U (x) conj(U), U = basis: the Choi matrix of the family
    L -> U L U^+ (row-major vec).  Each column of C, as a d x d matrix X, goes
    to U X U^+, then each row, as Y, to conj(U) Y U^T: four batched d x d
    products, 4 d^5 multiply-adds."""
    d = basis.shape[0]
    c = basis @ choi.reshape(d, d, d * d).transpose(2, 0, 1) @ basis.conj().T
    c = basis.conj() @ c.transpose(1, 2, 0).reshape(d * d, d, d) @ basis.T
    return c.reshape(d * d, d * d)


def kraus_weights(tm):
    """The Kraus weights 2 w exp(-beta E) rho_eps(E) pi rho_e(E + omega) on
    the thermal pass's nodes, (N, 2, |B|), from the densities alone, with no
    solve; `build_generator` and `ldlgen validate` read them.  A weight that
    overflows is a NumericError naming its node, eps' and omega."""
    nodes, wts, rho, eps = _support(tm.spec.bath)
    with np.errstate(over="ignore"):
        weight = (2.0 * _thermal_weights(nodes, wts, rho, tm.spec.beta)[:, None, None]
                  * tm._re_gamma(nodes))
    if not np.isfinite(weight).all():
        n, e, b = np.argwhere(~np.isfinite(weight))[0]
        raise NumericError(
            f"Kraus weight 2 w exp(-beta E) rho{eps[n]}(E) pi rho{e}(E + omega) overflows at "
            f"E = {nodes[n]:g} (a support node of rho{eps[n]}), eps' = {e}, omega = {tm.bohr[b]:g}")
    return weight


def build_generator(tm):
    """Assemble the GKSL generator by trapezoid quadrature over the grid.

    Everything is read from the thermal pass.  The Kraus family is its R
    column by Bohr sector, one entry per (eps, grid node, eps', omega) in
    that order: entry (n, eps', omega) is r[n, eps'] on the eigenbasis
    entries of transfer omega, kept where its weight is positive and one of
    those entries is not zero.  The column is neither copied nor split; its
    operators are split by transfer only when `ops` is read.  H and Gamma
    come from the diagonal R blocks on the same nodes, so the Lindblad-form
    identities hold at the level of the discretized integrals, not merely in
    the continuum limit.  The weights come from `kraus_weights`, which
    refuses one that overflows.
    """
    tp, sd = tm.thermal_pass(), tm.spectral
    r00 = _level_diagonal(tm, tp)
    ham = _to_original(tm, np.einsum("n,nij->ij", tp.coef, (_dagger(r00) - r00) / 2j))
    stack = tp.r.reshape(-1, tm.dim, tm.dim)
    weight = kraus_weights(tm).reshape(stack.shape[0], -1)
    entries, groups, starts = sd._scatter[:3]
    nonzero = np.zeros(weight.shape, dtype=bool)
    nonzero[:, groups] = np.logical_or.reduceat(
        stack.reshape(stack.shape[0], -1)[:, entries] != 0, starts, axis=1)
    # L = R^{eps',eps}_{omega,0}; no coef is negative, so weight > 0 implies Re gamma > 0
    row, sector = np.nonzero((weight > 0.0) & nonzero)
    return GKSLGenerator._by_sector(drift(tm), ham, weight[row, sector], tm.spec.bath.grid,
                                    stack, row, sector, sd)


def dual_generator_matrix(gen):
    """Matrix of the Schroedinger-picture generator on row-major vec(rho):

    rho -> sum_j w_j L_j rho L_j^+ - i(H_eff rho - rho H_eff^+).

    With row-major vectorization the map rho -> A rho B has matrix
    kron(A, B^T), so the Kraus part sum_j w_j kron(L_j, conj(L_j)) is the
    realignment of the Choi matrix: entry ((a,b),(c,e)) is C[(a,c),(b,e)].
    """
    eye = np.eye(gen.dim)
    kraus = gen.choi.reshape((gen.dim,) * 4).transpose(0, 2, 1, 3).reshape(gen.choi.shape)
    return kraus - 1j * (np.kron(gen.heff, eye) - np.kron(eye, gen.heff.conj()))

