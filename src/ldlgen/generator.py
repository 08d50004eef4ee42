"""Markovian generator assembly and the scattering-theory cross-checks.

The Heisenberg generator acts as

    Theta0(X) = Psi(X) - (1/2){Psi(1), X} + i[H, X]

with a completely positive part Psi(X) = sum_j w_j L_j^+ X L_j whose
weights are manifestly nonnegative: each is
2 * w_grid * exp(-beta E) rho_eps(E) * pi rho_eps'(E + omega), where the
last factor is Re gamma evaluated straight from the density (never from
the principal-value part), so Kraus positivity carries no PV noise.

The Kraus family is stored stacked, weights (K,) and operators
(K, d, d), in the order (eps, grid node, eps', omega).  Psi(1), Psi(X)
and the Choi matrix are each one contraction over the entry axis, the
Kraus part of the Schroedinger-picture matrix is the realignment of the
Choi matrix, and the Heisenberg-picture matrix is its adjoint.

The drift Gamma is assembled twice: directly from the diagonal R blocks,
and through the energy-resolved scattering components t^{eps,eps}(E)
(the partial thermal expectation of the one-particle scattering
operator, diagonally projected); the two routes must agree.  Both
routes, the generator and the identity suite's three-term map read the
same batched pass of R blocks per density support
(`TMatrix.support_blocks`).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .model import complex_matrix_from_json, complex_matrix_to_json

_PI = math.pi


def check_grid_coverage(spec, spectral):
    """The grid must cover each density support shifted by every Bohr frequency."""
    grid = spec.bath.grid
    missing = []
    for omega in spectral.bohr:
        for eps in (0, 1):
            a, b = spec.bath.density(eps).support
            if not grid.covers(a + omega, b + omega):
                missing.append((eps, float(omega)))
    if missing:
        detail = ", ".join(f"support of rho{e} shifted by {w:+g}" for e, w in missing)
        raise ValidationError(f"energy grid does not cover: {detail}")


def _thermal_pass(tm, eps):
    """Support nodes of rho_eps with their thermal quadrature weights
    w * exp(-beta E) * rho_eps(E) and the R blocks there (omega' = 0)."""
    nodes, wts, rho, R = tm.support_blocks(eps)
    return nodes, wts * (np.exp(-tm.spec.beta * nodes) * rho), R


def _re_gamma(tm, nodes):
    """Re gamma_eps(E + omega) = pi rho_eps(E + omega), shape (n, 2, |B|)."""
    shifted = nodes[:, None] + tm.bohr[None, :]
    bath = tm.spec.bath
    return np.stack([_PI * bath.density(e)(shifted) for e in (0, 1)], axis=1)


def drift(tm):
    """Gamma = -sum_eps integral dE exp(-beta E) rho_eps(E) R^{eps,eps}_{0,0}(E)."""
    out = np.zeros((tm.dim, tm.dim), dtype=complex)
    for eps in (0, 1):
        _, coef, R = _thermal_pass(tm, eps)
        out -= np.einsum("n,nij->ij", coef, R[:, eps, eps, tm.spectral.bohr_index(0.0)])
    return out


def drift_from_t_operator(tm, diagonal_projection=True):
    """Gamma through the one-particle scattering components.

    Computes i * (thermal partial expectation of the scattering operator)
    = -sum_eps integral dE exp(-beta E) rho_eps(E) t^{eps,eps}(E) and
    projects onto the level diagonal.  With diagonal_projection=False the
    bare partial expectation is returned (for the single-Bohr-block
    special case it already equals the drift).
    """
    m = np.zeros((tm.dim, tm.dim), dtype=complex)
    for eps in (0, 1):
        _, coef, R = _thermal_pass(tm, eps)
        m -= np.einsum("n,nij->ij", coef, R[:, eps, eps].sum(axis=1))
    if not diagonal_projection:
        return m
    out = np.zeros_like(m)
    for _, proj in tm.spectral.levels:
        out += proj @ m @ proj
    return out


def _structure_map(X, r12, r21, ra, rb, re_g):
    """X r12 + r21^+ X + 2 sum_k re_g[k] ra[k]^+ X rb[k], batched over a
    leading node axis: r12, r21 (n, d, d); ra, rb (n, K, d, d); re_g (n, K)."""
    out = X @ r12 + np.swapaxes(r21, -1, -2).conj() @ X
    out += 2.0 * np.einsum("nk,nkji,jl,nklm->nim", re_g, ra.conj(), X, rb)
    return out


def theta_map(tm, X, eps1, eps2, omega1, omega2, E):
    """Structure map of the pre-averaged Heisenberg equation:

    X R^{e1,e2}_{w1,w2} + (R^{e2,e1}_{w2,w1})^+ X
      + 2 sum_{e,w} Re gamma_e(E+w) (R^{e,e1}_{w,w1})^+ X R^{e,e2}_{w,w2}
    """
    X = np.asarray(X, dtype=complex)
    d = tm.dim
    sd = tm.spectral
    R1 = tm.r_blocks([E], omega1)[0]
    R2 = R1 if omega2 == omega1 else tm.r_blocks([E], omega2)[0]

    def block(R, e, f, omega, omega_prime):
        b = sd.bohr_index(omega - omega_prime)
        return np.zeros((d, d), dtype=complex) if b is None else R[e, f, b]

    pairs = [(e, float(w)) for e in (0, 1) for w in tm.bohr]
    ra = np.array([block(R1, e, eps1, w, omega1) for e, w in pairs])
    rb = np.array([block(R2, e, eps2, w, omega2) for e, w in pairs])
    re_g = _re_gamma(tm, np.array([float(E)])).reshape(1, -1)
    return _structure_map(X, block(R2, eps1, eps2, omega1, omega2)[None],
                          block(R1, eps2, eps1, omega2, omega1)[None],
                          ra[None], rb[None], re_g)[0]


@dataclass
class GKSLGenerator:
    """Drift, effective Hamiltonian and weighted Kraus family.

    The family is stacked: weights (K,) and ops (K, d, d) realize
    Psi(X) = sum_j weights[j] ops[j]^+ X ops[j]; an empty family has
    shapes (0,) and (0, d, d).
    """

    drift: np.ndarray
    hamiltonian: np.ndarray
    weights: np.ndarray = field(repr=False)
    ops: np.ndarray = field(repr=False)
    grid: object = None

    def __post_init__(self):
        d = self.dim
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        ops = np.asarray(self.ops, dtype=complex)
        self.ops = ops.reshape(0, d, d) if ops.size == 0 else ops
        if self.ops.shape != (self.weights.size, d, d):
            raise ValidationError(
                f"{self.weights.size} Kraus weights need operators of shape "
                f"({self.weights.size}, {d}, {d}), not {ops.shape}")

    @property
    def dim(self):
        return self.hamiltonian.shape[0]

    @property
    def kraus(self):
        """The family as (weight, operator) pairs."""
        return list(zip(self.weights.tolist(), self.ops))

    @cached_property
    def psi_one(self):
        """Psi(1) = sum_j w_j L_j^+ L_j."""
        return _weighted_sum(self.weights, _dagger(self.ops) @ self.ops)

    def psi(self, X):
        X = np.asarray(X, dtype=complex)
        return _weighted_sum(self.weights, _dagger(self.ops) @ X @ self.ops)

    def apply(self, X):
        return apply_generator(self, X)

    def compressed(self, threshold=1e-12):
        """Equivalent generator whose Kraus family has at most dim^2 members.

        Eigendecomposes the Choi matrix of Psi and keeps eigenvalues above
        threshold * max eigenvalue; Psi, and hence the generator, is
        unchanged up to the truncation.
        """
        evals, evecs = np.linalg.eigh(choi_matrix(self))
        keep = (evals > threshold * max(float(evals.max()), 0.0)) & (evals > 0.0)
        return GKSLGenerator(drift=self.drift, hamiltonian=self.hamiltonian,
                             weights=evals[keep],
                             ops=evecs.T[keep].reshape(-1, self.dim, self.dim),
                             grid=self.grid)

    def to_json(self):
        payload = {
            "dim": self.dim,
            "drift": complex_matrix_to_json(self.drift),
            "hamiltonian": complex_matrix_to_json(self.hamiltonian),
            "kraus": [
                {"weight": w, "operator": complex_matrix_to_json(L)}
                for w, L in self.kraus
            ],
        }
        if self.grid is not None:
            payload["grid"] = self.grid.to_json()
        return payload

    @classmethod
    def from_json(cls, obj):
        entries = obj["kraus"]
        return cls(
            drift=complex_matrix_from_json(obj["drift"], "drift"),
            hamiltonian=complex_matrix_from_json(obj["hamiltonian"], "hamiltonian"),
            weights=[float(entry["weight"]) for entry in entries],
            ops=[complex_matrix_from_json(entry["operator"], "kraus operator")
                 for entry in entries],
        )


def _dagger(ops):
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(ops, -1, -2).conj()


def _weighted_sum(weights, terms):
    """sum_j weights[j] * terms[j], accumulated in entry order."""
    return np.einsum("j,jab->ab", weights, terms)


def build_generator(tm):
    """Assemble the GKSL generator by trapezoid quadrature over the grid.

    Kraus entries are indexed per (eps, grid node, eps', omega); zero
    weights and zero operators are dropped.  H and Gamma come from the
    diagonal R blocks on the same nodes, so the Lindblad-form identities
    hold at the level of the discretized integrals, not merely in the
    continuum limit.
    """
    spec = tm.spec
    check_grid_coverage(spec, tm.spectral)
    d = spec.dim
    ham = np.zeros((d, d), dtype=complex)
    weights, ops = [], []
    for eps in (0, 1):
        nodes, coef, R = _thermal_pass(tm, eps)
        r00 = R[:, eps, eps, tm.spectral.bohr_index(0.0)]
        ham += np.einsum("n,nij->ij", coef, (np.swapaxes(r00, 1, 2).conj() - r00) / 2j)
        re_g = _re_gamma(tm, nodes)
        weight = 2.0 * coef[:, None, None] * re_g
        ops_eps = R[:, :, eps]                          # L = R^{eps',eps}_{omega,0}
        keep = (re_g > 0.0) & (weight > 0.0) & ops_eps.reshape(*re_g.shape, -1).any(axis=-1)
        weights.append(weight[keep])
        ops.append(ops_eps[keep])
    return GKSLGenerator(drift=drift(tm), hamiltonian=ham, weights=np.concatenate(weights),
                         ops=np.concatenate(ops), grid=spec.bath.grid)


def apply_generator(gen, X):
    """Theta0(X) = Psi(X) - (1/2){Psi(1), X} + i[H, X]."""
    X = np.asarray(X, dtype=complex)
    if X.shape != (gen.dim, gen.dim):
        raise ValidationError("operator dimension does not match the generator")
    p1 = gen.psi_one
    h = gen.hamiltonian
    return gen.psi(X) - 0.5 * (p1 @ X + X @ p1) + 1j * (h @ X - X @ h)


def dual_generator_matrix(gen):
    """Matrix of the Schroedinger-picture generator on row-major vec(rho):

    rho -> sum_j w_j L_j rho L_j^+ - (1/2){Psi(1), rho} - i[H, rho].

    With row-major vectorization the map rho -> A rho B has matrix
    kron(A, B^T), so the Kraus part sum_j w_j kron(L_j, conj(L_j)) is the
    realignment of the Choi matrix: entry ((a,b),(c,e)) is C[(a,c),(b,e)].
    """
    d = gen.dim
    eye = np.eye(d)
    out = choi_matrix(gen).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    p1 = gen.psi_one
    out -= 0.5 * (np.kron(p1, eye) + np.kron(eye, p1.T))
    h = gen.hamiltonian
    out -= 1j * (np.kron(h, eye) - np.kron(eye, h.T))
    return out


def heisenberg_generator_matrix(gen):
    """Matrix of Theta0 itself on row-major vec(X): the adjoint of the
    Schroedinger-picture matrix (H and Psi(1) are Hermitian)."""
    return dual_generator_matrix(gen).conj().T


def choi_matrix(gen):
    """Choi matrix of the completely positive part Psi.

    C = sum_j w_j |vec L_j><vec L_j| (row-major vec), Hermitian and
    positive semidefinite whenever the assembled weights are nonnegative;
    its rank counts independent Kraus directions.
    """
    d = gen.dim
    vecs = gen.ops.reshape(-1, d * d)
    return _weighted_sum(gen.weights, vecs[:, :, None] * vecs[:, None, :].conj())
