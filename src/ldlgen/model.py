"""Model ingestion and spectral decomposition of the system Hamiltonian.

A model couples a finite-dimensional system (Hermitian ``h_system``,
coupling operator ``coupling``) to a reservoir described by two energy
densities (see :mod:`ldlgen.bath`).  This module validates the input,
groups the eigenvalues of ``h_system`` into levels, builds the set of
Bohr frequencies B = {eps_k - eps_m} and decomposes the coupling into
blocks ``D_omega = sum over eps_m - eps_k = omega of P_k D P_m``.

Bohr frequencies are canonicalized to a single representative float per
cluster, mirrored so the set is exactly closed under negation; all
omega-indexed bookkeeping downstream works with these representatives.
Each eigenbasis entry carries one canonical transfer, and every split by
transfer (the D blocks, `block_transfer`, the R blocks) reads that
assignment through `SpectralData.split`.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bath import BathSpec, DensityProfile, EnergyGrid
from .errors import ValidationError, _array, _count, _fields, _real

DEFAULT_BOHR_TOLERANCE = 1e-9
DEFAULT_NEUMANN_MAX_ORDER = 64
DEFAULT_NEUMANN_TOLERANCE = 1e-12


def complex_matrix_to_json(m):
    """Row-major list of [re, im] pairs of Python floats (-0.0 kept)."""
    return np.ascontiguousarray(m, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def complex_matrix_from_json(obj, name="matrix"):
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{name} must be a non-empty list of [re, im] pairs")
    dim = int(round(len(obj) ** 0.5))
    if dim * dim != len(obj):
        raise ValidationError(f"{name} must have a perfect-square number of entries")
    return complex_vector_from_json(obj, name).reshape(dim, dim)


def complex_vector_from_json(obj, name="vector"):
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{name} must be a non-empty list of [re, im] pairs")
    flat = []
    for entry in obj:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValidationError(f"{name} entries must be [re, im] pairs")
        flat.append(complex(_real(entry[0], name), _real(entry[1], name)))
    return np.array(flat, dtype=complex)


@dataclass
class ModelSpec:
    """Validated user-supplied problem statement."""

    dim: int
    h_system: np.ndarray
    coupling: np.ndarray
    beta: float
    bath: BathSpec
    bohr_tolerance: float = DEFAULT_BOHR_TOLERANCE
    neumann_max_order: int = DEFAULT_NEUMANN_MAX_ORDER
    neumann_tolerance: float = DEFAULT_NEUMANN_TOLERANCE

    def __post_init__(self):
        self.dim = _count(self.dim, "dim")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        self.h_system = _array(self.h_system, (self.dim, self.dim), "h_system")
        self.coupling = _array(self.coupling, (self.dim, self.dim), "coupling")
        hermit_defect = np.linalg.norm(self.h_system - self.h_system.conj().T)
        scale = max(np.linalg.norm(self.h_system), 1e-300)
        if hermit_defect > 1e-12 * scale:
            raise ValidationError(
                f"h_system is not Hermitian (relative defect {hermit_defect / scale:.3e})"
            )
        self.beta = _real(self.beta, "beta")
        if not self.beta > 0:
            raise ValidationError("beta must be > 0 and finite")
        self.bohr_tolerance = _real(self.bohr_tolerance, "bohr_tolerance")
        if not self.bohr_tolerance > 0:
            raise ValidationError("bohr_tolerance must be > 0 and finite")
        self.neumann_max_order = _count(self.neumann_max_order, "neumann_max_order")
        if self.neumann_max_order < 1:
            raise ValidationError("neumann_max_order must be >= 1")
        self.neumann_tolerance = _real(self.neumann_tolerance, "neumann_tolerance")
        if not self.neumann_tolerance > 0:
            raise ValidationError("neumann_tolerance must be > 0 and finite")


def model_from_dict(doc):
    """Build a ModelSpec from the strict JSON document schema."""
    _fields(doc, "model", ("system", "bath"), ("truncation",))
    system = _fields(doc["system"], "system", ("hamiltonian", "coupling"), ("bohr_tolerance",))
    bath_doc = _fields(doc["bath"], "bath", ("beta", "grid", "rho0", "rho1"))
    trunc = _fields(doc.get("truncation", {}), "truncation", (),
                    ("neumann_max_order", "neumann_tolerance"))

    h = complex_matrix_from_json(system["hamiltonian"], "system.hamiltonian")
    d = complex_matrix_from_json(system["coupling"], "system.coupling")
    if h.shape != d.shape:
        raise ValidationError("hamiltonian and coupling must have the same dimension")

    beta = _real(bath_doc["beta"], "bath.beta")
    grid = EnergyGrid.from_json(bath_doc["grid"], "bath.grid")
    bath = BathSpec(DensityProfile.from_json(bath_doc["rho0"]),
                    DensityProfile.from_json(bath_doc["rho1"]), grid)

    kwargs = {}
    if "bohr_tolerance" in system:
        kwargs["bohr_tolerance"] = _real(system["bohr_tolerance"], "system.bohr_tolerance")
    if "neumann_max_order" in trunc:
        kwargs["neumann_max_order"] = _count(trunc["neumann_max_order"],
                                             "truncation.neumann_max_order")
    if "neumann_tolerance" in trunc:
        kwargs["neumann_tolerance"] = _real(trunc["neumann_tolerance"],
                                            "truncation.neumann_tolerance")

    return ModelSpec(dim=h.shape[0], h_system=h, coupling=d, beta=beta, bath=bath, **kwargs)


def _reject_constant(name):
    raise ValidationError(f"non-finite number {name} is not allowed")


def read_json(path):
    """Parse a JSON file strictly: malformed text and the NaN / Infinity
    extensions are ValidationErrors."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def load_model(path):
    """Parse and validate a model JSON file."""
    return model_from_dict(read_json(path))


@dataclass
class SpectralData:
    """Grouped spectrum of h_system and its canonical Bohr assignment.

    The eigenbasis ``basis`` has its columns grouped level by level
    (``level_index`` names each column's level, ``energies`` the level
    energies); entry (i, j) of an operator in this basis carries the
    canonical Bohr frequency ``transfer[i, j]``, the representative of
    e_level(j) - e_level(i).  Every split by transfer reads this one
    assignment (`split`); ``d_blocks`` is the coupling split that way, an
    (|B|, d, d) array ordered like ``bohr``.
    """

    dim: int
    bohr: np.ndarray                  # sorted canonical Bohr frequencies
    energies: np.ndarray              # level energies, ascending
    basis: np.ndarray = field(repr=False)
    level_index: np.ndarray = field(repr=False)
    transfer: np.ndarray = field(repr=False)
    tolerance: float = DEFAULT_BOHR_TOLERANCE
    d_blocks: np.ndarray = field(repr=False, default=None)

    @property
    def levels(self):
        """(energy, projection) per level, derived from basis and level_index."""
        out = []
        for k, energy in enumerate(self.energies):
            v = self.basis[:, self.level_index == k]
            out.append((float(energy), v @ v.conj().T))
        return out

    @cached_property
    def transfer_index(self):
        """The index in ``bohr`` of each eigenbasis entry's transfer, (d, d),
        built once; -1 where the transfer is not a member.  The canonical
        transfers of `spectral_decompose` are members, so bohr[index] has
        their bits."""
        index = np.minimum(np.searchsorted(self.bohr, self.transfer), self.bohr.size - 1)
        return np.where(self.bohr[index] == self.transfer, index, -1)

    @cached_property
    def _scatter(self):
        """The grouping of the eigenbasis entries by transfer, built once, which
        `split` and a built generator's Bohr sectors read: the flat
        entries (i, j) whose transfer is in ``bohr``, ordered by its index
        there; the indices present and the first entry of each; and the
        rank-one products u_i u_j^+ of the ordered entries, one flattened
        (d^2,) row each, u_i being column i of ``basis``."""
        index = self.transfer_index.reshape(-1)
        hit = np.flatnonzero(index >= 0)
        entries = hit[np.argsort(index[hit], kind="stable")]
        groups, starts = np.unique(index[entries], return_index=True)
        i, j = np.divmod(entries, self.dim)
        products = self.basis.T[i, :, None] * self.basis.T[j, None, :].conj()
        return entries, groups, starts, products.reshape(entries.size, -1)

    def split(self, X):
        """Transfer components of operators given in the eigenbasis.

        X (..., d, d) holds basis^+ A basis; returns (..., |B|, d, d) in the
        original basis, entry b the part of A with transfer bohr[b]: the sum
        of X_ij u_i u_j^+ over the entries (i, j) of that transfer, one
        `np.add.reduceat` over the rank-one products (`_scatter`), d^4
        multiply-adds per operator and no BLAS call.  The components sum
        back to A.  Operators go in chunks whose (entries, d^2) temporaries
        hold no more than the (|B|, d^2) components they reduce to.
        """
        entries, groups, starts, products = self._scatter
        d2, n_bohr = self.dim ** 2, self.bohr.size
        flat = X.reshape(-1, d2)[:, entries]
        out = np.zeros((flat.shape[0], n_bohr, d2), dtype=np.result_type(X, products))
        step = max(1, flat.shape[0] * n_bohr // max(entries.size, n_bohr))
        for lo in range(0, flat.shape[0], step):
            terms = flat[lo:lo + step, :, None] * products
            out[lo:lo + step, groups] = np.add.reduceat(terms, starts, axis=1)
        return out.reshape(X.shape[:-2] + (n_bohr, self.dim, self.dim))

    def split_operator(self, A):
        """`split` for operators A (..., d, d) in the original basis."""
        return self.split(self.basis.conj().T @ A @ self.basis)

    def nearest(self, values, offsets=None):
        """Index of the member of the sorted ``offsets`` (default ``bohr``) nearest
        each value, or -1 where none is within ``tolerance``; a tie goes to the lower
        index, as with argmin.  Only a value's two searchsorted neighbours are measured."""
        offsets = self.bohr if offsets is None else offsets
        hi = np.minimum(np.searchsorted(offsets, values), offsets.size - 1)
        lo = np.maximum(hi - 1, 0)
        d_lo, d_hi = np.abs(values - offsets[lo]), np.abs(values - offsets[hi])
        return np.where(np.minimum(d_lo, d_hi) <= self.tolerance, np.where(d_hi < d_lo, hi, lo), -1)

    def bohr_index(self, omega):
        """Index of omega in the canonical Bohr set, or None if off-lattice."""
        idx = int(self.nearest(_real(omega, "omega")))
        return None if idx < 0 else idx

    def at(self, blocks, omega):
        """Entries of a (..., |B|, d, d) array ordered like ``bohr`` at the canonical
        frequencies of omega, of shape S: shape (..., S, d, d), zeros off the lattice."""
        idx = self.nearest(omega)
        return np.where((idx >= 0)[..., None, None], blocks[..., idx, :, :], 0)

    def d_block(self, omega):
        """D_omega, the transfer-omega block of the coupling (zero off lattice)."""
        return self.at(self.d_blocks, _real(omega, "omega"))

    @property
    def nonzero_bohr(self):
        """Canonical frequencies whose coupling block is nonzero."""
        return [w for w, blk in zip(self.bohr, self.d_blocks) if blk.any()]

    @property
    def is_rwa(self):
        """True when exactly one Bohr block of the coupling is nonzero."""
        return len(self.nonzero_bohr) == 1

    @property
    def rwa_frequency(self):
        nz = self.nonzero_bohr
        return float(nz[0]) if len(nz) == 1 else None


def _cluster_sorted(values, tol):
    """Single-linkage clusters of sorted values with gap threshold tol."""
    clusters = []
    current = [0]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] > tol:
            clusters.append(current)
            current = []
        current.append(i)
    clusters.append(current)
    return clusters


def spectral_decompose(spec):
    """Group eigenvalues into levels, fix the canonical Bohr set and the
    transfer of every eigenbasis entry, and split the coupling by it."""
    try:
        evals, evecs = np.linalg.eigh(spec.h_system)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ValidationError(f"eigendecomposition of h_system failed: {exc}") from exc

    tol = spec.bohr_tolerance
    clusters = _cluster_sorted(evals, tol)
    energies = np.array([float(np.mean(evals[idxs])) for idxs in clusters])
    n = energies.size

    # positive level differences, clustered, one representative per cluster;
    # mirroring the representatives keeps B exactly closed under negation
    diffs = []
    for k in range(n):
        for m in range(n):
            if energies[m] > energies[k]:
                diffs.append((energies[m] - energies[k], k, m))
    diffs.sort(key=lambda t: t[0])
    pos_reps = []
    level_transfer = np.zeros((n, n))
    if diffs:
        vals = [d[0] for d in diffs]
        for idxs in _cluster_sorted(vals, tol):
            rep = vals[idxs[len(idxs) // 2]]
            pos_reps.append(rep)
            for i in idxs:
                _, k, m = diffs[i]
                level_transfer[k, m] = rep
                level_transfer[m, k] = -rep

    bohr = np.array(sorted([-r for r in pos_reps] + [0.0] + pos_reps))
    level_index = np.empty(spec.dim, dtype=int)
    for k, idxs in enumerate(clusters):
        level_index[idxs] = k
    sd = SpectralData(dim=spec.dim, bohr=bohr, energies=energies, basis=evecs,
                      level_index=level_index,
                      transfer=level_transfer[np.ix_(level_index, level_index)],
                      tolerance=tol)
    sd.d_blocks = sd.split_operator(spec.coupling)
    return sd


def block_transfer(X, spectral):
    """Decompose an arbitrary operator into its transfer components.

    Returns {omega: X_omega} over the Bohr set with
    X_omega = sum over rep(eps_m - eps_k) = omega of P_k X P_m, read from
    the canonical transfer assignment; the components sum back to X.
    """
    comps = spectral.split_operator(_array(X, (spectral.dim, spectral.dim), "X"))
    return {float(w): c for w, c in zip(spectral.bohr, comps)}
