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
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bath import BathSpec, DensityProfile, EnergyGrid, _count, _real
from .errors import ValidationError

DEFAULT_BOHR_TOLERANCE = 1e-9
DEFAULT_NEUMANN_MAX_ORDER = 64
DEFAULT_NEUMANN_TOLERANCE = 1e-12


def complex_matrix_to_json(m):
    """Row-major list of [re, im] pairs."""
    m = np.asarray(m)
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def complex_matrix_from_json(obj, name="matrix"):
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{name} must be a non-empty list of [re, im] pairs")
    dim = int(round(len(obj) ** 0.5))
    if dim * dim != len(obj):
        raise ValidationError(f"{name} must have a perfect-square number of entries")
    return complex_vector_from_json(obj, name).reshape(dim, dim)


def complex_vector_to_json(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]


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
        self.h_system = np.asarray(self.h_system, dtype=complex)
        self.coupling = np.asarray(self.coupling, dtype=complex)
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if self.h_system.shape != (self.dim, self.dim):
            raise ValidationError("h_system must be dim x dim")
        if self.coupling.shape != (self.dim, self.dim):
            raise ValidationError("coupling must be dim x dim")
        if not (np.all(np.isfinite(self.h_system)) and np.all(np.isfinite(self.coupling))):
            raise ValidationError("h_system and coupling entries must be finite")
        hermit_defect = np.linalg.norm(self.h_system - self.h_system.conj().T)
        scale = max(np.linalg.norm(self.h_system), 1e-300)
        if hermit_defect > 1e-12 * scale:
            raise ValidationError(
                f"h_system is not Hermitian (relative defect {hermit_defect / scale:.3e})"
            )
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValidationError("beta must be > 0 and finite")
        if not (self.bohr_tolerance > 0 and math.isfinite(self.bohr_tolerance)):
            raise ValidationError("bohr_tolerance must be > 0 and finite")
        if _count(self.neumann_max_order, "neumann_max_order") < 1:
            raise ValidationError("neumann_max_order must be >= 1")
        if not (self.neumann_tolerance > 0 and math.isfinite(self.neumann_tolerance)):
            raise ValidationError("neumann_tolerance must be > 0 and finite")


_TOP_KEYS = {"system", "bath", "truncation"}
_SYSTEM_KEYS = {"hamiltonian", "coupling", "bohr_tolerance"}
_BATH_KEYS = {"beta", "grid", "rho0", "rho1"}
_GRID_KEYS = {"min", "max", "points"}
_TRUNCATION_KEYS = {"neumann_max_order", "neumann_tolerance"}


def _reject_unknown(obj, allowed, where):
    unknown = set(obj.keys()) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")


def _require(obj, key, where):
    if key not in obj:
        raise ValidationError(f"missing required field '{key}' in {where}")
    return obj[key]


def model_from_dict(doc):
    """Build a ModelSpec from the strict JSON document schema."""
    if not isinstance(doc, dict):
        raise ValidationError("model document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "model")
    system = _require(doc, "system", "model")
    bath_doc = _require(doc, "bath", "model")
    _reject_unknown(system, _SYSTEM_KEYS, "system")
    _reject_unknown(bath_doc, _BATH_KEYS, "bath")

    h = complex_matrix_from_json(_require(system, "hamiltonian", "system"), "system.hamiltonian")
    d = complex_matrix_from_json(_require(system, "coupling", "system"), "system.coupling")
    if h.shape != d.shape:
        raise ValidationError("hamiltonian and coupling must have the same dimension")

    beta = _real(_require(bath_doc, "beta", "bath"), "bath.beta")
    grid_doc = _require(bath_doc, "grid", "bath")
    _reject_unknown(grid_doc, _GRID_KEYS, "bath.grid")
    grid = EnergyGrid(
        _real(_require(grid_doc, "min", "bath.grid"), "bath.grid.min"),
        _real(_require(grid_doc, "max", "bath.grid"), "bath.grid.max"),
        _count(_require(grid_doc, "points", "bath.grid"), "bath.grid.points"),
    )
    rho0 = DensityProfile.from_json(_require(bath_doc, "rho0", "bath"))
    rho1 = DensityProfile.from_json(_require(bath_doc, "rho1", "bath"))
    bath = BathSpec(rho0, rho1, grid)

    kwargs = {}
    if "bohr_tolerance" in system:
        kwargs["bohr_tolerance"] = _real(system["bohr_tolerance"], "system.bohr_tolerance")
    trunc = doc.get("truncation", {})
    _reject_unknown(trunc, _TRUNCATION_KEYS, "truncation")
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
    """Grouped spectrum of h_system plus the Bohr-block decomposition of D."""

    dim: int
    levels: list                      # list of (eigenvalue, projection)
    bohr: np.ndarray                  # sorted canonical Bohr frequencies
    d_blocks: dict = field(repr=False, default_factory=dict)
    tolerance: float = DEFAULT_BOHR_TOLERANCE
    # eigenbasis of h_system, columns grouped level by level; entry (i, j)
    # of an operator in this basis carries the canonical Bohr frequency
    # transfer[i, j] (the representative of e_level(j) - e_level(i))
    basis: np.ndarray = field(repr=False, default=None)
    level_index: np.ndarray = field(repr=False, default=None)
    transfer: np.ndarray = field(repr=False, default=None)

    @property
    def bohr_set(self):
        return [float(w) for w in self.bohr]

    def bohr_index(self, omega):
        """Index of omega in the canonical Bohr set, or None if off-lattice."""
        i = int(np.searchsorted(self.bohr, omega))
        best, dist = None, self.tolerance
        for j in (i - 1, i, i + 1):
            if 0 <= j < self.bohr.size and abs(self.bohr[j] - omega) <= dist:
                best, dist = j, abs(self.bohr[j] - omega)
        return best

    def d_block(self, omega):
        """D_omega, the transfer-omega block of the coupling (zero off lattice)."""
        idx = self.bohr_index(omega)
        if idx is None:
            return np.zeros((self.dim, self.dim), dtype=complex)
        return self.d_blocks[float(self.bohr[idx])]

    def d_dag_block(self, omega):
        """(D_omega)^dagger, which carries transfer -omega."""
        return self.d_block(omega).conj().T

    @property
    def nonzero_bohr(self):
        """Canonical frequencies whose coupling block is nonzero."""
        return [w for w in self.bohr if self.d_blocks[float(w)].any()]

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
    """Group eigenvalues, assemble projections, Bohr set and D blocks."""
    try:
        evals, evecs = np.linalg.eigh(spec.h_system)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ValidationError(f"eigendecomposition of h_system failed: {exc}") from exc

    tol = spec.bohr_tolerance
    clusters = _cluster_sorted(evals, tol)
    levels = []
    for idxs in clusters:
        energy = float(np.mean(evals[idxs]))
        proj = np.zeros((spec.dim, spec.dim), dtype=complex)
        for i in idxs:
            v = evecs[:, i]
            proj += np.outer(v, v.conj())
        levels.append((energy, proj))

    energies = np.array([e for e, _ in levels])
    n = len(levels)

    # positive level differences, clustered, one representative per cluster;
    # mirroring the representatives keeps B exactly closed under negation
    diffs = []
    for k in range(n):
        for m in range(n):
            if energies[m] > energies[k]:
                diffs.append((energies[m] - energies[k], k, m))
    diffs.sort(key=lambda t: t[0])
    pos_reps = []
    assignments = {}         # (k, m) with m above k -> representative
    if diffs:
        vals = [d[0] for d in diffs]
        for idxs in _cluster_sorted(vals, tol):
            rep = vals[idxs[len(idxs) // 2]]
            pos_reps.append(rep)
            for i in idxs:
                _, k, m = diffs[i]
                assignments[(k, m)] = rep

    bohr = np.array(sorted([-r for r in pos_reps] + [0.0] + pos_reps))
    level_transfer = np.zeros((n, n))
    for (k, m), rep in assignments.items():
        level_transfer[k, m] = rep
        level_transfer[m, k] = -rep
    d = spec.coupling
    d_blocks = {float(w): np.zeros((spec.dim, spec.dim), dtype=complex) for w in bohr}
    for k in range(n):
        for m in range(n):
            d_blocks[float(level_transfer[k, m])] += levels[k][1] @ d @ levels[m][1]

    level_index = np.empty(spec.dim, dtype=int)
    for k, idxs in enumerate(clusters):
        level_index[idxs] = k
    return SpectralData(dim=spec.dim, levels=levels, bohr=bohr,
                        d_blocks=d_blocks, tolerance=tol, basis=evecs,
                        level_index=level_index,
                        transfer=level_transfer[np.ix_(level_index, level_index)])


def block_transfer(X, spectral):
    """Decompose an arbitrary operator into its transfer components.

    Returns {omega: X_omega} over the Bohr set with
    X_omega = sum over eps_m - eps_k = omega of P_k X P_m; the components
    sum back to X.
    """
    X = np.asarray(X, dtype=complex)
    out = {float(w): np.zeros_like(X) for w in spectral.bohr}
    for k, (ek, pk) in enumerate(spectral.levels):
        for m, (em, pm) in enumerate(spectral.levels):
            idx = spectral.bohr_index(em - ek)
            if idx is None:
                raise ValidationError(
                    f"level difference {em - ek} missing from the Bohr set"
                )
            out[float(spectral.bohr[idx])] += pk @ X @ pm
    return out
