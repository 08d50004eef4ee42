"""Reservoir description through its two energy densities.

The reservoir enters every in-scope formula only through the scalar
densities ``rho_eps(E)`` (``eps`` = 0, 1), their half-line Fourier
transform ``gamma_eps(E)`` and the thermal weight
``mu_inv(eps, E) = exp(-beta*E) * rho_eps(E)``.

``gamma`` is evaluated through the identity

    gamma(E) = pi*rho(E) + i * PV-integral of rho(E') / (E - E') dE'

which follows from the half-line time integral of the autocorrelation
with a vanishing convergence factor.  Every density kind is a piecewise
polynomial, so the principal value has an exact closed form (the Hilbert
transform of a piecewise polynomial, F. W. King, *Hilbert Transforms*,
CUP 2009): on each segment [p, q] with polynomial rho_s,

    PV-integral = rho_s(E) * log|(E-p)/(E-q)| - integral_p^q (rho_s(x)-rho_s(E))/(x-E) dx

and the second term is a polynomial in E.  Grouping the log terms by
knot t leaves sum_t (rho_right(E) - rho_left(E)) * log|E - t|, which is
finite at the knots of continuous profiles (the jump factor vanishes
there) and diverges only at the edges of a ``rect`` profile.  The real
part is exactly ``pi*rho(E)`` by construction.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError


def _real(value, where):
    """A finite real number as float; anything else is a ValidationError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{where} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return value


def _count(value, where):
    """An integral number as int; a fractional or non-finite count is rejected
    rather than truncated."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValidationError(f"{where} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DensityProfile:
    """One spectral density rho(E) >= 0 with compact support [a, b].

    kind : "rect" (constant ``height``), "bump" (``amplitude*(E-a)*(b-E)``)
           or "table" (linear interpolation of sorted samples, endpoint
           values required to be 0 so rho is continuous).
    """

    kind: str
    a: float
    b: float
    height: float = 0.0
    amplitude: float = 0.0
    energies: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("rect", "bump", "table"):
            raise ValidationError(f"unknown density profile kind {self.kind!r}")
        params = (self.a, self.b, self.height, self.amplitude, *self.energies, *self.values)
        if not np.all(np.isfinite(params)):
            raise ValidationError(f"{self.kind} profile parameters must be finite")
        if not self.a < self.b:
            raise ValidationError("profile support requires a < b")
        if self.kind == "rect" and self.height < 0:
            raise ValidationError("rect profile height must be >= 0")
        if self.kind == "bump" and self.amplitude < 0:
            raise ValidationError("bump profile amplitude must be >= 0")
        if self.kind == "table":
            e = np.asarray(self.energies, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if e.size < 2 or e.size != v.size:
                raise ValidationError("table profile needs matching energies/values, len >= 2")
            if np.any(np.diff(e) <= 0):
                raise ValidationError("table energies must be strictly increasing")
            if abs(e[0] - self.a) > 1e-12 or abs(e[-1] - self.b) > 1e-12:
                raise ValidationError("table energies must span [a, b]")
            if np.any(v < 0):
                raise ValidationError("table values must be >= 0")
            if v[0] != 0.0 or v[-1] != 0.0:
                raise ValidationError("table values must vanish at both support endpoints")

    @classmethod
    def rect(cls, a, b, height):
        return cls("rect", float(a), float(b), height=float(height))

    @classmethod
    def bump(cls, a, b, amplitude):
        return cls("bump", float(a), float(b), amplitude=float(amplitude))

    @classmethod
    def table(cls, energies, values):
        energies = tuple(float(e) for e in energies)
        values = tuple(float(v) for v in values)
        return cls("table", energies[0], energies[-1], energies=energies, values=values)

    @property
    def support(self):
        return (self.a, self.b)

    @property
    def continuous_at_edges(self):
        # rect jumps at its edges; bump and table vanish there by construction
        return self.kind != "rect"

    def breakpoints(self):
        """Interior points where rho is not smooth (table knots)."""
        if self.kind == "table":
            return [e for e in self.energies[1:-1]]
        return []

    def __call__(self, E):
        E = np.asarray(E, dtype=float)
        inside = (E >= self.a) & (E <= self.b)
        if self.kind == "rect":
            out = np.where(inside, self.height, 0.0)
        elif self.kind == "bump":
            out = np.where(inside, self.amplitude * (E - self.a) * (self.b - E), 0.0)
        else:
            out = np.where(inside, np.interp(E, self.energies, self.values), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def norm_squared(self, n_nodes=400):
        """Integral of rho over its support (the squared form-factor norm)."""
        x, w = gauss_legendre_nodes(self.a, self.b, n_nodes)
        return float(np.dot(w, self(x)))

    def to_json(self):
        if self.kind == "rect":
            return {"kind": "rect", "a": self.a, "b": self.b, "height": self.height}
        if self.kind == "bump":
            return {"kind": "bump", "a": self.a, "b": self.b, "amplitude": self.amplitude}
        return {"kind": "table", "energies": list(self.energies), "values": list(self.values)}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValidationError("density profile must be an object with a 'kind' key")
        kind = obj["kind"]
        keys = set(obj.keys())
        if kind == "rect":
            if keys != {"kind", "a", "b", "height"}:
                raise ValidationError("rect profile takes exactly keys kind, a, b, height")
            return cls.rect(*(_real(obj[k], f"rect profile {k}") for k in ("a", "b", "height")))
        if kind == "bump":
            if keys != {"kind", "a", "b", "amplitude"}:
                raise ValidationError("bump profile takes exactly keys kind, a, b, amplitude")
            return cls.bump(*(_real(obj[k], f"bump profile {k}") for k in ("a", "b", "amplitude")))
        if kind == "table":
            if keys != {"kind", "energies", "values"}:
                raise ValidationError("table profile takes exactly keys kind, energies, values")
            columns = []
            for k in ("energies", "values"):
                if not isinstance(obj[k], list):
                    raise ValidationError(f"table profile {k} must be a list")
                columns.append([_real(x, f"table profile {k}") for x in obj[k]])
            return cls.table(*columns)
        raise ValidationError(f"unknown density profile kind {kind!r}")


def gauss_legendre_nodes(a, b, n):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform energy grid carrying trapezoid weights for the dE integrals."""

    e_min: float
    e_max: float
    points: int

    def __post_init__(self):
        _count(self.points, "energy grid points")
        if self.points < 16:
            raise ValidationError("energy grid needs at least 16 points")
        if not (math.isfinite(self.e_min) and math.isfinite(self.e_max)):
            raise ValidationError("energy grid bounds must be finite")
        if not self.e_min < self.e_max:
            raise ValidationError("energy grid requires e_min < e_max")

    @property
    def nodes(self):
        return np.linspace(self.e_min, self.e_max, self.points)

    @property
    def spacing(self):
        return (self.e_max - self.e_min) / (self.points - 1)

    @property
    def weights(self):
        w = np.full(self.points, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def covers(self, a, b):
        return self.e_min <= a and b <= self.e_max

    def to_json(self):
        return {"min": self.e_min, "max": self.e_max, "points": self.points}


@dataclass(frozen=True)
class BathSpec:
    """The two interaction densities plus the quadrature grid."""

    rho0: DensityProfile
    rho1: DensityProfile
    grid: EnergyGrid

    def density(self, eps):
        if eps == 0:
            return self.rho0
        if eps == 1:
            return self.rho1
        raise ValidationError("density index must be 0 or 1")

    def support_nodes(self, eps):
        """Grid nodes and trapezoid weights where rho_eps is nonzero, with
        the density values there."""
        E = self.grid.nodes
        rho = self.density(eps)(E)
        mask = rho > 0
        return E[mask], self.grid.weights[mask], rho[mask]

    @property
    def support_gap(self):
        (a0, b0), (a1, b1) = self.rho0.support, self.rho1.support
        if b0 <= a1:
            return a1 - b0
        if b1 <= a0:
            return a0 - b1
        return -min(b0 - a1, b1 - a0)


def validate_bath(bath, beta):
    """Check nonnegativity, disjoint supports and grid coverage.

    Disjoint supports realize the requirement that the thermal
    cross-correlation of the two form factors vanishes at all times.
    Raises ValidationError on any violation, otherwise returns a report.
    """
    if not beta > 0 or not math.isfinite(beta):
        raise ValidationError("beta must be > 0 and finite")
    for eps in (0, 1):
        prof = bath.density(eps)
        a, b = prof.support
        sample = np.linspace(a, b, 1001)
        if np.any(prof(sample) < 0):
            raise ValidationError(f"rho{eps} takes negative values on its support")
    gap = bath.support_gap
    if gap <= 0:
        raise ValidationError(
            "supports of rho0 and rho1 overlap; the model requires disjoint "
            "energy supports so the thermal cross-correlation of the form "
            "factors vanishes for all times"
        )
    covered = all(bath.grid.covers(*bath.density(eps).support) for eps in (0, 1))
    if not covered:
        raise ValidationError("energy grid does not cover both density supports")
    return {
        "nonnegative": True,
        "disjoint_supports": True,
        "support_gap": gap,
        "grid_covers_supports": True,
        "grid": bath.grid.to_json(),
    }


def mu_inv(bath, eps, E, beta):
    """Reciprocal thermal density exp(-beta*E) * rho_eps(E).

    Only the reciprocal is ever needed; the density itself diverges off
    support and is never formed.
    """
    return math.exp(-beta * E) * bath.density(eps)(E)


def k_inner_product(bath, X, Y, omega, beta, n_nodes=None):
    """Inner product of rank-one operators |g_f><g_u| and |g_v><g_w|.

    X and Y are index pairs (f, u) and (v, w) with entries in {0, 1}.
    Evaluates 2*pi * delta_{f,v} * delta_{u,w} *
    integral of rho_f(E) * exp(-beta*(E-omega)) * rho_u(E-omega) dE
    by quadrature on the bath grid.
    """
    f, u = X
    v, w = Y
    if f != v or u != w:
        return 0.0 + 0.0j
    rho_f = bath.density(f)
    rho_u = bath.density(u)
    # trapezoid at the grid's spacing over the exact support overlap, so
    # discontinuous (rect) supports do not leak weight past their edges
    lo = max(rho_f.a, rho_u.a + omega)
    hi = min(rho_f.b, rho_u.b + omega)
    if lo >= hi:
        return 0.0 + 0.0j
    n = max(int(round((hi - lo) / bath.grid.spacing)) + 1, 16)
    E = np.linspace(lo, hi, n)
    wts = np.full(n, (hi - lo) / (n - 1))
    wts[0] *= 0.5
    wts[-1] *= 0.5
    integrand = rho_f(E) * np.exp(-beta * (E - omega)) * rho_u(E - omega)
    return complex(2.0 * math.pi * np.dot(wts, integrand))


class GammaTable:
    """gamma_eps(E) for the two densities, evaluated in closed form.

    ``gamma(eps, E)`` takes a scalar or an array of energies and returns a
    complex scalar or an array of the same shape.  Evaluation is exact
    and vectorised, so nothing is cached.
    """

    def __init__(self, bath):
        self.bath = bath

    def gamma(self, eps, E):
        prof = self.bath.density(eps)
        E = np.asarray(E, dtype=float)
        out = np.empty(E.shape, dtype=complex)
        out.real = math.pi * prof(E)
        out.imag = _pv_integral(prof, E)
        return complex(out) if out.ndim == 0 else out

    def __call__(self, eps, E):
        return self.gamma(eps, E)


def _xlogx(x):
    """x * log|x|, continued by its limit 0 at x = 0."""
    ax = np.abs(x)
    nonzero = ax > 0.0
    return np.where(nonzero, x * np.log(np.where(nonzero, ax, 1.0)), 0.0)


def _pv_integral(prof, E):
    """PV integral of rho(E') / (E - E') dE' in closed form, for an array E.

    rect:  h * log|(E-a)/(E-b)|, infinite at the edges (NumericError);
    bump:  A * [(E-a)(b-E) log|(E-a)/(E-b)| + (b-a)(E - (a+b)/2)];
    table: sum over knots t_k of (s_k - s_{k-1}) (E - t_k) log|E - t_k|,
           s_k the slope right of t_k (zero outside the support); the
           polynomial part is the total change of rho, which vanishes.
    """
    a, b = prof.a, prof.b
    if prof.kind == "rect":
        with np.errstate(divide="ignore", invalid="ignore"):
            val = prof.height * np.log(np.abs((E - a) / (E - b)))
        if not np.all(np.isfinite(val)):
            raise NumericError(
                "gamma evaluated exactly at a rect support edge where the density "
                "jumps; the imaginary part diverges logarithmically there -- "
                "offset E away from the edge"
            )
        return val
    if prof.kind == "bump":
        return prof.amplitude * ((b - E) * _xlogx(E - a) + (E - a) * _xlogx(E - b)
                                 + (b - a) * (E - 0.5 * (a + b)))
    knots = np.asarray(prof.energies)
    slopes = np.diff(prof.values) / np.diff(knots)
    kinks = np.diff(slopes, prepend=0.0, append=0.0)
    return (_xlogx(E[..., None] - knots) * kinks).sum(axis=-1)
