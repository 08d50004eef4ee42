"""Reservoir description through its two energy densities.

The reservoir enters every in-scope formula only through the scalar
densities ``rho_eps(E)`` (``eps`` = 0, 1), their half-line Fourier
transform ``gamma_eps(E)`` and the thermal weight
``w * exp(-beta*E) * rho_eps(E)`` of each support node of the quadrature
(``_thermal_weights``).

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

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError, _array, _count, _fields, _index, _real


# the parameters of each profile kind, in the order its constructor takes them
_PROFILE_PARAMS = {"rect": ("a", "b", "height"), "bump": ("a", "b", "amplitude"),
                   "table": ("energies", "values")}
_TABLE_LENGTHS = "table profile needs matching energies/values, len >= 2"


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
                raise ValidationError(_TABLE_LENGTHS)
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
        return cls("rect", _real(a, "rect profile a"), _real(b, "rect profile b"),
                   height=_real(height, "rect profile height"))

    @classmethod
    def bump(cls, a, b, amplitude):
        return cls("bump", _real(a, "bump profile a"), _real(b, "bump profile b"),
                   amplitude=_real(amplitude, "bump profile amplitude"))

    @classmethod
    def table(cls, energies, values):
        energies = tuple(_real(e, "table profile energies") for e in energies)
        values = tuple(_real(v, "table profile values") for v in values)
        if len(energies) < 2 or len(energies) != len(values):
            raise ValidationError(_TABLE_LENGTHS)
        return cls("table", energies[0], energies[-1], energies=energies, values=values)

    @property
    def support(self):
        return (self.a, self.b)

    def __call__(self, E):
        E = np.asarray(E, dtype=float)
        inside = (E >= self.a) & (E <= self.b)
        if self.kind == "rect":
            out = np.where(inside, self.height, 0.0)
        elif self.kind == "bump":
            # clipped, so energies far outside the support cannot overflow
            Ec = np.clip(E, self.a, self.b)
            out = np.where(inside, self.amplitude * (Ec - self.a) * (self.b - Ec), 0.0)
        else:
            out = np.where(inside, np.interp(E, self.energies, self.values), 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def norm_squared(self):
        """Squared form-factor norm: the integral of rho, by 400-node Gauss-Legendre."""
        x, w = gauss_legendre_nodes(self.a, self.b, 400)
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
        params = _PROFILE_PARAMS.get(kind) if isinstance(kind, str) else None
        if params is None:
            raise ValidationError(f"unknown density profile kind {kind!r}")
        _fields(obj, f"{kind} profile", ("kind", *params))
        if kind == "table":
            for k in params:
                if not isinstance(obj[k], list):
                    raise ValidationError(f"table profile {k} must be a list")
        return getattr(cls, kind)(*(obj[k] for k in params))


@functools.lru_cache(maxsize=16)
def _legendre_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], built once per order.

    The rule depends on n alone, and `leggauss` (a dense eigensolve plus a
    refinement; Golub and Welsch, Math. Comp. 23, 221 (1969)) costs about
    10 ms at n = 320, so every quadrature shares one read-only copy.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _exp_rows(n, c, x):
    """The rows exp(i k c x), k < n, shape (n, |x|), by baby and giant steps.

    With m = ceil(sqrt(n)) and k = a m + b, row k is exp(i a m c x) *
    exp(i b c x), so only (ceil(n / m) + m) |x| exponentials are evaluated,
    and n |x| complex products fill the rows.  Each row agrees with the
    direct exp(i k c x) to a few ulps of its phase k c x.
    """
    m = math.isqrt(n - 1) + 1
    giant = np.exp(1j * np.outer(np.arange(-(-n // m)) * (m * c), x))
    baby = np.exp(1j * np.outer(np.arange(m) * c, x))
    rows = giant[:, None, :] * baby[None, :, :]
    return rows.reshape(-1, rows.shape[-1])[:n]


def gauss_legendre_nodes(a, b, n):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    # operator.index refuses a float order, as leggauss does, cached or not
    x, w = _legendre_rule(operator.index(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# Largest energy grid.  Each support node keeps its R column in the eigenbasis,
# 32 d^2 bytes, for the life of the TMatrix (`thermal_pass`); building it takes
# 64 d^2 bytes of R blocks per node and several times that in the level solve.
# `build_generator` holds that column by Bohr sector without copying or
# splitting it; reading the family's `ops` forms 16 d^2 bytes per kept entry,
# of which there are up to 2 |B| per node.  At 2^16 support nodes the pass
# keeps 8.4 MB at d = 2 and 19 MB at d = 3; the shipped models use 481 points.
MAX_GRID_POINTS = 1 << 16


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform energy grid carrying trapezoid weights for the dE integrals."""

    e_min: float
    e_max: float
    points: int

    def __post_init__(self):
        # a frozen dataclass: store the checked values through object.__setattr__
        for name, check in (("points", _count), ("e_min", _real), ("e_max", _real)):
            object.__setattr__(self, name, check(getattr(self, name), f"energy grid {name}"))
        if self.points < 16:
            raise ValidationError("energy grid needs at least 16 points")
        if self.points > MAX_GRID_POINTS:
            raise ValidationError(f"energy grid has {self.points} points, above the cap of "
                                  f"{MAX_GRID_POINTS}")
        if not self.e_min < self.e_max:
            raise ValidationError("energy grid requires e_min < e_max")
        if not math.isfinite(self.e_max - self.e_min):
            raise ValidationError(f"energy grid span e_max - e_min overflows "
                                  f"(e_min = {self.e_min:g}, e_max = {self.e_max:g})")

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

    @classmethod
    def from_json(cls, obj, where="grid"):
        """Inverse of to_json, with every key required and checked."""
        _fields(obj, where, ("min", "max", "points"))
        return cls(_real(obj["min"], f"{where}.min"), _real(obj["max"], f"{where}.max"),
                   _count(obj["points"], f"{where}.points"))


@dataclass(frozen=True)
class BathSpec:
    """The two interaction densities plus the quadrature grid."""

    rho0: DensityProfile
    rho1: DensityProfile
    grid: EnergyGrid

    def density(self, eps):
        return (self.rho0, self.rho1)[_index(eps, "eps")]

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


def _thermal_weights(nodes, wts, rho, beta):
    """w exp(-beta E) rho(E) at support nodes E with trapezoid weights w and
    density values rho: the weight of each node in the thermal quadrature."""
    return wts * (np.exp(-beta * nodes) * rho)


def validate_bath(bath, bohr, beta):
    """The one admissibility check of the thermal quadrature.

    In this order: the supports of rho0 and rho1 are disjoint, so the
    thermal cross-correlation of the two form factors vanishes at all
    times; each density is positive at some grid node; the grid covers
    each support shifted by every Bohr frequency in `bohr`; and at every
    support node E both beta E and the thermal weight w exp(-beta E) rho(E)
    (`_thermal_weights`) are finite (the weight may underflow to 0).
    Raises ValidationError on the first violation, otherwise returns a
    report.
    """
    beta = _real(beta, "beta")
    bohr = _array(bohr, (None,), "bohr", dtype=float)
    gap = bath.support_gap
    if gap <= 0:
        raise ValidationError(
            "supports of rho0 and rho1 overlap; the model requires disjoint "
            "energy supports so the thermal cross-correlation of the form "
            "factors vanishes for all times"
        )
    supports = [bath.density(eps).support for eps in (0, 1)]
    for eps, (a, b) in enumerate(supports):
        if not bath.support_nodes(eps)[0].size:
            nodes = bath.grid.nodes
            if ((nodes > a) & (nodes < b)).any():
                raise ValidationError(f"rho{eps} vanishes at every grid node of its support "
                                      f"[{a:g}, {b:g}]")
            raise ValidationError(f"no grid node lies inside the support [{a:g}, {b:g}] "
                                  f"of rho{eps}; refine the energy grid")
    missing = [(eps, float(omega)) for omega in bohr for eps, (a, b) in enumerate(supports)
               if not bath.grid.covers(a + omega, b + omega)]
    if missing:
        detail = ", ".join(f"support of rho{e} shifted by {w:+g}" for e, w in missing)
        raise ValidationError(f"energy grid does not cover: {detail}")
    for eps in (0, 1):
        nodes, wts, rho = bath.support_nodes(eps)
        with np.errstate(over="ignore"):
            weights = _thermal_weights(nodes, wts, rho, beta)
            bad = ~np.isfinite(beta * nodes) | ~np.isfinite(weights)
        if bad.any():
            raise ValidationError(
                f"thermal weight w*exp(-beta*E)*rho(E) is out of range at beta = {beta:g}, "
                f"E = {nodes[bad][0]:g} (a support node of rho{eps}): beta*E and the weight "
                f"must be finite")
    return {
        "nonnegative": True,
        "disjoint_supports": True,
        "support_gap": gap,
        "grid_covers_supports": True,
        "grid": bath.grid.to_json(),
    }


class GammaTable:
    """gamma_eps(E) for the two densities, evaluated in closed form.

    ``gamma(eps, E)`` takes a scalar or an array of energies and returns a
    complex scalar or an array of the same shape.  Evaluation is exact
    and vectorised, so nothing is cached.  An energy that is not a finite
    real number is a ValidationError.
    """

    def __init__(self, bath):
        self.bath = bath

    def gamma(self, eps, E):
        prof = self.bath.density(eps)
        # the dtype kind before the float cast, which would read a bool, the
        # real part of a complex or a numeric string as an energy
        try:
            arr = np.asarray(E)
            ok = arr.dtype.kind in "iuf"
        except ValueError:
            ok = False
        if not ok:
            raise ValidationError(f"gamma needs real energies, got {E!r}")
        E = arr.astype(float, copy=False)
        out = np.empty(E.shape, dtype=complex)
        out.real = math.pi * prof(E)
        out.imag = _pv_integral(prof, E)
        return complex(out) if out.ndim == 0 else out


def _xlogx(x):
    """x * log|x|, continued by its limit 0 at x = 0."""
    ax = np.abs(x)
    nonzero = ax > 0.0
    return np.where(nonzero, x * np.log(np.where(nonzero, ax, 1.0)), 0.0)


def _finite_energies(E):
    """ValidationError naming the first entry of the energy array E that is
    not finite, if one is."""
    bad = ~np.isfinite(E)
    if bad.any():
        raise ValidationError(f"gamma needs finite energies, got E = {E[bad][0]:g}")


def _pv_integral(prof, E):
    """PV integral of rho(E') / (E - E') dE' in closed form, for an array E.

    rect:  h * log|(E-a)/(E-b)|, infinite at the edges (NumericError);
    bump:  A * [(E-a)(b-E) log|(E-a)/(E-b)| + (b-a)(E - (a+b)/2)];
    table: sum over knots t_k of (s_k - s_{k-1}) (E - t_k) log|E - t_k|,
           s_k the slope right of t_k (zero outside the support); the
           polynomial part is the total change of rho, which vanishes.
    The bump and table forms overflow far from the support (|E| near
    1e300); a value that is not finite there is a NumericError naming E.
    A NaN or infinite E makes the value non-finite in every form, so it is
    told apart from an overflow only in these branches: a ValidationError.
    """
    a, b = prof.a, prof.b
    if prof.kind == "rect":
        with np.errstate(divide="ignore", invalid="ignore"):
            val = prof.height * np.log(np.abs((E - a) / (E - b)))
        if not np.all(np.isfinite(val)):
            _finite_energies(E)
            raise NumericError(
                "gamma evaluated exactly at a rect support edge where the density "
                "jumps; the imaginary part diverges logarithmically there -- "
                "offset E away from the edge"
            )
        return val
    with np.errstate(over="ignore", invalid="ignore"):
        if prof.kind == "bump":
            val = prof.amplitude * ((b - E) * _xlogx(E - a) + (E - a) * _xlogx(E - b)
                                    + (b - a) * (E - 0.5 * (a + b)))
        else:
            knots = np.asarray(prof.energies)
            slopes = np.diff(prof.values) / np.diff(knots)
            kinks = np.diff(slopes, prepend=0.0, append=0.0)
            val = (_xlogx(E[..., None] - knots) * kinks).sum(axis=-1)
    bad = ~np.isfinite(val)
    if bad.any():
        _finite_energies(E)
        raise NumericError(
            f"gamma overflows at E = {E[bad][0]:g}: the closed-form principal value of "
            f"the {prof.kind} density on [{a:g}, {b:g}] is not finite there")
    return val
