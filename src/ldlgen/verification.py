"""Numerical checks of the scalar distributional limits and the identity suite.

The rescaled oscillatory kernel exp(i(t'-t)X/lambda^2)/lambda^2 is paired
against smooth test functions f(t) g(t') h(X) and compared with its
lambda -> 0 limit, 2 pi delta(t'-t) delta(X) (times the Kronecker factor
in the frequency labels); restricting t' < t yields the causal variant
whose energy kernel is the resolvent 1/(i(X - i0)), i.e. the pairing
pi h(0) - i PV(h/X).  The double time integral is computed in the
substituted variable u = (t'-t)/lambda^2, where the X quadrature
produces the Fourier transform of h: the Gaussian envelopes damp the
u integrand, so the cost is uniform in lambda.  The packets are evaluated
in place over each chunk of (u, t) nodes, with the bits of the
out-of-place formula.  The suite's limit checks pair the shipped test
functions at fixed lambdas and read no model, so they are computed once per
process (`_limit_checks`); `check_delta_limit` and
`check_causal_delta_limit` compute on every call.

The identity suite (`run_identity_suite`) checks the level-basis solve,
the closed-form series, the drift routes and the Lindblad form against
independent oracles, each in a few array passes: the series sums take the
probe energies as one array, the three-term reconstruction of Theta0 is
one contraction over (node, entry, X) for all random X, and the stacked
oracle solves every (omega', E) probe column of one eps at once
(`column_pass`, bitwise one column's arithmetic).  That oracle is the
|I|*d block system of 1+T_eps on I(omega') = omega' + offsets, in the
eigenbasis of H_S.  It shares only the kernel entries (`TMatrix._kernels`)
with the level-basis solve: the placement of each entry in the one block
its canonical transfer names (`SpectralData.nearest`, lower offset on a
tie), the dense solve (`stacked_column`, one column at depth 1 or 2), the
power series and the depth-2 index set that cross-checks the restriction
are its own.
"""

import functools
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .bath import _exp_rows, _legendre_rule, gauss_legendre_nodes, validate_bath
from .errors import ValidationError, _array, _count, _energies, _index, _real
from .generator import _dagger, build_generator, drift, drift_from_t_operator, kraus_weights
from .model import _cluster_sorted
from .tmatrix import _frobenius

# entries of one (u nodes) x (t nodes) block in _overlap_vector: bounds its
# memory, and blocks larger than the cache made the mismatched check slower
_OVERLAP_CHUNK = 1 << 15
# Gauss-Legendre nodes per panel of every composite rule
_PANEL_NODES = 8
# Most panels of the t rule in a mismatched overlap: 2^19 t nodes, whose
# complex f w takes 8 MiB (see `_overlap_panels`)
MAX_OVERLAP_PANELS = 1 << 16
# Largest stack of stacked systems T that `column_pass` holds at once, in
# bytes (at ladder d = 6 about a third of one epsilon's columns).
_STACK_CHUNK_BYTES = 1 << 24


@dataclass(frozen=True)
class GaussianPacket:
    """poly(x - center) * exp(-(x - center)^2 / (2 sigma^2)); coeffs low-to-high.

    center must be finite, sigma finite and > 0 with 2 sigma^2 a normal float
    and (10 sigma)^2 finite, and coeffs a non-empty tuple (or list) of finite
    reals; anything else raises ValidationError.  It is 0 where (x - center)^2 overflows.
    It takes x as a finite real number or array of any shape (`errors._array`).
    """

    center: float = 0.0
    sigma: float = 1.0
    coeffs: tuple = (1.0,)

    def __post_init__(self):
        sigma = _real(self.sigma, "packet sigma")
        if not sigma > 0:
            raise ValidationError(f"packet sigma must be > 0, got {sigma!r}")
        # the exponent divides by 2 sigma^2 (zero or subnormal: NaN or lost bits);
        # the limit checks square distances across the 10 sigma extent
        spread, pad = 2.0 * (sigma * sigma), 10.0 * sigma
        if not (spread >= np.finfo(float).tiny and pad * pad < math.inf):
            raise ValidationError(f"packet sigma = {sigma!r} puts 2 sigma^2 = {spread!r} below "
                                  f"the normal floats or its 10 sigma extent squared past them")
        if not isinstance(self.coeffs, (tuple, list)) or not self.coeffs:
            raise ValidationError(f"packet coeffs must be a non-empty tuple of numbers, "
                                  f"got {self.coeffs!r}")
        object.__setattr__(self, "center", _real(self.center, "packet center"))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "coeffs", tuple(_real(c, "packet coefficient")
                                                 for c in self.coeffs))

    def __call__(self, x):
        out = self._overwrite(np.array(_array(x, None, "packet argument", dtype=float)))
        return float(out) if out.ndim == 0 else out

    def _overwrite(self, x):
        """The packet at x, a float array, written over x and returned.
        Horner's rule starts from the leading coefficient, which is its first
        step 0 z + c = c; z z / -(2 sigma^2) is -z z / (2 sigma^2) bit for
        bit, so this is the formula above evaluated without temporaries.  A
        center of +0.0 and a polynomial of 1.0 alone are skipped: x - 0.0
        and x * 1.0 are x in every bit."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.center or math.copysign(1.0, self.center) < 0:
                x -= self.center
            poly = self.coeffs[-1]
            if len(self.coeffs) > 1:
                poly = np.full_like(x, poly)
                for c in reversed(self.coeffs[:-1]):
                    poly *= x
                    poly += c
            np.multiply(x, x, out=x)
        np.divide(x, -2.0 * self.sigma ** 2, out=x)
        np.exp(x, out=x)
        if self.coeffs != (1.0,):
            np.multiply(x, poly, out=x, where=x != 0)  # 0 even where poly overflowed
        return x

    def extent(self):
        """(center - 10 sigma, center + 10 sigma), where the limit checks integrate."""
        pad = 10.0 * self.sigma
        return (self.center - pad, self.center + pad)


def _decreasing(lambdas):
    """lambdas, a 1-D sequence of finite reals (`_real`) that strictly
    decreases, as a list of floats; anything else is a ValidationError."""
    if not (isinstance(lambdas, Sequence)
            or isinstance(lambdas, np.ndarray) and lambdas.ndim == 1):
        raise ValidationError(f"lambdas must be a 1-D sequence of numbers, got {lambdas!r}")
    lambdas = [_real(l, "lambda") for l in lambdas]
    if any(l2 >= l1 for l1, l2 in zip(lambdas, lambdas[1:])):
        raise ValidationError("lambdas must be strictly decreasing")
    return lambdas


@dataclass
class LimitCheckReport:
    """Each field is read strictly, anything else is a ValidationError:
    lambdas as `_decreasing` admits, errors one finite real per lambda,
    limit_value a finite number (kept as complex), monotone a bool, and
    values empty or one finite number per lambda (kept as complex)."""

    lambdas: list
    errors: list
    limit_value: complex
    monotone: bool
    values: list = field(default_factory=list)

    def __post_init__(self):
        self.lambdas = _decreasing(self.lambdas)
        n = len(self.lambdas)
        self.errors = _array(self.errors, (n,), "limit-check errors", dtype=float).tolist()
        self.limit_value = complex(_array(self.limit_value, (), "limit value"))
        if not isinstance(self.monotone, (bool, np.bool_)):
            raise ValidationError(f"monotone must be a bool, got {self.monotone!r}")
        values = _array(self.values, (None,), "limit-check values")
        if values.size not in (0, n):
            raise ValidationError("limit-check values must be empty or one per lambda")
        self.values = values.tolist()


def _composite_gl(a, b, n_panels):
    """Gauss-Legendre rule of `_PANEL_NODES` nodes on each of n_panels equal
    panels of [a, b], each mapped by bath.gauss_legendre_nodes."""
    edges = np.linspace(a, b, n_panels + 1)
    x, w = gauss_legendre_nodes(edges[:-1, None], edges[1:, None], _PANEL_NODES)
    return x.ravel(), w.ravel()


def _symmetric_u_grid(u_max, n_panels):
    """Panelled grid on [-u_max, u_max] built as a mirror pair, so the
    causal half-integral uses exactly the left half of the full grid."""
    x_r, w_r = _composite_gl(0.0, u_max, n_panels)
    x_l, w_l = -x_r[::-1], w_r[::-1]
    return (x_l, w_l), (x_r, w_r)


def _fourier_of_h(h, u):
    """sum over nodes x of h(x) w exp(i u x) on the composite rule over
    h.extent(), for every u.  All panels have the width 2 half, so each
    node is x = mid_p + half xi_q with mid_p = a + half + 2 half p, and
    exp(i u x) factors into exp(i u (a + half)) exp(i p 2 half u)
    exp(i u half xi_q); the panel phases exp(i p 2 half u) come from their
    own baby and giant steps (`bath._exp_rows`).  For U u nodes, P panels
    and Q nodes per panel that is about U (1 + 2 sqrt(P) + Q) exponentials
    instead of U P Q.  h(x) w stays on the rule's own nodes."""
    a, b = h.extent()
    n_panels = 48
    x, w = _composite_gl(a, b, n_panels)
    xi, _ = _legendre_rule(_PANEL_NODES)
    half = 0.5 * (b - a) / n_panels
    panel_sums = (h(x) * w).reshape(n_panels, -1) @ np.exp(1j * half * np.outer(xi, u))
    panel_sums *= _exp_rows(n_panels, 2.0 * half, u)
    return np.exp(1j * (a + half) * u) * panel_sums.sum(axis=0)


def _overlap_panels(f, lam, mismatch_freq):
    """Panels of the t rule in `_overlap_vector`: 64, or enough to resolve
    the phase exp(i mismatch t / lam^2) with four panels per period.  More
    than MAX_OVERLAP_PANELS, or a lam^2 that underflows to 0, raises
    ValidationError naming lam."""
    if not mismatch_freq:
        return 64
    af, bf = f.extent()
    lam2 = lam ** 2
    need = abs(mismatch_freq) / lam2 * (bf - af) / (2.0 * math.pi) * 4.0 if lam2 else math.inf
    if not need <= MAX_OVERLAP_PANELS:
        raise ValidationError(
            f"lambda = {lam!r} needs more than the {MAX_OVERLAP_PANELS} panels of the t rule "
            f"at frequency mismatch {mismatch_freq!r}; raise lambda")
    return max(64, int(need))


def _overlap_vector(f, g, lam, u, mismatch_freq=0.0):
    """G(u) = integral f(t) g(t + lam^2 u) [exp(i t' mismatch / lam^2)] dt
    with t' = t + lam^2 u; returned for every u node.  The phase factors as
    exp(i mismatch t / lam^2) exp(i mismatch u): the first is folded into
    f once, the second multiplies the sums, so no chunk evaluates an
    exponential; without a mismatch the sums stay real.  Each chunk of
    (u, t) nodes is evaluated in one buffer: t', then g(t') over it
    (`GaussianPacket._overwrite`), then times f w."""
    af, bf = f.extent()
    t, wt = _composite_gl(af, bf, _overlap_panels(f, lam, mismatch_freq))
    ft = f(t) * wt
    if mismatch_freq:
        ft = ft * np.exp(1j * (mismatch_freq / lam ** 2) * t)
    out = np.empty(u.size, dtype=complex)
    step = max(1, _OVERLAP_CHUNK // t.size)
    # t and f w tiled to a chunk's rows once, so no chunk broadcasts a row
    t_rows = np.tile(t, (min(step, u.size), 1))
    ft_rows = np.tile(ft, (t_rows.shape[0], 1))
    buf = np.empty(t_rows.shape)
    prod = np.empty(buf.shape, dtype=complex) if mismatch_freq else buf
    for chunk in range(0, u.size, step):
        rows = slice(0, min(step, u.size - chunk))
        tp = buf[rows]
        np.add(t_rows[rows], lam ** 2 * u[chunk:chunk + step, None], out=tp)
        np.multiply(ft_rows[rows], g._overwrite(tp), out=prod[rows])
        out[chunk:chunk + step] = prod[rows].sum(axis=1)
    return out * np.exp(1j * mismatch_freq * u) if mismatch_freq else out


def _product_integral(f, g):
    af, bf = f.extent()
    t, wt = _composite_gl(af, bf, 64)
    return float(np.dot(wt, f(t) * g(t)))


def _pv_over_x(h):
    """PV integral of h(X)/X over the real line by singularity subtraction."""
    a, b = h.extent()
    lim = max(abs(a), abs(b))
    x, w = _composite_gl(-lim, lim, 64)
    h0 = h(0.0)
    guard = 1e-12 * lim
    vals = np.where(np.abs(x) > guard, (h(x) - h0) / np.where(x == 0, 1.0, x), 0.0)
    return float(np.dot(w, vals))


def _u_extent(h):
    # Fourier transform of a Gaussian-times-polynomial of width sigma decays
    # on the scale 1/sigma
    return 18.0 / h.sigma


def _pairings(f, g, h, lambdas, mismatch_freq=0.0):
    """The rescaled kernel paired with f, g and h for each lambda, over the
    symmetric u grid (full) and over its left half u < 0 (causal, t' < t).
    Both come from one overlap vector per lambda and one Fourier transform
    of h, on the whole grid; the left half is its first half."""
    (ul, wl), (ur, wr) = _symmetric_u_grid(_u_extent(h), 160)
    u, wu = np.concatenate([ul, ur]), np.concatenate([wl, wr])
    hhat = _fourier_of_h(h, u)
    full, causal = [], []
    for lam in lambdas:
        integrand = _overlap_vector(f, g, lam, u, mismatch_freq) * hhat
        full.append(complex(np.dot(wu, integrand)))
        causal.append(complex(np.dot(wl, integrand[:ul.size])))
    return full, causal


def _limit_report(lambdas, values, target):
    """The pairings' errors against target, and whether they fall."""
    errors = [abs(j - target) for j in values]
    monotone = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    return LimitCheckReport(lambdas=lambdas, errors=errors, limit_value=complex(target),
                            monotone=monotone, values=values)


def _lambdas(f, g, h, lambdas):
    """At least one lambda, each finite and > 0 and strictly decreasing
    (`_decreasing`), as a list of floats, for packets f, g and h (any other
    value is refused).  g squares the distance from its center of the times
    t + lam^2 u, t over f's extent and |u| up to `_u_extent(h)`, so the
    largest distance must square to a finite float.  The Fourier transform
    of h multiplies h's extent by |u|, and its principal value spans twice
    h's largest |extent|; both must be finite.  All is checked before any
    pairing."""
    for name, packet in (("f", f), ("g", g), ("h", h)):
        if not isinstance(packet, GaussianPacket):
            raise ValidationError(f"test function {name} must be a GaussianPacket, "
                                  f"got {packet!r}")
    lambdas = _decreasing(lambdas)
    if not lambdas:
        raise ValidationError("need at least one lambda")
    if not min(lambdas) > 0:
        raise ValidationError(f"lambda must be > 0, got {min(lambdas)!r}")
    lam = max(lambdas)
    reach = max(abs(t - g.center) for t in f.extent()) + lam * lam * _u_extent(h)
    if not math.isfinite(reach * reach):
        raise ValidationError(f"lambda = {lam!r} and the f, g centers {f.center!r}, {g.center!r} "
                              f"put shifted times {reach!r} from g's center; its square overflows")
    lim = max(abs(x) for x in h.extent())
    if not (math.isfinite(lim * _u_extent(h)) and math.isfinite(2.0 * lim)):
        raise ValidationError(f"h packet center {h.center!r}, sigma {h.sigma!r} puts the phases "
                              f"of its Fourier transform or its principal-value span past the "
                              f"float range")
    return lambdas


def _matched_reports(f, g, h, lambdas):
    """The reports of check_delta_limit at matching frequencies and of
    check_causal_delta_limit, from one pass of `_pairings`."""
    lambdas = _lambdas(f, g, h, lambdas)
    full, causal = _pairings(f, g, h, lambdas)
    product = _product_integral(f, g)
    return (_limit_report(lambdas, full, 2.0 * math.pi * h(0.0) * product),
            _limit_report(lambdas, causal,
                          product * complex(math.pi * h(0.0), -_pv_over_x(h))))


def check_delta_limit(f, g, h, omega_match, lambdas, mismatch=1.0):
    """Pair the rescaled kernel with f, g, h for each lambda and compare
    against 2 pi h(0) * integral f g (matching frequencies) or 0.  Needs
    lambdas and packets that `_lambdas` admits; at mismatched frequencies
    each lambda must also keep the t rule within MAX_OVERLAP_PANELS panels.
    omega_match must be a bool and mismatch a finite number, nonzero when
    omega_match is False.  Everything is checked before any pairing."""
    if not isinstance(omega_match, bool):
        raise ValidationError(f"omega_match must be True or False, got {omega_match!r}")
    mismatch = _real(mismatch, "frequency mismatch")
    if not omega_match and mismatch == 0.0:
        raise ValidationError("a zero frequency mismatch is a matching pair, whose limit "
                              "is not 0: pass omega_match=True")
    if omega_match:
        return _matched_reports(f, g, h, lambdas)[0]
    lambdas = _lambdas(f, g, h, lambdas)
    for lam in lambdas:
        _overlap_panels(f, lam, mismatch)
    return _limit_report(lambdas, _pairings(f, g, h, lambdas, mismatch)[0], 0.0)


def check_causal_delta_limit(f, g, h, lambdas):
    """Same pairing restricted to the ordered half t' < t; the limit pairs
    h with the resolvent kernel: integral f g * (pi h(0) - i PV(h/X)).
    Needs lambdas as `check_delta_limit` does at matching frequencies."""
    return _matched_reports(f, g, h, lambdas)[1]


def default_test_functions():
    """The shipped unit-Gaussian test functions (f = g makes the time
    autocorrelation even, pinning the causal/full ratio at exactly 1/2)."""
    f = GaussianPacket(center=0.0, sigma=1.0)
    return f, f, GaussianPacket(center=0.0, sigma=1.0)


# -- stacked oracle -----------------------------------------------------------


@dataclass
class BlockColumn:
    """One column of (1+T_eps)^{-1} at fixed (eps, omega', E), the dense
    solve of `stacked_column`.

    blocks[i] (original basis) solves sum over j of
    (1+T_eps)_{omega_i, omega_j}(E) blocks[j] = delta_{omega_i, omega'} Id
    on the index set omega_i = omega' + offsets[i], and has definite
    transfer offsets[i].
    """

    epsilon: int
    omega_prime: float
    energy: float
    offsets: np.ndarray                 # omega - omega' values, sorted
    blocks: np.ndarray = field(repr=False)   # (|I|, d, d), ordered like offsets


# The batched depth-1 columns of `column_pass`, one entry per column.
ColumnPass = namedtuple("ColumnPass", "omega_prime energy blocks residual neumann order "
                                      "final_increment converged diverged")


def _offsets(tm, index_depth):
    """Offsets of the index set: the Bohr set B (depth 1), or B plus the
    smallest member of each tolerance cluster of the sums B + B that lie
    farther than the tolerance from every member of B (depth 2)."""
    if _count(index_depth, "index_depth") not in (1, 2):
        raise ValidationError("index_depth must be 1 or 2")
    B = np.array(tm.bohr, dtype=float)
    if index_depth == 1:
        return B
    tol = tm.spectral.tolerance
    sums = np.sort((B[:, None] + B).ravel())
    sums = sums[tm.spectral.nearest(sums) < 0]
    reps = [sums[idxs[0]] for idxs in _cluster_sorted(sums, tol)] if sums.size else []
    return np.sort(np.concatenate([B, reps]))


def _stacked_t(tm, eps, omega_prime, E, offsets):
    """The T part of the stacked block system on omega' + offsets, in the
    eigenbasis, for omega' and E of one shape S (checked by the caller):
    shape S + (|I| d, |I| d).  Entry (k, p) of row block i's kernel goes
    to column block `SpectralData.nearest`(offsets[i] - W[k, p], offsets),
    the lower one on a tie, and is dropped when none is within the Bohr
    tolerance: one lookup of |I| d^2 values, the same for every omega', E."""
    d, n = tm.dim, len(offsets)
    omega_prime, E = np.asarray(omega_prime, dtype=float), np.asarray(E, dtype=float)
    nodes = E.reshape(-1)                   # one row of offsets per column
    omega = np.broadcast_to((omega_prime.reshape(-1, 1) + offsets)[..., None], (nodes.size, n, d))
    K = tm._kernels(eps, nodes, omega).reshape(E.shape + (n, d, d))
    j = tm.spectral.nearest(offsets[:, None, None] - tm.spectral.transfer, offsets)
    i, k, p = np.nonzero(j >= 0)
    T = np.zeros(E.shape + (n, d, n, d), dtype=complex)
    T[..., i, k, j[i, k, p], p] = K[..., i, k, p]
    return T.reshape(E.shape + (n * d, n * d))


def _rhs(tm, offsets):
    """Identity at offset 0, which every index set (`_offsets`) holds exactly."""
    rhs = np.zeros((len(offsets), tm.dim, tm.dim), dtype=complex)
    rhs[np.searchsorted(offsets, 0.0)] = np.eye(tm.dim)
    return rhs.reshape(-1, tm.dim)


def _original(tm, X, n_offsets):
    """Blocks in the original basis from stacked eigenbasis solutions
    X (..., |I| d, d): shape (..., |I|, d, d)."""
    basis = tm.spectral.basis
    blocks = X.reshape(X.shape[:-2] + (n_offsets, tm.dim, tm.dim))
    return basis @ blocks @ basis.conj().T


def stacked_column(tm, eps, omega_prime, E, index_depth=1):
    """Column of (1+T_eps)^{-1} by dense solve of the stacked system on
    I(omega') (index_depth=1) or on the depth-2 index set (see `_offsets`);
    any other depth raises ValidationError."""
    eps = _index(eps, "eps")
    omega_prime, E = _real(omega_prime, "omega'"), _real(E, "energy E")
    offsets = _offsets(tm, index_depth)
    A = np.eye(len(offsets) * tm.dim, dtype=complex) + _stacked_t(tm, eps, omega_prime, E, offsets)
    X = np.linalg.solve(A, _rhs(tm, offsets))
    return BlockColumn(epsilon=eps, omega_prime=omega_prime, energy=E, offsets=offsets,
                       blocks=_original(tm, X, len(offsets)))


def _neumann_series(tm, T, offsets):
    """(1+T)^{-1} rhs as the alternating T-power series for a stack of
    stacked systems T (C, |I| d, |I| d), truncated at the model's
    neumann_max_order and neumann_tolerance.  Each column stops on its
    own: once its term drops below the tolerance (converged) or its
    increments stop decreasing over 5 orders (diverged; reported, not
    raised) it is frozen, and the rest go on.  Every increment is
    np.linalg.norm of that column's term, the arithmetic of one column
    alone.  Returns the eigenbasis sums (C, |I| d, d) and, per column,
    order, final_increment, converged and diverged."""
    max_order, tol = tm.spec.neumann_max_order, tm.spec.neumann_tolerance
    n = T.shape[0]
    total = np.broadcast_to(_rhs(tm, offsets), (n,) + T.shape[1:2] + (tm.dim,)).copy()
    order, final = np.zeros(n, dtype=int), np.zeros(n)
    converged, diverged = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    live, term, recent = np.arange(n), total.copy(), np.empty((n, 0))
    for k in range(1, max_order + 1):
        term = -(T @ term)
        total[live] += term
        inc = _frobenius(term)
        # the last five increments of each live column
        recent = np.concatenate([recent[:, -4:], inc[:, None]], axis=1)
        final[live] = inc
        done = inc < tol
        # the truncation order actually needed excludes a term below tol
        order[live] = np.where(done, k - 1, k)
        converged[live] = done
        stalled = ~done & (recent.shape[1] >= 5) & (recent[:, -1] >= recent[:, 0])
        diverged[live] = stalled
        stop = done | stalled
        if stop.any():
            go = ~stop
            if not go.any():
                break
            live, term, T, recent = live[go], term[go], T[go], recent[go]
    return total, order, final, converged, diverged


def _residuals(tm, T, offsets, blocks):
    """Frobenius norm of (1+T) @ column - rhs relative to the rhs, for a
    stack: T (C, |I| d, |I| d) and blocks (C, |I|, d, d) in the original
    basis; one norm per column, (C,)."""
    d = tm.dim
    basis = tm.spectral.basis
    X = (basis.conj().T @ blocks @ basis).reshape(blocks.shape[0], -1, d)
    A = np.eye(len(offsets) * d, dtype=complex) + T
    R = A @ X - _rhs(tm, offsets)
    return _frobenius(R) / math.sqrt(d)


def column_pass(tm, eps, energies):
    """Every depth-1 column of (1+T_eps)^{-1} at omega' in B and E in
    `energies`, in a few array passes.

    Column c is omega' = bohr[c // n], E = energies[c % n] for n
    energies.  Its direct blocks come from one level-basis solve at every
    omega' in B (`TMatrix._level_inverses`), column m of the system of
    m's level; one stacked T per column,
    assembled batched and in chunks of at most _STACK_CHUNK_BYTES, gives
    the residuals and the Neumann series (`_neumann_series`) of every
    column of the chunk at once.  Each field equals, bitwise, the same
    arithmetic on its column alone: the level-basis solve of that one
    column, the residual of blocks[c] and the series of its own system.
    """
    eps, E = _index(eps, "eps"), _energies(energies).reshape(-1)
    sd, d, B = tm.spectral, tm.dim, tm.bohr
    n, m = E.size, B.size * E.size
    X = tm._level_inverses(eps, E, B)
    # own[s, i, k, m] = X[i, s, level(m), k, m]
    own = X[:, :, sd.level_index, :, np.arange(d)].transpose(2, 1, 3, 0)
    blocks = sd.split(own.reshape(m, d, d))
    omega_prime, energy = np.repeat(B, n), np.tile(E, B.size)
    residual, neumann = np.empty(m), np.empty_like(blocks)
    order, final = np.empty(m, dtype=int), np.empty(m)
    converged, diverged = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    step = max(1, _STACK_CHUNK_BYTES // (16 * (B.size * d) ** 2))
    for lo in range(0, m, step):
        part = slice(lo, lo + step)
        T = _stacked_t(tm, eps, omega_prime[part], energy[part], B)
        residual[part] = _residuals(tm, T, B, blocks[part])
        total, order[part], final[part], converged[part], diverged[part] = \
            _neumann_series(tm, T, B)
        neumann[part] = _original(tm, total, B.size)
    return ColumnPass(omega_prime=omega_prime, energy=energy, blocks=blocks,
                      residual=residual, neumann=neumann, order=order,
                      final_increment=final, converged=converged, diverged=diverged)


# -- identity suite -----------------------------------------------------------


_CHECK_KEYS = ("check", "residual", "tolerance", "pass")


def _check(name, residual, tolerance):
    """One report entry; a non-finite residual is reported as None (JSON
    null) and fails."""
    residual = float(residual)
    finite = math.isfinite(residual)
    return {
        "check": name,
        "residual": residual if finite else None,
        "tolerance": float(tolerance),
        "pass": finite and residual <= tolerance,
    }


def _identity_checks(tm, rng):
    d = tm.dim
    sd = tm.spectral
    checks = []

    # block-column residual / transfer / Neumann / index-set stability, the
    # level-basis columns against the stacked oracle.  Residuals fold with
    # np.maximum and array max, which keep a NaN where builtin max drops it
    res_solve, res_transfer, res_neumann, res_stability = 0.0, 0.0, 0.0, 0.0
    wrong_transfer = ~np.eye(sd.bohr.size, dtype=bool)
    # every other of the three quartile points of each density's support
    probes = np.concatenate([np.linspace(*tm.spec.bath.density(e).support, 5)[1:-1]
                             for e in (0, 1)])[::2]
    for eps in (0, 1):
        cols = column_pass(tm, eps, probes)
        res_solve = np.maximum(res_solve, cols.residual.max())
        # every returned block, re-split from the original basis; at depth 1
        # the offsets are the Bohr set itself
        parts = np.linalg.norm(sd.split_operator(cols.blocks), axis=(-2, -1))
        res_transfer = np.maximum(res_transfer,
                                  float((parts * wrong_transfer).sum(axis=-1).max()))
        if cols.converged.any():
            direct = cols.blocks[cols.converged]
            diff = np.linalg.norm(direct - cols.neumann[cols.converged], axis=(-2, -1))
            ref = np.maximum(np.linalg.norm(direct, axis=(-2, -1)), 1e-300)
            res_neumann = np.maximum(res_neumann, float((diff / ref).max()))
        wide = stacked_column(tm, eps, 0.0, float(probes[0]), index_depth=2)
        # the column at omega' = 0, E = probes[0]; the depth-2 offsets
        # contain the Bohr set exactly
        base = cols.blocks[sd.bohr_index(0.0) * probes.size]
        j = np.searchsorted(wide.offsets, sd.bohr)
        res_stability = np.maximum(res_stability, float(
            np.linalg.norm(base - wide.blocks[j], axis=(-2, -1)).max()))
    checks.append(_check("block_column_residual", res_solve, 1e-12))
    checks.append(_check("block_column_transfer", res_transfer, 1e-12))
    checks.append(_check("neumann_vs_direct", res_neumann, 1e-10))
    checks.append(_check("index_set_stability", res_stability, 1e-12))

    # series identities: partial closed-form sums against the solve route,
    # each pair summed at every probe energy at once; a divergent series
    # fails the check; one that overflows raises NumericError.  The probe R
    # blocks are solved once for these t components (`t_components`' own
    # sum) and the diagonal projection below
    R_probes = tm.r_blocks(probes)
    res_series = 0.0
    for pair, (a, b) in (("00", (0, 0)), ("01", (0, 1)), ("10", (1, 0)), ("11", (1, 1))):
        sums, _ = tm.appendix_partial_sums(pair, probes)
        comps = R_probes[:, a, b].sum(axis=-3)
        res_series = np.maximum(res_series, _frobenius(sums[-1] - comps).max())
    checks.append(_check("appendix_series_identity", res_series, 1e-10))

    # level-diagonal (transfer-0) projection of the same-index R blocks at
    # every probe, eps and omega: the block itself at omega = 0, else zero
    same = R_probes[:, (0, 1), (0, 1)]
    zero = sd.bohr_index(0.0)
    own = np.where((np.arange(sd.bohr.size) == zero)[:, None, None], same, 0)
    res_diag = _frobenius(sd.split_operator(same)[..., zero, :, :] - own).max()
    checks.append(_check("diagonal_projection", res_diag, 1e-10))

    # drift identities and the Lindblad structure
    gamma_direct = drift(tm)
    gamma_via_t = drift_from_t_operator(tm)
    checks.append(_check("drift_vs_t_operator",
                         np.linalg.norm(gamma_direct - gamma_via_t), 1e-10))
    comm = gamma_direct @ tm.spec.h_system - tm.spec.h_system @ gamma_direct
    checks.append(_check("drift_commutes_with_h_system", np.linalg.norm(comm), 1e-10))
    if sd.is_rwa:
        bare = drift_from_t_operator(tm, diagonal_projection=False)
        checks.append(_check("rwa_full_trace_drift",
                             np.linalg.norm(gamma_direct - bare), 1e-10))

    gen = build_generator(tm)
    checks.append(_check("hamiltonian_hermitian",
                         np.linalg.norm(gen.hamiltonian - gen.hamiltonian.conj().T), 1e-12))
    checks.append(_check("hamiltonian_from_drift",
                         np.linalg.norm(gen.hamiltonian - (gen.drift - gen.drift.conj().T) / 2j),
                         1e-10))
    checks.append(_check("unitality",
                         np.linalg.norm(gen.psi_one - (gen.drift + gen.drift.conj().T)), 1e-10))
    # 20 random Hermitian X, drawn one after the other, through both routes
    xs = rng.standard_normal((20, 2, d, d))
    xs = xs[:, 0] + 1j * xs[:, 1]
    xs = xs + _dagger(xs)
    direct = np.stack([gen.apply(x) for x in xs])
    res_rec = np.linalg.norm(direct - _three_term_generator(tm, xs), axis=(-2, -1)).max()
    checks.append(_check("lindblad_reconstruction", res_rec, 1e-12))
    choi = gen.choi
    min_eig = float(np.linalg.eigvalsh(choi).min())
    norm_choi = float(np.linalg.norm(choi, 2))
    checks.append(_check("choi_positive", 0.0 if min_eig >= 0 else -min_eig, 1e-10 * norm_choi))
    return checks


def _three_term_generator(tm, xs):
    """Theta0(X) for each X of a stack xs (n, d, d), summed from the three-term
    structure map under the same quadrature (independent arithmetic path
    from the Kraus form), on the R column the thermal pass already holds:

        X a + a^+ X + sum over (node n, entry k) of
            weight[n, k] ops[n, k]^+ X ops[n, k],

    weight[n, k] = 2 coef[n] Re gamma (`kraus_weights`), ops the R column
    split by transfer here, unmasked, and a = sum over n of
    coef[n] R^{eps,eps}_{0,0} = -Gamma, the level-diagonal sum of `drift`:
    the jump part is one contraction over (node, entry, X).  Reads neither
    the Choi matrix nor H_eff of the generator."""
    tp = tm.thermal_pass()
    a = -drift(tm)
    weight = kraus_weights(tm).reshape(tp.coef.size, -1)
    ops = tm.spectral.split(tp.r).reshape(weight.shape + (tm.dim, tm.dim))
    jump = np.einsum("nk,nkji,xjl,nklm->xim", weight, ops.conj(), xs, ops, optimize=True)
    return xs @ a + _dagger(a) @ xs + jump


def _limit_decay_checks(name, rep):
    """Final relative error, and errors that fall monotonically and at
    least halve with each halving of lambda."""
    halving = all(e2 <= 0.5 * e1 for e1, e2 in zip(rep.errors, rep.errors[1:]))
    return [_check(f"{name}_final_error", rep.errors[-1] / abs(rep.limit_value), 5e-2),
            _check(f"{name}_decay", 0.0 if (rep.monotone and halving) else 1.0, 0.5)]


@functools.cache
def _limit_checks():
    """The limit entries of the suite as a tuple of (check, residual,
    tolerance, pass) tuples.  They read no model, only the shipped test
    functions and lambdas = 0.4, 0.2, 0.1, so they are computed once per
    process and held immutable; `run_identity_suite` copies them into
    fresh dicts."""
    f, g, h = default_test_functions()
    lambdas = [0.4, 0.2, 0.1]
    rep, crep = _matched_reports(f, g, h, lambdas)
    ratio = abs(crep.values[-1] / rep.values[-1] - 0.5)
    checks = (_limit_decay_checks("delta_limit", rep) + _limit_decay_checks("causal_limit", crep)
              + [_check("causal_half_ratio", ratio, 1e-3)])
    return tuple(tuple(c[k] for k in _CHECK_KEYS) for c in checks)


def run_identity_suite(tm, which="all"):
    """Run the named checks at their stated tolerances.

    Refuses to run (raises ValidationError) when the bath is not
    admissible (`validate_bath`, once: through the thermal pass, or directly
    for the limits alone).  Returns a report dict with one
    {check, residual, tolerance, pass} entry per check, sorted by name; a
    non-finite residual is None and its check fails.  The limit checks
    ("limits", "all") read no model: they are computed on the first call
    in a process (`_limit_checks`), and every report gets its own dicts of
    them, so editing one report leaves the next as it was.
    """
    if which not in ("identities", "limits", "all"):
        raise ValidationError("suite must be one of identities, limits, all")
    rng = np.random.default_rng(12345)
    checks = []
    if which in ("identities", "all"):
        # a residual that overflows is inf and fails its check, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            tm.thermal_pass()
            checks.extend(_identity_checks(tm, rng))
    else:
        validate_bath(tm.spec.bath, tm.bohr, tm.spec.beta)
    if which in ("limits", "all"):
        checks.extend(dict(zip(_CHECK_KEYS, row)) for row in _limit_checks())
    checks.sort(key=lambda c: c["check"])
    return {"checks": checks, "passed": all(c["pass"] for c in checks)}
