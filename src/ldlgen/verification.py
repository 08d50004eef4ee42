"""Numerical checks of the scalar distributional limits and the identity suite.

The rescaled oscillatory kernel exp(i(t'-t)X/lambda^2)/lambda^2 is paired
against smooth test functions f(t) g(t') h(X) and compared with its
lambda -> 0 limit, 2 pi delta(t'-t) delta(X) (times the Kronecker factor
in the frequency labels); restricting t' < t yields the causal variant
whose energy kernel is the resolvent 1/(i(X - i0)), i.e. the pairing
pi h(0) - i PV(h/X).  The double time integral is computed in the
substituted variable u = (t'-t)/lambda^2, where the X quadrature
produces the Fourier transform of h: the Gaussian envelopes damp the
u integrand, so the cost is uniform in lambda.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import validate_bath
from .errors import ValidationError

# entries of one (u nodes) x (t nodes) block in _overlap_vector: bounds its
# memory, and blocks larger than the cache made the mismatched check slower
_OVERLAP_CHUNK = 1 << 15


@dataclass(frozen=True)
class GaussianPacket:
    """poly(x - center) * exp(-(x - center)^2 / (2 sigma^2)); coeffs low-to-high."""

    center: float = 0.0
    sigma: float = 1.0
    coeffs: tuple = (1.0,)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        z = x - self.center
        poly = np.zeros_like(z)
        for c in reversed(self.coeffs):
            poly = poly * z + c
        out = poly * np.exp(-z * z / (2.0 * self.sigma ** 2))
        return float(out) if out.ndim == 0 else out

    def extent(self, n_sigma=10.0):
        pad = n_sigma * self.sigma
        return (self.center - pad, self.center + pad)


@dataclass
class LimitCheckReport:
    lambdas: list
    errors: list
    limit_value: complex
    monotone: bool
    values: list = field(default_factory=list)

    def __post_init__(self):
        if any(l2 >= l1 for l1, l2 in zip(self.lambdas, self.lambdas[1:])):
            raise ValidationError("lambdas must be strictly decreasing")
        if not all(math.isfinite(e) for e in self.errors):
            raise ValidationError("limit-check errors must be finite")


def _composite_gl(a, b, n_panels, nodes_per_panel=8):
    """Gauss-Legendre rule on n_panels equal panels of [a, b]; each panel is
    mapped with the arithmetic of bath.gauss_legendre_nodes, bit for bit."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def _symmetric_u_grid(u_max, n_panels):
    """Panelled grid on [-u_max, u_max] built as a mirror pair, so the
    causal half-integral uses exactly the left half of the full grid."""
    x_r, w_r = _composite_gl(0.0, u_max, n_panels)
    x_l, w_l = -x_r[::-1], w_r[::-1]
    return (x_l, w_l), (x_r, w_r)


def _fourier_of_h(h, u):
    a, b = h.extent()
    x, w = _composite_gl(a, b, 48)
    hw = h(x) * w
    out = np.zeros(u.size, dtype=complex)
    for chunk in range(0, u.size, 512):
        sl = slice(chunk, chunk + 512)
        out[sl] = np.exp(1j * np.outer(u[sl], x)) @ hw
    return out


def _overlap_vector(f, g, lam, u, mismatch_freq=0.0):
    """G(u) = integral f(t) g(t + lam^2 u) [exp(i t' mismatch / lam^2)] dt
    with t' = t + lam^2 u; returned for every u node."""
    af, bf = f.extent()
    if mismatch_freq:
        rate = abs(mismatch_freq) / lam ** 2
        n_panels = max(64, int(rate * (bf - af) / (2.0 * math.pi) * 4.0))
    else:
        n_panels = 64
    t, wt = _composite_gl(af, bf, n_panels)
    ft = f(t) * wt
    out = np.empty(u.size, dtype=complex)
    step = max(1, _OVERLAP_CHUNK // t.size)
    for chunk in range(0, u.size, step):
        tp = t + lam ** 2 * u[chunk:chunk + step, None]
        vals = ft * g(tp)
        if mismatch_freq:
            vals = vals * np.exp(1j * (mismatch_freq / lam ** 2) * tp)
        out[chunk:chunk + step] = vals.sum(axis=1)
    return out


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


def _limit_report(f, g, lambdas, u, wu, hhat, target, mismatch_freq=0.0):
    """Pair the rescaled kernel with f, g and the Fourier-transformed h
    (hhat on the u nodes, weights wu) for each lambda; report the errors
    against target."""
    lambdas = [float(l) for l in lambdas]
    values = [complex(np.dot(wu, _overlap_vector(f, g, lam, u, mismatch_freq) * hhat))
              for lam in lambdas]
    errors = [abs(j - target) for j in values]
    monotone = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    return LimitCheckReport(lambdas=lambdas, errors=errors, limit_value=complex(target),
                            monotone=monotone, values=values)


def check_delta_limit(f, g, h, omega_match, lambdas, mismatch=1.0):
    """Pair the rescaled kernel with f, g, h for each lambda and compare
    against 2 pi h(0) * integral f g (matching frequencies) or 0."""
    (ul, wl), (ur, wr) = _symmetric_u_grid(_u_extent(h), 160)
    u = np.concatenate([ul, ur])
    target = 2.0 * math.pi * h(0.0) * _product_integral(f, g) if omega_match else 0.0
    return _limit_report(f, g, lambdas, u, np.concatenate([wl, wr]), _fourier_of_h(h, u),
                         target, mismatch_freq=0.0 if omega_match else mismatch)


def check_causal_delta_limit(f, g, h, lambdas):
    """Same pairing restricted to the ordered half t' < t; the limit pairs
    h with the resolvent kernel: integral f g * (pi h(0) - i PV(h/X))."""
    (ul, wl), _ = _symmetric_u_grid(_u_extent(h), 160)
    target = _product_integral(f, g) * complex(math.pi * h(0.0), -_pv_over_x(h))
    return _limit_report(f, g, lambdas, ul, wl, _fourier_of_h(h, ul), target)


def default_test_functions():
    """The shipped unit-Gaussian test functions (f = g makes the time
    autocorrelation even, pinning the causal/full ratio at exactly 1/2)."""
    f = GaussianPacket(center=0.0, sigma=1.0)
    return f, f, GaussianPacket(center=0.0, sigma=1.0)


# -- identity suite -----------------------------------------------------------


def _check(name, residual, tolerance):
    return {
        "check": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "pass": bool(residual <= tolerance),
    }


def _identity_checks(tm, rng):
    from . import generator as gen_mod

    d = tm.dim
    sd = tm.spectral
    checks = []
    supports = [tm.spec.bath.density(e).support for e in (0, 1)]
    energies = []
    for a, b in supports:
        energies.extend(np.linspace(a, b, 5)[1:-1])

    # block-column residual / transfer / Neumann / index-set stability: the
    # level-basis columns against the stacked-system oracle
    res_solve, res_transfer, res_neumann, res_stability = 0.0, 0.0, 0.0, 0.0
    wrong_transfer = ~np.eye(sd.bohr.size, dtype=bool)
    for eps in (0, 1):
        for wp in tm.bohr:
            for E in energies[::2]:
                col = tm.solve_column(eps, float(wp), float(E))
                res_solve = max(res_solve, tm.column_residual(col))
                # every returned block, re-split from the original basis; at
                # depth 1 the offsets are the Bohr set itself
                parts = np.linalg.norm(sd.split_operator(col.blocks), axis=(-2, -1))
                res_transfer = max(res_transfer, float((parts * wrong_transfer).sum(axis=1).max()))
                ncol = tm.neumann_column(eps, float(wp), float(E))
                if ncol.converged:
                    diff = np.linalg.norm(col.blocks - ncol.blocks, axis=(-2, -1))
                    ref = np.maximum(np.linalg.norm(col.blocks, axis=(-2, -1)), 1e-300)
                    res_neumann = max(res_neumann, float((diff / ref).max()))
        wide = tm.stacked_column(eps, 0.0, float(energies[0]), index_depth=2)
        base = tm.solve_column(eps, 0.0, float(energies[0]))
        # the depth-2 offsets contain the Bohr set exactly
        j = np.searchsorted(wide.offsets, base.offsets)
        res_stability = max(res_stability, float(
            np.linalg.norm(base.blocks - wide.blocks[j], axis=(-2, -1)).max()))
    checks.append(_check("block_column_residual", res_solve, 1e-12))
    checks.append(_check("block_column_transfer", res_transfer, 1e-12))
    checks.append(_check("neumann_vs_direct", res_neumann, 1e-10))
    checks.append(_check("index_set_stability", res_stability, 1e-12))

    # series identities: partial closed-form sums against the solve route;
    # a divergent series leaves a large residual and fails the check honestly
    res_series = 0.0
    for E in energies[::2]:
        comps = tm.t_components(float(E))
        for pair, key in (("00", (0, 0)), ("01", (0, 1)),
                          ("10", (1, 0)), ("11", (1, 1))):
            sums, _ = tm.appendix_partial_sums(pair, float(E))
            res_series = max(res_series, float(np.linalg.norm(sums[-1] - comps[key])))
    checks.append(_check("appendix_series_identity", res_series, 1e-10))

    # level-diagonal (transfer-0) projection of the same-index R blocks
    res_diag = 0.0
    zero = sd.bohr_index(0.0)
    for R in tm.r_blocks(energies[::2]):
        for eps in (0, 1):
            diags = sd.split_operator(R[eps, eps])[:, zero]
            for w, r, diag in zip(tm.bohr, R[eps, eps], diags):
                if abs(w) > sd.tolerance:
                    res_diag = max(res_diag, float(np.linalg.norm(diag)))
                else:
                    res_diag = max(res_diag, float(np.linalg.norm(diag - r)))
    checks.append(_check("diagonal_projection", res_diag, 1e-10))

    # drift identities and the Lindblad structure
    gamma_direct = gen_mod.drift(tm)
    gamma_via_t = gen_mod.drift_from_t_operator(tm)
    checks.append(_check("drift_vs_t_operator",
                         np.linalg.norm(gamma_direct - gamma_via_t), 1e-10))
    comm = gamma_direct @ tm.spec.h_system - tm.spec.h_system @ gamma_direct
    checks.append(_check("drift_commutes_with_h_system", np.linalg.norm(comm), 1e-10))
    if sd.is_rwa:
        bare = gen_mod.drift_from_t_operator(tm, diagonal_projection=False)
        checks.append(_check("rwa_full_trace_drift",
                             np.linalg.norm(gamma_direct - bare), 1e-10))

    gen = gen_mod.build_generator(tm)
    checks.append(_check("hamiltonian_hermitian",
                         np.linalg.norm(gen.hamiltonian - gen.hamiltonian.conj().T), 1e-12))
    checks.append(_check("hamiltonian_from_drift",
                         np.linalg.norm(gen.hamiltonian - (gen.drift - gen.drift.conj().T) / 2j),
                         1e-10))
    checks.append(_check("unitality",
                         np.linalg.norm(gen.psi_one - (gen.drift + gen.drift.conj().T)), 1e-10))
    res_rec = 0.0
    for _ in range(20):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = x + x.conj().T
        direct = gen.apply(x)
        three_term = _three_term_generator(tm, x)
        res_rec = max(res_rec, float(np.linalg.norm(direct - three_term)))
    checks.append(_check("lindblad_reconstruction", res_rec, 1e-12))
    choi = gen_mod.choi_matrix(gen)
    min_eig = float(np.linalg.eigvalsh(choi).min())
    norm_choi = float(np.linalg.norm(choi, 2))
    checks.append(_check("choi_positive", max(0.0, -min_eig), 1e-10 * norm_choi))
    return checks


def _three_term_generator(tm, X):
    """Theta0(X) summed directly from the three-term structure map under
    the same quadrature (independent arithmetic path from the Kraus form),
    on the R blocks each node set already holds."""
    from . import generator as gen_mod

    X = np.asarray(X, dtype=complex)
    zero = tm.spectral.bohr_index(0.0)
    out = np.zeros_like(X)
    for eps in (0, 1):
        nodes, coef, R = gen_mod._thermal_pass(tm, eps)
        r0 = R[:, eps, eps, zero]
        ops = R[:, :, eps].reshape(len(nodes), -1, tm.dim, tm.dim)
        re_g = gen_mod._re_gamma(tm, nodes).reshape(len(nodes), -1)
        terms = gen_mod._structure_map(X, r0, r0, ops, ops, re_g)
        out += np.einsum("n,nij->ij", coef, terms)
    return out


def _limit_decay_checks(name, rep):
    """Final relative error, and errors that fall monotonically and at
    least halve with each halving of lambda."""
    halving = all(e2 <= 0.5 * e1 for e1, e2 in zip(rep.errors, rep.errors[1:]))
    return [_check(f"{name}_final_error", rep.errors[-1] / abs(rep.limit_value), 5e-2),
            _check(f"{name}_decay", 0.0 if (rep.monotone and halving) else 1.0, 0.5)]


def _limit_checks():
    f, g, h = default_test_functions()
    lambdas = [0.4, 0.2, 0.1]
    rep = check_delta_limit(f, g, h, True, lambdas)
    crep = check_causal_delta_limit(f, g, h, lambdas)
    ratio = abs(crep.values[-1] / rep.values[-1] - 0.5)
    return (_limit_decay_checks("delta_limit", rep) + _limit_decay_checks("causal_limit", crep)
            + [_check("causal_half_ratio", ratio, 1e-3)])


def run_identity_suite(tm, which="all"):
    """Run the named checks at their stated tolerances.

    Refuses to run (raises ValidationError) when the bath violates the
    disjoint-support technical condition.  Returns a report dict with one
    {check, residual, tolerance, pass} entry per check, sorted by name.
    """
    if which not in ("identities", "limits", "all"):
        raise ValidationError("suite must be one of identities, limits, all")
    validate_bath(tm.spec.bath, tm.spec.beta)
    rng = np.random.default_rng(12345)
    checks = []
    if which in ("identities", "all"):
        checks.extend(_identity_checks(tm, rng))
    if which in ("limits", "all"):
        checks.extend(_limit_checks())
    checks.sort(key=lambda c: c["check"])
    return {"checks": checks, "passed": all(c["pass"] for c in checks)}
