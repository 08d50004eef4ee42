"""gamma once per lattice point or distinct offset pair, and `split` by scatter.

The level solve and the R blocks (`TMatrix._r_eigen`) read gamma from one
table per eps on the Bohr lattice E + (omega' + B); each table value must
carry the bits of gamma at its own dense argument, evaluated here position
by position, and every level system must have the bits of one formed here
from dense arguments: the lattice point E + (omega' + W[m, c]) for the
kernel's inner gamma where the transfers compose, the pairwise argument
(E - W[k, m]) + omega_k of `_kernels` where they do not.  gamma must be asked
no more than once per node and lattice point.  The stacked oracle's
`TMatrix._kernels` and the series chains evaluate gamma on a table of the
distinct offset pairs (a, b) of their arguments (E - a) + b and gather it,
and every gathered value must carry the bits of the position's own dense
argument: (E - W) + omega inside the kernel, E + omega outside it, each
only where the coupling entry that multiplies it is not zero.

The thermal pass of the shipped models equals, bit for bit, the one formed
through `_kernels`; on ladder and chained-cluster models it stays within
the roundoff bound derived below.

`SpectralData.split` sums X_ij u_i u_j^+ over the entries of each transfer;
it is compared with basis @ (X masked to the transfer) @ basis^+ within a
roundoff bound derived below.
"""

import numpy as np
import pytest

from ldlgen import GammaTable, TMatrix, load_model, verification
from ldlgen.model import model_from_dict

from conftest import MODELS, chained_cluster_doc, decoupled_level_doc, ladder_model_doc
from test_level_solve import MODELS as HARD_SPECTRA, _model

BUILDERS = {
    "tm_nr": lambda: TMatrix(load_model(MODELS / "tm_nr.json")),
    "chained": lambda: TMatrix(model_from_dict(chained_cluster_doc())),
    **{f"{name}-{'rotated' if rotate else 'plain'}":
       (lambda lv=levels, rot=rotate: _model(lv, seed=7, rotate=rot))
       for name, (levels, _) in HARD_SPECTRA.items() for rotate in (False, True)},
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def tm(request):
    return BUILDERS[request.param]()


def _dense(gamma, eps, args, needed):
    """gamma_eps at args where needed holds, 0 elsewhere: one call on every
    needed argument, with no deduplication."""
    needed = np.broadcast_to(needed, args.shape)
    out = np.zeros(args.shape, dtype=complex)
    out[needed] = gamma(eps, args[needed])
    return out


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class _Spy:
    """Records every array `_gamma_pairs` returns on one TMatrix."""

    def __init__(self, tm, monkeypatch):
        self.seen = []
        real = tm._gamma_pairs

        def spy(eps, nodes, a, b, needed):
            self.seen.append(real(eps, nodes, a, b, needed))
            return self.seen[-1]

        monkeypatch.setattr(tm, "_gamma_pairs", spy)


def _kernel_gammas(tm, eps, E, omega):
    """The two dense gamma arrays of K_eps at E and the per-row offsets
    omega: outside (..., d) and inside (..., d, d)."""
    gamma, left = GammaTable(tm.spec.bath).gamma, tm._pair[eps]
    E = np.asarray(E, dtype=float)[..., None]
    outer = _dense(gamma, eps, E + omega, left.any(axis=1))
    inner = _dense(gamma, 1 - eps, (E[..., None] - tm.spectral.transfer) + omega[..., None],
                   left != 0)
    return outer, inner


def _nodes(tm):
    parts = [tm.spec.bath.support_nodes(e)[0] for e in (0, 1)]
    return np.concatenate(parts + [np.linspace(-0.4, 3.4, 7)])


def _composes(tm):
    """(L, d, d): whether triple (l, k, m) composes, |(W[k, c] - W[k, m]) -
    W[m, c]| <= 1e-12 max(1, max |W|) for c the column of level l (the
    documented bound of `tmatrix.COMPOSE_TOLERANCE`)."""
    W = tm.spectral.transfer
    to_c = W[:, tm._level_columns].T
    defect = np.abs((to_c[:, :, None] - W) - to_c[:, None, :])
    return defect <= 1e-12 * max(1.0, np.abs(W).max())


def _dense_systems(tm, eps, E, omega_prime):
    """The level systems 1 + K_eps (n, S, L, d, d) formed from gamma at dense
    arguments: outside E + (omega'_s + W[k, c]); inside the lattice point
    E + (omega'_s + W[m, c]) where (l, k, m) composes and the pairwise
    (E - W[k, m]) + (omega'_s + W[k, c]) where it does not, each only where
    its coupling entry is not zero; then the product of `_kernels`."""
    gamma, d, W = GammaTable(tm.spec.bath).gamma, tm.dim, tm.spectral.transfer
    left, right = tm._pair[eps], tm._pair[1 - eps]
    omega = omega_prime[:, None, None] + W[:, tm._level_columns].T     # [s, l, k]
    En = E[:, None, None, None, None]
    args = np.where(_composes(tm), En + omega[None, :, :, None, :],
                    (En - W) + omega[None, :, :, :, None])
    Z = left * _dense(gamma, 1 - eps, args, left != 0)
    outer = _dense(gamma, eps, E[:, None, None, None] + omega, left.any(axis=1))
    summed = (Z.reshape(-1, d) @ right).reshape(Z.shape)
    return np.eye(d) + outer[..., None] * summed


def test_r_blocks_ask_gamma_for_the_dense_arguments_bits(tm, monkeypatch):
    # r_blocks at omega' = 0 (the thermal pass) and at a Bohr offset: one
    # pair of lattice tables, each value the bits of gamma_eps(E + (omega' +
    # B[b])) at the points that a transfer W[k, p] of a row k that
    # (D~, D~^+)[eps] reaches names, 0 elsewhere; and each level system it
    # solves the bits of the one formed here from dense arguments
    tables, systems = [], []
    real_tables, real_systems = tm._lattice_gammas, tm._systems
    monkeypatch.setattr(tm, "_lattice_gammas",
                        lambda *args: tables.append(real_tables(*args)) or tables[-1])
    monkeypatch.setattr(tm, "_systems",
                        lambda *args: systems.append(real_systems(*args)) or systems[-1])
    E, B, W = _nodes(tm), tm.bohr, tm.spectral.transfer
    gamma = GammaTable(tm.spec.bath).gamma
    for omega_prime in (0.0, float(B[-1])):
        tables.clear()
        systems.clear()
        tm.r_blocks(E, omega_prime)
        omega = np.array([omega_prime])
        assert len(tables) == 1 and len(systems) == 2
        for eps in (0, 1):
            points = np.isin(B, W[tm._pair[eps].any(axis=1)])
            expect = np.zeros((E.size, 1, B.size + 1), dtype=complex)
            expect[..., :-1] = _dense(gamma, eps, E[:, None, None] + (omega[:, None] + B), points)
            assert _same(tables[0][eps], expect)
            assert _same(systems[eps], _dense_systems(tm, eps, E, omega))


def test_stacked_oracle_kernels_ask_gamma_for_the_dense_arguments_bits(tm, monkeypatch):
    # verification._stacked_t gives every column its own omega' and E, so the
    # offsets vary along the node axis: each node gets its own row of pairs
    spy = _Spy(tm, monkeypatch)
    B = tm.bohr
    E = np.linspace(-0.3, 3.3, 4)
    omega_prime, energy = np.repeat(B, E.size), np.tile(E, B.size)
    for eps in (0, 1):
        spy.seen.clear()
        verification._stacked_t(tm, eps, omega_prime, energy, B)
        omega = np.broadcast_to((omega_prime[:, None] + B)[..., None],
                                energy.shape + (B.size, tm.dim))
        outer, inner = _kernel_gammas(tm, eps, energy[:, None], omega)
        g_out, g_in = spy.seen
        assert _same(g_out.reshape(outer.shape), outer)
        assert _same(g_in.reshape(inner.shape), inner)


def test_kernels_gammas_keep_their_bits_on_a_scalar_energy_and_node_offsets(tm, monkeypatch):
    # a scalar energy with one offset for every row (conftest.t_block), and
    # offsets that vary along a node axis that E shares with them
    spy = _Spy(tm, monkeypatch)
    rng = np.random.default_rng(5)
    d = tm.dim
    cases = [(0.37, np.full(d, float(tm.bohr[0]))),
             (np.array([0.2, 0.9, 2.4])[:, None], rng.choice(tm.bohr, (3, 2, d)))]
    for E, omega in cases:
        for eps in (0, 1):
            spy.seen.clear()
            tm._kernels(eps, np.ravel(E), omega.reshape(np.size(E), -1, d))
            outer, inner = _kernel_gammas(tm, eps, E, omega)
            assert _same(spy.seen[0].reshape(outer.shape), outer)
            assert _same(spy.seen[1].reshape(inner.shape), inner)


# -- one gamma argument per node and lattice point or distinct pair --------------

COUNTED = {
    "ladder_d3": lambda: TMatrix(model_from_dict(ladder_model_doc(0, 3))),
    "chained": BUILDERS["chained"],
}


def _distinct_pairs(a, b, needed):
    """How many distinct (a, b) bit patterns the positions where needed
    holds carry (a, b and needed broadcast together), one position at a
    time."""
    a, b, needed = np.broadcast_arrays(a, b, needed)
    return len({(x.tobytes(), y.tobytes()) for x, y in zip(a[needed], b[needed])})


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_r_blocks_ask_gamma_once_per_node_and_distinct_pair(name, monkeypatch):
    # one call per eps on the lattice points E + (omega' + B[b]) named by the
    # transfers of the rows (D~, D~^+)[eps] reaches, at most |B| per node;
    # then, per level solve, one call at the distinct pairs (W[k, m],
    # omega_k) of the pairwise arguments of the triples that do not compose
    # where L[k, m] is not zero: none on ladder d3, some on the chained cluster
    tm = COUNTED[name]()
    real, asked = tm._gammas.gamma, []

    def spy(eps, E):
        asked.append((eps, np.size(E)))
        return real(eps, E)

    monkeypatch.setattr(tm._gammas, "gamma", spy)
    E, B, W = _nodes(tm), tm.bohr, tm.spectral.transfer
    broken = ~_composes(tm)
    assert broken.any() == (name == "chained")
    for omega_prime in (0.0, float(B[-1])):
        asked.clear()
        tm.r_blocks(E, omega_prime)
        lattice = [(eps, E.size * np.isin(B, W[tm._pair[eps].any(axis=1)]).sum()) for eps in (0, 1)]
        assert all(0 < n <= E.size * B.size for _, n in lattice)
        pairwise = []
        for eps in (0, 1):
            l, k, m = np.nonzero(broken & (tm._pair[eps] != 0))
            omega_k = omega_prime + W[k, tm._level_columns[l]]
            if l.size:
                pairwise.append((1 - eps, E.size * _distinct_pairs(W[k, m], omega_k, True)))
        assert asked == lattice + pairwise


# -- the thermal pass against the route through `_kernels` -----------------------
#
# The reference forms the thermal pass's systems through `_kernels`, whose
# inner gamma is read at the pairwise argument (E - W[k, m]) + omega_k, and
# then the same solve and R assembly as `_r_eigen`.  On a composing triple
# the lattice argument E + (omega' + W[m, c]) is the same number up to the
# rounding of the two arguments and the composition defect, so the level
# systems differ by the move of the inner gamma, Dg, alone.  Per node (one
# eps), with u = 2^-53, Frobenius norms, first order in u, A^ the computed
# systems and X^ the computed inverses of either route:
# - each route forms a system entry from d terms L g R, two complex products
#   each (within sqrt(5) u, Brent, Percival and Zimmermann 2007), a sum of d
#   terms ((d - 1) u) and the outer factor g_out (sqrt(5) u), then rounds
#   1 + K (u |A^|): |A^_new - A^_ref| <= |g_out| |L| |Dg| |R|
#   + 2 (d + 7) u |g_out| |L| |g_in| |R| + u (|A^_new| + |A^_ref|);
# - X^ - A^-1 = A^-1 (A^ X^ - 1), and A^-1 = X^ (1 + res)^-1 for the exact
#   residual res, which the computed residual misses by at most
#   (d + 3) u |A^| |X^| (a complex inner product of length d plus the
#   identity; Higham, Accuracy and Stability, 2nd ed., sec. 3.6): so
#   |X^ - A^-1| <= a |res|, a = |X^| / (1 - |res|);
# - A_new^-1 - A_ref^-1 = A_new^-1 (A_ref - A_new) A_ref^-1;
# - column m of R^{a,eps} is -i L_a X_l[:, m] and column m of R^{a,a} is
#   -L_a X_l (g right)[:, m] for l the level of m, so per node
#   |Dr| <= |L_a|_2 DX (sqrt(L) + |g right|), DX = max_l |X^_new - X^_ref|,
#   plus the rounding of both assemblies, each a sum of at most 2 d
#   complex products of three factors: 2 (2 d + 6) u |L_a| X (sqrt(L) +
#   |g right|), X = max_l |X^_l|.

U = np.finfo(float).eps / 2


def _kernel_route(tm, E):
    """The R column of every eps at omega' = 0 through `_kernels`, as
    `_r_eigen` assembles it: (n, 2, 2, d, d), with each eps's systems and
    inverses (n, L, d, d) and the R^{a,a} factor g right (n, d, d)."""
    gamma, d, W = GammaTable(tm.spec.bath).gamma, tm.dim, tm.spectral.transfer
    omega = W[:, tm._level_columns].T[None]
    full, parts = np.empty((E.size, 2, 2, d, d), dtype=complex), []
    for eps in (0, 1):
        A = np.eye(d) + tm._kernels(eps, E, omega.reshape(1, -1, d)).reshape(
            (E.size,) + omega.shape[1:] + (d,))
        X = np.linalg.solve(A, np.broadcast_to(np.eye(d, dtype=complex), A.shape))
        Y = X[:, tm.spectral.level_index]
        a = 1 - eps
        left, right = tm._pair[a], tm._pair[eps]
        g_right = _dense(gamma, eps, E[:, None, None] + (0.0 + W), right != 0) * right
        rows = np.stack([np.diagonal(Y, axis1=1, axis2=3).transpose(0, 2, 1),
                         np.einsum("imkj,ijm->imk", Y, g_right)])
        out = (rows.reshape(-1, d) @ left.T).reshape(rows.shape).swapaxes(-1, -2)
        full[:, a, eps] = -1j * out[0]
        full[:, a, a] = -out[1]
        parts.append((A, X, g_right))
    return full, parts


def _fro(X):
    return np.sqrt((np.abs(X) ** 2).sum(axis=(-2, -1)))


def _inverse_error(A, X):
    """Per system, the bound a |res| on |X^ - A^-1| from the computed
    residual, and a = |X^| / (1 - |res|), which bounds |A^-1|."""
    d = A.shape[-1]
    res = _fro(A @ X - np.eye(d)) + (d + 3) * U * _fro(np.abs(A) @ np.abs(X))
    assert (res < 0.5).all()
    return _fro(X) / (1 - res) * res, _fro(X) / (1 - res)


THERMAL = {
    "tm_nr": lambda: TMatrix(load_model(MODELS / "tm_nr.json")),
    "tm_rwa": lambda: TMatrix(load_model(MODELS / "tm_rwa.json")),
    "ladder_d3": COUNTED["ladder_d3"],
    "ladder_d5": lambda: TMatrix(model_from_dict(ladder_model_doc(0, 5))),
    "chained": BUILDERS["chained"],
}


@pytest.mark.parametrize("name", sorted(THERMAL))
def test_thermal_pass_keeps_the_kernel_routes_bits_or_stays_within_roundoff(name):
    tm = THERMAL[name]()
    tp = tm.thermal_pass()
    E = np.concatenate([tm.spec.bath.support_nodes(e)[0] for e in (0, 1)])
    full = tm._r_eigen(E, 0.0)
    kept = (np.arange(E.size), slice(None), tp.eps)
    assert _same(tp.r, full[kept])
    ref, parts = _kernel_route(tm, E)
    if name in ("tm_nr", "tm_rwa"):
        # every inner argument lies on the lattice bit for bit, so the two
        # routes do the same arithmetic
        assert _same(tp.r, ref[kept])
        return
    d, L = tm.dim, tm._level_columns.size
    gamma, W = GammaTable(tm.spec.bath).gamma, tm.spectral.transfer
    to_c = W[:, tm._level_columns].T
    for eps in (0, 1):
        A_ref, X_ref, g_right = parts[eps]
        A_new = tm._systems(eps, E, np.zeros(1))[:, 0]
        X_new = tm._level_inverses(eps, E, np.zeros(1))[:, 0]
        # the systems differ by the move of the inner gamma alone
        left, right = tm._pair[eps], tm._pair[1 - eps]
        lattice, pairwise = (_dense(gamma, 1 - eps, args, left != 0) for args in np.broadcast_arrays(
            E[:, None, None, None] + (0.0 + to_c)[None, :, None, :],
            (E[:, None, None, None] - W) + (0.0 + to_c)[None, :, :, None]))
        moved = np.abs(np.where(_composes(tm), lattice, pairwise) - pairwise)
        g_out = np.abs(_dense(gamma, eps, E[:, None, None] + (0.0 + to_c), left.any(axis=1)))
        dA = g_out[..., None] * ((np.abs(left) * (moved + 2 * (d + 7) * U * np.abs(pairwise)))
                                 @ np.abs(right))
        assert (np.abs(A_new - A_ref) <= dA + U * (np.abs(A_new) + np.abs(A_ref))).all()
        # the inverses, then R^{a,eps} and R^{a,a}
        e_new, a_new = _inverse_error(A_new, X_new)
        e_ref, a_ref = _inverse_error(A_ref, X_ref)
        dX = (e_new + e_ref + a_new * a_ref * _fro(A_new - A_ref)).max(axis=1)
        assert (_fro(X_new - X_ref).max(axis=1) <= dX).all()
        a = 1 - eps
        L_a, gr = tm._pair[a], np.sqrt(L) + _fro(g_right)
        dr = (np.linalg.norm(L_a, 2) * dX * gr
              + 2 * (2 * d + 6) * U * _fro(np.abs(L_a)) * _fro(X_ref).max(axis=1) * gr)
        for pair in ((a, eps), (a, a)):
            assert (_fro(full[:, pair[0], pair[1]] - ref[:, pair[0], pair[1]]) <= dr).all()


# -- the series chains ask gamma nothing the R blocks do not ---------------------

SERIES_MODELS = {
    "tm_nr": BUILDERS["tm_nr"],
    "tm_rwa": lambda: TMatrix(load_model(MODELS / "tm_rwa.json")),
    "chained": BUILDERS["chained"],
    "ladder_d3": COUNTED["ladder_d3"],
    "generic_d4-rotated": BUILDERS["generic_d4-rotated"],
    "decoupled_d3": lambda: TMatrix(model_from_dict(decoupled_level_doc())),
}


def _record(tm, monkeypatch):
    """Every gamma call on tm, as (eps, the bits of its arguments)."""
    real, asked = tm._gammas.gamma, []

    def spy(eps, E):
        asked.append((eps, np.asarray(E, dtype=float).ravel().view(np.int64)))
        return real(eps, E)

    monkeypatch.setattr(tm._gammas, "gamma", spy)
    return asked


@pytest.mark.parametrize("E", [0.37, np.array([0.37, 1.5, 2.61])], ids=["scalar", "array"])
@pytest.mark.parametrize("name", sorted(SERIES_MODELS))
def test_series_ask_gamma_only_where_r_blocks_does(name, E, monkeypatch):
    # a series reads one table per eps: gamma_eps(E + W[k, p]) on the rows k
    # that (D~, D~^+)[eps] reaches.  W[k, p] = W[k, c] for c the column of
    # p's level, so r_blocks(E) asks the same argument, with the same bits,
    # for the level solve's outside factor at omega' = 0
    tm = SERIES_MODELS[name]()
    asked, W, series = _record(tm, monkeypatch), tm.spectral.transfer, set()
    for pair in ("00", "01", "10", "11"):
        asked.clear()
        tm.appendix_partial_sums(pair, E, max_orders=4, tol=0.0)
        assert sorted(eps for eps, _ in asked) == [0, 1]
        for eps, bits in asked:
            reached = tm._pair[eps].any(axis=1)[:, None]
            assert bits.size == np.size(E) * _distinct_pairs(0.0, W, reached)
            series |= {(eps, b) for b in bits.tolist()}
    fresh = SERIES_MODELS[name]()
    asked = _record(fresh, monkeypatch)
    fresh.r_blocks(E)
    assert series <= {(eps, b) for eps, bits in asked for b in bits.tolist()}


# -- split by rank-one scatter ---------------------------------------------------
#
# With u = 2^-53, S_b = |U| |X_b| |U|^T (entrywise moduli, X_b the entries of
# transfer bohr[b]) and to first order in u:
# - `split` forms each term X_ij (u_ri conj(u_cj)) with two complex
#   products, each within sqrt(5) u relative (Brent, Percival and
#   Zimmermann 2007), and adds at most d^2 terms in sequence, (d^2 - 1) u:
#   at most (d^2 - 1 + 2 sqrt(5)) u S_b <= (d^2 + 4) u S_b;
# - U @ X_b @ U^+ is two complex inner products of length d, each within
#   sqrt(2) gamma_{d+2} (Higham, Accuracy and Stability, 2nd ed., sec. 3.6),
#   in any summation order: at most 2 sqrt(2) (d + 2) u S_b <= (3 d + 6) u S_b.
# The two differ by at most gamma_n S_b with n = d^2 + 3 d + 10, where
# gamma_n = n u / (1 - n u) takes up the second-order terms.  The sum of the
# |B| components adds (|B| - 1) u sum_b S_b, and sum_b S_b = |U| |X| |U|^T.

SPLIT_SPECTRA = {
    "generic_d4-rotated": lambda: _model(HARD_SPECTRA["generic_d4"][0], seed=7, rotate=True),
    "degenerate_d3-rotated": lambda: _model(HARD_SPECTRA["degenerate_d3"][0], seed=7, rotate=True),
    "near_degenerate_d3-rotated":
        lambda: _model(HARD_SPECTRA["near_degenerate_d3"][0], seed=7, rotate=True),
    "chained": BUILDERS["chained"],
}


def _gamma_n(n):
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


@pytest.mark.parametrize("name", sorted(SPLIT_SPECTRA))
def test_split_matches_masked_products_within_roundoff(name):
    sd = SPLIT_SPECTRA[name]().spectral
    d, U = sd.dim, sd.basis
    rng = np.random.default_rng(11)
    X = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
    mask = sd.transfer == sd.bohr[:, None, None]
    got = sd.split(X)
    ref = U @ (X[:, None] * mask) @ U.conj().T
    S = np.abs(U) @ (np.abs(X)[:, None] * mask) @ np.abs(U).T
    assert got.shape == ref.shape == (6, sd.bohr.size, d, d)
    assert (np.abs(got - ref) <= _gamma_n(d * d + 3 * d + 10) * S).all()
    # the components sum back to A = U X U^+
    A = U @ X @ U.conj().T
    total_bound = _gamma_n(d * d + 3 * d + 10 + sd.bohr.size) * (np.abs(U) @ np.abs(X) @ np.abs(U).T)
    assert (np.abs(got.sum(axis=-3) - A) <= total_bound).all()
    # every entry lies in exactly one component: the mask partitions X
    assert (mask.sum(axis=0) == 1).all()
