"""gamma once per distinct offset pair, and `split` by rank-one scatter.

`TMatrix._kernels` and `TMatrix._r_eigen` evaluate gamma on a table of the
distinct offset pairs (a, b) of their arguments (E - a) + b and gather it.
Every gathered value must carry the bits of gamma at the position's own
dense argument, evaluated here position by position: (E - W) + omega
inside the kernel, E + omega outside it, and E + (omega' + W) in the R
blocks, each only where the coupling entry that multiplies it is not
zero.  And gamma must be asked no more than once per node and distinct
pair: each call's argument count is checked against a count of the
distinct pairs made here one position at a time.

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


def test_r_blocks_ask_gamma_for_the_dense_arguments_bits(tm, monkeypatch):
    # r_blocks at omega' = 0 (the thermal pass) and at a Bohr offset: per eps,
    # the level solve's two kernel arrays, then the R^{a,a} factor
    spy = _Spy(tm, monkeypatch)
    E, d = _nodes(tm), tm.dim
    gamma, W = GammaTable(tm.spec.bath).gamma, tm.spectral.transfer
    for omega_prime in (0.0, float(tm.bohr[-1])):
        spy.seen.clear()
        tm.r_blocks(E, omega_prime)
        assert len(spy.seen) == 6
        omega = np.array([omega_prime])[:, None, None] + W[:, tm._level_columns].T
        for eps in (0, 1):
            g_out, g_in, g_r = spy.seen[3 * eps:3 * eps + 3]
            outer, inner = _kernel_gammas(tm, eps, E[:, None, None], omega)
            assert _same(g_out.reshape(outer.shape), outer)
            assert _same(g_in.reshape(inner.shape), inner)
            right = tm._pair[eps]
            r = _dense(gamma, eps, E[:, None, None] + (omega_prime + W), right != 0)
            assert _same(g_r.reshape(E.size, d, d), r)


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


# -- one gamma argument per node and distinct pair ------------------------------

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
    # per eps: the level solve's kernel outside (0, omega[l, k]) and inside
    # (W[k, m], omega[l, k]), then the R^{a,a} factor (0, omega' + W[j, m]),
    # each where the coupling entry that multiplies it is not zero
    tm = COUNTED[name]()
    real, asked = tm._gammas.gamma, []

    def spy(eps, E):
        asked.append((eps, np.size(E)))
        return real(eps, E)

    monkeypatch.setattr(tm._gammas, "gamma", spy)
    E, W = _nodes(tm), tm.spectral.transfer
    for omega_prime in (0.0, float(tm.bohr[-1])):
        asked.clear()
        tm.r_blocks(E, omega_prime)
        omega = omega_prime + W[:, tm._level_columns].T
        pairs = []
        for eps in (0, 1):
            left = tm._pair[eps]
            pairs += [(eps, _distinct_pairs(0.0, omega, left.any(axis=1))),
                      (1 - eps, _distinct_pairs(W, omega[:, :, None], left != 0)),
                      (eps, _distinct_pairs(0.0, omega_prime + W, tm._pair[eps] != 0))]
        assert all(n > 0 for _, n in pairs)
        assert asked == [(eps, E.size * n) for eps, n in pairs]


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
