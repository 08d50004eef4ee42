"""The batched passes of the identity suite against their per-column views.

`verification.column_pass` solves every (omega', E) column of one eps at once,
`appendix_partial_sums` and `t_components` take the probe energies as one
array, and the three-term map reconstructs a stack of X in one contraction.
Each is compared with one-column arithmetic: the column fields bit for bit
with the direct solve, residual and Neumann loops kept here, the series
sums with per-energy calls, and the whole identity report against a
per-column reference of `_identity_checks` kept here.
"""

import numpy as np
import pytest

from ldlgen import BlockColumn, TMatrix, load_model
from ldlgen import verification
from ldlgen.generator import _structure_map, build_generator, drift, drift_from_t_operator
from ldlgen.model import _cluster_sorted, model_from_dict

from conftest import MODELS, base_model_doc, chained_cluster_doc, ladder_model_doc
from test_level_solve import MODELS as HARD_SPECTRA, _model


def _divergent_doc():
    # the model of test_suite_fails_honestly_at_divergent_coupling
    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [0.0, 0.0]]
    return doc


BUILDERS = {
    "tm_nr": lambda: TMatrix(load_model(MODELS / "tm_nr.json")),
    "tm_rwa": lambda: TMatrix(load_model(MODELS / "tm_rwa.json")),
    "ladder_d3": lambda: TMatrix(model_from_dict(ladder_model_doc(0, 3))),
    "chained": lambda: TMatrix(model_from_dict(chained_cluster_doc())),
    "divergent": lambda: TMatrix(model_from_dict(_divergent_doc())),
    **{name: (lambda lv=levels, rot=rotate: _model(lv, seed=7, rotate=rot))
       for name, (levels, rotate) in HARD_SPECTRA.items()},
}


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def tm(request):
    return BUILDERS[request.param]()


def _probes(tm):
    """The probe energies of `_identity_checks`."""
    energies = []
    for a, b in (tm.spec.bath.density(e).support for e in (0, 1)):
        energies.extend(np.linspace(a, b, 5)[1:-1])
    return energies


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _direct_column(tm, eps, omega_prime, E):
    """Column of (1+T_eps)^{-1} at (omega', E) from the level-basis solve of
    that one column."""
    X = tm._level_inverses(eps, np.array([E]), [omega_prime])[0, 0]
    own = X[tm.spectral.level_index, :, np.arange(tm.dim)].T  # [k, m] = X[level(m), k, m]
    return BlockColumn(epsilon=eps, omega_prime=omega_prime, energy=E,
                       offsets=tm.bohr.copy(), blocks=tm.spectral.split(own))


def _neumann_loop(tm, eps, omega_prime, E):
    """The alternating T-power series of one column, one order at a time:
    (eigenbasis sum, order, final_increment, converged, diverged)."""
    offsets = verification._offsets(tm, 1)
    T = verification._stacked_t(tm, eps, omega_prime, E, offsets)
    term = verification._rhs(tm, offsets)
    total = term.copy()
    increments = []
    for k in range(1, tm.spec.neumann_max_order + 1):
        term = -(T @ term)
        total += term
        increments.append(float(np.linalg.norm(term)))
        if increments[-1] < tm.spec.neumann_tolerance:
            return total, k - 1, increments[-1], True, False
        if len(increments) >= 5 and increments[-1] >= increments[-5]:
            return total, k, increments[-1], False, True
    return total, len(increments), increments[-1], False, False


def _residual_loop(tm, col):
    """Frobenius norm of (1+T) @ column - rhs for one column."""
    d, basis = tm.dim, tm.spectral.basis
    X = (basis.conj().T @ col.blocks @ basis).reshape(-1, d)
    T = verification._stacked_t(tm, col.epsilon, col.omega_prime, col.energy, col.offsets)
    R = (np.eye(len(col.offsets) * d, dtype=complex) + T) @ X - verification._rhs(tm, col.offsets)
    return float(np.linalg.norm(R) / np.sqrt(d))


def _dense_offsets(tm, index_depth):
    """The index-set offsets with the dense |B + B| x |B| distance matrix."""
    B, tol = np.array(tm.bohr, dtype=float), tm.spectral.tolerance
    if index_depth == 1:
        return B
    sums = np.sort((B[:, None] + B).ravel())
    sums = sums[np.abs(sums[:, None] - B).min(axis=1) > tol]
    reps = [sums[idxs[0]] for idxs in _cluster_sorted(sums, tol)] if sums.size else []
    return np.sort(np.concatenate([B, reps]))


def _dense_stacked_t(tm, eps, omega_prime, E, offsets):
    """The stacked T with each entry placed by argmin over the dense
    |I| x d x d x |I| distance array, kept when that minimum is within the
    Bohr tolerance (a tie goes to the lower offset, as with argmin)."""
    d, n = tm.dim, len(offsets)
    omega = np.broadcast_to((omega_prime + offsets)[:, None], (n, d))
    K = tm._kernels(eps, np.array([E]), omega[None])[0]
    dist = np.abs((offsets[:, None, None] - tm.spectral.transfer)[..., None] - offsets)
    j = dist.argmin(axis=-1)
    keep = dist.min(axis=-1) <= tm.spectral.tolerance
    i, k, p = np.nonzero(keep)
    T = np.zeros((n, d, n, d), dtype=complex)
    T[i, k, j[keep], p] = K[keep]
    return T.reshape(n * d, n * d)


def test_stacked_t_placement_matches_dense_argmin(tm):
    # depth 1 and depth 2, on every spectrum here (the chained cluster among
    # them): the index set and every placed entry, bit for bit
    E = float(_probes(tm)[0])
    for depth in (1, 2):
        offsets = verification._offsets(tm, depth)
        assert _same(offsets, _dense_offsets(tm, depth))
        for eps in (0, 1):
            for wp in (0.0, float(tm.bohr[-1])):
                assert _same(verification._stacked_t(tm, eps, wp, E, offsets),
                             _dense_stacked_t(tm, eps, wp, E, offsets))


def test_column_pass_matches_per_column_views(tm):
    energies = np.array(_probes(tm)[::2])
    for eps in (0, 1):
        cols = verification.column_pass(tm, eps, energies)
        assert cols.blocks.shape == (tm.bohr.size * energies.size, tm.bohr.size, tm.dim, tm.dim)
        c = 0
        for wp in tm.bohr:
            for E in energies:
                assert (cols.omega_prime[c], cols.energy[c]) == (wp, E)
                direct = _direct_column(tm, eps, float(wp), float(E))
                assert _same(cols.blocks[c], direct.blocks)
                assert _same(cols.residual[c], _residual_loop(tm, direct))
                loop = _neumann_loop(tm, eps, float(wp), float(E))
                assert _same(cols.neumann[c], verification._original(tm, loop[0], tm.bohr.size))
                order, final, converged, diverged = loop[1:]
                assert int(cols.order[c]) == order
                assert _same(cols.final_increment[c], final)
                assert bool(cols.converged[c]) is converged
                assert bool(cols.diverged[c]) is diverged
                c += 1


def test_series_on_energy_array_matches_per_energy_calls(tm):
    energies = np.array(_probes(tm)[::2])
    comps = tm.t_components(energies)
    for pair, key in (("00", (0, 0)), ("01", (0, 1)), ("10", (1, 0)), ("11", (1, 1))):
        sums, converged = tm.appendix_partial_sums(pair, energies)
        assert converged.shape == energies.shape
        for i, E in enumerate(energies):
            own, own_converged = tm.appendix_partial_sums(pair, float(E))
            assert _same(sums[-1][i], own[-1]) and converged[i] == own_converged
            # an energy's total stays frozen after its own last order
            assert all(_same(s[i], own[-1]) for s in sums[len(own):])
            assert _same(comps[key][i], tm.t_components(float(E))[key])


def _three_term_per_x(tm, X):
    """The three-term map of one X through `_structure_map`, node by node, on
    the thermal pass's R column split by transfer: its transfer-0 block of
    R^{eps,eps} and every block of R^{e,eps} with 2 Re gamma."""
    tp = tm.thermal_pass()
    sd, kept = tm.spectral, (np.arange(tp.eps.size), tp.eps)
    r0 = sd.split(tp.r[kept])[:, sd.bohr_index(0.0)]
    ops = sd.split(tp.r).reshape(tp.eps.size, -1, tm.dim, tm.dim)
    nodes = np.concatenate([tm.spec.bath.support_nodes(e)[0] for e in (0, 1)])
    terms = _structure_map(np.asarray(X, dtype=complex), r0, r0, ops, ops,
                           tm._re_gamma(nodes).reshape(ops.shape[:2]))
    return np.einsum("n,nij->ij", tp.coef, terms)


def _identity_checks_per_column(tm, rng):
    """`_identity_checks` one column, one energy and one X at a time, on the
    one-column loops and the pointwise views (the reference for the batched
    passes)."""
    check = verification._check
    d, sd = tm.dim, tm.spectral
    energies = _probes(tm)
    checks = []
    res_solve, res_transfer, res_neumann, res_stability = 0.0, 0.0, 0.0, 0.0
    wrong_transfer = ~np.eye(sd.bohr.size, dtype=bool)
    for eps in (0, 1):
        for wp in tm.bohr:
            for E in energies[::2]:
                col = _direct_column(tm, eps, float(wp), float(E))
                res_solve = np.maximum(res_solve, _residual_loop(tm, col))
                parts = np.linalg.norm(sd.split_operator(col.blocks), axis=(-2, -1))
                res_transfer = np.maximum(res_transfer,
                                          float((parts * wrong_transfer).sum(axis=1).max()))
                total, _, _, converged, _ = _neumann_loop(tm, eps, float(wp), float(E))
                if converged:
                    series = verification._original(tm, total, tm.bohr.size)
                    diff = np.linalg.norm(col.blocks - series, axis=(-2, -1))
                    ref = np.maximum(np.linalg.norm(col.blocks, axis=(-2, -1)), 1e-300)
                    res_neumann = np.maximum(res_neumann, float((diff / ref).max()))
        wide = verification.stacked_column(tm, eps, 0.0, float(energies[0]), index_depth=2)
        base = _direct_column(tm, eps, 0.0, float(energies[0]))
        j = np.searchsorted(wide.offsets, base.offsets)
        res_stability = np.maximum(res_stability, float(
            np.linalg.norm(base.blocks - wide.blocks[j], axis=(-2, -1)).max()))
    checks.append(check("block_column_residual", res_solve, 1e-12))
    checks.append(check("block_column_transfer", res_transfer, 1e-12))
    checks.append(check("neumann_vs_direct", res_neumann, 1e-10))
    checks.append(check("index_set_stability", res_stability, 1e-12))

    res_series = 0.0
    for E in energies[::2]:
        comps = tm.t_components(float(E))
        for pair, key in (("00", (0, 0)), ("01", (0, 1)), ("10", (1, 0)), ("11", (1, 1))):
            sums, _ = tm.appendix_partial_sums(pair, float(E))
            res_series = np.maximum(res_series, float(np.linalg.norm(sums[-1] - comps[key])))
    checks.append(check("appendix_series_identity", res_series, 1e-10))

    res_diag = 0.0
    zero = sd.bohr_index(0.0)
    for R in tm.r_blocks(energies[::2]):
        for eps in (0, 1):
            diags = sd.split_operator(R[eps, eps])[:, zero]
            for w, r, diag in zip(tm.bohr, R[eps, eps], diags):
                target = diag if abs(w) > sd.tolerance else diag - r
                res_diag = np.maximum(res_diag, float(np.linalg.norm(target)))
    checks.append(check("diagonal_projection", res_diag, 1e-10))

    gamma_direct = drift(tm)
    checks.append(check("drift_vs_t_operator",
                        np.linalg.norm(gamma_direct - drift_from_t_operator(tm)), 1e-10))
    comm = gamma_direct @ tm.spec.h_system - tm.spec.h_system @ gamma_direct
    checks.append(check("drift_commutes_with_h_system", np.linalg.norm(comm), 1e-10))
    if sd.is_rwa:
        bare = drift_from_t_operator(tm, diagonal_projection=False)
        checks.append(check("rwa_full_trace_drift", np.linalg.norm(gamma_direct - bare), 1e-10))
    gen = build_generator(tm)
    checks.append(check("hamiltonian_hermitian",
                        np.linalg.norm(gen.hamiltonian - gen.hamiltonian.conj().T), 1e-12))
    checks.append(check("hamiltonian_from_drift",
                        np.linalg.norm(gen.hamiltonian - (gen.drift - gen.drift.conj().T) / 2j),
                        1e-10))
    checks.append(check("unitality",
                        np.linalg.norm(gen.psi_one - (gen.drift + gen.drift.conj().T)), 1e-10))
    res_rec = 0.0
    for _ in range(20):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = x + x.conj().T
        res_rec = np.maximum(res_rec, float(np.linalg.norm(gen.apply(x)
                                                           - _three_term_per_x(tm, x))))
    checks.append(check("lindblad_reconstruction", res_rec, 1e-12))
    choi = gen.choi
    min_eig = float(np.linalg.eigvalsh(choi).min())
    checks.append(check("choi_positive", 0.0 if min_eig >= 0 else -min_eig,
                        1e-10 * float(np.linalg.norm(choi, 2))))
    return checks


def test_identity_checks_match_per_column_reference(tm):
    with np.errstate(over="ignore", invalid="ignore"):
        batched = verification._identity_checks(tm, np.random.default_rng(12345))
        reference = _identity_checks_per_column(tm, np.random.default_rng(12345))
    assert [c["check"] for c in batched] == [c["check"] for c in reference]
    for got, want in zip(batched, reference):
        assert got["pass"] == want["pass"] and got["tolerance"] == want["tolerance"], got
        if got["check"] == "lindblad_reconstruction":
            # one contraction over (node, entry, X) instead of a node sum per X
            assert abs(got["residual"] - want["residual"]) <= 1e-14
        else:
            assert got["residual"] == want["residual"], got


def test_identity_suite_solves_the_probe_r_blocks_once(monkeypatch):
    # the series identity's t components and the diagonal projection read
    # one r_blocks call on the probe energies
    tm = BUILDERS["tm_nr"]()
    calls = []
    r_blocks = TMatrix.r_blocks

    def counted(self, *args, **kwargs):
        calls.append(args)
        return r_blocks(self, *args, **kwargs)

    monkeypatch.setattr(TMatrix, "r_blocks", counted)
    verification.run_identity_suite(tm, "identities")
    assert len(calls) == 1
    assert _same(calls[0][0], np.array(_probes(tm)[::2]))
