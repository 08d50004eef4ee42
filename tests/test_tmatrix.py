import numpy as np
import pytest

from ldlgen import TMatrix, ValidationError, block_transfer
from ldlgen.bath import DensityProfile
from ldlgen.model import model_from_dict
from ldlgen.tmatrix import (_corr_weights, _grid_corr, _grid_exponentials, _grid_fourier,
                            _parity_pair, _simpson_weights, dyson_oracle, dyson_reference,
                            richardson_extrapolate)
from ldlgen.verification import run_identity_suite

from conftest import base_model_doc, chained_cluster_doc

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def _scaled_model(scale):
    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0], [scale, 0.0], [scale, 0.0], [0.0, 0.0]]
    return TMatrix(model_from_dict(doc))


def _zero_model():
    doc = base_model_doc()
    doc["system"]["coupling"] = [[0.0, 0.0]] * 4
    return TMatrix(model_from_dict(doc))


# -- t_kernel ---------------------------------------------------------------

def test_kernel_zero_coupling():
    tm = _zero_model()
    for eps in (0, 1):
        assert not tm.t_kernel(eps, 0.0, 0.0, 0.4).any()


def test_kernel_rwa_is_diagonal(rwa_tm):
    # single nonzero Bohr block: T^0_{w,w'} = delta_{w,w'} g0(E+w) g1(E-1+w) D D^+
    tm = rwa_tm
    E = 0.45
    dd = tm.spec.coupling @ tm.spec.coupling.conj().T
    for w in (-1.0, 0.0, 1.0):
        expect = tm.gamma(0, E + w) * tm.gamma(1, E - 1 + w) * dd
        assert np.abs(tm.t_kernel(0, w, w, E) - expect).max() < 1e-14
        assert not tm.t_kernel(0, w, w - 1.0, E).any()


def test_kernel_sigma_x_hand_expansion(nr_tm):
    tm = nr_tm
    E = 0.62
    s = 0.1
    expect = tm.gamma(0, E) * np.diag([
        tm.gamma(1, E - 1) * s * s,
        tm.gamma(1, E + 1) * s * s,
    ])
    assert np.abs(tm.t_kernel(0, 0.0, 0.0, E) - expect).max() < 1e-14


def test_kernel_off_lattice_difference_is_zero(nr_tm):
    assert not nr_tm.t_kernel(0, 0.7, 0.0, 0.5).any()


# -- solve / Neumann ----------------------------------------------------------

def test_solve_zero_coupling_gives_identity_column():
    tm = _zero_model()
    col = tm.solve_column(0, 0.0, 0.3)
    for off, blk in zip(col.offsets, col.blocks):
        expect = np.eye(2) if off == 0.0 else np.zeros((2, 2))
        assert np.abs(blk - expect).max() == 0.0


def test_solve_residual_invariant(nr_tm):
    for eps in (0, 1):
        for wp in (-1.0, 0.0, 1.0):
            for E in (0.31, 2.47):
                col = nr_tm.solve_column(eps, wp, E)
                assert nr_tm.column_residual(col) < 1e-12


def test_solve_block_transfer_invariant(nr_tm):
    col = nr_tm.solve_column(1, 1.0, 0.52)
    for off, blk in zip(col.offsets, col.blocks):
        comps = block_transfer(blk, nr_tm.spectral)
        for w, comp in comps.items():
            if abs(w - off) > 1e-9:
                assert np.linalg.norm(comp) < 1e-12


def test_neumann_zero_coupling_converges_at_order_zero():
    tm = _zero_model()
    col = tm.neumann_column(0, 0.0, 0.3)
    assert col.converged and col.order == 0
    assert np.abs(col.blocks[col.offsets == 0.0] - np.eye(2)).max() == 0.0


def test_neumann_matches_direct_solve(nr_tm):
    for eps in (0, 1):
        for E in (0.2, 0.8, 2.3, 2.9):
            direct = nr_tm.solve_column(eps, 0.0, E)
            series = nr_tm.neumann_column(eps, 0.0, E, tol=1e-12)
            assert series.converged and not series.diverged
            for b1, b2 in zip(direct.blocks, series.blocks):
                denom = max(np.linalg.norm(b1), 1e-300)
                assert np.linalg.norm(b1 - b2) / denom < 1e-10


def test_solve_reports_condition_estimate(nr_tm):
    from ldlgen import NumericError, TMatrix
    from ldlgen.model import model_from_dict
    tm = TMatrix(model_from_dict(base_model_doc()))
    tm.condition_limit = 1.0          # any nontrivial system now trips the gate
    with pytest.raises(NumericError, match="condition estimate"):
        tm.solve_column(0, 0.0, 0.5)


def test_neumann_divergence_flagged():
    # power-iteration oracle for the block spectral radius, then the flag;
    # the reference bath's gamma magnitudes need coupling beyond x10 to push
    # the radius past 1, so scale until the oracle certifies divergence
    tm = _scaled_model(4.0)
    E = 0.5
    T = tm._stacked_t(0, 0.0, E, tm._offsets(1))
    rng = np.random.default_rng(3)
    vec = rng.standard_normal(T.shape[0]) + 1j * rng.standard_normal(T.shape[0])
    for _ in range(300):
        vec = T @ vec
        vec /= np.linalg.norm(vec)
    radius = float(np.linalg.norm(T @ vec))
    assert radius > 1.0
    col = tm.neumann_column(0, 0.0, E)
    assert col.diverged and not col.converged


def test_stacked_column_rejects_other_index_depths(nr_tm):
    for depth in (0, 3, -1):
        with pytest.raises(ValidationError, match="index_depth"):
            nr_tm.stacked_column(0, 0.0, 0.5, index_depth=depth)


# -- stacked oracle on a chained Bohr cluster -----------------------------------

@pytest.fixture(scope="module")
def chained_tm():
    return TMatrix(model_from_dict(chained_cluster_doc()))


def test_stacked_t_places_each_entry_once(chained_tm):
    # the stacked T is assembled in the eigenbasis; entry (k, p) of a row
    # block's kernel lands in at most one column block, even where Bohr path
    # sums lie within the tolerance of several offset differences
    tm = chained_tm
    d = tm.dim
    for depth in (1, 2):
        offsets = tm._offsets(depth)
        n = offsets.size
        for eps in (0, 1):
            T = tm._stacked_t(eps, 0.0, 0.5, offsets).reshape(n, d, n, d)
            placements = (T != 0).sum(axis=2)
            assert placements.max() == 1
            assert placements.sum() > n * d


def test_identity_suite_on_chained_cluster(chained_tm):
    # 22 of the 125 eigen-index triples (k, p, m) do not compose
    # (transfer[k, m] - transfer[k, p] misses transfer[p, m] by more than the
    # Bohr tolerance), so no placement on the offset lattice reproduces the
    # per-eigen-column systems exactly; the two routes still agree closely
    report = {c["check"]: c for c in run_identity_suite(chained_tm, "identities")["checks"]}
    assert report["block_column_residual"]["residual"] <= 1e-6
    assert report["index_set_stability"]["residual"] <= 1e-6
    stacked_vs_level = {"block_column_residual", "index_set_stability", "neumann_vs_direct"}
    assert all(c["pass"] for name, c in report.items() if name not in stacked_vs_level)


# -- R coefficients -----------------------------------------------------------

def test_r_zero_coupling():
    tm = _zero_model()
    for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert not tm.r_coefficient(pair[0], pair[1], 0.0, 0.0, 0.4).any()


def test_r01_born_order(nr_tm):
    # R^{0,1}_{w,0} = -i D_w + O(||D||^3)
    for w in (-1.0, 1.0):
        r = nr_tm.r_coefficient(0, 1, w, 0.0, 0.57)
        assert np.abs(r + 1j * nr_tm.spectral.d_block(w)).max() < 3e-4


def test_r00_born_order(nr_tm):
    # R^{0,0}_{0,0}(E) ~ -s^2 [g1(E-1)|e1><e1| + g1(E+1)|e2><e2|] + O(||D||^4)
    tm = nr_tm
    E = 0.44
    s2 = 0.01
    born = -s2 * np.diag([tm.gamma(1, E - 1.0), tm.gamma(1, E + 1.0)])
    assert np.abs(tm.r_coefficient(0, 0, 0.0, 0.0, E) - born).max() < 3e-4


def test_r_transfer_structure(nr_tm):
    for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for w in (-1.0, 0.0, 1.0):
            r = nr_tm.r_coefficient(pair[0], pair[1], w, 0.0, 2.41)
            comps = block_transfer(r, nr_tm.spectral)
            for mu, comp in comps.items():
                if abs(mu - w) > 1e-9:
                    assert np.linalg.norm(comp) < 1e-10


def test_r_blocks_sampling(nr_tm):
    energies = [0.3, 0.5, 2.5]
    R = nr_tm.r_blocks(energies)
    assert R.shape == (3, 2, 2, 3, 2, 2)
    b = nr_tm.spectral.bohr_index(1.0)
    arr = R[:, 0, 1, b]
    # the batched pass and the pointwise view agree, node by node
    for k, E in enumerate(energies):
        assert np.array_equal(arr[k], nr_tm.r_coefficient(0, 1, 1.0, 0.0, E))
    # definite transfer omega - omega' for every sampled slice
    for k in range(3):
        comps = block_transfer(arr[k], nr_tm.spectral)
        for mu, comp in comps.items():
            if abs(mu - 1.0) > 1e-9:
                assert np.linalg.norm(comp) < 1e-10


def test_index_set_stability(nr_tm):
    for eps in (0, 1):
        base = nr_tm.solve_column(eps, 0.0, 0.66)
        wide = nr_tm.stacked_column(eps, 0.0, 0.66, index_depth=2)
        assert wide.offsets.size > base.offsets.size
        for off, blk in zip(base.offsets, base.blocks):
            j = int(np.argmin(np.abs(wide.offsets - off)))
            assert np.linalg.norm(blk - wide.blocks[j]) < 1e-12


# -- scattering components and the series --------------------------------------

def test_t_components_zero_coupling():
    tm = _zero_model()
    comps = tm.t_components(0.5)
    for m in comps.values():
        assert not m.any()


def test_series_identity_all_pairs(nr_tm):
    for E in (0.37, 2.63):
        comps = nr_tm.t_components(E)
        for pair, key in (("00", (0, 0)), ("01", (0, 1)), ("10", (1, 0)), ("11", (1, 1))):
            sums, converged = nr_tm.appendix_partial_sums(pair, E)
            assert converged
            assert np.linalg.norm(sums[-1] - comps[key]) < 1e-10


def test_rwa_t00_supported_on_upper_level(rwa_tm):
    comps = rwa_tm.t_components(0.48)
    t00 = comps[(0, 0)]
    assert abs(t00[0, 0]) > 0
    assert abs(t00[0, 1]) + abs(t00[1, 0]) + abs(t00[1, 1]) < 1e-16


def test_diagonal_projection_of_r_blocks(nr_tm):
    projs = [p for _, p in nr_tm.spectral.levels]
    for E in (0.29, 2.71):
        for eps in (0, 1):
            for w in (-1.0, 1.0):
                r = nr_tm.r_coefficient(eps, eps, w, 0.0, E)
                diag = sum(p @ r @ p for p in projs)
                assert np.linalg.norm(diag) < 1e-10
            r0 = nr_tm.r_coefficient(eps, eps, 0.0, 0.0, E)
            diag0 = sum(p @ r0 @ p for p in projs)
            assert np.linalg.norm(diag0 - r0) < 1e-10


# -- appendix closed forms ------------------------------------------------------

def test_appendix_zero_coupling():
    tm = _zero_model()
    for pair in ("00", "11"):
        assert not tm.appendix_term(pair, 1, 0.5).any()
    for pair in ("01", "10"):
        assert not tm.appendix_term(pair, 1, 0.5).any()


def test_appendix_order_bounds(nr_tm):
    with pytest.raises(ValidationError):
        nr_tm.appendix_term("00", 0, 0.5)
    with pytest.raises(ValidationError):
        nr_tm.appendix_term("01", -1, 0.5)


def test_appendix_first_odd_term_is_coupling(nr_tm):
    # empty gamma product: T^{10}_1 = -i D^+, T^{01}_1 = -i D
    assert np.abs(nr_tm.appendix_term("10", 0, 1.23) + 1j * nr_tm.spec.coupling.conj().T).max() == 0.0
    assert np.abs(nr_tm.appendix_term("01", 0, 1.23) + 1j * nr_tm.spec.coupling).max() == 0.0


def test_appendix_10_n1_hand_triple_sum(nr_tm):
    # T^{10}_3(E) = i sum_{w,w1,w2} D^+_w D_{w1} D^+_{w2}
    #                 gamma_1(E - w2) gamma_0(E + w1 - w2)
    tm = nr_tm
    sd = tm.spectral
    E = 0.73
    expect = np.zeros((2, 2), dtype=complex)
    for w in (-1.0, 1.0):
        for w1 in (-1.0, 1.0):
            for w2 in (-1.0, 1.0):
                ops = sd.d_block(w).conj().T @ sd.d_block(w1) @ sd.d_block(w2).conj().T
                expect += ops * tm.gamma(1, E - w2) * tm.gamma(0, E + w1 - w2)
    expect *= 1j
    assert np.abs(tm.appendix_term("10", 1, E) - expect).max() < 1e-14


def test_appendix_00_n1_matches_definition(nr_tm):
    # T^{00}_2(E) = -sum_{w,w1} D_w D^+_{w1} gamma_1(E - w1)
    tm = nr_tm
    sd = tm.spectral
    E = 2.39
    expect = np.zeros((2, 2), dtype=complex)
    for w in (-1.0, 1.0):
        for w1 in (-1.0, 1.0):
            expect -= sd.d_block(w) @ sd.d_block(w1).conj().T * tm.gamma(1, E - w1)
    assert np.abs(tm.appendix_term("00", 1, E) - expect).max() < 1e-14


# -- Dyson oracle ----------------------------------------------------------------

def _corr_on_grid(profile, t, n_nodes=320):
    """corr(t) = integral rho(E) e^{itE} dE by Gauss-Legendre quadrature,
    with the direct exponential (the reference for the split-exponent form)."""
    x, c = _corr_weights(profile, n_nodes)
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for chunk in range(0, x.size, 64):
        sl = slice(chunk, chunk + 64)
        out += np.exp(1j * np.outer(t, x[sl])) @ c[sl]
    return out


PROFILES = {
    "rect": DensityProfile.rect(0.0, 1.0, 0.8),
    "bump": DensityProfile.bump(2.0, 3.0, 1.0),
    "table": DensityProfile.table([0.0, 0.15, 0.5, 0.9, 1.0], [0.0, 1.3, 0.4, 0.9, 0.0]),
}


@pytest.mark.parametrize("n_points", [1, 2, 3, 49, 40001])
@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_grid_exponentials_match_direct_sum(kind, n_points):
    prof = PROFILES[kind]
    dt = 0.01
    # the phase range t * x, not the node count, sets the roundoff; 64 nodes
    # keep the direct 40,001-point block small
    n_nodes = 320 if n_points < 40001 else 64
    x, c = _corr_weights(prof, n_nodes)
    t = np.arange(n_points) * dt
    giant, baby = _grid_exponentials(n_points, dt, x)
    # O(sqrt(n) |x|) exponentials, not O(n |x|)
    assert giant.shape[0] + baby.shape[0] <= 2 * np.sqrt(n_points) + 2
    assert giant.shape[0] * baby.shape[0] >= n_points

    corr = _grid_corr(prof, dt, n_points, n_nodes)
    assert corr.shape == (n_points,)
    assert np.abs(corr - _corr_on_grid(prof, t, n_nodes)).max() <= 1e-13 * np.abs(c).sum()

    rows = np.random.default_rng(n_points).standard_normal((2, n_points)) * c.sum()
    direct = np.zeros((2, x.size), dtype=complex)
    for chunk in range(0, x.size, 64):
        sl = slice(chunk, chunk + 64)
        direct[:, sl] = rows @ np.exp(1j * np.outer(t, x[sl]))
    diff = np.abs(_grid_fourier(rows, dt, x) - direct).max()
    assert diff <= 1e-13 * np.abs(rows).sum(axis=1).max()


def test_dyson_requires_positive_damping(nr_tm):
    with pytest.raises(ValidationError, match="eta"):
        dyson_oracle(nr_tm, "01", 1, E1, E2, 0.0)


def test_dyson_first_order_matrix_element(nr_tm):
    # <u (x) g0, V1 (v (x) g1)> = u^+ D v ||g1||^2, independent of eta
    val1 = dyson_oracle(nr_tm, "01", 1, E1, E2, 1e-3)
    val2 = dyson_oracle(nr_tm, "01", 1, E1, E2, 5e-2)
    expect = 0.1 * nr_tm.spec.bath.rho1.norm_squared()
    assert abs(val1 - expect) < 1e-14
    assert val1 == val2


def test_dyson_zero_coupling():
    tm = _zero_model()
    assert dyson_oracle(tm, "00", 2, E1, E1, 1e-3, t_max=20.0, dt=0.05) == 0.0
    assert dyson_oracle(tm, "01", 3, E1, E2, 1e-3, t_max=20.0, dt=0.05) == 0.0


def test_dyson_parity_mismatch_is_zero(nr_tm):
    assert dyson_oracle(nr_tm, "01", 2, E1, E2, 1e-3) == 0.0
    assert dyson_oracle(nr_tm, "00", 3, E1, E1, 1e-3) == 0.0


def test_dyson_n2_matches_closed_form(nr_tm):
    etas = [4e-3, 2e-3, 1e-3]
    vals = [dyson_oracle(nr_tm, "00", 2, E1, E1, eta, t_max=200.0, dt=0.02)
            for eta in etas]
    extrap = richardson_extrapolate(vals, etas)
    ref = dyson_reference(nr_tm, "00", 2, E1, E1)
    assert abs(extrap - ref) < 1e-6


def _dyson_t3_nested(tm, pair, u, v, eta, t_max, dt, n_energy=160):
    """Brute-force nested product-Simpson sum over the gap-variable simplex."""
    a, b = _parity_pair(pair, 3)
    spec = tm.spec
    bath = spec.bath
    d_ops = (spec.coupling, spec.coupling.conj().T)
    evals, evecs = np.linalg.eigh(spec.h_system)
    ut = evecs.conj().T @ np.asarray(u, complex)
    vt = evecs.conj().T @ np.asarray(v, complex)
    da = evecs.conj().T @ d_ops[a] @ evecs
    do = evecs.conj().T @ d_ops[1 - a] @ evecs
    n = int(round(t_max / dt))
    n += n % 2
    t = np.arange(n + 1) * dt
    w = _simpson_weights(n + 1, dt)
    corr_s = np.conj(_corr_on_grid(bath.density(a), t, n_energy))
    corr_r = np.conj(_corr_on_grid(bath.density(1 - a), t, n_energy))
    corr_b = _corr_on_grid(bath.density(b), np.arange(2 * n + 1) * dt, n_energy)
    row = ut.conj() @ da
    total = 0j
    a_s = w * np.exp(-eta * t) * corr_s
    a_r = w * np.exp(-2.0 * eta * t) * corr_r
    for l in range(2):
        for m in range(2):
            for p in range(2):
                c = row[l] * do[l, m] * da[m, p] * vt[p]
                if c == 0:
                    continue
                phs = np.exp(1j * (evals[p] - evals[m]) * t)
                phr = a_r * np.exp(1j * (evals[p] - evals[l]) * t)
                inner = 0j
                for i in range(n + 1):
                    inner += (a_s[i] * phs[i]) * np.dot(phr, corr_b[i:i + n + 1])
                total += c * inner
    return -total


def test_dyson_n3_separated_equals_nested_sum(nr_tm):
    # the production evaluation regroups the very same double quadrature sum
    fast = dyson_oracle(nr_tm, "01", 3, E1, E2, 2e-3, t_max=60.0, dt=0.05, n_energy=160)
    slow = _dyson_t3_nested(nr_tm, "01", E1, E2, 2e-3, 60.0, 0.05)
    assert abs(fast - slow) < 1e-15


def test_dyson_n3_matches_closed_form(nr_tm):
    etas = [4e-3, 2e-3, 1e-3]
    vals = [dyson_oracle(nr_tm, "01", 3, E1, E2, eta, t_max=200.0, dt=0.02)
            for eta in etas]
    extrap = richardson_extrapolate(vals, etas)
    ref = dyson_reference(nr_tm, "01", 3, E1, E2)
    assert abs(extrap - ref) < 1e-6


def _table_model():
    doc = base_model_doc()
    doc["bath"]["rho0"] = PROFILES["table"].to_json()
    doc["bath"]["rho1"] = DensityProfile.table([2.0, 2.3, 2.6, 3.0], [0.0, 0.7, 1.1, 0.0]).to_json()
    return TMatrix(model_from_dict(doc))


def _dyson_t2_direct(tm, pair, u, v, eta, t_max, dt, n_energy):
    """n = 2 term with the direct exponential in every correlation and phase."""
    a, _ = _parity_pair(pair, 2)
    spec = tm.spec
    bath = spec.bath
    d_ops = (spec.coupling, spec.coupling.conj().T)
    evals, evecs = np.linalg.eigh(spec.h_system)
    ut = evecs.conj().T @ np.asarray(u, complex)
    vt = evecs.conj().T @ np.asarray(v, complex)
    da = evecs.conj().T @ d_ops[a] @ evecs
    do = evecs.conj().T @ d_ops[1 - a] @ evecs
    n = int(round(t_max / dt))
    n += n % 2
    t = np.arange(n + 1) * dt
    base = (_simpson_weights(n + 1, dt) * np.exp(-eta * t)
            * np.conj(_corr_on_grid(bath.density(1 - a), t, n_energy))
            * _corr_on_grid(bath.density(a), t, n_energy))
    row = ut.conj() @ da
    total = 0j
    for l in range(spec.dim):
        for m in range(spec.dim):
            total += row[l] * do[l, m] * vt[m] * np.dot(np.exp(1j * (evals[m] - evals[l]) * t), base)
    return -1j * total


@pytest.mark.parametrize("pair,n,u,v", [("00", 2, E1, E1), ("11", 2, E2, E2),
                                         ("01", 3, E1, E2), ("10", 3, E2, E1)])
def test_dyson_on_table_densities_matches_direct_exponential(pair, n, u, v):
    tm = _table_model()
    fast = dyson_oracle(tm, pair, n, u, v, 2e-3, t_max=60.0, dt=0.05, n_energy=160)
    if n == 2:
        slow = _dyson_t2_direct(tm, pair, u, v, 2e-3, 60.0, 0.05, 160)
    else:
        slow = _dyson_t3_nested(tm, pair, u, v, 2e-3, 60.0, 0.05)
    assert fast != 0
    assert abs(fast - slow) <= 1e-12 * abs(slow)


BAD_ORACLE_INPUTS = [
    ({"eta": float("nan")}, "eta"),
    ({"eta": float("inf")}, "eta"),
    ({"eta": -1e-3}, "eta"),
    ({"dt": 0.0}, "dt"),
    ({"dt": -0.01}, "dt"),
    ({"dt": float("nan")}, "dt"),
    ({"t_max": float("inf")}, "t_max"),
    ({"t_max": 0.004}, "t_max"),
    ({"n_energy": 0}, "n_energy"),
    ({"n_energy": 2.5}, "n_energy"),
    ({"u": np.ones(3)}, "u"),
    ({"v": np.ones(1)}, "v"),
    ({"u": np.array([np.nan, 0.0])}, "u"),
    ({"v": np.array([0.0, np.inf])}, "v"),
    ({"pair": "02"}, "pair"),
    ({"pair": "0"}, "pair"),
    ({"pair": 11}, "pair"),
    ({"n": 2.5}, "n in"),
]


@pytest.mark.parametrize("bad,match", BAD_ORACLE_INPUTS)
def test_dyson_oracle_rejects_bad_input(nr_tm, bad, match):
    args = {"pair": "00", "n": 2, "u": E1, "v": E1, "eta": 1e-3}
    args.update(bad)
    kw = {k: args.pop(k) for k in ("t_max", "dt", "n_energy") if k in args}
    kw.setdefault("dt", 0.01)
    with pytest.raises(ValidationError, match=match):
        dyson_oracle(nr_tm, args["pair"], args["n"], args["u"], args["v"], args["eta"], **kw)


@pytest.mark.parametrize("bad,match", [b for b in BAD_ORACLE_INPUTS
                                       if next(iter(b[0])) in ("pair", "u", "v", "n_energy")])
def test_dyson_reference_rejects_bad_input(nr_tm, bad, match):
    args = {"pair": "00", "u": E1, "v": E1, "n_energy": 192}
    args.update(bad)
    with pytest.raises(ValidationError, match=match):
        dyson_reference(nr_tm, args["pair"], 2, args["u"], args["v"], n_energy=args["n_energy"])


def test_richardson_extrapolate_exact_on_polynomials():
    etas = [4e-3, 2e-3, 1e-3]
    vals = [1.5 - 2.0j + 3.0 * e - 7.0 * e * e for e in etas]
    assert abs(richardson_extrapolate(vals, etas) - (1.5 - 2.0j)) < 1e-12
    assert richardson_extrapolate([0.25j], [1e-3]) == 0.25j


@pytest.mark.parametrize("values,etas,match", [
    ([1.0, 2.0], [1e-3, 1e-3], "distinct"),
    ([1.0, 2.0, 3.0], [1e-3, 2e-3], "one value per eta"),
    ([1.0], [1e-3, 2e-3], "one value per eta"),
    ([], [], "at least one"),
    ([1.0, 2.0], [1e-3, float("nan")], "finite"),
    ([1.0, 2.0], [1e-3, float("inf")], "finite"),
])
def test_richardson_extrapolate_rejects_bad_samples(values, etas, match):
    with pytest.raises(ValidationError, match=match):
        richardson_extrapolate(values, etas)
