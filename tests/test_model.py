import numpy as np
import pytest

from ldlgen import ValidationError, block_transfer, load_model, spectral_decompose
from ldlgen.model import SpectralData, model_from_dict

from conftest import base_model_doc, chained_cluster_doc, write_model


def test_load_model_round_trip(tmp_path):
    spec = load_model(write_model(tmp_path, base_model_doc()))
    assert spec.dim == 2
    assert spec.beta == 0.5
    assert spec.bohr_tolerance == 1e-9
    assert spec.coupling[0, 1] == 0.1


def test_load_model_defaults(tmp_path):
    doc = base_model_doc()
    del doc["truncation"]
    del doc["system"]["bohr_tolerance"]
    spec = load_model(write_model(tmp_path, doc))
    assert spec.bohr_tolerance == 1e-9
    assert spec.neumann_max_order == 64
    assert spec.neumann_tolerance == 1e-12


def test_non_hermitian_rejected(tmp_path):
    doc = base_model_doc()
    doc["system"]["hamiltonian"][1] = [0.3, 0.0]   # h[0][1] != conj(h[1][0])
    with pytest.raises(ValidationError, match="Hermitian"):
        load_model(write_model(tmp_path, doc))


def test_missing_beta_named(tmp_path):
    doc = base_model_doc()
    del doc["bath"]["beta"]
    with pytest.raises(ValidationError, match="beta"):
        load_model(write_model(tmp_path, doc))


def test_nonpositive_beta_rejected():
    doc = base_model_doc()
    doc["bath"]["beta"] = -1.0
    with pytest.raises(ValidationError, match="beta"):
        model_from_dict(doc)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"system": [,}')
    with pytest.raises(ValidationError, match=r"line 1, column"):
        load_model(str(path))


def test_unknown_keys_rejected():
    doc = base_model_doc()
    doc["bath"]["gird"] = {}
    with pytest.raises(ValidationError, match="gird"):
        model_from_dict(doc)


@pytest.mark.parametrize("section", ["system", "bath", "grid", "truncation"])
def test_non_object_sections_rejected(section):
    doc = base_model_doc()
    (doc["bath"] if section == "grid" else doc)[section] = [1.0]
    with pytest.raises(ValidationError, match="must be a JSON object"):
        model_from_dict(doc)


def _two_level(coupling):
    doc = base_model_doc()
    doc["system"]["coupling"] = coupling
    return model_from_dict(doc)


def test_single_offdiagonal_block():
    # H = diag(0,1), D = |e1><e2|
    spec = _two_level([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    sd = spectral_decompose(spec)
    assert sd.bohr.tolist() == [-1.0, 0.0, 1.0]
    assert np.allclose(sd.d_block(1.0), spec.coupling)
    assert not sd.d_block(0.0).any()
    assert not sd.d_block(-1.0).any()


def test_sigma_x_splits():
    spec = _two_level([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    sd = spectral_decompose(spec)
    assert np.allclose(sd.d_block(1.0), [[0, 1], [0, 0]])
    assert np.allclose(sd.d_block(-1.0), [[0, 0], [1, 0]])
    assert not sd.d_block(0.0).any()
    assert not sd.is_rwa


def test_degeneracy_grouping():
    doc = base_model_doc()
    doc["system"]["hamiltonian"] = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                    [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                                    [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]
    doc["system"]["coupling"] = [[0.0, 0.0]] * 9
    spec = model_from_dict(doc)
    sd = spectral_decompose(spec)
    assert len(sd.levels) == 2
    assert sd.bohr.tolist() == [-2.0, 0.0, 2.0]
    e0, p0 = sd.levels[0]
    assert e0 == 0.0 and abs(np.trace(p0).real - 2.0) < 1e-12


def test_rwa_detection(rwa_tm, nr_tm):
    assert rwa_tm.spectral.is_rwa
    assert rwa_tm.spectral.rwa_frequency == 1.0
    assert not nr_tm.spectral.is_rwa
    assert nr_tm.spectral.rwa_frequency is None


def _random_model(rng, dim=4):
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = h + h.conj().T
    d = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    doc = base_model_doc()
    doc["system"]["hamiltonian"] = [[z.real, z.imag] for z in h.reshape(-1)]
    doc["system"]["coupling"] = [[z.real, z.imag] for z in d.reshape(-1)]
    return model_from_dict(doc)


def test_spectral_invariants_random_model():
    rng = np.random.default_rng(2024)
    spec = _random_model(rng)
    sd = spectral_decompose(spec)
    dim = spec.dim

    total = sum(p for _, p in sd.levels)
    assert np.linalg.norm(total - np.eye(dim)) < 1e-12
    for i, (_, pi) in enumerate(sd.levels):
        assert np.linalg.norm(pi - pi.conj().T) < 1e-12
        for j, (_, pj) in enumerate(sd.levels):
            expect = pi if i == j else 0.0
            assert np.linalg.norm(pi @ pj - expect) < 1e-12

    bohr = sd.bohr
    assert 0.0 in bohr
    assert np.array_equal(np.sort(-bohr), bohr)

    assert np.linalg.norm(sd.d_blocks.sum(axis=0) - spec.coupling) < 1e-12

    dag = spectral_decompose(
        model_from_dict({**base_model_doc(), "system": {
            "hamiltonian": [[z.real, z.imag] for z in spec.h_system.reshape(-1)],
            "coupling": [[z.real, z.imag] for z in spec.coupling.conj().T.reshape(-1)],
        }}))
    for w in bohr:
        assert np.abs(sd.d_block(w).conj().T - dag.d_block(-w)).max() < 1e-12

    # free evolution identity at the sample times
    from scipy.linalg import expm
    for t in (0.3, 1.7):
        u = expm(1j * t * spec.h_system)
        lhs = u @ spec.coupling @ u.conj().T
        rhs = sum(np.exp(-1j * t * w) * sd.d_block(w) for w in bohr)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_block_transfer_identity(nr_tm):
    sd = nr_tm.spectral
    comps = block_transfer(np.eye(2), sd)
    assert np.allclose(comps[0.0], np.eye(2))
    assert not comps[1.0].any() and not comps[-1.0].any()


def test_block_transfer_reproduces_d_blocks(nr_tm):
    sd = nr_tm.spectral
    comps = block_transfer(nr_tm.spec.coupling, sd)
    for w in sd.bohr.tolist():
        assert np.abs(comps[w] - sd.d_block(w)).max() < 1e-14


def test_block_transfer_completeness():
    rng = np.random.default_rng(5)
    spec = _random_model(rng, dim=3)
    sd = spectral_decompose(spec)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    comps = block_transfer(x, sd)
    assert np.abs(sum(comps.values()) - x).max() < 1e-12


def test_block_transfer_on_chained_bohr_cluster():
    # the cluster representative sits 1.4e-9 from the difference 0.1: only
    # the canonical transfer assignment, not a tolerance lookup, finds that
    # difference's block
    spec = model_from_dict(chained_cluster_doc())
    sd = spectral_decompose(spec)
    assert abs(sd.transfer[0, 1] - (0.1 + 1.4e-9)) < 1e-15
    assert sd.bohr_index(0.1) is None
    comps = block_transfer(spec.coupling, sd)
    assert list(comps) == sd.bohr.tolist()
    assert np.abs(sum(comps.values()) - spec.coupling).max() < 1e-12
    assert np.array_equal(np.array(list(comps.values())), sd.d_blocks)


# -- the Bohr-lattice lookup -----------------------------------------------------

def _hand_built(bohr, tolerance):
    """SpectralData of a one-level system with the given sorted offset set;
    `nearest`, `bohr_index` and `at` read only bohr and tolerance."""
    return SpectralData(dim=1, bohr=np.array(bohr, dtype=float), energies=np.zeros(1),
                        basis=np.eye(1), level_index=np.zeros(1, dtype=int),
                        transfer=np.zeros((1, 1)), tolerance=tolerance)


def test_nearest_on_single_member_bohr_set():
    doc = base_model_doc()
    doc["system"]["hamiltonian"] = [[0.3, 0.0]]
    doc["system"]["coupling"] = [[0.1, 0.0]]
    sd = spectral_decompose(model_from_dict(doc))
    assert sd.bohr.tolist() == [0.0]
    got = sd.nearest([-1.0, -1e-9, 0.0, 5e-10, 1.1e-9, 3.0])
    assert got.tolist() == [-1, 0, 0, 0, -1, -1]
    assert sd.bohr_index(1e-9) == 0 and sd.bohr_index(2e-9) is None


def test_nearest_below_first_above_last_and_off_lattice(nr_spec):
    sd = spectral_decompose(nr_spec)
    assert sd.bohr.tolist() == [-1.0, 0.0, 1.0]
    values = np.array([[-1.0 - 5e-10, 1.0 + 5e-10, -7.0, 7.0],
                       [-1.0 - 2e-9, 1.0 + 2e-9, 0.5, -0.25]])
    got = sd.nearest(values)
    assert got.shape == values.shape and got.dtype.kind == "i"
    assert got.tolist() == [[0, 2, -1, -1], [-1, -1, -1, -1]]
    # the same answers from an explicit offset set, and from the scalar form
    assert sd.nearest(values, np.array([-1.0, 0.0, 1.0])).tolist() == got.tolist()
    assert [sd.bohr_index(v) for v in values[0]] == [0, 2, None, None]


def test_nearest_sends_a_midway_value_to_the_lower_index():
    # 0.5 is exactly midway between 0 and 1 and within the tolerance of both;
    # argmin picks the lower index, and so does the lookup (the scalar
    # candidate loop it replaced picked the higher one)
    sd = _hand_built([-1.0, 0.0, 1.0], 0.5)
    assert sd.nearest([-0.5, 0.5]).tolist() == [0, 1]
    assert sd.bohr_index(0.5) == 1 and sd.bohr_index(-0.5) == 0
    distances = np.abs(np.array([-0.5, 0.5])[:, None] - sd.bohr)
    assert distances.argmin(axis=1).tolist() == [0, 1]


def test_at_keeps_its_shape_contract():
    sd = _hand_built([-1.0, 0.0, 1.0], 1e-9)
    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((2, 4, 3, 2, 2)) + 1j * rng.standard_normal((2, 4, 3, 2, 2))
    # a scalar omega gives (..., d, d): the block on the lattice, zeros off it
    on, off = sd.at(blocks, 1.0), sd.at(blocks, 0.5)
    assert on.shape == off.shape == (2, 4, 2, 2) and on.dtype == off.dtype == blocks.dtype
    assert np.array_equal(on, blocks[..., 2, :, :]) and not off.any()
    # an array of shape S gives (..., S, d, d), entry by entry the scalar form
    omegas = np.array([[0.0, 0.5], [-1.0, 1.0 + 1e-10], [3.0, -1.0 - 1e-10]])
    got = sd.at(blocks, omegas)
    assert got.shape == (2, 4, 3, 2, 2, 2) and got.dtype == blocks.dtype
    for index in np.ndindex(omegas.shape):
        assert np.array_equal(got[:, :, index[0], index[1]], sd.at(blocks, omegas[index]))
    assert not got[:, :, 0, 1].any() and not got[:, :, 2, 0].any()
