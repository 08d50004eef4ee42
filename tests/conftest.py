import copy
import importlib.util
import json
import pathlib

import numpy as np
import pytest

from ldlgen import TMatrix, load_model
from ldlgen.generator import build_generator

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"

# document matching models/tm_nr.json, deep-copied by fixtures for mutation
_BASE_DOC = {
    "system": {
        "hamiltonian": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        "coupling": [[0.0, 0.0], [0.1, 0.0], [0.1, 0.0], [0.0, 0.0]],
        "bohr_tolerance": 1e-9,
    },
    "bath": {
        "beta": 0.5,
        "grid": {"min": -1.5, "max": 4.5, "points": 481},
        "rho0": {"kind": "bump", "a": 0.0, "b": 1.0, "amplitude": 1.0},
        "rho1": {"kind": "bump", "a": 2.0, "b": 3.0, "amplitude": 1.0},
    },
    "truncation": {"neumann_max_order": 64, "neumann_tolerance": 1e-12},
}


def base_model_doc():
    return copy.deepcopy(_BASE_DOC)


def chained_cluster_doc():
    """d = 5 model whose positive level differences near 0.1 chain in steps
    of 7e-10, below the default bohr_tolerance 1e-9, into one Bohr cluster
    whose representative sits 1.4e-9 from the difference 0.1."""
    levels = [0.0, 0.1, 0.2 + 7e-10, 0.3 + 2.1e-9, 0.4 + 4.2e-9]
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    doc = base_model_doc()
    doc["system"]["hamiltonian"] = [[z, 0.0] for z in np.diag(levels).reshape(-1)]
    coupling = 0.03 * (a + a.conj().T) / 2.0
    doc["system"]["coupling"] = [[z.real, z.imag] for z in coupling.reshape(-1)]
    return doc


def decoupled_level_doc(levels=(0.0, 0.3, 0.7)):
    """d = 3 model whose coupling leaves the top level untouched: the row
    and the column of that level in D are zero, so no series chain and no
    kernel row reaches it."""
    doc = base_model_doc()
    doc["system"]["hamiltonian"] = [[z, 0.0] for z in np.diag(levels).reshape(-1)]
    coupling = np.zeros((3, 3), dtype=complex)
    coupling[:2, :2] = [[0.05, 0.1 + 0.02j], [0.1 - 0.02j, -0.03]]
    doc["system"]["coupling"] = [[z.real, z.imag] for z in coupling.reshape(-1)]
    return doc


def ladder_model_doc(seed, dim, near_degenerate=False):
    """A model of the benchmark's seeded dimension ladder (perfbench/ladder.py)."""
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "perfbench" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder.ladder_model(seed, dim, near_degenerate)


def t_block(tm, eps, omega, omega_prime, E):
    """Block T^eps_{omega, omega'}(E) in the original basis: the part of the
    kernel K_eps(omega) (`TMatrix._kernels`) with canonical transfer
    omega - omega', the zero matrix when that is off the Bohr lattice."""
    sd = tm.spectral
    K = tm._kernels(eps, np.array([E], dtype=float), np.full((1, 1, tm.dim), omega))[0, 0]
    return sd.at(sd.split(K), omega - omega_prime)


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="session")
def rwa_spec():
    return load_model(MODELS / "tm_rwa.json")


@pytest.fixture(scope="session")
def nr_spec():
    return load_model(MODELS / "tm_nr.json")


@pytest.fixture(scope="session")
def rwa_tm(rwa_spec):
    return TMatrix(rwa_spec)


@pytest.fixture(scope="session")
def nr_tm(nr_spec):
    return TMatrix(nr_spec)


@pytest.fixture(scope="session")
def rwa_gen(rwa_tm):
    return build_generator(rwa_tm)


@pytest.fixture(scope="session")
def nr_gen(nr_tm):
    return build_generator(nr_tm)


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
