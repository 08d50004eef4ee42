"""Seeded model files for the benchmark workloads.

The ladder models follow the dimension ladder of the ROADMAP Baseline:
eigenvalues drawn from U(0, 0.6), a Hermitian coupling with Gaussian
entries scaled by 0.03, the bump baths of the shipped models and a
481-point grid on [-1.5, 4.5].  The near-degenerate variant splits two of its three levels by less than
``bohr_tolerance``, so spectral decomposition must merge them into one
level and canonicalise the Bohr frequencies.

Only the JSON files written here reach the program.
"""

import json

import numpy as np

BOHR_TOLERANCE = 1e-9
# Two levels of the near-degenerate model sit this far apart: well below
# BOHR_TOLERANCE, so they form one level.
NEAR_DEGENERATE_SPLIT = 3e-10
SPECTRUM_SEED = 0

BATH = {
    "beta": 0.5,
    "grid": {"min": -1.5, "max": 4.5, "points": 481},
    "rho0": {"kind": "bump", "a": 0.0, "b": 1.0, "amplitude": 1.0},
    "rho1": {"kind": "bump", "a": 2.0, "b": 3.0, "amplitude": 1.0},
}
TRUNCATION = {"neumann_max_order": 64, "neumann_tolerance": 1e-12}

# (name, dimension, near_degenerate)
LADDER = (("d2", 2, False), ("d3", 3, False), ("d3_near_degenerate", 3, True))


def _pairs(matrix):
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix).reshape(-1)]


def ladder_model(seed, dim, near_degenerate=False):
    """Model document with a generic (or near-degenerate) spectrum.

    The eigenvalues come from SPECTRUM_SEED and the coupling from `seed`.
    A build's cost depends on the spectrum, which fixes the shifted
    energies gamma is asked for, so a fixed spectrum keeps the cost of a
    workload the same for every seed.
    """
    stream = [dim, int(near_degenerate)]
    levels = np.random.default_rng([SPECTRUM_SEED, *stream, 0]).uniform(0.0, 0.6, size=dim)
    if near_degenerate:
        levels[1] = levels[0] + NEAR_DEGENERATE_SPLIT
    rng = np.random.default_rng([seed, *stream, 1])
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    coupling = 0.03 * (a + a.conj().T) / 2.0
    return {
        "system": {
            "hamiltonian": _pairs(np.diag(levels).astype(complex)),
            "coupling": _pairs(coupling),
            "bohr_tolerance": BOHR_TOLERANCE,
        },
        "bath": json.loads(json.dumps(BATH)),
        "truncation": dict(TRUNCATION),
    }


def write_ladder(seed, directory):
    """Write the three ladder models for `seed`; returns {name: path}."""
    paths = {}
    for name, dim, near in LADDER:
        doc = ladder_model(seed, dim, near)
        path = directory / f"ladder_{name}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        paths[name] = path
    return paths
