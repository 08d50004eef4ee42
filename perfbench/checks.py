"""Correctness gates on the program's outputs, and the stored references.

Every gate returns a list of failure messages; an empty list is a pass.
Outputs are parsed here rather than with ldlgen's own readers, so a fault
in those readers cannot hide a fault in the output.  ``references.json``
holds the drift and generator matrices of the ladder models, computed by
``make_references.py``.
"""

import json
from pathlib import Path

import numpy as np

# Matrix tolerances are relative to the matrix's norm when that is below 1:
# the ladder drifts are ~1e-5 and their Choi matrices ~1e-8, so an absolute
# 1e-10 would let a 0.1% change in the Kraus weights through.
TOL = 1e-10
DYSON_TOL = 1e-3
TRACE_DRIFT_TOL = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references.json"


def matrix(pairs):
    """Row-major [re, im] pairs to a square complex matrix."""
    flat = np.array(pairs, dtype=float)
    z = flat[:, 0] + 1j * flat[:, 1]
    dim = int(round(z.size ** 0.5))
    return z.reshape(dim, dim)


def generator_matrices(doc):
    """drift, hamiltonian, Choi matrix, Psi(1) and the Kraus weights of a
    `generator` output."""
    drift = matrix(doc["drift"])
    dim = drift.shape[0]
    weights = np.array([k["weight"] for k in doc["kraus"]], dtype=float)
    ops = np.array([matrix(k["operator"]) for k in doc["kraus"]]).reshape(-1, dim, dim)
    vecs = ops.reshape(-1, dim * dim)
    choi = (vecs.T * weights) @ vecs.conj()
    psi_one = np.einsum("j,jki,jkl->il", weights, ops.conj(), ops)
    return {"drift": drift, "hamiltonian": matrix(doc["hamiltonian"]), "choi": choi,
            "psi_one": psi_one, "weights": weights}


def drift_matrices(doc):
    return {"drift": matrix(doc["drift"]),
            "drift_from_t_operator": matrix(doc["drift_from_t_operator"])}


def reference_entries(command, doc):
    """The matrices of one output that are compared with references."""
    if command == "generator":
        m = generator_matrices(doc)
        return {k: m[k] for k in ("drift", "hamiltonian", "choi")}
    return drift_matrices(doc)


def within(err, m):
    """err <= TOL * min(1, ||m||): an absolute bound for matrices of norm
    above 1, a relative one below; NaN never passes."""
    return err <= TOL * min(1.0, float(np.linalg.norm(m)))


def to_pairs(m):
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def load_references():
    return json.loads(REFERENCES.read_text())


def against_reference(command, doc, reference):
    """Each matrix `within` TOL (Frobenius) of its stored reference."""
    if reference is None:
        return [f"{command}: no stored reference"]
    failures = []
    for key, value in reference_entries(command, doc).items():
        ref = matrix(reference[key])
        err = float(np.linalg.norm(value - ref))
        if not within(err, ref):
            failures.append(f"{command}.{key} differs from reference by {err:.3e}")
    return failures


def generator_gate(doc):
    m = generator_matrices(doc)
    failures = []
    if m["weights"].size == 0 or not (m["weights"] >= 0.0).all():
        failures.append("generator: a Kraus weight is negative (or there are none)")
    unital = float(np.linalg.norm(m["psi_one"] - (m["drift"] + m["drift"].conj().T)))
    if not within(unital, m["psi_one"]):
        failures.append(f"generator: unitality defect {unital:.3e}")
    choi = m["choi"]
    min_eig = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
    if not min_eig >= -TOL * float(np.linalg.norm(choi, 2)):
        failures.append(f"generator: Choi min eigenvalue {min_eig:.3e}")
    return failures


def drift_gate(doc):
    disc = doc["frobenius_discrepancy"]
    if within(disc, matrix(doc["drift"])):
        return []
    return [f"drift: frobenius_discrepancy {disc:.3e}"]


def check_gate(doc):
    if doc.get("passed") is True:
        return []
    bad = [c["check"] for c in doc.get("checks", []) if not c["pass"]]
    return [f"check: failed {bad}"]


def dyson_gate(extrapolated, reference):
    diff = abs(extrapolated - reference)
    return [] if diff <= DYSON_TOL else [f"dyson: |extrapolated - reference| = {diff:.3e}"]


def trace_drift_gate(states):
    drift = float(np.abs(np.einsum("kii->k", np.asarray(states)).real - 1.0).max())
    return [] if drift <= TRACE_DRIFT_TOL else [f"evolve: trace drift {drift:.3e}"]


def unravel_gate(ens1, ens2, master_states, checkpoints=10):
    """Bitwise equality across thread counts, and agreement with the master
    equation within max(4 stderr, 2e-2) at `checkpoints` evenly spaced steps."""
    failures = []
    if not all(np.array_equal(a, b) for a, b in zip(ens1.mean_states, ens2.mean_states)):
        failures.append("unravel: means differ between threads=1 and threads=2")
    stride = len(ens1.mean_states) // checkpoints
    excess = [float((np.abs(ens1.mean_states[k] - master_states[k])
                     - np.maximum(4.0 * ens1.stderr[k], 2e-2)).max())
              for k in range(stride, len(ens1.mean_states), stride)]
    if not all(e <= 0.0 for e in excess):
        failures.append(f"unravel: mean leaves the master-equation band by {max(excess):.3e}")
    return failures
