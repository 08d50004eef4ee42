"""Level-basis solve against the stacked block-system oracle on hard spectra.

The production R blocks come from d x d systems in the eigenbasis of H_S,
solved for all nodes at once.  Here every block R^{e1,e2}_{omega,omega'}
is rebuilt from columns of the stacked |B|*d system (`stacked_column`),
summed over the D blocks exactly as the defining formulas read, on
spectra where canonical Bohr representatives matter: exactly degenerate
levels, levels split by less than bohr_tolerance, and two Bohr gaps that
differ by less than bohr_tolerance without being equal.
"""

import numpy as np
import pytest

from ldlgen import TMatrix
from ldlgen.generator import drift, drift_from_t_operator
from ldlgen.model import model_from_dict

from conftest import base_model_doc

PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _model(levels, seed, rotate=False):
    rng = np.random.default_rng(seed)
    dim = len(levels)
    h = np.diag(np.asarray(levels, dtype=float)).astype(complex)
    if rotate:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        h = q @ h @ q.conj().T
        h = (h + h.conj().T) / 2.0
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    coupling = 0.03 * (a + a.conj().T) / 2.0
    doc = base_model_doc()
    doc["system"]["hamiltonian"] = [[z.real, z.imag] for z in h.reshape(-1)]
    doc["system"]["coupling"] = [[z.real, z.imag] for z in coupling.reshape(-1)]
    return TMatrix(model_from_dict(doc))


MODELS = {
    "degenerate_d3": ([0.0, 0.0, 0.7], False),
    "near_degenerate_d3": ([0.15, 0.15 + 3e-10, 0.45], False),
    "clustered_gaps_d3": ([0.0, 0.4, 0.8 + 5e-10], False),
    "generic_d4": ([0.05, 0.21, 0.38, 0.57], True),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def hard_tm(request):
    levels, rotate = MODELS[request.param]
    return _model(levels, seed=7, rotate=rotate)


class StackedR:
    """R blocks from stacked-oracle columns, by the defining sums."""

    def __init__(self, tm):
        self.tm = tm
        self.columns = {}

    def column(self, eps, omega_prime, E):
        key = (eps, omega_prime, E)
        if key not in self.columns:
            self.columns[key] = self.tm.stacked_column(eps, omega_prime, E)
        return self.columns[key]

    def _inner(self, eps, omega, omega_prime, E):
        sd = self.tm.spectral
        out = np.zeros((self.tm.dim, self.tm.dim), dtype=complex)
        col = self.column(eps, omega_prime, E)
        for w1, blk in zip(col.omegas, col.blocks_list):
            left = sd.d_block(omega - w1) if eps == 1 else sd.d_dag_block(w1 - omega)
            out += left @ blk
        return out

    def r(self, eps1, eps2, omega, omega_prime, E):
        tm = self.tm
        if eps1 != eps2:
            return -1j * self._inner(eps2, omega, omega_prime, E)
        out = np.zeros((tm.dim, tm.dim), dtype=complex)
        for b2 in tm.bohr:
            b2 = float(b2)
            right = tm.spectral.d_dag_block(-b2) if eps1 == 0 else tm.spectral.d_block(b2)
            w2 = omega_prime + b2
            out += tm.gamma(1 - eps1, E + w2) * (self._inner(1 - eps1, omega, w2, E) @ right)
        return -out


def test_levels_are_grouped_as_intended():
    sizes = {name: len(_model(lv, 7, rot).spectral.levels) for name, (lv, rot) in MODELS.items()}
    assert sizes == {"degenerate_d3": 2, "near_degenerate_d3": 2,
                     "clustered_gaps_d3": 3, "generic_d4": 4}
    # the two gaps 0.4 and 0.4 + 5e-10 share one canonical representative
    assert len(_model([0.0, 0.4, 0.8 + 5e-10], 7).bohr) == 5


def test_r_blocks_match_stacked_oracle(hard_tm):
    tm = hard_tm
    oracle = StackedR(tm)
    nonzero = float(tm.bohr[-1])
    for omega_prime in (0.0, nonzero):
        for E in (0.37, 2.61):
            R = tm.r_blocks([E], omega_prime)[0]
            for e1, e2 in PAIRS:
                ref = [oracle.r(e1, e2, omega_prime + float(b), omega_prime, E) for b in tm.bohr]
                scale = max(np.linalg.norm(m) for m in ref)
                assert scale > 0
                for got, want in zip(R[e1, e2], ref):
                    assert np.linalg.norm(got - want) <= 1e-12 * scale


def test_solve_column_matches_stacked_oracle(hard_tm):
    tm = hard_tm
    for eps in (0, 1):
        for omega_prime in (0.0, float(tm.bohr[0])):
            col = tm.solve_column(eps, omega_prime, 0.52)
            ref = tm.stacked_column(eps, omega_prime, 0.52)
            assert np.array_equal(col.offsets, ref.offsets)
            for got, want in zip(col.blocks_list, ref.blocks_list):
                assert np.linalg.norm(got - want) <= 1e-12
            assert tm.column_residual(col) < 1e-12


def test_drift_identity_on_hard_spectra(hard_tm):
    assert np.linalg.norm(drift(hard_tm) - drift_from_t_operator(hard_tm)) < 1e-10
