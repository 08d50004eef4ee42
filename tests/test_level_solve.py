"""Level-basis solve against the stacked block-system oracle on hard spectra.

The production R blocks come from d x d systems in the eigenbasis of H_S,
solved for all nodes at once.  Here every block R^{e1,e2}_{omega,omega'}
is rebuilt from columns of the stacked |B|*d system (`stacked_column`),
summed over the D blocks exactly as the defining formulas read, on
spectra where canonical Bohr representatives matter: exactly degenerate
levels, levels split by less than bohr_tolerance, and two Bohr gaps that
differ by less than bohr_tolerance without being equal.
"""

import math

import numpy as np
import pytest

from ldlgen import GammaTable, TMatrix, verification
from ldlgen.generator import drift, drift_from_t_operator
from ldlgen.model import model_from_dict
from ldlgen.verification import run_identity_suite

from conftest import base_model_doc, ladder_model_doc, t_block

PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _model(levels, seed, rotate=False, hermitian=True):
    rng = np.random.default_rng(seed)
    dim = len(levels)
    h = np.diag(np.asarray(levels, dtype=float)).astype(complex)
    if rotate:
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        h = q @ h @ q.conj().T
        h = (h + h.conj().T) / 2.0
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    coupling = 0.03 * (a + a.conj().T) / 2.0 if hermitian else 0.03 * a
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
            self.columns[key] = verification.stacked_column(self.tm, eps, omega_prime, E)
        return self.columns[key]

    def _inner(self, eps, omega, omega_prime, E):
        sd = self.tm.spectral
        out = np.zeros((self.tm.dim, self.tm.dim), dtype=complex)
        col = self.column(eps, omega_prime, E)
        for w1, blk in zip(col.omega_prime + col.offsets, col.blocks):
            left = sd.d_block(omega - w1) if eps == 1 else sd.d_block(w1 - omega).conj().T
            out += left @ blk
        return out

    def r(self, eps1, eps2, omega, omega_prime, E):
        tm = self.tm
        gamma = GammaTable(tm.spec.bath).gamma
        if eps1 != eps2:
            return -1j * self._inner(eps2, omega, omega_prime, E)
        out = np.zeros((tm.dim, tm.dim), dtype=complex)
        for b2 in tm.bohr:
            b2 = float(b2)
            right = tm.spectral.d_block(-b2).conj().T if eps1 == 0 else tm.spectral.d_block(b2)
            w2 = omega_prime + b2
            out += gamma(1 - eps1, E + w2) * (self._inner(1 - eps1, omega, w2, E) @ right)
        return -out


def test_levels_are_grouped_as_intended():
    sizes = {name: len(_model(lv, 7, rot).spectral.levels) for name, (lv, rot) in MODELS.items()}
    assert sizes == {"degenerate_d3": 2, "near_degenerate_d3": 2,
                     "clustered_gaps_d3": 3, "generic_d4": 4}
    # the two gaps 0.4 and 0.4 + 5e-10 share one canonical representative
    assert len(_model([0.0, 0.4, 0.8 + 5e-10], 7).bohr) == 5


def _counted_tm(name, monkeypatch):
    """ladder d3 (three levels) or the exactly degenerate d3 spectrum (two),
    and the list that records the systems of every batched np.linalg.solve."""
    if name == "ladder_d3":
        tm = TMatrix(model_from_dict(ladder_model_doc(0, 3)))
    else:
        tm = _model(MODELS[name][0], seed=7)
    assert (tm.dim, len(tm.spectral.levels)) == ((3, 3) if name == "ladder_d3" else (3, 2))
    solve, systems = np.linalg.solve, []

    def counting(a, b):
        systems.append(math.prod(np.shape(a)[:-2]))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return tm, systems


@pytest.mark.parametrize("name", ["ladder_d3", "degenerate_d3"])
def test_thermal_pass_solves_one_system_per_node_and_level(name, monkeypatch):
    # per eps, one batched solve of one d x d system per support node and
    # target level: 2 N L systems in all, not 2 N L^2 (one per level pair)
    tm, systems = _counted_tm(name, monkeypatch)
    nodes = tm.thermal_pass().eps.size
    assert systems == [nodes * len(tm.spectral.levels)] * 2


@pytest.mark.parametrize("name", ["ladder_d3", "degenerate_d3"])
def test_every_caller_solves_one_system_per_node_omega_and_level(name, monkeypatch):
    # r_blocks at a nonzero omega': one system per node and level for each
    # eps; column_pass: one per node, omega' in B and level
    tm, systems = _counted_tm(name, monkeypatch)
    levels, E = len(tm.spectral.levels), np.linspace(0.1, 2.9, 5)
    tm.r_blocks(E, float(tm.bohr[-1]))
    assert systems == [E.size * levels] * 2
    systems.clear()
    verification.column_pass(tm, 1, E)
    assert systems == [E.size * tm.bohr.size * levels]


@pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_kernel_matches_bohr_pair_sum(name, hermitian):
    # every block T^eps_{w,w'}(E), w, w' in B, against the printed Bohr-pair
    # sum built from the D blocks and scalar gamma alone:
    #   eps = 0: sum gamma_0(E+w) gamma_1(E+w-mu1) D_mu1 D_mu2^+ over mu1 - mu2 = w - w'
    #   eps = 1: sum gamma_1(E+w) gamma_0(E+w+nu1) D_nu1^+ D_nu2 over nu2 - nu1 = w - w'
    # on the hard spectra, with their Hermitian coupling and with a general
    # one (where D~ and D~^+ differ)
    levels, rotate = MODELS[name]
    tm = _model(levels, seed=7, rotate=rotate, hermitian=hermitian)
    gamma = GammaTable(tm.spec.bath).gamma
    sd = tm.spectral
    B = [float(b) for b in tm.bohr]
    worst, scale = 0.0, 0.0
    for E in (0.37, 2.61):
        for eps in (0, 1):
            for w in B:
                terms = []
                for m1 in B:
                    inner = gamma(1 - eps, E + w - m1 if eps == 0 else E + w + m1)
                    for m2 in B:
                        if eps == 0:
                            terms.append((m1 - m2, inner * (sd.d_block(m1) @ sd.d_block(m2).conj().T)))
                        else:
                            terms.append((m2 - m1, inner * (sd.d_block(m1).conj().T @ sd.d_block(m2))))
                for wp in B:
                    want = np.zeros((tm.dim, tm.dim), dtype=complex)
                    for shift, term in terms:
                        if abs(shift - (w - wp)) <= sd.tolerance:
                            want += term
                    want *= gamma(eps, E + w)
                    worst = max(worst, float(np.abs(t_block(tm, eps, w, wp, E) - want).max()))
                    scale = max(scale, float(np.abs(want).max()))
    assert scale > 0
    assert worst <= 1e-13 * scale


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
        cols = verification.column_pass(tm, eps, [0.52])
        for omega_prime in (0.0, float(tm.bohr[0])):
            # one energy: column c of the pass is omega' = bohr[c]
            c = tm.spectral.bohr_index(omega_prime)
            ref = verification.stacked_column(tm, eps, omega_prime, 0.52)
            assert np.array_equal(tm.bohr, ref.offsets)
            for got, want in zip(cols.blocks[c], ref.blocks):
                assert np.linalg.norm(got - want) <= 1e-12
            assert cols.residual[c] < 1e-12


def test_drift_identity_on_hard_spectra(hard_tm):
    assert np.linalg.norm(drift(hard_tm) - drift_from_t_operator(hard_tm)) < 1e-10


def test_identity_suite_on_hard_spectra(hard_tm):
    report = run_identity_suite(hard_tm, "identities")
    assert [c["check"] for c in report["checks"] if not c["pass"]] == []
