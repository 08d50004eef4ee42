import math

import numpy as np
import pytest
from scipy.integrate import quad

from ldlgen import NumericError, ValidationError, k_inner_product, mu_inv, validate_bath
from ldlgen.bath import BathSpec, DensityProfile, EnergyGrid, GammaTable


def _bath(rho0, rho1, grid=None):
    return BathSpec(rho0, rho1, grid or EnergyGrid(-1.5, 4.5, 481))


def _table(rho0, rho1=None):
    return GammaTable(_bath(rho0, rho1 or DensityProfile.bump(2, 3, 1)))


def test_gamma_zero_density():
    gt = _table(DensityProfile.rect(0, 1, 0.0))
    for e in (-2.0, 0.5, 3.7):
        assert gt.gamma(0, e) == 0.0


def test_gamma_rect_interior_closed_form():
    # PV log term vanishes by symmetry at the midpoint
    gt = _table(DensityProfile.rect(0, 1, 1.0))
    assert abs(gt.gamma(0, 0.5) - math.pi) < 1e-12


def test_gamma_rect_exterior_closed_form():
    gt = _table(DensityProfile.rect(0, 1, 1.0))
    assert abs(gt.gamma(0, 2.0) - 1j * math.log(2.0)) < 1e-9


def test_gamma_rect_edge_is_error():
    gt = _table(DensityProfile.rect(0, 1, 1.0))
    with pytest.raises(NumericError, match="edge"):
        gt.gamma(0, 1.0)


def test_gamma_real_part_is_pi_rho():
    prof = DensityProfile.bump(0, 1, 1.0)
    gt = _table(prof)
    for e in (0.1, 0.35, 0.8):
        assert gt.gamma(0, e).real == math.pi * prof(e)


def test_gamma_continuous_across_bump_edge():
    gt = _table(DensityProfile.bump(0, 1, 1.0))
    h = 1e-6
    for edge in (0.0, 1.0):
        jump = abs(gt.gamma(0, edge + h) - gt.gamma(0, edge - h))
        assert jump < 1e-4


def test_gamma_table_profile():
    energies = np.linspace(0, 1, 9)
    values = np.sin(np.pi * energies) ** 2
    values[0] = values[-1] = 0.0
    prof = DensityProfile.table(energies, values)
    gt = _table(prof)
    g = gt.gamma(0, 0.47)
    assert g.real == math.pi * prof(0.47)
    assert math.isfinite(g.imag)
    # continuity across the (vanishing) table edges
    h = 1e-6
    for edge in (0.0, 1.0):
        assert abs(gt.gamma(0, edge + h) - gt.gamma(0, edge - h)) < 1e-4


def _gamma_damped(prof, e, eta):
    """Oracle: integral of rho(E') / (eta + i(E'-E)) dE' by adaptive quadrature."""
    pts = [e] if prof.a < e < prof.b else None
    re, _ = quad(lambda x: prof(x) * eta / (eta ** 2 + (x - e) ** 2),
                 prof.a, prof.b, points=pts, limit=400, epsabs=1e-12)
    im, _ = quad(lambda x: prof(x) * (e - x) / (eta ** 2 + (x - e) ** 2),
                 prof.a, prof.b, points=pts, limit=400, epsabs=1e-12)
    return complex(re, im)


def test_gamma_matches_damped_half_line_integral():
    # The Lorentzian smearing bias is O(eta * rho') on support, so the
    # 1e-4 agreement at eta = 1e-3 holds at points a support-width or more
    # away from the density; closer in, the eta -> 0 limit is checked by
    # extrapolation below.
    prof = DensityProfile.bump(0, 1, 1.0)
    gt = _table(prof)
    for e in (-1.0, 2.0, 2.5):
        assert abs(_gamma_damped(prof, e, 1e-3) - gt.gamma(0, e)) < 1e-4


def test_gamma_damped_extrapolates_on_support():
    prof = DensityProfile.bump(0, 1, 1.0)
    gt = _table(prof)
    etas = [4e-3, 2e-3, 1e-3]
    for e in (0.3, 0.75):
        vals = [_gamma_damped(prof, e, eta) for eta in etas]
        # eliminate the O(eta) and O(eta^2) bias terms
        extrap = (8.0 * vals[2] - 6.0 * vals[1] + vals[0]) / 3.0
        assert abs(extrap - gt.gamma(0, e)) < 1e-6


def test_gamma_array_call_equals_scalar_calls():
    e = np.linspace(0, 1, 9)
    v = np.sin(np.pi * e) ** 2
    v[0] = v[-1] = 0.0
    energies = np.array([-0.7, 0.0, 0.125, 0.3, 0.3 + 1e-14, 0.61, 1.0, 2.4])
    for prof in (DensityProfile.bump(0, 1, 1.0), DensityProfile.table(e, v),
                 DensityProfile.rect(0.05, 0.95, 1.0)):
        gt = _table(prof)
        values = gt.gamma(0, energies)
        assert values.shape == energies.shape and values.dtype == complex
        assert np.array_equal(values, [gt.gamma(0, float(x)) for x in energies])
        grid = energies.reshape(2, 4)
        assert np.array_equal(gt.gamma(0, grid), values.reshape(2, 4))


# -- closed form against the quadrature oracle ---------------------------------


def _piece(prof, E):
    """The polynomial piece of rho nearest E, evaluated at E (rho(E) on the
    support, the extension of the edge piece outside it)."""
    if prof.kind == "rect":
        return prof.height
    if prof.kind == "bump":
        return prof.amplitude * (E - prof.a) * (prof.b - E)
    t, v = np.asarray(prof.energies), np.asarray(prof.values)
    k = int(np.clip(np.searchsorted(t, E) - 1, 0, t.size - 2))
    return float(v[k] + (v[k + 1] - v[k]) / (t[k + 1] - t[k]) * (E - t[k]))


def _quad_pv(prof, E):
    """PV integral of rho(x) / (E - x) dx by singularity subtraction.

    Subtracts c = the nearest polynomial piece at E, so the integrand
    (rho(x) - c) / (E - x) stays bounded even just outside an edge, and
    adds the analytic c * log|(E-a)/(E-b)|."""
    a, b = prof.support
    c = prof(E) if a <= E <= b else _piece(prof, E)

    def subtracted(x):
        return 0.0 if x == E else (prof(x) - c) / (E - x)

    pts = sorted({p for p in prof.breakpoints() + [E] if a < p < b}) or None
    val, _ = quad(subtracted, a, b, points=pts, limit=400, epsabs=1e-15, epsrel=1e-14)
    if c:
        val += c * math.log(abs((E - a) / (E - b)))
    return val


def _oracle_profiles():
    e = np.linspace(0, 1, 9)
    v = np.sin(np.pi * e) ** 2
    v[0] = v[-1] = 0.0
    return {"rect": DensityProfile.rect(0, 1, 1.3), "bump": DensityProfile.bump(2, 3, 1.7),
            "table": DensityProfile.table(e, v)}


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("kind", ["rect", "bump", "table"])
def test_gamma_closed_form_matches_quadrature(kind):
    prof = _oracle_profiles()[kind]
    a, b = prof.support
    knots = [a, b] + prof.breakpoints()
    points = [a - 3.0, a - 0.5, 0.5 * (a + b) + 0.0123, b + 0.7, b + 5.0]
    points += [t + s for t in knots for s in (-1e-9, 1e-9)]
    if kind != "rect":
        points += knots                      # finite exactly at the knots
    gt = _table(prof) if kind != "bump" else GammaTable(_bath(DensityProfile.bump(0, 1, 1), prof))
    eps = 0 if kind != "bump" else 1
    for E in points:
        g = gt.gamma(eps, E)
        assert math.isfinite(g.imag)
        assert g.real == math.pi * prof(E)
        assert abs(g.imag - _quad_pv(prof, E)) <= 1e-12, (kind, E)


def test_gamma_rect_edges_raise_for_arrays():
    gt = _table(DensityProfile.rect(0, 1, 1.0))
    for edge in (0.0, 1.0):
        with pytest.raises(NumericError, match="edge"):
            gt.gamma(0, np.array([0.5, edge]))


def test_mu_inv_zero_density():
    bath = _bath(DensityProfile.bump(0, 1, 1.0), DensityProfile.bump(2, 3, 1.0))
    assert mu_inv(bath, 0, 1.7, beta=0.5) == 0.0


def test_mu_inv_beta_zero_collapses():
    bath = _bath(DensityProfile.bump(0, 1, 1.0), DensityProfile.bump(2, 3, 1.0))
    assert mu_inv(bath, 0, 0.5, beta=0.0) == bath.rho0(0.5)


def test_mu_inv_bump_value():
    bath = _bath(DensityProfile.bump(0, 1, 1.0), DensityProfile.bump(2, 3, 1.0))
    expect = 0.25 * math.exp(-0.25)
    assert abs(mu_inv(bath, 0, 0.5, beta=0.5) - expect) < 1e-14
    assert abs(expect - 0.194700) < 5e-7


def test_k_inner_product_rect():
    bath = _bath(DensityProfile.rect(0, 1, 1.0), DensityProfile.rect(2, 3, 1.0))
    val = k_inner_product(bath, (0, 0), (0, 0), omega=0.0, beta=0.0)
    assert abs(val - 2 * math.pi) < 1e-10


def test_k_inner_product_disjoint_factors():
    bath = _bath(DensityProfile.rect(0, 1, 1.0), DensityProfile.rect(2, 3, 1.0))
    assert k_inner_product(bath, (0, 0), (1, 1), omega=0.7, beta=0.5) == 0.0


def test_k_inner_product_shifted_supports_vanish():
    bath = _bath(DensityProfile.rect(0, 1, 1.0), DensityProfile.rect(2, 3, 1.0))
    assert abs(k_inner_product(bath, (0, 0), (0, 0), omega=5.0, beta=0.5)) == 0.0


def test_k_inner_product_gram_positive():
    bath = _bath(DensityProfile.bump(0, 1, 1.0), DensityProfile.bump(2, 3, 1.0))
    family = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for omega in (-1.0, 0.0, 0.5, 1.0):
        gram = np.array([[k_inner_product(bath, x, y, omega, beta=0.5)
                          for y in family] for x in family])
        assert np.linalg.norm(gram - gram.conj().T) < 1e-12
        norm = np.linalg.norm(gram, 2)
        if norm > 0:
            assert np.linalg.eigvalsh(gram).min() >= -1e-10 * norm


def test_validate_bath_pass():
    bath = _bath(DensityProfile.rect(0, 1, 1.0), DensityProfile.rect(2, 3, 1.0))
    report = validate_bath(bath, beta=0.5)
    assert report["support_gap"] == 1.0
    assert report["disjoint_supports"]


def test_validate_bath_overlap_fails():
    bath = _bath(DensityProfile.rect(0, 1.5, 1.0), DensityProfile.rect(1, 3, 1.0))
    with pytest.raises(ValidationError, match="disjoint"):
        validate_bath(bath, beta=0.5)


def test_validate_bath_negative_table_fails():
    with pytest.raises(ValidationError, match=">= 0"):
        DensityProfile.table([0.0, 0.5, 1.0], [0.0, -0.2, 0.0])


def test_validate_bath_grid_must_cover():
    bath = _bath(DensityProfile.rect(0, 1, 1.0), DensityProfile.rect(2, 3, 1.0),
                 grid=EnergyGrid(0.5, 4.5, 481))
    with pytest.raises(ValidationError, match="grid"):
        validate_bath(bath, beta=0.5)


def test_energy_grid_invariants():
    with pytest.raises(ValidationError):
        EnergyGrid(0.0, 1.0, 8)
    grid = EnergyGrid(0.0, 1.0, 101)
    assert abs(grid.weights.sum() - 1.0) < 1e-14
