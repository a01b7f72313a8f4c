import math

import pytest
from scipy.integrate import quad

from gravstark.constants import atomic_scale
from gravstark.errors import NoBarrierError, StableAtomSignal
from gravstark.ionization import (
    closed_form_lifetime,
    compare_lifetimes,
    wkb_rate,
)
from gravstark.masses import derive_composites, model_with_asymmetry
from gravstark.separation import FieldSpec


@pytest.fixture(scope="module")
def electron_asymmetry(consts):
    """Configuration whose mass asymmetry equals one electron mass."""
    return derive_composites(model_with_asymmetry(consts.m_e_ref))


def field_for_atomic_force(comp, consts, force_atomic: float) -> FieldSpec:
    scale = atomic_scale(consts, comp.reduced_mass)
    return FieldSpec(magnitude=force_atomic * scale.force_atomic / abs(comp.mass_asymmetry))


# --- closed form ---------------------------------------------------------------

def test_terrestrial_exponent(consts, electron_asymmetry):
    est = closed_form_lifetime(electron_asymmetry, FieldSpec(magnitude=9.8), consts)
    # from-scratch evaluation with independently typed CODATA values
    m_e, c, alpha, hbar = 9.1093837015e-31, 299792458.0, 7.2973525693e-3, 1.0545718176461565e-34
    expected = m_e**2 * c**3 * alpha**3 / (m_e * 9.8 * hbar)
    assert est.closed_form_exponent == pytest.approx(expected, rel=1e-10)
    assert 9.0e21 < est.closed_form_exponent < 9.5e21


def test_lifetime_identity(consts, electron_asymmetry):
    # force small enough that tau is representable
    field = field_for_atomic_force(electron_asymmetry, consts, 2.0e-3)
    est = closed_form_lifetime(electron_asymmetry, field, consts)
    assert est.closed_form_exponent < 700.0
    assert est.tau_closed_form == pytest.approx(
        est.tau_prefactor * math.exp(est.closed_form_exponent), rel=1e-12
    )


def test_overflow_reported_in_log_space(consts, electron_asymmetry):
    est = closed_form_lifetime(electron_asymmetry, FieldSpec(magnitude=9.8), consts)
    assert math.isinf(est.tau_closed_form)
    assert math.isfinite(est.log10_tau_closed_form)
    assert est.log10_tau_closed_form == pytest.approx(
        math.log10(est.tau_prefactor) + est.closed_form_exponent / math.log(10.0), rel=1e-12
    )


def test_huge_exponent_no_overflow(consts, electron_asymmetry):
    # exponent near 1e30 (up to the electron/reduced mass unit factor):
    # only log-space quantities grow
    field = field_for_atomic_force(electron_asymmetry, consts, 1e-30)
    est = closed_form_lifetime(electron_asymmetry, field, consts)
    assert est.closed_form_exponent == pytest.approx(1e30, rel=2e-3)
    assert math.isfinite(est.log10_tau_closed_form)


def test_doubling_force_halves_exponent(consts, electron_asymmetry):
    one = closed_form_lifetime(electron_asymmetry, FieldSpec(magnitude=9.8), consts)
    two = closed_form_lifetime(electron_asymmetry, FieldSpec(magnitude=19.6), consts)
    assert two.closed_form_exponent == pytest.approx(one.closed_form_exponent / 2.0, rel=1e-12)


def test_zero_asymmetry_signals_stability(consts, equal_masses):
    comp = derive_composites(equal_masses)
    with pytest.raises(StableAtomSignal):
        closed_form_lifetime(comp, FieldSpec(magnitude=9.8), consts)


def test_zero_field_signals_stability(consts, electron_asymmetry):
    with pytest.raises(StableAtomSignal):
        closed_form_lifetime(electron_asymmetry, FieldSpec(magnitude=0.0), consts)


def test_lifetime_monotone_decreasing_in_force(consts, electron_asymmetry):
    log_taus = [
        closed_form_lifetime(
            electron_asymmetry, field_for_atomic_force(electron_asymmetry, consts, f), consts
        ).log10_tau_closed_form
        for f in (1e-6, 1e-5, 1e-4, 1e-3)
    ]
    assert all(a > b for a, b in zip(log_taus, log_taus[1:]))


# --- WKB -------------------------------------------------------------------------

def test_turning_points_match_quadratic_roots(consts, electron_asymmetry):
    # independent closed form: the turning points solve F x^2 - x/2 + 1 = 0
    from gravstark.ionization import _barrier_turning_points

    for force in (1e-5, 1e-4, 1e-3):
        inner, outer = _barrier_turning_points(force)
        disc = math.sqrt(1.0 - 16.0 * force)
        assert inner == pytest.approx((1.0 - disc) / (4.0 * force), rel=1e-10)
        assert outer == pytest.approx((1.0 + disc) / (4.0 * force), rel=1e-10)


def test_exponent_against_raw_quadrature(consts, electron_asymmetry):
    # second, independent quadrature route: integrate the raw integrand
    force = 1e-4
    _, exponent = wkb_rate(
        electron_asymmetry, field_for_atomic_force(electron_asymmetry, consts, force), consts
    )
    disc = math.sqrt(1.0 - 16.0 * force)
    x1 = (1.0 - disc) / (4.0 * force)
    x2 = (1.0 + disc) / (4.0 * force)
    raw, _ = quad(
        lambda x: 2.0 * math.sqrt(max(2.0 * (0.5 - 1.0 / x - force * x), 0.0)),
        x1,
        x2,
        limit=400,
    )
    assert exponent == pytest.approx(raw, rel=1e-7)


def test_exponent_scale_matches_inverse_force(consts, electron_asymmetry):
    # within a factor two of 1/F, approaching 2/(3F) asymptotically
    force = 1e-4
    _, exponent = wkb_rate(
        electron_asymmetry, field_for_atomic_force(electron_asymmetry, consts, force), consts
    )
    assert 0.5 / force < exponent < 2.0 / force
    assert exponent == pytest.approx(2.0 / (3.0 * force), rel=0.01)


def test_doubling_force_roughly_halves_exponent(consts, electron_asymmetry):
    for force in (1e-5, 1e-4):
        _, e1 = wkb_rate(
            electron_asymmetry, field_for_atomic_force(electron_asymmetry, consts, force), consts
        )
        _, e2 = wkb_rate(
            electron_asymmetry,
            field_for_atomic_force(electron_asymmetry, consts, 2.0 * force),
            consts,
        )
        assert abs(2.0 * e2 / e1 - 1.0) < 0.1


def test_exponent_inverse_force_spread(consts, electron_asymmetry):
    products = [
        wkb_rate(
            electron_asymmetry, field_for_atomic_force(electron_asymmetry, consts, f), consts
        )[1]
        * f
        for f in (1e-6, 1e-5, 1e-4)
    ]
    assert (max(products) - min(products)) / min(products) < 0.10


def test_merged_turning_points_rejected(consts, electron_asymmetry):
    # barrier disappears once F reaches 1/16 at the ground energy
    with pytest.raises(NoBarrierError):
        wkb_rate(
            electron_asymmetry, field_for_atomic_force(electron_asymmetry, consts, 0.07), consts
        )


# --- comparison -------------------------------------------------------------------

def test_terrestrial_comparison(consts, electron_asymmetry):
    report = compare_lifetimes(electron_asymmetry, FieldSpec(magnitude=9.8), consts)
    assert not report.stable
    assert 1e21 < report.closed_form_exponent < 1e22
    assert 1e21 < report.wkb_exponent < 1e22
    assert math.isfinite(report.exponent_ratio)
    assert report.within_order_unity


def test_stable_comparison(consts, equal_masses):
    comp = derive_composites(equal_masses)
    report = compare_lifetimes(comp, FieldSpec(magnitude=9.8), consts)
    assert report.stable
    assert report.closed_form_exponent is None
    assert report.wkb_exponent is None


def test_weak_force_lifetimes_exceed_bound(consts, electron_asymmetry):
    field = field_for_atomic_force(electron_asymmetry, consts, 1e-6)
    report = compare_lifetimes(electron_asymmetry, field, consts)
    assert report.log10_tau_closed_form > 1e5
    assert report.log10_tau_wkb > 1e5


def test_wkb_rate_underflows_to_zero(consts, electron_asymmetry):
    # The lifetime.json configuration: only the exponent survives exp's range.
    assert wkb_rate(electron_asymmetry, FieldSpec(magnitude=9.8), consts) == (
        0.0,
        6.145831905463709e21,
    )
