import math

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from gravstark import ionization
from gravstark.constants import atomic_scale
from gravstark.errors import NoBarrierError
from gravstark.ionization import _barrier_exponent, _barrier_turning_points, compare_lifetimes
from gravstark.masses import derive_composites, model_with_asymmetry
from gravstark.separation import FieldSpec

try:
    import mpmath
except ImportError:  # a test-side reference only
    mpmath = None


@pytest.fixture(scope="module")
def electron_asymmetry(consts):
    """Configuration whose mass asymmetry equals one electron mass."""
    return derive_composites(model_with_asymmetry(consts.m_e_ref))


def field_for_atomic_force(comp, consts, force_atomic: float) -> FieldSpec:
    scale = atomic_scale(consts, comp.reduced_mass)
    return FieldSpec(magnitude=force_atomic * scale.force_atomic / abs(comp.mass_asymmetry))


def report_at(comp, consts, force_atomic: float):
    return compare_lifetimes(comp, field_for_atomic_force(comp, consts, force_atomic), consts)


def tau_prefactor(comp, field, consts) -> float:
    """|A| g hbar^2 / (4 m_e^3 c^5 alpha^5) in seconds, written out here."""
    m_e, c, alpha = consts.m_e_ref, consts.c, consts.alpha
    force = abs(comp.mass_asymmetry) * field.magnitude
    return force * consts.hbar**2 / (4.0 * m_e**3 * c**5 * alpha**5)


# --- closed form ---------------------------------------------------------------

def test_terrestrial_exponent(consts, electron_asymmetry):
    est = compare_lifetimes(electron_asymmetry, FieldSpec(magnitude=9.8), consts)
    # from-scratch evaluation with independently typed CODATA values
    m_e, c, alpha, hbar = 9.1093837015e-31, 299792458.0, 7.2973525693e-3, 1.0545718176461565e-34
    expected = m_e**2 * c**3 * alpha**3 / (m_e * 9.8 * hbar)
    assert est.closed_form_exponent == pytest.approx(expected, rel=1e-10)
    assert 9.0e21 < est.closed_form_exponent < 9.5e21


def test_lifetime_identity(consts, electron_asymmetry):
    # force small enough that tau = prefactor * exp(exponent) is representable
    field = field_for_atomic_force(electron_asymmetry, consts, 2.0e-3)
    est = compare_lifetimes(electron_asymmetry, field, consts)
    assert est.closed_form_exponent < 700.0
    assert 10.0**est.log10_tau_closed_form == pytest.approx(
        tau_prefactor(electron_asymmetry, field, consts) * math.exp(est.closed_form_exponent),
        rel=1e-12,
    )


def test_overflow_reported_in_log_space(consts, electron_asymmetry):
    field = FieldSpec(magnitude=9.8)
    est = compare_lifetimes(electron_asymmetry, field, consts)
    assert est.closed_form_exponent > 710.0  # exp(exponent) overflows a float
    assert math.isfinite(est.log10_tau_closed_form)
    prefactor = tau_prefactor(electron_asymmetry, field, consts)
    assert est.log10_tau_closed_form == pytest.approx(
        math.log10(prefactor) + est.closed_form_exponent / math.log(10.0), rel=1e-12
    )


def test_huge_exponent_no_overflow(consts, electron_asymmetry):
    # exponent near 1e30 (up to the electron/reduced mass unit factor):
    # only log-space quantities grow
    est = report_at(electron_asymmetry, consts, 1e-30)
    assert est.closed_form_exponent == pytest.approx(1e30, rel=2e-3)
    assert math.isfinite(est.log10_tau_closed_form)


def test_doubling_force_halves_exponent(consts, electron_asymmetry):
    one = compare_lifetimes(electron_asymmetry, FieldSpec(magnitude=9.8), consts)
    two = compare_lifetimes(electron_asymmetry, FieldSpec(magnitude=19.6), consts)
    assert two.closed_form_exponent == pytest.approx(one.closed_form_exponent / 2.0, rel=1e-12)


def test_zero_field_signals_stability(consts, electron_asymmetry):
    report = compare_lifetimes(electron_asymmetry, FieldSpec(magnitude=0.0), consts)
    assert report.stable is True
    assert report.closed_form_exponent is None


def test_lifetime_monotone_decreasing_in_force(consts, electron_asymmetry):
    log_taus = [
        report_at(electron_asymmetry, consts, f).log10_tau_closed_form
        for f in (1e-6, 1e-5, 1e-4, 1e-3)
    ]
    assert all(a > b for a, b in zip(log_taus, log_taus[1:]))


# --- WKB -------------------------------------------------------------------------

def test_turning_points_match_quadratic_roots(consts, electron_asymmetry):
    # independent closed form: the turning points solve F x^2 - x/2 + 1 = 0
    for force in (1e-5, 1e-4, 1e-3):
        inner, outer = _barrier_turning_points(force)
        disc = math.sqrt(1.0 - 16.0 * force)
        assert inner == pytest.approx((1.0 - disc) / (4.0 * force), rel=1e-10)
        assert outer == pytest.approx((1.0 + disc) / (4.0 * force), rel=1e-10)


def test_exponent_against_raw_quadrature(consts, electron_asymmetry):
    # second, independent quadrature route: integrate the raw integrand
    force = 1e-4
    exponent = report_at(electron_asymmetry, consts, force).wkb_exponent
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


def _mpmath_exponent(force: float):
    """(4/3) sqrt(2 F b) [(a+b) E(m) - 2a K(m)], m = 1 - a/b, at 40 digits.

    The turning points a < b are the roots of F x^2 - x/2 + 1 = 0, solved
    here at 40 digits too, so the reference owes nothing to the package; a is
    written as 2 / (1/2 + root), free of the cancellation in 1/2 - root.
    K(m) comes from mpmath's AGM and E(m) from Legendre's relation with
    mpmath's K and E at the complementary parameter a/b: ``ellipk(m)``
    itself would round m = 1 - 1e-150 to 1.
    """
    mp = mpmath.mp
    with mp.workdps(40):
        f = mp.mpf(force)
        root = mp.sqrt(mp.mpf(1) / 4 - 4 * f)
        a, b = 2 / (mp.mpf(1) / 2 + root), (mp.mpf(1) / 2 + root) / (2 * f)
        p = a / b
        k = mp.pi / (2 * mp.agm(1, mp.sqrt(p)))
        k_comp, e_comp = mp.ellipk(p), mp.ellipe(p)
        e = (mp.pi / 2 + k * (k_comp - e_comp)) / k_comp
        return mp.mpf(4) / 3 * mp.sqrt(2 * f * b) * ((a + b) * e - 2 * a * k)


@pytest.mark.skipif(mpmath is None, reason="mpmath is the 40-digit reference")
@settings(max_examples=200)
@given(log10_force=st.floats(min_value=-300.0, max_value=-2.0))
def test_closed_form_exponent_matches_40_digits(log10_force):
    # End to end: the package's turning points and elliptic integrals
    # against a reference that solves the quadratic itself.
    force = 10.0**log10_force
    assert abs(_barrier_exponent(force) / _mpmath_exponent(force) - 1) <= 1e-15


@pytest.mark.skipif(mpmath is None, reason="mpmath is the 40-digit reference")
@settings(max_examples=200)
@given(force=st.floats(min_value=0.01, max_value=0.0625, exclude_max=True))
@example(force=0.06)
@example(force=0.06249)
@example(force=0.0625 * (1 - 1e-9))
@example(force=0.0625 * (1 - 1e-12))
@example(force=math.nextafter(1 / 16, 0))
def test_strong_force_exponent_matches_40_digits(force):
    # Both forms of the barrier integral and the switch at m = 0.9 (F = 0.0207).
    # As F -> 1/16 the turning points merge and (a+b) E(m) - 2a K(m) cancels
    # completely: at the last float below 1/16 the exponent is 9.87e-16.
    assert abs(_barrier_exponent(force) / _mpmath_exponent(force) - 1) <= 1e-15


def test_exponent_next_to_merge_is_reported(consts, electron_asymmetry):
    # The last force below 1/16 still has a barrier and a representable
    # exponent, which compare_lifetimes reports rather than raising.
    force = math.nextafter(1 / 16, 0)
    report = report_at(electron_asymmetry, consts, force)
    assert report.internal_force_atomic == force
    assert report.wkb_exponent == pytest.approx(9.865e-16, rel=1e-3)
    assert not report.within_order_unity


@settings(max_examples=50)
@given(log10_force=st.floats(min_value=-12.0, max_value=-2.0))
def test_closed_form_exponent_matches_quadrature(log10_force):
    # x = a + (b - a) sin^2(theta) removes both endpoint square roots.
    force = 10.0**log10_force
    inner, outer = _barrier_turning_points(force)
    width = outer - inner

    def integrand(theta):
        s, c = math.sin(theta), math.cos(theta)
        return 4.0 * width**2 * math.sqrt(2.0 * force / (inner + width * s * s)) * (s * c) ** 2

    value, _ = quad(integrand, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1e-11, limit=200)
    assert _barrier_exponent(force) == pytest.approx(value, rel=1e-8)


def test_agm_stops_where_a_tight_test_would_spin(monkeypatch):
    # At this force rounding holds |x - y| above 1e-16 x for ever; the stop
    # test must still end each mean within a dozen halvings.
    force = 3.1922691908680104e-14
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def sqrt(self, x):
            calls.append(x)
            assert len(calls) < 100, "AGM did not converge"
            return math.sqrt(x)

    inner, outer = _barrier_turning_points(force)
    monkeypatch.setattr(ionization, "math", CountingMath())
    k, e = ionization._complete_elliptic(inner / outer)
    # two starting roots, then one per halving of each mean
    assert len(calls) <= 2 + 2 * 12
    assert math.isfinite(k) and math.isfinite(e)


def test_exponent_scale_matches_inverse_force(consts, electron_asymmetry):
    # within a factor two of 1/F, approaching 2/(3F) asymptotically
    force = 1e-4
    exponent = report_at(electron_asymmetry, consts, force).wkb_exponent
    assert 0.5 / force < exponent < 2.0 / force
    assert exponent == pytest.approx(2.0 / (3.0 * force), rel=0.01)


def test_doubling_force_roughly_halves_exponent(consts, electron_asymmetry):
    for force in (1e-5, 1e-4):
        e1 = report_at(electron_asymmetry, consts, force).wkb_exponent
        e2 = report_at(electron_asymmetry, consts, 2.0 * force).wkb_exponent
        assert abs(2.0 * e2 / e1 - 1.0) < 0.1


def test_exponent_inverse_force_spread(consts, electron_asymmetry):
    products = [
        report_at(electron_asymmetry, consts, f).wkb_exponent * f for f in (1e-6, 1e-5, 1e-4)
    ]
    assert (max(products) - min(products)) / min(products) < 0.10


def test_merged_turning_points_rejected(consts, electron_asymmetry):
    # barrier disappears once F reaches 1/16 at the ground energy
    with pytest.raises(NoBarrierError):
        report_at(electron_asymmetry, consts, 0.07)


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
    assert report.stable is True
    assert report.closed_form_exponent is None
    assert report.wkb_exponent is None


def test_weak_force_lifetimes_exceed_bound(consts, electron_asymmetry):
    field = field_for_atomic_force(electron_asymmetry, consts, 1e-6)
    report = compare_lifetimes(electron_asymmetry, field, consts)
    assert report.log10_tau_closed_form > 1e5
    assert report.log10_tau_wkb > 1e5


def test_terrestrial_wkb_exponent_pin(consts, electron_asymmetry):
    # The lifetime.json configuration, whose rate exp(-exponent) underflows:
    # only log10 of the lifetime is reported.  The exponent is the one
    # 50-digit arithmetic gives, 6.1458319054664171e21, rounded.
    report = compare_lifetimes(electron_asymmetry, FieldSpec(magnitude=9.8), consts)
    assert report.wkb_exponent == 6.145831905466417e21
    assert math.isfinite(report.log10_tau_wkb)
