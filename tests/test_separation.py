"""The CM/internal separation, proved in exact rationals for each drawn
configuration, and the package's coefficients pinned to those exact values.

Only the standard library, pytest and hypothesis are used: this file runs
where numpy is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gravstark.errors import UndefinedRatioError
from gravstark.masses import MassModel, derive_composites
from gravstark.separation import FieldSpec, frame_discrepancy, separate_gravitational

# Each rounding of a normal float is within U of its exact value, relative.
# k roundings therefore stay within k ulps of the exact result to first order
# in U, and SECOND_ORDER covers the higher orders for every k used here.
U = Fraction(1, 2**53)
SECOND_ORDER = 1 + 16 * U


def _ulp(x: Fraction) -> Fraction:
    """Spacing of the doubles at the exact value ``x`` (normal range)."""
    x = abs(x)
    exponent = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** exponent > x:
        exponent -= 1
    return Fraction(2) ** (exponent - 52)


def _ulps(value: float, exact: Fraction, scale: Fraction | None = None) -> Fraction:
    """|value - exact| in ulps of ``scale`` (default: of ``exact``)."""
    error = abs(Fraction(value) - exact)
    if error == 0:
        return error
    return error / _ulp(exact if scale is None else scale)


def _times(a: dict, b: dict) -> dict:
    """Product of two linear forms {variable: coefficient}, as {(u, v): coefficient}."""
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            key = tuple(sorted((u, v)))
            out[key] = out.get(key, 0) + cu * cv
    return out


def _combine(*terms) -> dict:
    """Sum of (weight, form) pairs, keeping every key that any form has."""
    out: dict = {}
    for weight, form in terms:
        for key, coefficient in form.items():
            out[key] = out.get(key, 0) + weight * coefficient
    return out


class _Exact:
    """One configuration in exact rationals: the two-body kinetic and field
    terms rewritten in the CM and relative coordinates, and the closed forms
    that ``separate_gravitational`` rounds."""

    def __init__(self, m_e, m_p, mbar_e, mbar_p, g):
        m_e, m_p, mbar_e, mbar_p, g = map(Fraction, (m_e, m_p, mbar_e, mbar_p, g))
        self.M = m_e + m_p
        self.mu = m_e * m_p / self.M
        self.products = (mbar_p * m_e, mbar_e * m_p)
        self.mbar_g = (mbar_e + mbar_p) * g
        self.asymmetry_g = (self.products[0] - self.products[1]) / self.M * g
        # The larger product's share of the field term, and the rounding
        # budget of A g in ulps of it: each product rounds once, within U of
        # itself, and the difference, M, the quotient and the product with g
        # round once each, within U of a value no larger than the difference.
        larger = max(map(abs, self.products))
        self.larger_g = larger / self.M * g
        self.asymmetry_budget = (
            sum(map(abs, self.products)) + 4 * abs(self.products[0] - self.products[1])
        ) / larger if larger else Fraction(0)

        # p_e and p_p in terms of (P, p); x and y in terms of (R, r).
        self.p_e = {"P": m_e / self.M, "p": Fraction(1)}
        self.p_p = {"P": m_p / self.M, "p": Fraction(-1)}
        self.x = {"R": Fraction(1), "r": m_p / self.M}
        self.y = {"R": Fraction(1), "r": -m_e / self.M}
        self.kinetic = _combine(
            (1 / (2 * m_e), _times(self.p_e, self.p_e)),
            (1 / (2 * m_p), _times(self.p_p, self.p_p)),
        )
        self.field = _combine((mbar_e * g, self.x), (mbar_p * g, self.y))
        self.masses = (m_e, m_p)


def _decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _configurations(draw):
    """(m_e, m_p, mbar_e, mbar_p, g): inertial masses over 120 decades each;
    gravitational masses zero, negative, cancelling in Mbar, equal to the
    inertial ones, nearly cancelling in A, or near 1e308 with a sum that
    overflows a float; g zero or over 120 decades."""
    m_e, m_p = draw(_decades(-60.0, 60.0)), draw(_decades(-60.0, 60.0))
    signed = st.tuples(st.sampled_from([1.0, -1.0]), _decades(-60.0, 60.0)).map(
        lambda pair: pair[0] * pair[1]
    )
    ratio = st.floats(-3.0, 3.0).filter(lambda r: r == 0.0 or abs(r) >= 1e-6)
    mbar_e = draw(st.one_of(st.just(0.0), signed, ratio.map(lambda r: r * m_e)))
    kind = draw(
        st.sampled_from(["free", "zero", "cancel-mbar", "equivalent", "cancel-a", "huge-mbar"])
    )
    if kind == "huge-mbar":
        # mbar_e + mbar_p overflows, while Mbar g, A g and M / Mbar (M >= 10) are normal.
        sign = draw(st.sampled_from([1.0, -1.0]))
        mbar_e, mbar_p = (sign * draw(_decades(307.96, 308.25)) for _ in "ep")
        return draw(_decades(1.0, 300.0)), m_p, mbar_e, mbar_p, draw(_decades(-60.0, -1.0))
    if kind == "free":
        mbar_p = draw(signed)
    elif kind == "zero":
        mbar_p = 0.0
    elif kind == "cancel-mbar":
        mbar_p = -mbar_e * (1.0 + draw(st.floats(-1e-12, 1e-12)))
    elif kind == "equivalent":
        mbar_e, mbar_p = m_e, m_p
    else:
        # mbar_p m_e and mbar_e m_p agree to within a few ulps, or exactly.
        mbar_p = mbar_e * m_p / m_e * (1.0 + draw(st.sampled_from([0.0, 2.0**-52, -(2.0**-50)])))
    g = draw(st.one_of(st.just(0.0), _decades(-60.0, 60.0)))
    return m_e, m_p, mbar_e, mbar_p, g


# A mass ratio whose three roundings (M, Mbar, the quotient) all err upward:
# 2.4995 ulps, so no two-ulp bound holds for M / Mbar.
_RATIO_BEYOND_TWO_ULPS = (1.0, 0.00012664844515997142, 1.0, 0.0001266484473522178, 1.0)
# Mbar = 2e308 overflows a float; the exact Mbar g is 2e298 and M / Mbar is 5e-9.
_CODATA_INERTIAL = (9.1093837015e-31, 1.67262192369e-27)
_HUGE_MBAR_COUPLING = (*_CODATA_INERTIAL, 1e308, 1e308, 1e-10)
_HUGE_MBAR_RATIO = (1e300, _CODATA_INERTIAL[1], 1e308, 1e308, 1.0)


@given(config=_configurations())
@example(config=(9.1093837015e-31, 1.67262192369e-27, 9.1093837015e-31, 1.67262192369e-27, 9.8))
@example(config=_RATIO_BEYOND_TWO_ULPS)
def test_separation_identity_is_exact(config):
    exact = _Exact(*config)
    M, mu = exact.M, exact.mu

    # The coordinates invert: R = (m_e x + m_p y) / M and r = x - y.
    m_e, m_p = exact.masses
    assert _combine((m_e / M, exact.x), (m_p / M, exact.y)) == {"R": 1, "r": 0}
    assert _combine((1, exact.x), (-1, exact.y)) == {"R": 0, "r": 1}
    # and the momenta are their conjugates: p_e x + p_p y = P R + p r.
    assert _combine((1, _times(exact.p_e, exact.x)), (1, _times(exact.p_p, exact.y))) == {
        ("P", "R"): 1, ("P", "r"): 0, ("R", "p"): 0, ("p", "r"): 1,
    }

    assert exact.kinetic == {("P", "P"): 1 / (2 * M), ("P", "p"): 0, ("p", "p"): 1 / (2 * mu)}
    assert exact.field == {"R": exact.mbar_g, "r": -exact.asymmetry_g}


@given(config=_configurations())
@example(config=_RATIO_BEYOND_TWO_ULPS)
@example(config=_HUGE_MBAR_COUPLING)
def test_separate_gravitational_is_within_its_roundings(config):
    m_e, m_p, mbar_e, mbar_p, g = config
    exact = _Exact(*config)
    ham = separate_gravitational(MassModel(m_e, m_p, mbar_e, mbar_p), FieldSpec(g))

    # M: one rounding of the exact sum.
    assert _ulps(ham.cm_kinetic_mass, exact.M) <= Fraction(1, 2)
    # Mbar g: the sum and the product round.
    assert _ulps(ham.cm_coupling, exact.mbar_g) <= 2 * SECOND_ORDER
    # mu: the product m_e m_p, the sum M and the quotient round.
    assert _ulps(ham.internal_kinetic_mass, exact.mu) <= 3 * SECOND_ORDER
    # A g, in ulps of the larger product's term (see ``_Exact``).
    if exact.larger_g:
        assert _ulps(ham.internal_coupling, exact.asymmetry_g, exact.larger_g) <= (
            exact.asymmetry_budget * SECOND_ORDER
        )
    else:
        assert ham.internal_coupling == 0.0
    assert ham.coulomb_present


@given(config=_configurations())
@example(config=_RATIO_BEYOND_TWO_ULPS)
@example(config=_HUGE_MBAR_RATIO)
def test_frame_discrepancy_is_within_its_roundings(config):
    m_e, m_p, mbar_e, mbar_p, a = config
    exact = _Exact(*config)
    model = MassModel(m_e, m_p, mbar_e, mbar_p)
    if mbar_e + mbar_p == 0.0:
        with pytest.raises(UndefinedRatioError):
            frame_discrepancy(model, a)
        return
    record = frame_discrepancy(model, a)

    # M / Mbar: M, Mbar and the quotient round.
    mbar = Fraction(mbar_e) + Fraction(mbar_p)
    assert _ulps(record.cm_mass_ratio, exact.M / mbar) <= 3 * SECOND_ORDER
    # |A| a: the path of A g in ``separate_gravitational``.
    if exact.larger_g:
        assert _ulps(
            record.internal_coupling_difference, abs(exact.asymmetry_g), exact.larger_g
        ) <= exact.asymmetry_budget * SECOND_ORDER
    else:
        assert record.internal_coupling_difference == 0.0


def test_mass_ratio_needs_three_ulps():
    # Guards the explicit example above: it must keep exceeding two ulps.
    m_e, m_p, mbar_e, mbar_p, a = _RATIO_BEYOND_TWO_ULPS
    ratio = frame_discrepancy(MassModel(m_e, m_p, mbar_e, mbar_p), a).cm_mass_ratio
    exact = (Fraction(m_e) + Fraction(m_p)) / (Fraction(mbar_e) + Fraction(mbar_p))
    assert 2 < _ulps(ratio, exact) <= 3


def test_negative_magnitude_rejected():
    with pytest.raises(ValueError):
        FieldSpec(magnitude=-1.0)


def test_equivalence_gives_zero_internal_coupling(equal_masses, terrestrial_field):
    ham = separate_gravitational(equal_masses, terrestrial_field)
    assert ham.internal_coupling == 0.0
    assert ham.cm_coupling == ham.cm_kinetic_mass * terrestrial_field.magnitude
    assert ham.coulomb_present


def test_weightless_electron_coupling(consts):
    model = MassModel(
        m_e=consts.m_e_ref, m_p=consts.m_p_ref, mbar_e=0.0, mbar_p=consts.m_p_ref
    )
    ham = separate_gravitational(model, FieldSpec(magnitude=9.8))
    comp = derive_composites(model)
    assert ham.internal_coupling == pytest.approx(comp.reduced_mass * 9.8, rel=1e-14)


def test_zero_field_zeroes_both_couplings(violating_model):
    ham = separate_gravitational(violating_model, FieldSpec(magnitude=0.0))
    assert ham.cm_coupling == 0.0
    assert ham.internal_coupling == 0.0


def test_masses_pass_through(violating_model, terrestrial_field):
    comp = derive_composites(violating_model)
    ham = separate_gravitational(violating_model, terrestrial_field)
    assert ham.cm_kinetic_mass == comp.total_mass
    assert ham.internal_kinetic_mass == comp.reduced_mass
    assert ham.internal_coupling == comp.mass_asymmetry * terrestrial_field.magnitude


def test_coupling_linear_in_field(violating_model):
    one = separate_gravitational(violating_model, FieldSpec(magnitude=3.0))
    two = separate_gravitational(violating_model, FieldSpec(magnitude=6.0))
    assert two.internal_coupling == pytest.approx(2.0 * one.internal_coupling, rel=1e-14)
    assert two.cm_coupling == pytest.approx(2.0 * one.cm_coupling, rel=1e-14)
