import math
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gravstark import parabolic
from gravstark.constants import codata_defaults
from gravstark.errors import UnrepresentableError, representable
from gravstark.masses import CompositeMasses, MassModel, derive_composites
from gravstark.parabolic import evaluate_levels, splitting_table
from gravstark.separation import FieldSpec


def _synthetic_composites(asymmetry=1.0e-30):
    # directly constructed composites give exact linearity checks
    return CompositeMasses(
        total_mass=1.674e-27,
        reduced_mass=9.1e-31,
        grav_total_mass=1.674e-27,
        mass_asymmetry=asymmetry,
    )


def _levels(n, asymmetry=1.0e-30, g=9.8):
    """The evaluated n-manifold of the synthetic composites."""
    comp, field = _synthetic_composites(asymmetry), FieldSpec(magnitude=g)
    return evaluate_levels(n, comp, field, codata_defaults())


def test_n1_single_state():
    levels = _levels(1)
    assert len(levels) == 1
    only = levels[0]
    assert (only.n1, only.n2, only.m, only.k) == (0, 0, 0, 0)


def test_n2_states():
    levels = _levels(2)
    quadruples = {(lv.n1, lv.n2, lv.m) for lv in levels}
    assert quadruples == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)}
    assert sorted(lv.k for lv in levels) == [-1, 0, 0, 1]


def test_n3_states():
    levels = _levels(3)
    assert len(levels) == 9
    assert sorted(set(lv.k for lv in levels)) == [-2, -1, 0, 1, 2]
    # exhaustive: every (n1, n2, |m|) composition of n - 1 = 2
    assert all(lv.n1 + lv.n2 + abs(lv.m) == 2 for lv in levels)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_degeneracy_count(n):
    levels = _levels(n)
    assert len(levels) == n * n
    assert len({(lv.n1, lv.n2, lv.m) for lv in levels}) == n * n


def test_descending_k_order():
    levels = _levels(4)
    ks = [lv.k for lv in levels]
    assert ks == sorted(ks, reverse=True)
    # within one k, by n1, then m
    assert levels == sorted(levels, key=lambda lv: (-lv.k, lv.n1, lv.m))


def test_out_of_range_rejected():
    for bad in (0, -1, 51):
        with pytest.raises(ValueError):
            _levels(bad)


def test_shift_zero_cases(consts, terrestrial_field):
    assert all(lv.shift == 0.0 for lv in _levels(2, asymmetry=0.0))
    assert all(lv.shift == 0.0 for lv in _levels(2) if lv.k == 0)
    assert all(lv.shift == 0.0 for lv in _levels(2, g=0.0))
    # zero shifts carry no sign, whatever the sign of the asymmetry or of k
    for asymmetry in (1.0e-30, -1.0e-30):
        comp3 = _synthetic_composites(asymmetry=asymmetry)
        zero_field = FieldSpec(magnitude=0.0)
        shifts = [sub.shift for sub in splitting_table(3, comp3, zero_field, consts).sublevels]
        shifts += [lv.shift for lv in evaluate_levels(3, comp3, zero_field, consts)]
        assert all(math.copysign(1.0, shift) == 1.0 for shift in shifts)


def test_shift_ratio_linear_in_nk(consts, terrestrial_field):
    a = next(lv.shift for lv in _levels(2) if lv.k == 1)
    b = next(lv.shift for lv in _levels(3) if lv.k == 2)
    assert a / b == pytest.approx((2.0 * 1.0) / (3.0 * 2.0), rel=1e-14)


def test_shift_reduces_to_force_times_bohr(consts):
    # n = 2, k = 1 with asymmetry equal to the reduced mass: the shift is
    # -3 F a with F the internal force and a the reduced-mass Bohr radius;
    # cross-checked against the exact manifold spectrum in the oracle tests.
    comp = CompositeMasses(
        total_mass=1.674e-27,
        reduced_mass=9.1e-31,
        grav_total_mass=1.674e-27,
        mass_asymmetry=9.1e-31,
    )
    field = FieldSpec(magnitude=9.8)
    shift = next(lv.shift for lv in evaluate_levels(2, comp, field, consts) if lv.k == 1)
    force = comp.mass_asymmetry * field.magnitude
    bohr = consts.hbar / (comp.reduced_mass * consts.c * consts.alpha)
    assert shift == pytest.approx(-3.0 * force * bohr, rel=1e-14)


# n up to MAX_PRINCIPAL, |A| over most of the float range with both signs,
# and g = 0 or 1e-3..1e3.
_n = st.integers(1, 50)
_asymmetry = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-300.0, -25.0),
)
_g = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))


def _below_normal_range(n, asymmetry, g, consts):
    """Whether the smallest nonzero shift, at |k| = 1, falls below the normal
    float range, evaluated with |A| carried times 2**600."""
    scale = 2.0**600
    smallest = (
        1.5 * n * (abs(asymmetry) * scale) * g * consts.hbar
        / (_synthetic_composites().reduced_mass * consts.alpha * consts.c)
    )
    return n > 1 and g != 0.0 and smallest < sys.float_info.min * scale


@given(n=_n, asymmetry=_asymmetry, g=_g)
def test_shift_antisymmetry(n, asymmetry, g, consts):
    # Exact: negating the integer k negates the last factor of the product.
    comp = _synthetic_composites(asymmetry)
    field = FieldSpec(magnitude=g)
    if _below_normal_range(n, asymmetry, g, consts):
        with pytest.raises(UnrepresentableError):
            evaluate_levels(n, comp, field, consts)
        return
    by_k = {lv.k: lv.shift for lv in evaluate_levels(n, comp, field, consts)}
    for k in range(1, n):
        assert by_k[k] == -by_k[-k]


def test_unperturbed_energy_bohr_formula(consts, terrestrial_field):
    comp = _synthetic_composites()
    e1 = splitting_table(1, comp, terrestrial_field, consts).unperturbed
    assert e1 == pytest.approx(
        -comp.reduced_mass * consts.c**2 * consts.alpha**2 / 2.0, rel=1e-14
    )
    e2 = splitting_table(2, comp, terrestrial_field, consts).unperturbed
    assert e2 == pytest.approx(e1 / 4.0, rel=1e-14)


def _assert_table_structure(table, n):
    assert len(table.sublevels) == 2 * n - 1
    assert sum(sub.multiplicity for sub in table.sublevels) == n * n
    # multiplicities agree with exhaustive enumeration
    per_k = Counter(lv.k for lv in _levels(n))
    assert {sub.k: sub.multiplicity for sub in table.sublevels} == per_k
    # Uniform spacing in the shifts.
    for upper, lower in zip(table.sublevels, table.sublevels[1:]):
        assert abs(abs(upper.shift - lower.shift) - table.spacing) <= 1e-12 * table.spacing


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_table_structure(n, consts, terrestrial_field):
    table = splitting_table(n, _synthetic_composites(), terrestrial_field, consts)
    _assert_table_structure(table, n)


@given(n=_n, asymmetry=_asymmetry, g=_g)
def test_table_structure_property(n, asymmetry, g, consts):
    comp, field = _synthetic_composites(asymmetry), FieldSpec(magnitude=g)
    if _below_normal_range(n, asymmetry, g, consts):
        with pytest.raises(UnrepresentableError):
            splitting_table(n, comp, field, consts)
        return
    table = splitting_table(n, comp, field, consts)
    _assert_table_structure(table, n)
    # Each state carries its sublevel's shift bit for bit, in (-k, n1, m) order,
    # and valid parabolic quantum numbers.
    levels = evaluate_levels(n, comp, field, consts)
    for lv in levels:
        assert lv.n1 >= 0 and lv.n2 >= 0
        assert lv.n == lv.n1 + lv.n2 + abs(lv.m) + 1
        assert lv.k == lv.n1 - lv.n2
    assert levels == sorted(levels, key=lambda lv: (-lv.k, lv.n1, lv.m))
    by_k = {sub.k: sub.shift.hex() for sub in table.sublevels}
    assert [lv.shift.hex() for lv in levels] == [by_k[lv.k] for lv in levels]


def _normal(*values):
    return all(sys.float_info.min <= abs(v) < math.inf for v in values)


_decades = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_signed = st.builds(lambda sign, value: sign * value, st.sampled_from([-1.0, 1.0]), _decades)


@given(
    m_e=_decades, m_p=_decades, mbar_e=_signed, mbar_p=_signed,
    g=_decades, n=st.integers(2, 50),
)
def test_carried_forms_match_naive_expressions(m_e, m_p, mbar_e, mbar_p, g, n, consts):
    # Wherever every partial result of the plain left-to-right expression is
    # a normal float, the carried mantissa and exponent round identically.
    total = m_e + m_p
    up, down = mbar_p * m_e, mbar_e * m_p
    if not _normal(total, m_e * m_p, m_e * m_p / total, up, down):
        return
    comp = derive_composites(MassModel(m_e=m_e, m_p=m_p, mbar_e=mbar_e, mbar_p=mbar_p))
    assert comp.reduced_mass == m_e * m_p / total
    if up == down:
        assert comp.mass_asymmetry.hex() == "0x0.0p+0"
        return
    if not _normal(up - down, (up - down) / total):
        return
    assert comp.mass_asymmetry == (up - down) / total
    a, mu = comp.mass_asymmetry, comp.reduced_mass
    numerator = [-3.0 * a]
    for factor in (g, consts.hbar, n):
        numerator.append(numerator[-1] * factor)
    denominator = [2.0 * mu, 2.0 * mu * consts.alpha, 2.0 * mu * consts.alpha * consts.c]
    ks = [k for k in range(1 - n, n) if k != 0]
    products = [numerator[-1] * k for k in ks]
    naive = [product / denominator[-1] for product in products]
    if not _normal(*numerator, *denominator, *products, *naive):
        return
    table = splitting_table(n, comp, FieldSpec(magnitude=g), consts)
    shifts = {sub.k: sub.shift for sub in table.sublevels}
    assert [shifts[k] for k in ks] == naive


@pytest.mark.parametrize("n", [1, 4, 50])
@pytest.mark.parametrize("build", [splitting_table, evaluate_levels])
def test_each_sublevel_shift_is_evaluated_once(n, build, consts, terrestrial_field, monkeypatch):
    names = []

    def counting(name, *args, **kwargs):
        names.append(name)
        return representable(name, *args, **kwargs)

    monkeypatch.setattr(parabolic, "representable", counting)
    build(n, _synthetic_composites(), terrestrial_field, consts)
    shifts = [name for name in names if name.startswith("first-order shift")]
    assert len(shifts) == len(set(shifts)) == 2 * n - 1


def test_n2_multiplicities(consts, terrestrial_field):
    table = splitting_table(2, _synthetic_composites(), terrestrial_field, consts)
    assert [sub.multiplicity for sub in table.sublevels] == [1, 2, 1]


def test_n1_spacing_reported_zero(consts, terrestrial_field):
    table = splitting_table(1, _synthetic_composites(), terrestrial_field, consts)
    assert len(table.sublevels) == 1
    assert table.spacing == 0.0


def test_doubling_field_doubles_spacing(consts):
    comp = _synthetic_composites()
    one = splitting_table(3, comp, FieldSpec(magnitude=9.8), consts)
    two = splitting_table(3, comp, FieldSpec(magnitude=19.6), consts)
    assert two.spacing == pytest.approx(2.0 * one.spacing, rel=1e-14)


def test_tiny_asymmetry_does_not_underflow(consts, terrestrial_field):
    # At g = 9.8 the product A g hbar underflows below about 1e-275 kg;
    # the shifts must stay linear in A down there too.
    tiny = splitting_table(2, _synthetic_composites(asymmetry=1.0e-293), terrestrial_field, consts)
    base = splitting_table(2, _synthetic_composites(), terrestrial_field, consts)
    assert 1.0e263 * tiny.spacing / base.spacing == pytest.approx(1.0, rel=1e-12)
    assert 1.0e263 * tiny.sublevels[0].shift / base.sublevels[0].shift == pytest.approx(1.0, rel=1e-12)


def test_tiny_field_does_not_underflow(consts):
    # At A = 1e-30 kg the product A g hbar underflows for g below about 7e-245;
    # the shifts must stay linear in g down there too.  At g = 1e-250 the
    # spacing, about 1.6e-290 J, is still a normal float.
    tiny = splitting_table(2, _synthetic_composites(), FieldSpec(magnitude=1.0e-250), consts)
    base = splitting_table(2, _synthetic_composites(), FieldSpec(magnitude=1.0), consts)
    assert tiny.spacing >= sys.float_info.min
    assert 1.0e250 * tiny.spacing / base.spacing == pytest.approx(1.0, rel=1e-12)


def test_subnormal_shift_is_unrepresentable(consts):
    # At g = 1e-270 the spacing would be a subnormal (about 1.6e-310 J) that
    # keeps only a few significant digits.
    with pytest.raises(UnrepresentableError):
        splitting_table(2, _synthetic_composites(), FieldSpec(magnitude=1.0e-270), consts)


def test_sign_coherence(consts, terrestrial_field):
    # positive asymmetry times field: energy strictly decreasing in k
    comp = _synthetic_composites(asymmetry=2.0e-30)
    table = splitting_table(3, comp, terrestrial_field, consts)
    shifts_by_k = {sub.k: sub.shift for sub in table.sublevels}
    ordered = [shifts_by_k[k] for k in sorted(shifts_by_k)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


def test_evaluated_levels_fill_energies(consts, terrestrial_field):
    comp = _synthetic_composites()
    levels = evaluate_levels(2, comp, terrestrial_field, consts)
    e0 = splitting_table(2, comp, terrestrial_field, consts).unperturbed
    assert all(lv.energy_unperturbed == e0 for lv in levels)
    assert [lv.shift != 0.0 for lv in levels] == [lv.k != 0 for lv in levels]


def test_table_shifts_match_per_state_shifts(consts, terrestrial_field):
    comp = _synthetic_composites()
    for n in (2, 4):
        table = splitting_table(n, comp, terrestrial_field, consts)
        by_k = {sub.k: sub.shift for sub in table.sublevels}
        for level in evaluate_levels(n, comp, terrestrial_field, consts):
            assert level.shift == by_k[level.k]
