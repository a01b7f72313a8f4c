import pytest

from gravstark.masses import MassModel, derive_composites
from gravstark.separation import FieldSpec, separate_gravitational, verify_separability

RESIDUAL_BOUND = 1e-10


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


def test_separability_equal_masses(equal_masses, terrestrial_field):
    assert verify_separability(equal_masses, terrestrial_field) <= RESIDUAL_BOUND


def test_separability_doubled_grav_electron(consts, terrestrial_field):
    model = MassModel(
        m_e=consts.m_e_ref,
        m_p=consts.m_p_ref,
        mbar_e=2.0 * consts.m_e_ref,
        mbar_p=consts.m_p_ref,
    )
    assert verify_separability(model, terrestrial_field) <= RESIDUAL_BOUND


def test_separability_exact_for_wild_masses(terrestrial_field):
    # the split is exact algebra for any masses, including negative
    # gravitational ones and a strong field
    model = MassModel(m_e=1.0e-30, m_p=5.0e-27, mbar_e=-3.0e-30, mbar_p=2.0e-27)
    residual = verify_separability(model, FieldSpec(magnitude=1.0e12))
    assert residual <= RESIDUAL_BOUND
