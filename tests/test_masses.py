import numpy as np
import pytest

from gravstark.masses import MassModel, derive_composites, model_with_asymmetry


def test_equivalence_case_exact(equal_masses):
    comp = derive_composites(equal_masses)
    assert comp.mass_asymmetry == 0.0
    assert comp.grav_total_mass == comp.total_mass


def test_reduced_and_total(consts, equal_masses):
    comp = derive_composites(equal_masses)
    total = consts.m_e_ref + consts.m_p_ref
    assert comp.total_mass == total
    assert comp.reduced_mass == pytest.approx(consts.m_e_ref * consts.m_p_ref / total, rel=1e-15)


def test_heavier_grav_electron(consts):
    # mbar_e = 1.1 m_e, mbar_p = m_p: substituting into the defining identity
    # gives an asymmetry of -0.1 times the reduced mass.
    model = MassModel(
        m_e=consts.m_e_ref,
        m_p=consts.m_p_ref,
        mbar_e=1.1 * consts.m_e_ref,
        mbar_p=consts.m_p_ref,
    )
    comp = derive_composites(model)
    assert comp.mass_asymmetry == pytest.approx(-0.1 * comp.reduced_mass, rel=1e-12)


def test_weightless_electron(consts):
    model = MassModel(
        m_e=consts.m_e_ref, m_p=consts.m_p_ref, mbar_e=0.0, mbar_p=consts.m_p_ref
    )
    comp = derive_composites(model)
    assert comp.mass_asymmetry == pytest.approx(comp.reduced_mass, rel=1e-14)


def test_defining_identity(violating_model, violating_composites):
    lhs = violating_composites.mass_asymmetry * violating_composites.total_mass
    rhs = violating_model.mbar_p * violating_model.m_e - violating_model.mbar_e * violating_model.m_p
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_antisymmetry_under_role_swap():
    rng = np.random.default_rng(414213)
    for _ in range(200):
        m_e, m_p = rng.uniform(1.0, 3.0, size=2)
        mbar_e, mbar_p = rng.uniform(-2.0, 2.0, size=2)
        forward = derive_composites(MassModel(m_e, m_p, mbar_e, mbar_p))
        swapped = derive_composites(MassModel(m_p, m_e, mbar_p, mbar_e))
        assert swapped.mass_asymmetry == pytest.approx(-forward.mass_asymmetry, rel=1e-13, abs=1e-18)


def test_scaling_property():
    rng = np.random.default_rng(732050)
    for _ in range(200):
        m_e, m_p = rng.uniform(0.5, 2.0, size=2)
        mbar_e, mbar_p = rng.uniform(-2.0, 2.0, size=2)
        lam = rng.uniform(0.1, 10.0)
        base = derive_composites(MassModel(m_e, m_p, mbar_e, mbar_p))
        scaled = derive_composites(MassModel(lam * m_e, lam * m_p, lam * mbar_e, lam * mbar_p))
        for name in ("total_mass", "reduced_mass", "grav_total_mass", "mass_asymmetry"):
            assert getattr(scaled, name) == pytest.approx(
                lam * getattr(base, name), rel=1e-12, abs=1e-18
            )


def test_zero_asymmetry_iff_cross_products_equal(consts):
    # proportional gravitational masses with a common factor still cancel
    model = MassModel(
        m_e=consts.m_e_ref,
        m_p=consts.m_p_ref,
        mbar_e=1.25 * consts.m_e_ref,
        mbar_p=1.25 * consts.m_p_ref,
    )
    comp = derive_composites(model)
    assert comp.mass_asymmetry == 0.0


def test_non_positive_inertial_masses_rejected():
    with pytest.raises(ValueError):
        MassModel(m_e=0.0, m_p=1.0, mbar_e=1.0, mbar_p=1.0)
    with pytest.raises(ValueError):
        MassModel(m_e=1.0, m_p=-1.0, mbar_e=1.0, mbar_p=1.0)


def test_negative_gravitational_masses_allowed():
    model = MassModel(m_e=1.0, m_p=2.0, mbar_e=-1.0, mbar_p=0.0)
    comp = derive_composites(model)
    assert comp.grav_total_mass == -1.0


def test_model_with_asymmetry_round_trip(consts):
    target = 0.37 * consts.m_e_ref
    comp = derive_composites(model_with_asymmetry(target))
    assert comp.mass_asymmetry == pytest.approx(target, rel=1e-12)



@pytest.mark.parametrize("mbar_e, mbar_p", [(1e-300, 1e-300), (0.0, -1e-300), (-1e-300, 0.0)])
def test_tiny_gravitational_masses_keep_the_asymmetry(consts, mbar_e, mbar_p):
    # Each product mbar m is below the float range here, but A is not, so
    # it must not come out as 0 (or -0.0).
    model = MassModel(m_e=consts.m_e_ref, m_p=consts.m_p_ref, mbar_e=mbar_e, mbar_p=mbar_p)
    comp = derive_composites(model)
    expected = (mbar_p * 1e300 * consts.m_e_ref - mbar_e * 1e300 * consts.m_p_ref) / comp.total_mass
    assert comp.mass_asymmetry * 1e300 == pytest.approx(expected, rel=1e-14)
