"""The package's records: construction, immutability, equality, ``repr`` and
input validation, the same for every record type."""

import numpy as np
import pytest

from gravstark.constants import AtomicUnitScale, PhysicalConstants
from gravstark.frames import FrameCheckResult
from gravstark.ionization import LifetimeComparison
from gravstark.masses import CompositeMasses, MassModel
from gravstark.oracle import ScanPoint
from gravstark.parabolic import ParabolicLevel, SplittingTable, Sublevel
from gravstark.separation import FieldSpec, FrameDiscrepancy, SeparatedHamiltonian
from gravstark.wavepacket import Wavefunction1D, gaussian_packet, propagate

# PhysicalConstants' fields in their order, with the CODATA values.
CODATA = {
    "hbar": 1.0545718176461565e-34,
    "c": 299792458.0,
    "alpha": 7.2973525693e-3,
    "e_charge": 1.602176634e-19,
    "eps0": 8.8541878128e-12,
    "m_e_ref": 9.1093837015e-31,
    "m_p_ref": 1.67262192369e-27,
}

# Each scalar record type with values for its fields, in declaration order.
SCALAR_RECORDS = [
    (PhysicalConstants, CODATA),
    (AtomicUnitScale, {"energy_hartree": 4.4e-18, "length_bohr": 5.3e-11,
                       "time_atomic": 2.4e-17, "force_atomic": 8.2e-8}),
    (MassModel, {"m_e": 9.1e-31, "m_p": 1.7e-27, "mbar_e": 0.0, "mbar_p": -1.7e-27}),
    (CompositeMasses, {"total_mass": 1.7e-27, "reduced_mass": 9.1e-31,
                       "grav_total_mass": 1.6e-27, "mass_asymmetry": 9.1e-31}),
    (FieldSpec, {"magnitude": 9.8}),
    (SeparatedHamiltonian, {"cm_kinetic_mass": 1.7e-27, "cm_coupling": 1.6e-26,
                            "internal_kinetic_mass": 9.1e-31, "internal_coupling": 8.9e-30,
                            "coulomb_present": True}),
    (FrameDiscrepancy, {"cm_mass_ratio": 1.0, "internal_coupling_difference": 8.9e-30}),
    (LifetimeComparison, {"stable": False, "mass_asymmetry": 9.1e-31, "field_magnitude": 9.8,
                          "internal_force_atomic": 1.1e-22, "closed_form_exponent": 9.0e21,
                          "log10_tau_closed_form": 3.9e21, "wkb_exponent": 6.1e21,
                          "log10_tau_wkb": 2.7e21, "exponent_ratio": 0.67,
                          "within_order_unity": True}),
    (ParabolicLevel, {"n": 2, "n1": 1, "n2": 0, "m": 0, "k": 1,
                      "energy_unperturbed": -5.4e-19, "shift": -1.1e-28}),
    (Sublevel, {"k": 1, "shift": -1.1e-28, "energy": -5.4e-19, "multiplicity": 1}),
    (SplittingTable, {"n": 1, "sublevels": (Sublevel(0, 0.0, -2.2e-18, 1),),
                      "spacing": 0.0, "unperturbed": -2.2e-18}),
    (ScanPoint, {"box_size": 50.0, "energy": -0.01, "level_spacing": 0.004}),
    (FrameCheckResult, {"fidelity": 1.0, "max_pointwise_error": 1e-13, "grid": 512, "steps": 256}),
]


@pytest.mark.parametrize(
    "cls, values", SCALAR_RECORDS, ids=[cls.__name__ for cls, _ in SCALAR_RECORDS]
)
def test_scalar_record_semantics(cls, values):
    by_keyword = cls(**values)
    by_position = cls(*values.values())
    assert tuple(by_keyword._fields) == tuple(values)
    assert by_keyword == by_position
    assert [getattr(by_keyword, name) for name in values] == list(values.values())
    assert repr(by_keyword) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in values.items()) + ")"
    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(by_keyword, first, values[first])
    last = [name for name, value in values.items() if isinstance(value, float) and value][-1]
    assert cls(**dict(values, **{last: 2 * values[last]})) != by_keyword


def test_array_records_compare_by_identity():
    samples = np.ones(256)
    state, twin = (Wavefunction1D(samples, -1.0, 1.0, 256) for _ in range(2))
    assert state == state and state != twin
    assert state.samples.dtype == np.complex128
    assert len({state, twin}) == 2


BAD_INPUTS = [
    (lambda: PhysicalConstants(**dict(CODATA, hbar=0.0)),
     "hbar must be strictly positive and finite"),
    (lambda: PhysicalConstants(**dict(CODATA, m_p_ref=float("inf"))),
     "m_p_ref must be strictly positive and finite"),
    (lambda: PhysicalConstants(**dict(CODATA, alpha=7.3e-3)),
     "alpha disagrees with e^2/(4 pi eps0 hbar c)"),
    (lambda: MassModel(m_e=0.0, m_p=1.7e-27, mbar_e=0.0, mbar_p=0.0),
     "inertial electron mass must be strictly positive"),
    (lambda: MassModel(m_e=9.1e-31, m_p=float("nan"), mbar_e=0.0, mbar_p=0.0),
     "inertial proton mass must be strictly positive"),
    (lambda: MassModel(m_e=9.1e-31, m_p=1.7e-27, mbar_e=0.0, mbar_p=float("-inf")),
     "gravitational masses must be finite"),
    (lambda: FieldSpec(magnitude=-1.0), "field magnitude must be non-negative and finite"),
    (lambda: FieldSpec(float("inf")), "field magnitude must be non-negative and finite"),
    # propagate checks its run's settings before it builds anything.
    (lambda: propagate(gaussian_packet(-8.0, 8.0, 256), np.zeros(256), mass=1.0, dt=0.0, steps=1),
     "dt must be nonzero and finite"),
    (lambda: propagate(gaussian_packet(-8.0, 8.0, 256), np.zeros(256), mass=1.0, dt=0.1, steps=0),
     "steps must be at least 1"),
    (lambda: propagate(gaussian_packet(-8.0, 8.0, 256), np.zeros(256), mass=-1.0, dt=0.1, steps=1),
     "mass must be positive"),
    (lambda: Wavefunction1D(np.zeros(300), -1.0, 1.0, 300),
     "point_count must be a power of two, at least 256"),
    (lambda: Wavefunction1D(np.zeros(256), 1.0, 1.0, 256), "need x_max > x_min"),
    (lambda: Wavefunction1D(np.zeros(128), -1.0, 1.0, 256),
     "sample count disagrees with point_count"),
    (lambda: Wavefunction1D(np.full(256, np.nan), -1.0, 1.0, 256), "samples must be finite"),
]


@pytest.mark.parametrize("build, message", BAD_INPUTS, ids=[m for _, m in BAD_INPUTS])
def test_bad_inputs_raise_value_error(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_replace_validates_like_the_constructor():
    model = MassModel(m_e=9.1e-31, m_p=1.7e-27, mbar_e=9.1e-31, mbar_p=1.7e-27)
    assert model._replace(mbar_e=0.0) == MassModel(9.1e-31, 1.7e-27, 0.0, 1.7e-27)
    with pytest.raises(ValueError, match="gravitational masses must be finite"):
        model._replace(mbar_e=float("nan"))
    with pytest.raises(ValueError, match="field magnitude"):
        FieldSpec(9.8)._replace(magnitude=-9.8)
    with pytest.raises(ValueError, match="hbar"):
        PhysicalConstants(**CODATA)._replace(hbar=-1.0)
