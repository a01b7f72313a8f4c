import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gravstark import frames
from gravstark.errors import DomainEscapeError, UndefinedRatioError
from gravstark.frames import _transform_wavefunction, frame_equivalence_check
from gravstark.masses import MassModel, derive_composites
from gravstark.separation import FieldSpec, frame_discrepancy, separate_gravitational
from gravstark.wavepacket import (
    _free_evolution,
    fidelity,
    gaussian_packet,
    propagate,
)
from test_wavepacket import mean_momentum


# --- coupling structure -----------------------------------------------------------

def test_internal_coupling_always_zero(consts):
    # The accelerated frame is the field problem with each gravitational mass
    # set to its inertial one.
    model = MassModel(
        m_e=consts.m_e_ref,
        m_p=consts.m_p_ref,
        mbar_e=7.0 * consts.m_e_ref,
        mbar_p=consts.m_p_ref,
    )
    accelerated = MassModel(m_e=model.m_e, m_p=model.m_p, mbar_e=model.m_e, mbar_p=model.m_p)
    ham = separate_gravitational(accelerated, FieldSpec(magnitude=9.8))
    assert ham.internal_coupling == 0.0
    assert ham.cm_coupling == (model.m_e + model.m_p) * 9.8
    assert separate_gravitational(model, FieldSpec(magnitude=9.8)).internal_coupling != 0.0


def test_zero_acceleration(violating_model):
    # Zero magnitude gives zero difference, not an out-of-range failure.
    record = frame_discrepancy(violating_model, 0.0)
    assert record.internal_coupling_difference == 0.0
    assert record.cm_mass_ratio > 0.0


def test_frame_discrepancy_equivalence(equal_masses):
    record = frame_discrepancy(equal_masses, 9.8)
    assert record.cm_mass_ratio == 1.0
    assert record.internal_coupling_difference == 0.0


def test_frame_discrepancy_weightless_electron(consts):
    model = MassModel(
        m_e=consts.m_e_ref, m_p=consts.m_p_ref, mbar_e=0.0, mbar_p=consts.m_p_ref
    )
    record = frame_discrepancy(model, 9.8)
    comp = derive_composites(model)
    assert record.internal_coupling_difference == pytest.approx(
        comp.reduced_mass * 9.8, rel=1e-14
    )


def test_frame_discrepancy_zero_grav_mass(consts):
    model = MassModel(
        m_e=consts.m_e_ref,
        m_p=consts.m_p_ref,
        mbar_e=-consts.m_p_ref,
        mbar_p=consts.m_p_ref,
    )
    with pytest.raises(UndefinedRatioError):
        frame_discrepancy(model, 9.8)


# --- wavefunction transformation ----------------------------------------------------

def test_transform_at_time_zero_is_identity():
    state = gaussian_packet(-24.0, 24.0, 512, sigma=1.0)
    out = _transform_wavefunction(state, 1.0, 0.0)
    assert np.max(np.abs(out.samples - state.samples)) < 1e-12


def test_transform_preserves_norm():
    state = gaussian_packet(-24.0, 24.0, 1024, center=2.0, sigma=0.8, momentum=1.0)
    out = _transform_wavefunction(state, 1.0, 1.5)
    assert abs(out.norm() - state.norm()) < 1e-10


def test_transform_shifts_support():
    state = gaussian_packet(-24.0, 24.0, 1024, center=0.0, sigma=1.0)
    t = 1.0  # acceleration 2: displacement = 1, feature moves to -1
    out = _transform_wavefunction(state, 2.0, t)
    x = out.grid()
    peak = x[int(np.argmax(np.abs(out.samples)))]
    assert peak == pytest.approx(-1.0, abs=2.0 * out.dx)


def test_transform_momentum_boost():
    state = gaussian_packet(-24.0, 24.0, 1024, center=4.0, sigma=1.0)
    out = _transform_wavefunction(state, 1.0, 2.0)
    # frame velocity 2: packet appears with momentum -m*2
    assert mean_momentum(out) == pytest.approx(-2.0, abs=1e-9)


def test_transform_domain_escape():
    state = gaussian_packet(-16.0, 16.0, 512, center=-8.0, sigma=1.5)
    with pytest.raises(DomainEscapeError):
        _transform_wavefunction(state, 2.0, 3.0)  # displacement 9


def test_frame_equivalence_fidelity():
    result = frame_equivalence_check(
        acceleration=1.0, total_time=1.0, grid_points=1024, steps=1024
    )
    assert result.fidelity >= 1.0 - 1e-6
    assert result.max_pointwise_error < 1e-6


@settings(max_examples=12)
@given(
    magnitude=st.floats(0.2, 2.0),
    sign=st.sampled_from([-1.0, 1.0]),
    total_time=st.floats(0.25, 1.0),
)
def test_frame_check_fidelity_in_unit_interval(magnitude, sign, total_time):
    result = frame_equivalence_check(
        acceleration=sign * magnitude, total_time=total_time, grid_points=512, steps=256
    )
    assert 1.0 - 1e-6 <= result.fidelity <= 1.0


def test_transform_then_propagate_equals_propagate_then_transform():
    # the same consistency as frame_equivalence_check, via its pieces
    accel, total_time, steps = 0.5, 1.2, 2048
    initial = gaussian_packet(-24.0, 24.0, 1024, sigma=1.0)
    dt = total_time / steps

    free = propagate(initial, np.zeros(1024), 1.0, dt, steps)
    path_a = _transform_wavefunction(free, accel, total_time)
    path_b = propagate(initial, accel * initial.grid(), 1.0, dt, steps)
    assert fidelity(path_a, path_b) >= 1.0 - 1e-6
    # the check is, bit for bit, the closed-form free path and one stepped
    # run of path B, compared once the predicted splitting phase is removed
    exact_a = _transform_wavefunction(_free_evolution(initial, 1.0, dt, steps), accel, total_time)
    phase = np.exp(-1j * accel**2 * total_time * dt**2 / 24.0)
    result = frame_equivalence_check(
        acceleration=accel, total_time=total_time, grid_points=1024, steps=steps
    )
    assert result.fidelity == fidelity(exact_a, path_b)
    assert result.max_pointwise_error == float(
        np.max(np.abs(exact_a.samples - phase * path_b.samples))
    )


@pytest.mark.parametrize("accel", [1.0, -1.3, 0.4])
def test_paths_differ_only_by_the_splitting_phase(accel):
    # For H = p^2/2m + m a x each Strang step is exact up to a global phase;
    # with it removed only rounding is left.
    result = frame_equivalence_check(
        acceleration=accel, total_time=1.0, grid_points=1024, steps=2048
    )
    assert result.max_pointwise_error <= 1e-12
    assert result.fidelity >= 1.0 - 1e-12


@pytest.mark.parametrize("total_time", [-1.0, 0.0, math.nan, math.inf])
def test_frame_check_refuses_a_time_that_is_not_positive_before_stepping(total_time, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a path was built for a refused time")

    monkeypatch.setattr(frames, "propagate", refuse)
    monkeypatch.setattr(frames, "_free_evolution", refuse)
    with pytest.raises(ValueError, match="total_time must be positive and finite"):
        frame_equivalence_check(total_time=total_time)
