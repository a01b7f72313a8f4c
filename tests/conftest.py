from __future__ import annotations

import pytest
from hypothesis import settings

from gravstark.constants import codata_defaults
from gravstark.masses import MassModel, derive_composites, model_with_asymmetry
from gravstark.separation import FieldSpec

# Property tests draw the same examples on every run and keep no example
# database, so a Tier-1 run is deterministic; the first example at each n pays
# the grid solves, which rules out a per-example deadline.
settings.register_profile("gravstark", derandomize=True, database=None, deadline=None)
settings.load_profile("gravstark")


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite the CLI golden files instead of comparing against them",
    )


@pytest.fixture(scope="session")
def consts():
    return codata_defaults()


@pytest.fixture(scope="session")
def equal_masses(consts):
    """The CODATA masses, each gravitational mass equal to its inertial one."""
    return MassModel(
        m_e=consts.m_e_ref, m_p=consts.m_p_ref, mbar_e=consts.m_e_ref, mbar_p=consts.m_p_ref
    )


@pytest.fixture(scope="session")
def violating_model(consts):
    """Configuration whose mass asymmetry is 1.1 electron masses."""
    return model_with_asymmetry(1.1 * consts.m_e_ref)


@pytest.fixture(scope="session")
def violating_composites(violating_model):
    return derive_composites(violating_model)


@pytest.fixture(scope="session")
def terrestrial_field():
    return FieldSpec(magnitude=9.8)
