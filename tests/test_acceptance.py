"""Acceptance suite: each test enforces one release criterion at its stated
tolerance and prints a single PASS line (visible with ``pytest -s``)."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from gravstark.cli import run
from gravstark.constants import atomic_scale, codata_defaults
from gravstark.frames import frame_equivalence_check
from gravstark.ionization import compare_lifetimes
from gravstark.masses import CompositeMasses, MassModel, derive_composites, model_with_asymmetry
from gravstark.oracle import radial_eigensolve, stabilization_scan
from gravstark.parabolic import degenerate_pt, evaluate_levels, splitting_table
from gravstark.separation import FieldSpec, separate_gravitational
from gravstark.wavepacket import fidelity, gaussian_packet, propagate

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:2d}: PASS  {text}")


def test_criterion_01_bohr_spectrum_oracle():
    start = time.perf_counter()
    energies = radial_eigensolve(0.01, 200.0, 0, 5)
    worst = 0.0
    for n, energy in enumerate(energies, start=1):
        exact = -0.5 / n**2
        worst = max(worst, abs((energy - exact) / exact))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 30.0
    report(1, f"levels n=1..5 within {worst:.2e} relative of -1/(2n^2) in {elapsed:.1f}s")


def test_criterion_02_first_order_shifts_match_oracle():
    consts = codata_defaults()
    comp = derive_composites(model_with_asymmetry(1.1 * consts.m_e_ref))
    field = FieldSpec(magnitude=9.8)
    worst = 0.0
    for n in (1, 2, 3, 4, 7, 20, 50):
        analytic = {}
        for level in evaluate_levels(n, comp, field, consts):
            analytic.setdefault(level.k, level.shift)
        expected = sorted((shift, n - abs(k)) for k, shift in analytic.items())
        oracle = degenerate_pt(n, comp, field, consts)
        assert [mult for _, mult in oracle] == [mult for _, mult in expected]
        scale = max(abs(shift) for shift, _ in expected) or 1.0
        for (got, _), (want, _) in zip(oracle, expected):
            worst = max(worst, abs(got - want) / scale)
        assert worst <= 1e-8
    report(2, f"manifold diagonalization matches closed-form shifts to {worst:.2e} relative")


def test_criterion_03_splitting_structure():
    consts = codata_defaults()
    base = CompositeMasses(
        total_mass=1.674e-27,
        reduced_mass=9.109e-31,
        grav_total_mass=1.674e-27,
        mass_asymmetry=9.109e-31,
    )
    field = FieldSpec(magnitude=9.8)
    for n in (2, 3, 5, 9):
        table = splitting_table(n, base, field, consts)
        assert len(table.sublevels) == 2 * n - 1
        gaps = [
            table.sublevels[i].shift - table.sublevels[i + 1].shift
            for i in range(2 * n - 2)
        ]
        for gap in gaps:
            assert abs(abs(gap) - table.spacing) <= 1e-12 * table.spacing

    # linearity in n, asymmetry, and field magnitude
    s2 = splitting_table(2, base, field, consts).spacing
    s4 = splitting_table(4, base, field, consts).spacing
    assert s4 == pytest.approx(2.0 * s2, rel=1e-12)

    doubled_asym = CompositeMasses(
        total_mass=base.total_mass,
        reduced_mass=base.reduced_mass,
        grav_total_mass=base.grav_total_mass,
        mass_asymmetry=2.0 * base.mass_asymmetry,
    )
    assert splitting_table(3, doubled_asym, field, consts).spacing == pytest.approx(
        2.0 * splitting_table(3, base, field, consts).spacing, rel=1e-12
    )
    assert splitting_table(3, base, FieldSpec(magnitude=19.6), consts).spacing == pytest.approx(
        2.0 * splitting_table(3, base, field, consts).spacing, rel=1e-12
    )
    report(3, "2n-1 uniformly spaced sublevels, spacing linear in n, asymmetry, and g")


def test_criterion_04_equivalence_implies_stability(tmp_path):
    consts = codata_defaults()
    model = MassModel(
        m_e=consts.m_e_ref, m_p=consts.m_p_ref, mbar_e=consts.m_e_ref, mbar_p=consts.m_p_ref
    )
    comp = derive_composites(model)
    field = FieldSpec(magnitude=9.8)

    assert separate_gravitational(model, field).internal_coupling == 0.0
    table = splitting_table(3, comp, field, consts)
    assert table.spacing == 0.0
    assert all(sub.shift == 0.0 for sub in table.sublevels)
    assert degenerate_pt(2, comp, field, consts) == [(0.0, 4)]
    assert compare_lifetimes(comp, field, consts).stable is True

    target = tmp_path / "stable.json"
    assert run(["lifetime", "--equivalence", "--format", "json", "--output", str(target)]) == 0
    assert json.loads(target.read_text())["stable"] is True
    report(4, "zero asymmetry gives exactly zero coupling, zero splitting, infinite lifetime")


def test_criterion_05_closed_form_exponent():
    consts = codata_defaults()
    comp = derive_composites(model_with_asymmetry(consts.m_e_ref))
    estimate = compare_lifetimes(comp, FieldSpec(magnitude=9.8), consts)

    m_e, c = 9.1093837015e-31, 299792458.0
    alpha, hbar = 7.2973525693e-3, 1.0545718176461565e-34
    scratch = m_e**2 * c**3 * alpha**3 / (m_e * 9.8 * hbar)
    rel = abs(estimate.closed_form_exponent - scratch) / scratch
    assert rel <= 1e-10
    assert 9.0e21 < estimate.closed_form_exponent < 9.5e21
    assert math.isfinite(estimate.log10_tau_closed_form)  # log-space contract
    report(5, f"exponent {estimate.closed_form_exponent:.6e} matches scratch evaluation ({rel:.1e})")


def test_criterion_06_wkb_scaling():
    consts = codata_defaults()
    comp = derive_composites(model_with_asymmetry(consts.m_e_ref))
    scale = atomic_scale(consts, comp.reduced_mass)

    def field(force_atomic: float) -> FieldSpec:
        return FieldSpec(magnitude=force_atomic * scale.force_atomic / abs(comp.mass_asymmetry))

    products = [compare_lifetimes(comp, field(f), consts).wkb_exponent * f
                for f in (1e-6, 1e-5, 1e-4)]
    spread = (max(products) - min(products)) / min(products)
    assert spread < 0.10

    rep = compare_lifetimes(comp, field(1e-4), consts)
    assert not rep.stable
    assert math.isfinite(rep.exponent_ratio)
    report(6, f"barrier exponent scales as 1/F (spread {spread:.2%}); comparison report clean")


def test_criterion_07_continuum_signature():
    scan = stabilization_scan([50.0, 100.0, 200.0], 1e-3, (-0.02, 0.02))
    spacing = {p.box_size: p.level_spacing for p in scan}
    ratio = spacing[200.0] / spacing[100.0]
    assert abs(2.0 * ratio - 1.0) <= 0.2

    bound = stabilization_scan([50.0, 100.0, 200.0], 0.0, (-0.51, -0.49))
    drift = abs(bound[-1].energy - bound[-2].energy)
    assert drift < 1e-8
    report(7, f"level spacing ratio {ratio:.3f} (1/L signature); bound drift {drift:.1e} Hartree")


def test_criterion_08_galilean_exactness():
    start = time.perf_counter()
    result = frame_equivalence_check(
        acceleration=1.0, total_time=1.0, grid_points=2048, steps=4096
    )
    elapsed = time.perf_counter() - start
    assert result.fidelity >= 1.0 - 1e-6
    # Once the splitting phase is removed, only rounding separates the paths.
    assert result.max_pointwise_error <= 1e-12
    assert result.steps <= 4096
    assert elapsed < 10.0
    report(
        8,
        f"frame map fidelity {result.fidelity:.9f}, phase-corrected error "
        f"{result.max_pointwise_error:.1e} in {elapsed:.1f}s",
    )


def test_criterion_09_frame_asymmetry_randomized():
    consts = codata_defaults()
    rng = np.random.default_rng(20180517)
    g = 9.8
    checked_nonzero = 0
    for _ in range(10_000):
        m_e = rng.uniform(0.1, 10.0) * consts.m_e_ref
        m_p = rng.uniform(0.1, 10.0) * consts.m_p_ref
        mbar_e = rng.uniform(-2.0, 2.0) * m_e
        mbar_p = rng.uniform(-2.0, 2.0) * m_p
        model = MassModel(m_e=m_e, m_p=m_p, mbar_e=mbar_e, mbar_p=mbar_p)
        comp = derive_composites(model)

        # The accelerated frame is the field problem with mbar := m.
        accelerated = separate_gravitational(
            MassModel(m_e=m_e, m_p=m_p, mbar_e=m_e, mbar_p=m_p), FieldSpec(magnitude=g)
        )
        assert accelerated.internal_coupling == 0.0
        assert accelerated.cm_coupling == (m_e + m_p) * g

        gravitational = separate_gravitational(model, FieldSpec(magnitude=g))
        assert gravitational.internal_coupling == comp.mass_asymmetry * g
        if comp.mass_asymmetry != 0.0:
            assert gravitational.internal_coupling != 0.0
            checked_nonzero += 1
    assert checked_nonzero > 9_000
    report(9, "10^4 random configurations: accelerated internal coupling exactly zero")


def test_criterion_10_propagator_health():
    # unitarity over 1e4 steps
    state = gaussian_packet(-16.0, 16.0, 512, center=2.0, sigma=0.8)
    out = propagate(state, 0.5 * state.grid() ** 2, 1.0, 2e-3, 10_000)
    drift = abs(out.norm() - state.norm())
    assert drift < 1e-10

    # analytic free-Gaussian dispersion
    packet = gaussian_packet(-24.0, 24.0, 1024, center=0.0, sigma=1.0, momentum=1.5)
    evolved = propagate(packet, np.zeros(1024), 1.0, 1.0 / 1024, 1024)
    x = evolved.grid()
    tau = 1.0 / 2.0
    prefactor = (2.0 * math.pi) ** (-0.25) / np.sqrt(1.0 + 1j * tau)
    exact = prefactor * np.exp(
        -((x - 1.5) ** 2) / (4.0 * (1.0 + 1j * tau)) + 1j * (1.5 * x - 0.5 * 1.5**2)
    )
    gauss_err = float(np.max(np.abs(evolved.samples - exact)))
    assert gauss_err < 1e-8

    # second-order convergence in dt
    coherent = gaussian_packet(-24.0, 24.0, 512, center=3.0, sigma=1.0 / math.sqrt(2.0))
    harmonic = 0.5 * coherent.grid() ** 2
    period = 2.0 * math.pi

    def distance(steps: int, reference) -> float:
        evolved = propagate(coherent, harmonic, 1.0, period / steps, steps)
        return float(np.linalg.norm(evolved.samples - reference.samples)) * math.sqrt(evolved.dx)

    reference = propagate(coherent, harmonic, 1.0, period / 32768, 32768)
    ratio = distance(2048, reference) / distance(4096, reference)
    assert 3.0 < ratio < 5.0
    report(
        10,
        f"unitarity drift {drift:.1e}/1e4 steps; free packet error {gauss_err:.1e}; "
        f"dt-halving error ratio {ratio:.2f}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    from test_cli import GOLDEN_COMMANDS  # single source for the fixed configs

    for name, argv in sorted(GOLDEN_COMMANDS.items()):
        golden = (GOLDEN_DIR / name).read_bytes()
        for attempt in ("a", "b"):
            target = tmp_path / f"{name}.{attempt}"
            assert run([*argv, "--output", str(target)]) == 0
            assert target.read_bytes() == golden, f"{name} differs from golden output"
    report(11, f"{len(GOLDEN_COMMANDS)} subcommand invocations byte-identical to goldens, twice")
