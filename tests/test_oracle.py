import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from gravstark import _spherical
from gravstark.errors import EigensolverError, EmptyWindowError, GridResolutionError
from gravstark.masses import CompositeMasses, MassModel, derive_composites
from gravstark._spherical import manifold_spectrum, radial_polynomial, squared_dipoles
from gravstark.oracle import _solve_radial, radial_eigensolve, stabilization_scan
from gravstark.parabolic import degenerate_pt, evaluate_levels, splitting_table
from gravstark.separation import FieldSpec


def bohr_energy(n: int) -> float:
    return -0.5 / n**2


# --- grids -----------------------------------------------------------------

def test_grid_from_spacing_layout():
    # The box snaps to a whole number of spacings before the spacing is
    # halved: at 0.012 Bohr, 80 becomes 6667 * 0.012, so the half-spacing
    # grid holds 13334 points, not round(80 / 0.006) = 13333.
    snapped = radial_eigensolve(0.012, 6667 * 0.012, 0, 3)
    assert radial_eigensolve(0.012, 80.0, 0, 3) == snapped
    assert snapped[0] == pytest.approx(bohr_energy(1), rel=1e-6)


def test_grid_invariants_enforced():
    for spacing, r_max, message in [
        (0.0, 80.0, "positive and finite"),
        (-0.01, 80.0, "positive and finite"),
        (math.nan, 80.0, "positive and finite"),
        (0.01, 0.0, "positive and finite"),
        (0.01, -80.0, "positive and finite"),
        (0.01, math.inf, "positive and finite"),
        (1e-320, 80.0, "too fine"),
        (0.1, 10.0, "point_count must be at least 200"),
    ]:
        with pytest.raises(ValueError, match=message):
            radial_eigensolve(spacing, r_max, 0, 1)


# --- radial eigensolver -----------------------------------------------------

def test_ground_state_energy():
    (energy,) = radial_eigensolve(0.01, 60.0, 0, 1)
    assert energy == pytest.approx(bohr_energy(1), rel=1e-6)


def test_lowest_p_state():
    (energy,) = radial_eigensolve(0.01, 80.0, 1, 1)
    assert energy == pytest.approx(bohr_energy(2), rel=1e-6)


def test_lowest_f_state():
    # l = 3 first appears at n = 4
    (energy,) = radial_eigensolve(0.01, 160.0, 3, 1)
    assert energy == pytest.approx(bohr_energy(4), rel=1e-6)


def test_states_are_normalized():
    _, vectors = _solve_radial(0.01, 80.0, 0, 2)
    for i in range(2):
        norm = np.trapezoid(vectors[:, i] ** 2, dx=0.01)
        assert norm == pytest.approx(1.0, abs=1e-10)


def test_residual_certificate_rejects_perturbed_eigenvector(monkeypatch):
    import scipy.linalg

    solve = scipy.linalg.eigh_tridiagonal

    def perturbed(*args, **kwargs):
        energies, vectors = solve(*args, **kwargs)
        vectors[100, 2] += 1e-6
        return energies, vectors

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
    with pytest.raises(EigensolverError, match="residual"):
        _solve_radial(0.005, 160.0, 0, 4)


def test_radial_solve_makes_no_numpy_norm_call(monkeypatch):
    # np.linalg.norm runs numpy's threaded BLAS, which contends with scipy's.
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", forbidden)
    energies, _ = _solve_radial(0.005, 160.0, 0, 4)
    assert energies[0] == pytest.approx(bohr_energy(1), rel=1e-4)
    levels = radial_eigensolve(0.01, 80.0, 0, 3)
    assert levels == pytest.approx([bohr_energy(n) for n in (1, 2, 3)], rel=1e-6)


def test_energies_decrease_with_resolution():
    # refining the grid at fixed box lowers every level monotonically
    energies = []
    for spacing in (0.08, 0.04, 0.02, 0.01):
        raw, _ = _solve_radial(spacing, 60.0, 0, 2)
        energies.append(raw)
    for coarse, fine in zip(energies, energies[1:]):
        assert np.all(fine <= coarse + 1e-12)


def test_coarse_grid_rejected():
    with pytest.raises(GridResolutionError):
        radial_eigensolve(0.05, 20.0, 0, 1)


def test_small_box_rejected():
    # n = 3 needs far more room than 20 Bohr
    with pytest.raises(GridResolutionError):
        radial_eigensolve(0.01, 20.0, 0, 3)


def test_count_range_enforced():
    with pytest.raises(ValueError):
        radial_eigensolve(0.01, 60.0, 0, 0)
    with pytest.raises(ValueError):
        radial_eigensolve(0.01, 60.0, 0, 11)


@pytest.mark.parametrize(
    "solve",
    [
        lambda: _solve_radial(1e-170, 1e-167, 0, 3),
        lambda: _solve_radial(1e-160, 1e-157, 0, 3),
        lambda: _solve_radial(0.01, 80.0, 10**200, 3),
        lambda: stabilization_scan([1e-168, 2e-168, 3e-168], 1e-3, (-0.02, 0.02), spacing=1e-170),
        lambda: stabilization_scan([1e-158, 2e-158, 3e-158], 1e-3, (-0.02, 0.02), spacing=1e-160),
        lambda: stabilization_scan([50.0, 100.0, 200.0], 1e308, (-0.02, 0.02)),
    ],
    ids=["radial-h2-underflow", "radial-h2-overflow", "radial-huge-l",
         "scan-h2-underflow", "scan-h2-overflow", "scan-wall-force"],
)
def test_overflowing_grid_coefficients_rejected(solve):
    # One ValueError from the coefficient bound, raised before numpy forms any
    # entry, so no ZeroDivisionError, inf or RuntimeWarning gets out.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid coefficients overflow a float"):
            solve()


# --- dipole matrix elements --------------------------------------------------

def quad_oracle_2s_2p() -> float:
    """Independent evaluation of <2 1 0| z |2 0 0> from analytic radial functions."""
    r20 = lambda r: (1.0 / math.sqrt(2.0)) * (1.0 - r / 2.0) * math.exp(-r / 2.0)
    r21 = lambda r: r * math.exp(-r / 2.0) / math.sqrt(24.0)
    radial, _ = quad(lambda r: r20(r) * r21(r) * r**3, 0.0, 200.0, limit=200)
    return radial * math.sqrt(1.0 / 3.0)


def test_quad_oracle_value():
    assert quad_oracle_2s_2p() == pytest.approx(-3.0, abs=1e-10)


def test_2s_2p_element_magnitude():
    # The manifold's exact l = 0 -> 1 squared radial dipole times the m = 0
    # squared angular factor 1/3.  The spectrum of a zero-diagonal
    # tridiagonal block depends on the squares of its entries only.
    squared = Fraction(*squared_dipoles(2)[0]) * Fraction(1, 3)
    assert squared == 9
    assert quad_oracle_2s_2p() ** 2 == pytest.approx(float(squared), abs=1e-10)


@pytest.mark.parametrize("n", range(2, 51))
def test_radial_dipoles_match_the_hydrogen_closed_form(n):
    # <n l|r|n l+1>^2 = (9/4) n^2 (n^2 - (l+1)^2) (Bethe & Salpeter, eq. 63.2),
    # exactly; the build never uses this identity.
    dipoles = [Fraction(*ratio) for ratio in squared_dipoles(n)]
    assert dipoles == [Fraction(9, 4) * n * n * (n * n - (l + 1) ** 2) for l in range(n - 1)]


def _derivative(poly: list) -> list:
    return [i * c for i, c in enumerate(poly)][1:]


@pytest.mark.parametrize("n", range(1, 51))
def test_radial_polynomials_solve_the_radial_equation(n):
    # u = f(s) e^(-s/2) with f = s^(l+1) P(s) and s = 2r/n turns
    # -u''/2 + [l(l+1)/(2r^2) - 1/r] u = E u into the polynomial identity
    # s^2 f'' - s^2 f' + (1/4 + n^2 E/2) s^2 f - l(l+1) f + n s f = 0,
    # which must hold exactly at E = -1/(2 n^2).
    energy = Fraction(-1, 2 * n * n)
    for l in range(n):
        f = [0] * (l + 1) + radial_polynomial(n, l)
        f1 = _derivative(f)
        f2 = _derivative(f1)
        residual = [Fraction(0)] * (len(f) + 2)
        for i, c in enumerate(f2):
            residual[i + 2] += c
        for i, c in enumerate(f1):
            residual[i + 2] -= c
        for i, c in enumerate(f):
            residual[i + 2] += (Fraction(1, 4) + n * n * energy / 2) * c
            residual[i] -= l * (l + 1) * c
            residual[i + 1] += n * c
        assert residual == [0] * len(residual), (n, l)


@pytest.mark.parametrize("n", [2, 5, 50])
def test_manifold_spectrum_is_exactly_symmetric(n):
    # z is odd under parity: the groups pair off as exact negatives around an
    # exact zero, and their multiplicities fill the n^2 states.
    groups = manifold_spectrum(n)
    assert [value for value, _ in groups] == [-value for value, _ in reversed(groups)]
    assert groups[n - 1][0] == 0.0
    assert sum(count for _, count in groups) == n * n


def test_manifold_spectrum_is_the_stark_pattern_for_every_n():
    # The 2n - 1 splitting as a theorem for each accepted n: the exact build
    # finds the eigenvalues 3nk/2 of z with multiplicities n - |k|.
    manifold_spectrum.cache_clear()
    for n in range(1, 51):
        assert manifold_spectrum(n) == tuple((1.5 * n * k, n - abs(k)) for k in range(1 - n, n))


# --- manifold diagonalization -------------------------------------------------

def _composites(asymmetry: float) -> CompositeMasses:
    return CompositeMasses(
        total_mass=1.674e-27,
        reduced_mass=9.109e-31,
        grav_total_mass=1.674e-27,
        mass_asymmetry=asymmetry,
    )


def test_degenerate_pt_n2_structure(consts):
    comp = _composites(9.109e-31)
    field = FieldSpec(magnitude=9.8)
    groups = degenerate_pt(2, comp, field, consts)
    assert [mult for _, mult in groups] == [1, 2, 1]
    force = comp.mass_asymmetry * field.magnitude
    bohr = consts.hbar / (comp.reduced_mass * consts.c * consts.alpha)
    assert groups[0][0] == pytest.approx(-3.0 * force * bohr, rel=1e-12)
    assert groups[1][0] == 0.0
    assert groups[2][0] == pytest.approx(3.0 * force * bohr, rel=1e-12)


def test_degenerate_pt_n1_single_zero(consts):
    groups = degenerate_pt(1, _composites(9.1e-31), FieldSpec(magnitude=9.8), consts)
    assert groups == [(0.0, 1)]


def test_degenerate_pt_zero_asymmetry(consts):
    groups = degenerate_pt(3, _composites(0.0), FieldSpec(magnitude=9.8), consts)
    assert groups == [(0.0, 9)]


def test_degenerate_pt_rejects_large_n(consts):
    for n in (0, 51):
        with pytest.raises(ValueError, match="1..50"):
            degenerate_pt(n, _composites(9.1e-31), FieldSpec(magnitude=9.8), consts)


def test_degenerate_pt_scales_huge_and_tiny_couplings(consts):
    # A g reaches 1e301, or is subnormal while a tiny reduced mass stretches
    # the Bohr radius to 5e209 m: no partial product leaves the float range.
    for asymmetry, g, reduced_mass in [(1e300, 9.8, 9.109e-31), (1e-300, 1e-20, 1e-250)]:
        comp = CompositeMasses(
            total_mass=1.674e-27,
            reduced_mass=reduced_mass,
            grav_total_mass=1.674e-27,
            mass_asymmetry=asymmetry,
        )
        field = FieldSpec(magnitude=g)
        oracle = degenerate_pt(4, comp, field, consts)
        table = splitting_table(4, comp, field, consts)
        analytic = sorted((sub.shift, sub.multiplicity) for sub in table.sublevels)
        scale = max(abs(shift) for shift, _ in analytic)
        assert [m for _, m in oracle] == [m for _, m in analytic]
        for (got, _), (want, _) in zip(oracle, analytic):
            assert abs(got - want) <= 1e-12 * scale


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_degenerate_pt_matches_closed_form(n, consts):
    comp = _composites(1.3e-30)
    field = FieldSpec(magnitude=9.8)
    oracle = degenerate_pt(n, comp, field, consts)
    table = splitting_table(n, comp, field, consts)
    analytic = sorted((sub.shift, sub.multiplicity) for sub in table.sublevels)
    scale = max(abs(shift) for shift, _ in analytic)
    assert [m for _, m in oracle] == [m for _, m in analytic]
    for (got, _), (want, _) in zip(oracle, analytic):
        assert abs(got - want) <= 1e-11 * scale


def test_degenerate_pt_resolves_weak_coupling(consts):
    # Shifts near 4e-42 Hartree: a grouping tolerance with an absolute floor
    # of 1e-40 would merge all three into one group.
    groups = degenerate_pt(2, _composites(1.0e-43), FieldSpec(magnitude=1.0e-6), consts)
    assert [mult for _, mult in groups] == [1, 2, 1]


@given(
    n=st.integers(1, 50),
    m_e=st.floats(0.5, 2.0),
    m_p=st.floats(0.5, 2.0),
    mbar_e=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    mbar_p=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    g=st.one_of(st.just(0.0), st.floats(-1.0, 3.0).map(lambda e: 10.0**e)),
)
def test_degenerate_pt_matches_closed_form_over_inputs(n, m_e, m_p, mbar_e, mbar_p, g, consts):
    # Ratios multiply the CODATA masses, as the CLI's --*-ratio flags do.
    model = MassModel(
        m_e=m_e * consts.m_e_ref,
        m_p=m_p * consts.m_p_ref,
        mbar_e=mbar_e * consts.m_e_ref,
        mbar_p=mbar_p * consts.m_p_ref,
    )
    comp = derive_composites(model)
    field = FieldSpec(magnitude=g)
    analytic = {}
    for level in evaluate_levels(n, comp, field, consts):
        analytic.setdefault(level.k, level.shift)
    scale = max(abs(shift) for shift in analytic.values())
    if scale == 0.0:
        expected = [(0.0, n * n)]
    else:
        expected = sorted((shift, n - abs(k)) for k, shift in analytic.items())
    oracle_groups = degenerate_pt(n, comp, field, consts)
    assert [mult for _, mult in oracle_groups] == [mult for _, mult in expected]
    # Per group: the k = 0 group must come out exactly 0.
    for (got, _), (want, _) in zip(oracle_groups, expected):
        assert abs(got - want) <= 1e-11 * abs(want)


@pytest.fixture
def manifold_work(monkeypatch):
    """The n of every exact manifold build, and every z-block solved, from an
    empty spectrum cache."""
    calls = {"builds": [], "blocks": 0}
    dipoles, roots = _spherical.squared_dipoles, _spherical.block_roots

    def build(n):
        calls["builds"].append(n)
        return dipoles(n)

    def block(squares):
        calls["blocks"] += 1
        return roots(squares)

    monkeypatch.setattr(_spherical, "squared_dipoles", build)
    monkeypatch.setattr(_spherical, "block_roots", block)
    _spherical.manifold_spectrum.cache_clear()
    yield calls
    _spherical.manifold_spectrum.cache_clear()


def test_manifold_spectrum_cache_skips_repeat_builds(manifold_work, consts):
    first = degenerate_pt(3, _composites(9.1e-31), FieldSpec(magnitude=9.8), consts)
    assert manifold_work == {"builds": [3], "blocks": 3}   # one z-block per m = 0, 1, 2

    # Masses and field are not part of the cache key.
    other = CompositeMasses(
        total_mass=2.0e-27,
        reduced_mass=1.2e-30,
        grav_total_mass=-1.0e-27,
        mass_asymmetry=-2.4e-30,
    )
    cached = degenerate_pt(3, other, FieldSpec(magnitude=123.0), consts)
    assert manifold_work == {"builds": [3], "blocks": 3}
    assert [count for _, count in cached] == [count for _, count in first]

    _spherical.manifold_spectrum.cache_clear()
    assert cached == degenerate_pt(3, other, FieldSpec(magnitude=123.0), consts)
    assert manifold_work == {"builds": [3, 3], "blocks": 6}

    degenerate_pt(4, other, FieldSpec(magnitude=123.0), consts)
    assert manifold_work == {"builds": [3, 3, 4], "blocks": 10}
    assert degenerate_pt(1, _composites(9.1e-31), FieldSpec(magnitude=9.8), consts) == [(0.0, 1)]
    assert manifold_work == {"builds": [3, 3, 4], "blocks": 10}


def test_overflowing_pivot_floor_is_rejected_before_any_solve(monkeypatch):
    # (0.5/h^2)^2 overflows below h = 6e-78, where LAPACK's bisection cannot
    # run: the scan refuses the grid without calling it.
    import scipy.linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh_tridiagonal called")

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid coefficients overflow a float"):
            stabilization_scan([1e-97, 2e-97, 4e-97], 0.0, (-0.02, 0.02), spacing=1e-100)


# --- stabilization scan --------------------------------------------------------

def test_bound_state_stable_under_box_growth():
    points = stabilization_scan([50.0, 100.0, 200.0], 0.0, (-0.51, -0.49))
    assert abs(points[-1].energy - points[-2].energy) < 1e-8
    assert points[0].energy == pytest.approx(-0.5, abs=1e-3)


def test_continuum_spacing_shrinks_like_inverse_box():
    points = stabilization_scan([50.0, 100.0, 200.0], 1e-3, (-0.02, 0.02))
    spacing = {p.box_size: p.level_spacing for p in points}
    ratio = spacing[200.0] / spacing[100.0]
    assert abs(2.0 * ratio - 1.0) <= 0.2
    # spacing times box size tends to a constant
    products = [p.level_spacing * p.box_size for p in points]
    assert abs(products[-1] - products[-2]) / products[-2] < 0.2


def test_empty_window_rejected():
    with pytest.raises(EmptyWindowError) as info:
        stabilization_scan([50.0, 100.0, 200.0], 0.0, (-0.45, -0.2))
    assert str(info.value) == "no eigenvalue in [-0.45, -0.2] for box size 50.0"
    # A window whose search range holds one level and no neighbour.
    with pytest.raises(EmptyWindowError) as info:
        stabilization_scan([30.0, 31.0, 32.0], 0.0, (40.14, 40.16), spacing=0.1)
    assert str(info.value) == "no neighboring eigenvalue around the window for box size 30.0"


def test_degenerate_boxes_rejected():
    with pytest.raises(ValueError):
        stabilization_scan([50.0, 50.0, 100.0], 0.0, (-0.51, -0.49))
    with pytest.raises(ValueError):
        stabilization_scan([50.0, 100.0], 0.0, (-0.51, -0.49))


@pytest.mark.parametrize(
    "boxes, force, window, spacing",
    [
        ([50.0, 100.0, 200.0], 1e-3, (-0.02, 0.02), 0.0),
        ([50.0, 100.0, 200.0], 1e-3, (-0.02, 0.02), -0.05),
        ([50.0, 100.0, 200.0], 1e-3, (-0.02, 0.02), math.nan),
        ([50.0, 100.0, 200.0], 1e-3, (-0.02, 0.02), 100.0),
        ([50.0, 100.0, 200.0], 1e-3, (-0.02, 0.02), 1e-320),
        ([0.01, 0.02, 0.03], 1e-3, (-0.02, 0.02), 0.05),
        ([50.0, 100.0, math.inf], 1e-3, (-0.02, 0.02), 0.05),
        ([50.0, 100.0, math.nan], 1e-3, (-0.02, 0.02), 0.05),
        ([50.0, 100.0, 200.0], math.inf, (-0.02, 0.02), 0.05),
        ([50.0, 100.0, 200.0], math.nan, (-0.02, 0.02), 0.05),
        ([50.0, 100.0, 200.0], 1e-3, (-0.02, math.inf), 0.05),
    ],
)
def test_scan_rejects_unusable_grids(boxes, force, window, spacing):
    with pytest.raises(ValueError):
        stabilization_scan(boxes, force, window, spacing=spacing)


def _full_window_values(box, force, window, spacing):
    from scipy.linalg import eigvalsh_tridiagonal

    count = round(box / spacing)
    x = spacing * np.arange(1, count)
    diag = 1.0 / spacing**2 - 1.0 / x - force * x
    off = np.full(count - 2, -0.5 / spacing**2)
    root = (window[0] - 0.6, window[1] + 0.6)
    return eigvalsh_tridiagonal(diag, off, select="v", select_range=root)


def _full_window_scan(boxes, force, window, spacing):
    """The scan as one whole-window solve per box: the bit-identity reference."""
    lo, hi = window
    center = 0.5 * (lo + hi)
    out = []
    for box in map(float, boxes):
        values = _full_window_values(box, force, window, spacing)
        if not np.any((values >= lo) & (values <= hi)):
            return f"no eigenvalue in [{lo}, {hi}] for box size {box}"
        if values.size < 2:
            return f"no neighboring eigenvalue around the window for box size {box}"
        k = int(np.argmin(np.abs(values - center)))
        gap = values[k + 1] - values[k] if k + 1 < values.size else values[k] - values[k - 1]
        out.append((float(values[k]), float(gap)))
    return repr(out)


def _scan_outcome(boxes, force, window, spacing):
    try:
        points = stabilization_scan(boxes, force, window, spacing=spacing)
    except EmptyWindowError as exc:
        return str(exc)
    return repr([(p.energy, p.level_spacing) for p in points])


@st.composite
def _scan_cases(draw):
    """(force, window): a window centred on 0, which is also the bisection
    root's midpoint, one anywhere near the continuum edge, or an F = 0 window
    around a bound level -1/(2 n^2)."""
    force = draw(st.one_of(st.just(0.0), st.floats(1e-4, 5e-2)))
    half = draw(st.floats(1e-3, 0.05))
    kind = draw(st.sampled_from(["zero", "edge", "bound"]))
    if kind == "zero":
        return force, (-half, half)
    if kind == "edge":
        center = draw(st.floats(-0.6, 0.3))
        return force, (center - half, center + half)
    level = -0.5 / draw(st.integers(1, 3)) ** 2
    return 0.0, (level - half, level + half)


@settings(max_examples=15)
@given(
    boxes=st.lists(st.floats(30.0, 400.0), min_size=3, max_size=3, unique=True).map(sorted),
    case=_scan_cases(),
    spacing=st.floats(0.03, 0.1),
)
@example(boxes=[50.0, 100.0, 200.0], case=(1e-3, (-0.02, 0.02)), spacing=0.05)
@example(boxes=[50.0, 100.0, 200.0], case=(0.0, (-0.51, -0.49)), spacing=0.05)
@example(boxes=[60.0, 120.0, 240.0], case=(0.0, (-0.135, -0.115)), spacing=0.04)
# The level nearest the centre is the last one in every box's search range.
@example(boxes=[30.0, 31.0, 32.0], case=(0.0, (38.9, 39.5)), spacing=0.1)
# The search range reaches past the top of the spectrum's Gershgorin bound.
@example(boxes=[30.0, 31.0, 32.0], case=(0.0, (799.6, 799.9)), spacing=0.05)
# The benchmark's F = 0 window on n = 1: the upper neighbour lies 0.375 above.
@example(boxes=[150.0, 300.0, 600.0], case=(0.0, (-0.575, -0.425)), spacing=0.04)
# A coarse grid: the Gershgorin interval starts near -0.5, above lo - 0.6.
@example(boxes=[39.0, 400.0, 800.0], case=(0.0, (-0.02, 0.02)), spacing=1.0)
# The search range reaches below the spectrum's Gershgorin low end.
@example(boxes=[60.0, 120.0, 240.0], case=(0.0, (-10.5, -9.5)), spacing=0.05)
# F x = 1e16 makes stebz split the matrix into blocks, each bisected on its own.
@example(
    boxes=[10.0, 20.0, 40.0], case=(1e16, (-2.1499999999999996e16, -8499999999999996.0)),
    spacing=0.5,
)
def test_scan_is_bit_identical_to_whole_window_solve(boxes, case, spacing):
    force, window = case
    assert _scan_outcome(boxes, force, window, spacing) == _full_window_scan(
        boxes, force, window, spacing
    )


def test_last_level_example_uses_the_lower_neighbour():
    # Guards the explicit example above: it must keep exercising that case.
    for box in (30.0, 31.0, 32.0):
        values = _full_window_values(box, 0.0, (38.9, 39.5), 0.1)
        assert values.size >= 2
        assert int(np.argmin(np.abs(values - 39.2))) == values.size - 1


def _spy_solves(monkeypatch) -> list:
    """(matrix size, select_range) of every later ``eigvalsh_tridiagonal`` call."""
    import scipy.linalg

    solve = scipy.linalg.eigvalsh_tridiagonal
    solves = []

    def spy(diag, *args, select_range, **kwargs):
        solves.append((diag.size, select_range))
        return solve(diag, *args, select_range=select_range, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", spy)
    return solves


def test_scan_never_solves_the_whole_window(monkeypatch):
    solves = _spy_solves(monkeypatch)
    points = stabilization_scan([200.0, 400.0, 800.0], 1e-3, (-0.02, 0.02), spacing=0.04)
    assert len(points) == 3
    assert solves
    assert (-0.02 - 0.6, 0.02 + 0.6) not in [bounds for _, bounds in solves]
    assert max(hi - lo for _, (lo, hi) in solves) < 1.24 / 2


def test_coarse_grid_scan_solves_only_leaves(monkeypatch):
    # At spacing 1 the search range (-0.62, 0.62] reaches below the spectrum;
    # its leaves are those of the range clipped to what LAPACK bisects.
    solves = _spy_solves(monkeypatch)
    points = stabilization_scan([39.0, 400.0, 800.0], 0.0, (-0.02, 0.02), spacing=1.0)
    assert len(points) == 3
    per_box = Counter(size for size, _ in solves)
    assert len(per_box) == 3 and max(per_box.values()) <= 2**8
    assert max(hi - lo for _, (lo, hi) in solves) <= 1.24 / 2**8


def test_upper_neighbour_is_found_without_leaving_the_leaves(monkeypatch):
    # The n = 1 level's neighbour lies 0.375 Hartree above the centre, beyond
    # every tree node short of the root; the scan walks depth-8 leaves to it.
    solves = _spy_solves(monkeypatch)
    points = stabilization_scan([150.0, 300.0, 600.0], 0.0, (-0.575, -0.425), spacing=0.04)
    assert all(p.level_spacing > 0.37 for p in points)
    leaf = (-0.425 + 0.6 - (-0.575 - 0.6)) / 2**8
    assert max(hi - lo for _, (lo, hi) in solves) <= leaf * (1.0 + 1e-12)
    # leaves up to the one holding -1/8, and no further
    assert max(hi for _, (_, hi) in solves) < -0.12 + leaf
