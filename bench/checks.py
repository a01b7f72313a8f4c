"""Independent correctness checks for every benchmark task.

Each check returns a list of failure messages; an empty list is a pass.  The
expected values are computed here from the generator's masses and the CODATA
2018 constants, never from the package's own formulas.  ``self_test`` feeds
every check one good and one corrupted result and reports any check that
fails to tell them apart; every benchmark run calls it before measuring.
"""

from __future__ import annotations

import csv
import io
import json
import math

HBAR = 1.0545718176461565e-34   # J s, h / (2 pi) with h exact
C = 299792458.0                 # m / s
ALPHA = 7.2973525693e-3
E_CHARGE = 1.602176634e-19      # C
EPS0 = 8.8541878128e-12         # F / m
M_E_REF = 9.1093837015e-31      # kg
M_P_REF = 1.67262192369e-27     # kg

RADIAL_REL = 1e-6        # radial level vs -1/(2 n^2)
ORACLE_REL = 1e-8        # oracle shift vs closed form, relative to the largest shift
EXACT_REL = 1e-12        # quantities the package evaluates in closed form
FIDELITY_FLOOR = 1.0 - 1e-6
SPACING_RATIO = (0.45, 0.75)   # between the 1/L (0.5) and 1/sqrt(L) (0.707) limits
BOUND_DRIFT = 1e-8       # Hartree, F = 0 level drift across boxes


def _close(value, expected, rel, scale=0.0) -> bool:
    if value is None or not math.isfinite(value):
        return False
    return abs(value - expected) <= rel * max(abs(expected), scale)


def composites(m: dict) -> dict:
    total = m["m_e"] + m["m_p"]
    return {
        "M": total,
        "mu": m["m_e"] * m["m_p"] / total,
        "Mbar": m["mbar_e"] + m["mbar_p"],
        "A": (m["mbar_p"] * m["m_e"] - m["mbar_e"] * m["m_p"]) / total,
    }


def shift(n: int, k: int, comp: dict, g: float) -> float:
    """Closed-form first-order shift -3 A g hbar n k / (2 mu alpha c), in J."""
    return -3.0 * comp["A"] * g * HBAR * n * k / (2.0 * comp["mu"] * ALPHA * C)


def level_energy(n: int, comp: dict) -> float:
    return -comp["mu"] * C**2 * ALPHA**2 / (2.0 * n * n)


def force_atomic(comp: dict) -> float:
    mu = comp["mu"]
    return mu**2 * C**3 * ALPHA**3 / HBAR


def closed_form_exponent(comp: dict, g: float) -> float:
    """m_e^2 c^3 alpha^3 / (|A| g hbar), with the CODATA electron mass as written."""
    return M_E_REF**2 * C**3 * ALPHA**3 / (abs(comp["A"]) * g * HBAR)


# ---------------------------------------------------------------- checks


def radial_levels(levels) -> list[str]:
    """``levels``: (n, energy in Hartree) pairs."""
    out = []
    for n, energy in levels:
        exact = -1.0 / (2.0 * n * n)
        if not _close(energy, exact, RADIAL_REL):
            out.append(f"radial level n={n}: {energy!r} vs {exact!r}")
    return out


def expected_sublevels(n: int, comp: dict, g: float) -> list[tuple[int, float, int]]:
    """(k, shift, multiplicity) for k = n-1 .. -(n-1)."""
    return [(k, shift(n, k, comp, g), n - abs(k)) for k in range(n - 1, -n, -1)]


def oracle_groups(n: int, groups, comp: dict, g: float) -> list[str]:
    """Dense-oracle (shift J, multiplicity) groups, ascending, against the closed form."""
    expected = expected_sublevels(n, comp, g)
    scale = max(abs(s) for _, s, _ in expected)
    if scale == 0.0 or n == 1:
        want = [(0.0, n * n)]
    else:
        want = sorted((s, mult) for _, s, mult in expected)
    if len(groups) != len(want):
        return [f"oracle n={n}: {len(groups)} groups, expected {len(want)}"]
    out = []
    for (got, got_mult), (exp, exp_mult) in zip(groups, want):
        if got_mult != exp_mult:
            out.append(f"oracle n={n}: multiplicity {got_mult} vs {exp_mult}")
        if not abs(got - exp) <= ORACLE_REL * scale:
            out.append(f"oracle n={n}: shift {got!r} vs {exp!r}")
    return out


def sublevel_table(n: int, sublevels, spacing: float, comp: dict, g: float) -> list[str]:
    """``sublevels``: (k, shift, energy, multiplicity) from ``splitting_table``."""
    expected = expected_sublevels(n, comp, g)
    e0 = level_energy(n, comp)
    out = []
    if [s[0] for s in sublevels] != [k for k, _, _ in expected]:
        return [f"table n={n}: k order {[s[0] for s in sublevels]}"]
    for (k, got, energy, mult), (_, exp, exp_mult) in zip(sublevels, expected):
        if mult != exp_mult or not _close(got, exp, EXACT_REL):
            out.append(f"table n={n} k={k}: ({got!r}, {mult}) vs ({exp!r}, {exp_mult})")
        if not _close(energy, e0 + exp, EXACT_REL):
            out.append(f"table n={n} k={k}: energy {energy!r}")
    want_spacing = abs(shift(n, 1, comp, g)) if n > 1 else 0.0
    if not _close(spacing, want_spacing, EXACT_REL):
        out.append(f"table n={n}: spacing {spacing!r} vs {want_spacing!r}")
    return out


def parabolic_states(n: int, states, comp: dict, g: float) -> list[str]:
    """``states``: (k, E0, shift) per parabolic state from ``evaluate_levels``."""
    if len(states) != n * n:
        return [f"levels n={n}: {len(states)} states, expected {n * n}"]
    e0 = level_energy(n, comp)
    out = []
    counts: dict[int, int] = {}
    for k, energy0, got in states:
        counts[k] = counts.get(k, 0) + 1
        if not _close(got, shift(n, k, comp, g), EXACT_REL) or not _close(energy0, e0, EXACT_REL):
            out.append(f"levels n={n} k={k}: ({energy0!r}, {got!r})")
    if counts != {k: n - abs(k) for k in range(1 - n, n)}:
        out.append(f"levels n={n}: multiplicities {counts}")
    return out


def split_rows(n: int, rows, comp: dict, g: float) -> list[str]:
    """CLI ``split`` rows (with the oracle column) against the closed form."""
    expected = expected_sublevels(n, comp, g)
    if [int(r["k"]) for r in rows] != [k for k, _, _ in expected]:
        return [f"split n={n}: k column {[r['k'] for r in rows]}"]
    scale = max(abs(s) for _, s, _ in expected)
    e0 = level_energy(n, comp)
    out = []
    for row, (k, exp, mult) in zip(rows, expected):
        if int(row["multiplicity"]) != mult:
            out.append(f"split n={n} k={k}: multiplicity {row['multiplicity']}")
        if not _close(row["shift_J"], exp, EXACT_REL) or not _close(row["E0_J"], e0, EXACT_REL):
            out.append(f"split n={n} k={k}: closed form ({row['E0_J']!r}, {row['shift_J']!r})")
        if not abs(row["shift_oracle_J"] - exp) <= ORACLE_REL * scale:
            out.append(f"split n={n} k={k}: oracle {row['shift_oracle_J']!r} vs {exp!r}")
    return out


def separate_record(rec: dict, comp: dict, g: float) -> list[str]:
    want = {
        "cm_kinetic_mass_kg": comp["M"],
        "cm_coupling_N": comp["Mbar"] * g,
        "internal_kinetic_mass_kg": comp["mu"],
        "internal_coupling_N": comp["A"] * g,
    }
    out = [f"separate {key}: {rec.get(key)!r} vs {value!r}"
           for key, value in want.items() if not _close(rec.get(key), value, EXACT_REL)]
    if rec.get("coulomb_present") is not True:
        out.append("separate: coulomb_present is not true")
    return out


def frame_diff_record(rec: dict, comp: dict, a: float) -> list[str]:
    want = {
        "cm_mass_ratio": comp["M"] / comp["Mbar"],
        "internal_coupling_difference_N": abs(comp["A"]) * a,
        "mass_asymmetry_kg": comp["A"],
    }
    return [f"frame-diff {key}: {rec.get(key)!r} vs {value!r}"
            for key, value in want.items() if not _close(rec.get(key), value, EXACT_REL)]


def lifetime_record(rec: dict, comp: dict, g: float) -> list[str]:
    """Stable exactly when A g = 0; otherwise the closed-form exponent and force match."""
    force = abs(comp["A"]) * g
    if force == 0.0:
        return [] if rec.get("stable") is True else ["lifetime: expected a stable report"]
    out = []
    if rec.get("stable") is not False:
        out.append("lifetime: expected an unstable report")
    if not _close(rec.get("exponent_closed_form"), closed_form_exponent(comp, g), EXACT_REL):
        out.append(f"lifetime: closed-form exponent {rec.get('exponent_closed_form')!r}")
    if not _close(rec.get("F_atomic"), force / force_atomic(comp), EXACT_REL):
        out.append(f"lifetime: F_atomic {rec.get('F_atomic')!r}")
    ratio = rec.get("exponent_ratio")
    if ratio is None or not (math.isfinite(ratio) and ratio > 0.0):
        out.append(f"lifetime: exponent ratio {ratio!r}")
    return out


def stabilization(points, force: float, window) -> list[str]:
    """``points``: (box, energy, level_spacing) per box.

    F > 0: each doubled-box spacing ratio lies in ``SPACING_RATIO``.
    F = 0: the level nearest the window centre stays put to ``BOUND_DRIFT``.
    """
    out = []
    lo, hi = window
    for box, energy, gap in points:
        if not (lo <= energy <= hi and gap > 0.0):
            out.append(f"scan box {box}: energy {energy!r}, spacing {gap!r}")
    if force == 0.0:
        energies = [e for _, e, _ in points]
        drift = max(energies) - min(energies)
        if not drift < BOUND_DRIFT:
            out.append(f"scan at F=0: bound level drifts {drift:.3e} Hartree")
        return out
    for (b1, _, s1), (b2, _, s2) in zip(points, points[1:]):
        if b2 == 2.0 * b1:
            ratio = s2 / s1
            if not SPACING_RATIO[0] <= ratio <= SPACING_RATIO[1]:
                out.append(f"scan {b1}->{b2}: spacing ratio {ratio:.4f}")
    return out


def frame_fidelity(fidelity: float) -> list[str]:
    if fidelity is None or not FIDELITY_FLOOR <= fidelity <= 1.0:
        return [f"frame fidelity {fidelity!r} below {FIDELITY_FLOOR!r}"]
    return []


def lifetime_force(report_force: float, force: float, stable: bool) -> list[str]:
    """In-process ``compare_lifetimes`` against the seeded force in atomic units."""
    if force == 0.0:
        return [] if stable else ["lifetime: expected a stable report at F = 0"]
    if stable or not _close(report_force, force, EXACT_REL):
        return [f"lifetime: force {report_force!r} vs seeded {force!r}"]
    return []


def constants_record(rows) -> list[str]:
    mu = M_E_REF
    want = {
        "hbar": HBAR, "c": C, "alpha": ALPHA, "e_charge": E_CHARGE, "eps0": EPS0,
        "m_e_ref": M_E_REF, "m_p_ref": M_P_REF,
        "bohr_radius": HBAR / (mu * C * ALPHA),
        "hartree_energy": mu * C**2 * ALPHA**2,
    }
    got = {r["quantity"]: r["value"] for r in rows}
    if set(got) != set(want):
        return [f"constants: quantities {sorted(got)}"]
    return [f"constants {k}: {got[k]!r} vs {v!r}" for k, v in want.items()
            if not _close(got[k], v, EXACT_REL)]


def golden(stdout: bytes, expected: bytes, name: str) -> list[str]:
    if stdout != expected:
        return [f"golden {name}: {len(stdout)} bytes differ from the {len(expected)}-byte golden"]
    return []


# ---------------------------------------------------------------- CLI output


def _value(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_rows(stdout: bytes, fmt: str) -> list[dict]:
    """CLI table or record output as a list of typed row dicts."""
    text = stdout.decode("utf-8")
    if fmt == "json":
        data = json.loads(text)
        return data if isinstance(data, list) else [data]
    reader = csv.DictReader(io.StringIO(text))
    return [{k: _value(v) for k, v in row.items()} for row in reader]


def cli_output(params: dict, stdout: bytes, goldens: dict) -> list[str]:
    """Check one CLI call's stdout against what its generated inputs imply."""
    if "golden" in params:
        return golden(stdout, goldens[params["golden"]], params["golden"])
    sub = params["sub"]
    try:
        rows = parse_rows(stdout, params["format"])
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"{sub}: unparseable output ({exc})"]
    if not rows:
        return [f"{sub}: empty output"]
    if sub == "constants":
        return constants_record(rows)
    if sub == "spectrum":
        levels = [(r["n"], r["energy_oracle_hartree"]) for r in rows]
        want_n = list(range(params["l"] + 1, params["l"] + 1 + params["count"]))
        out = [] if [n for n, _ in levels] == want_n else [f"spectrum: n column {levels}"]
        return out + radial_levels(levels)
    if sub == "stability":
        points = [(r["box_bohr"], r["energy_hartree"], r["level_spacing_hartree"]) for r in rows]
        return stabilization(points, 1e-3, (-0.02, 0.02))
    if sub == "frame-check":
        rec = rows[0]
        out = frame_fidelity(rec.get("fidelity"))
        if (rec.get("grid"), rec.get("steps")) != (512, 256):
            out.append(f"frame-check: grid/steps {rec.get('grid')}/{rec.get('steps')}")
        return out
    comp = composites(params["masses"].masses())
    if sub == "separate":
        return separate_record(rows[0], comp, params["g"])
    if sub == "lifetime":
        return lifetime_record(rows[0], comp, params["g"])
    if sub == "frame-diff":
        return frame_diff_record(rows[0], comp, params["a"])
    if sub == "split":
        return split_rows(params["n"], rows, comp, params["g"])
    return [f"no check for subcommand {sub!r}"]


# ---------------------------------------------------------------- self-test


def self_test(goldens: dict) -> list[str]:
    """Feed each check a good and a corrupted result; list the checks that misjudge."""
    masses = {"m_e": M_E_REF, "m_p": M_P_REF, "mbar_e": 1.1 * M_E_REF, "mbar_p": M_P_REF}
    comp = composites(masses)
    zero = composites({**masses, "mbar_e": M_E_REF})
    g, n = 9.8, 3
    bump = 1.0 + 1e-6
    subs = expected_sublevels(n, comp, g)
    groups = sorted((s, m) for _, s, m in subs)
    table = [(k, s, level_energy(n, comp) + s, m) for k, s, m in subs]
    states = [(k, level_energy(n, comp), s) for k, s, m in subs for _ in range(m)]
    rows = [{"k": k, "multiplicity": m, "E0_J": level_energy(n, comp), "shift_J": s,
             "shift_oracle_J": s} for k, s, m in subs]
    a_scan = [(100.0, 0.001, 0.02), (200.0, 0.002, 0.012), (400.0, -0.001, 0.007)]
    b_scan = [(100.0, -0.5, 0.1), (200.0, -0.5, 0.1), (400.0, -0.5, 0.1)]
    sep = {"cm_kinetic_mass_kg": comp["M"], "cm_coupling_N": comp["Mbar"] * g,
           "internal_kinetic_mass_kg": comp["mu"], "internal_coupling_N": comp["A"] * g,
           "coulomb_present": True}
    diff = {"cm_mass_ratio": comp["M"] / comp["Mbar"],
            "internal_coupling_difference_N": abs(comp["A"]) * g, "mass_asymmetry_kg": comp["A"]}
    life = {"stable": False, "exponent_closed_form": closed_form_exponent(comp, g),
            "F_atomic": abs(comp["A"]) * g / force_atomic(comp), "exponent_ratio": 0.67}
    consts = [{"quantity": q, "value": v} for q, v in (
        ("hbar", HBAR), ("c", C), ("alpha", ALPHA), ("e_charge", E_CHARGE), ("eps0", EPS0),
        ("m_e_ref", M_E_REF), ("m_p_ref", M_P_REF), ("bohr_radius", HBAR / (M_E_REF * C * ALPHA)),
        ("hartree_energy", M_E_REF * C**2 * ALPHA**2))]
    name, blob = next(iter(sorted(goldens.items())))
    flipped = bytes([blob[0] ^ 1]) + blob[1:]

    def scaled(seq, i, j):
        seq = [list(item) for item in seq]
        seq[i][j] *= bump
        return [tuple(item) for item in seq]

    cases = {
        "radial_levels": (lambda: radial_levels([(1, -0.5), (2, -0.125)]),
                          lambda: radial_levels([(1, -0.5 * (1 + 2e-6)), (2, -0.125)])),
        "oracle_groups": (lambda: oracle_groups(n, groups, comp, g),
                          lambda: oracle_groups(n, scaled(groups, 0, 0), comp, g)),
        "oracle_groups multiplicity": (
            lambda: oracle_groups(n, groups, comp, g),
            lambda: oracle_groups(n, [(s, m + (i == 0) - (i == 1)) for i, (s, m) in enumerate(groups)],
                                  comp, g)),
        "oracle_groups zero field": (lambda: oracle_groups(n, [(0.0, n * n)], zero, g),
                                     lambda: oracle_groups(n, groups, zero, g)),
        "sublevel_table": (lambda: sublevel_table(n, table, abs(shift(n, 1, comp, g)), comp, g),
                           lambda: sublevel_table(n, scaled(table, 0, 1),
                                                  abs(shift(n, 1, comp, g)), comp, g)),
        "parabolic_states": (lambda: parabolic_states(n, states, comp, g),
                             lambda: parabolic_states(n, scaled(states, 0, 2), comp, g)),
        "split_rows": (lambda: split_rows(n, rows, comp, g),
                       lambda: split_rows(n, [{**r, "shift_oracle_J": r["shift_oracle_J"] * bump}
                                              for r in rows], comp, g)),
        "separate_record": (lambda: separate_record(sep, comp, g),
                            lambda: separate_record({**sep, "internal_coupling_N":
                                                     sep["internal_coupling_N"] * bump}, comp, g)),
        "frame_diff_record": (lambda: frame_diff_record(diff, comp, g),
                              lambda: frame_diff_record({**diff, "cm_mass_ratio":
                                                         diff["cm_mass_ratio"] * bump}, comp, g)),
        "lifetime_record": (lambda: lifetime_record(life, comp, g),
                            lambda: lifetime_record({**life, "exponent_closed_form":
                                                     life["exponent_closed_form"] * bump}, comp, g)),
        "lifetime_record stable": (lambda: lifetime_record({"stable": True}, zero, g),
                                   lambda: lifetime_record(life, zero, g)),
        "lifetime_force": (lambda: lifetime_force(1e-3, 1e-3, False),
                           lambda: lifetime_force(1e-3 * bump, 1e-3, False)),
        "stabilization ratio": (lambda: stabilization(a_scan, 1e-3, (-0.02, 0.02)),
                                lambda: stabilization(a_scan[:2] + [(400.0, -0.001, 0.0052)],
                                                      1e-3, (-0.02, 0.02))),
        "stabilization drift": (lambda: stabilization(b_scan, 0.0, (-0.51, -0.49)),
                                lambda: stabilization(b_scan[:2] + [(400.0, -0.5 + 2e-8, 0.1)],
                                                      0.0, (-0.51, -0.49))),
        "frame_fidelity": (lambda: frame_fidelity(1.0 - 1e-9),
                           lambda: frame_fidelity(1.0 - 2e-6)),
        "constants_record": (lambda: constants_record(consts),
                             lambda: constants_record(consts[:7] + [{"quantity": "bohr_radius",
                                                                     "value": consts[7]["value"] * bump}]
                                                      + consts[8:])),
        "golden": (lambda: golden(blob, blob, name), lambda: golden(flipped, blob, name)),
    }
    out = []
    for label, (good, bad) in cases.items():
        if good():
            out.append(f"self-test {label}: rejects a good result: {good()}")
        if not bad():
            out.append(f"self-test {label}: accepts a corrupted result")
    return out
