import contextlib
import csv
import io
import json
import math
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gravstark.cli import run
from gravstark.constants import codata_defaults

GOLDEN_DIR = Path(__file__).parent / "golden"

# one fixed invocation per subcommand (plus the per-state table variant)
GOLDEN_COMMANDS = {
    "constants.csv": ["constants", "--format", "csv"],
    "separate.json": ["separate", "--mbar-e-ratio", "1.1", "--g", "9.8", "--format", "json"],
    "spectrum.csv": [
        "spectrum", "--l", "0", "--count", "3",
        "--spacing", "0.01", "--r-max", "80", "--format", "csv",
    ],
    "split.csv": ["split", "--n", "2", "--mbar-e-ratio", "1.1", "--g", "9.8", "--format", "csv"],
    "split_per_state.csv": [
        "split", "--n", "2", "--mbar-e-ratio", "1.1", "--g", "9.8",
        "--per-state", "--format", "csv",
    ],
    "lifetime.json": ["lifetime", "--script-m-ratio", "1.0", "--g", "9.8", "--format", "json"],
    "stability.csv": [
        "stability", "--f-atomic", "0.001", "--boxes", "40,60,80",
        "--window", "-0.02", "0.02", "--spacing", "0.05", "--format", "csv",
    ],
    "frame_check.json": [
        "frame-check", "--a", "1.0", "--time", "0.5",
        "--grid", "512", "--steps", "256", "--format", "json",
    ],
    "frame_diff.json": [
        "frame-diff", "--mbar-e-ratio", "0.0", "--a-magnitude", "9.8", "--format", "json",
    ],
}


def invoke(argv, tmp_path, name="out.txt") -> bytes:
    target = tmp_path / name
    code = run([*argv, "--output", str(target)])
    assert code == 0, f"command {argv} exited {code}"
    return target.read_bytes()


@pytest.mark.parametrize("golden_name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(golden_name, tmp_path, request):
    argv = GOLDEN_COMMANDS[golden_name]
    produced = invoke(argv, tmp_path)
    golden_path = GOLDEN_DIR / golden_name
    if request.config.getoption("--regen-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_bytes(produced)
        pytest.skip("golden regenerated")
    assert golden_path.exists(), f"golden file missing; run pytest --regen-goldens ({golden_name})"
    assert produced == golden_path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        GOLDEN_COMMANDS["separate.json"],
        GOLDEN_COMMANDS["split.csv"],
        GOLDEN_COMMANDS["lifetime.json"],
        GOLDEN_COMMANDS["frame_check.json"],
    ],
    ids=["separate", "split", "lifetime", "frame-check"],
)
def test_byte_identical_reruns(argv, tmp_path):
    first = invoke(argv, tmp_path, "first.txt")
    second = invoke(argv, tmp_path, "second.txt")
    assert first == second


def test_unknown_flag_exits_2(capsys):
    assert run(["separate", "--no-such-flag"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_invalid_n_exits_2(tmp_path, capsys):
    assert run(["split", "--n", "99", "--format", "csv"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "config",
    [
        ["--n", "7", "--mbar-e-ratio", "1.1"],
        ["--n", "50", "--mbar-e-ratio", "1.1"],
        # A g a_mu is 5e290 J: the force in atomic units would overflow.
        ["--n", "2", "--mbar-e", "1e300"],
    ],
    ids=["n7", "n50", "huge-mbar-e"],
)
def test_oracle_covers_every_accepted_n(config, tmp_path, capsys):
    out = invoke(["split", *config, "--format", "json"], tmp_path)
    assert capsys.readouterr().err == ""
    rows = json.loads(out)
    assert len(rows) == 2 * int(config[1]) - 1
    scale = max(abs(row["shift_J"]) for row in rows)
    for row in rows:
        assert abs(row["shift_oracle_J"] - row["shift_J"]) <= 1e-11 * scale


def test_oracle_beyond_the_largest_n_exits_2(capsys):
    assert run(["split", "--n", "51", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: principal quantum number must be in 1..50\n"


def test_large_n_without_oracle(tmp_path):
    out = invoke(["split", "--n", "6", "--no-oracle", "--format", "csv"], tmp_path)
    assert out.decode().count("\n") == 12  # header + 11 sublevels


def test_numerical_failure_exits_3(capsys):
    code = run([
        "stability", "--f-atomic", "0", "--boxes", "50,100,200",
        "--window", "-0.45", "-0.2", "--format", "csv",
    ])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_zero_grav_mass_frame_diff_exits_3(capsys):
    code = run([
        "frame-diff", "--mbar-e=-1.67262192369e-27", "--mbar-p", "1.67262192369e-27",
        "--format", "json",
    ])
    assert code == 3
    capsys.readouterr()


def test_equivalence_lifetime_reports_stable(tmp_path):
    out = invoke(["lifetime", "--equivalence", "--format", "json"], tmp_path)
    payload = json.loads(out)
    assert payload["stable"] is True
    assert payload["exponent_closed_form"] is None


def test_separate_equivalence_zero_coupling(tmp_path):
    out = invoke(["separate", "--equivalence", "--g", "9.8", "--format", "json"], tmp_path)
    assert json.loads(out)["internal_coupling_N"] == 0.0


def test_stable_lifetime_as_csv(tmp_path):
    out = invoke(["lifetime", "--equivalence", "--format", "csv"], tmp_path)
    lines = out.decode().splitlines()
    assert lines[0].startswith("stable,")
    assert lines[1].startswith("true,")
    assert lines[1].endswith(",,")  # absent comparison fields stay empty


def test_conflicting_mass_flags_exit_2(capsys):
    assert run(["separate", "--equivalence", "--mbar-e-ratio", "1.1"]) == 2
    assert run(["separate", "--script-m-ratio", "1.0", "--mbar-e-ratio", "1.1"]) == 2
    capsys.readouterr()


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mbar_e_ratio": 1.1, "g": 9.8, "format": "json"}))
    base = invoke(["separate", "--config", str(config)], tmp_path, "base.json")
    assert json.loads(base)["internal_coupling_N"] != 0.0

    # flag overrides the config value for g
    overridden = invoke(
        ["separate", "--config", str(config), "--g", "4.9"], tmp_path, "override.json"
    )
    ratio = (
        json.loads(base)["internal_coupling_N"]
        / json.loads(overridden)["internal_coupling_N"]
    )
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_bad_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert run(["separate", "--config", str(config)]) == 2
    assert run(["separate", "--config", str(tmp_path / "missing.json")]) == 2
    config2 = tmp_path / "unknown.json"
    config2.write_text(json.dumps({"no_such_key": 1}))
    assert run(["separate", "--config", str(config2)]) == 2
    capsys.readouterr()


def test_stdout_emission(capsys):
    assert run(["constants", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("quantity,value,unit")


def test_split_oracle_agrees_with_analytic(tmp_path):
    out = invoke(
        ["split", "--n", "3", "--mbar-e-ratio", "1.1", "--g", "9.8", "--format", "json"],
        tmp_path,
    )
    rows = json.loads(out)
    assert len(rows) == 5
    assert [row["multiplicity"] for row in rows] == [1, 2, 3, 2, 1]
    scale = max(abs(row["shift_J"]) for row in rows)
    for row in rows:
        assert abs(row["shift_J"] - row["shift_oracle_J"]) <= 1e-8 * scale


def test_per_state_schema(tmp_path):
    out = invoke(
        ["split", "--n", "2", "--g", "9.8", "--per-state", "--format", "csv"], tmp_path
    )
    header = out.decode().splitlines()[0]
    assert header == "n,n1,n2,m,k,E0_J,shift_J,E_J"
    assert len(out.decode().splitlines()) == 5  # header + 4 states


@pytest.mark.parametrize("ratio", ["1.1", "0.9"])
@pytest.mark.parametrize("extra", [[], ["--per-state"]], ids=["sublevels", "per-state"])
def test_zero_field_split_prints_no_negative_zero(ratio, extra, tmp_path):
    out = invoke(
        ["split", "--n", "3", "--mbar-e-ratio", ratio, "--g", "0", *extra, "--format", "json"],
        tmp_path,
    )
    zeros = [
        value
        for row in json.loads(out)
        for key, value in row.items()
        if key.startswith("shift") and value == 0.0
    ]
    assert zeros, "every shift vanishes at zero field"
    assert all(math.copysign(1.0, value) == 1.0 for value in zeros)


def test_oracle_grouping_mismatch_exits_3(monkeypatch, capsys):
    # Two oracle groups against three analytic sublevels at a nonzero field,
    # patched where the `split` handler looks the oracle up.
    monkeypatch.setattr(
        "gravstark.cli.degenerate_pt", lambda n, *args: [(-1.0e-30, 2), (1.0e-30, 2)]
    )
    code = run(["split", "--n", "2", "--mbar-e-ratio", "1.1", "--g", "9.8"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--per-state"]], ids=["sublevels", "per-state"])
@pytest.mark.parametrize(
    "config",
    [
        ["--mbar-e-ratio", "1e300", "--g", "1e300"],
        ["--mbar-e-ratio", "1.1", "--g", "1e-300"],
        ["--mbar-e-ratio", "1.1", "--g", "1e-278"],
        ["--m-e", "1e300", "--m-p", "1e300", "--g", "0"],
    ],
    ids=["shift-overflow", "shift-underflow", "shift-subnormal", "energy-overflow"],
)
def test_unrepresentable_split_exits_3(config, extra, capsys):
    code = run(["split", "--n", "2", *config, "--no-oracle", *extra])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("g", ["1e-300", "1e-290", "1e-284"])
def test_unrepresentable_lifetime_exits_3(g, tmp_path, capsys):
    # A nonzero coupling is never reported stable, however weak: here the
    # closed-form exponent overflows or F_atomic underflows.
    code = run(["lifetime", "--mbar-e-ratio", "1.1", "--g", g, "--format", "json"])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err
    assert "Traceback" not in err

    out = invoke(["lifetime", "--mbar-e-ratio", "1.1", "--g", "0", "--format", "json"], tmp_path)
    assert json.loads(out)["stable"] is True


@pytest.mark.parametrize("g", ["1e-150", "1e-200", "1e-225", "1e-250", "1e-280", "1e-283"])
def test_weak_coupling_lifetime_is_finite(g, tmp_path):
    # The closed-form barrier integral never squares the ~1/F barrier width,
    # and |A| g hbar, |A| g and the prefactor are never formed as floats, so
    # every number is printed while the printed ones are normal floats.
    def report(field):
        argv = ["lifetime", "--mbar-e-ratio", "1.1", "--g", field, "--format", "json"]
        return json.loads(invoke(argv, tmp_path))

    record, unit = report(g), report("1")
    assert record["stable"] is False
    numbers = [value for value in record.values() if type(value) is float]
    assert len(numbers) == 8
    assert all(math.isfinite(value) and abs(value) >= sys.float_info.min for value in numbers)
    # F_atomic is linear in g and the closed-form exponent is inverse in g.
    g = float(g)
    assert record["F_atomic"] / g == pytest.approx(unit["F_atomic"], rel=1e-15, abs=0.0)
    assert record["exponent_closed_form"] * g == pytest.approx(
        unit["exponent_closed_form"], rel=1e-15, abs=0.0
    )
    # In the weak-field limit the WKB exponent is 2/(3F) in units of the
    # reduced mass, and the closed form's is (m_e/mu)**2 / F.
    consts = codata_defaults()
    mu_over_m_e = consts.m_p_ref / (consts.m_e_ref + consts.m_p_ref)
    assert record["exponent_ratio"] == pytest.approx(2.0 / 3.0 * mu_over_m_e**2, rel=1e-12)


@pytest.mark.parametrize(
    "config",
    [
        ["--mbar-e", "1e300", "--mbar-p", "1e300", "--g", "1e300"],
        ["--m-e", "1e308", "--m-p", "1e308"],
        ["--g", "1e-300"],
        ["--mbar-e-ratio", "1.1", "--g", "1e-290"],
        ["--mbar-e-ratio", "1e-300", "--mbar-p-ratio", "1e-300"],
    ],
    ids=["coupling-overflow", "mass-overflow", "coupling-underflow", "coupling-subnormal",
         "ratio-underflow"],
)
def test_unrepresentable_separate_exits_3(config, capsys):
    code = run(["separate", *config, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert captured.err.count("\n") == 1


def test_zero_field_separate_prints_positive_zero(tmp_path):
    # A < 0 here, and a coupling with a zero factor is +0.0 whatever its sign.
    out = invoke(["separate", "--mbar-e-ratio", "1.1", "--g", "0", "--format", "json"], tmp_path)
    record = json.loads(out)
    for key in ("cm_coupling_N", "internal_coupling_N"):
        assert record[key] == 0.0 and math.copysign(1.0, record[key]) == 1.0


@pytest.mark.parametrize(
    "flags, code",
    [
        (["--a-magnitude", "nan"], 2),
        (["--a-magnitude", "inf"], 2),
        (["--a-magnitude=-1"], 2),
        (["--mbar-e", "1e300", "--mbar-p", "1e300", "--a-magnitude", "1e300"], 3),
        (["--mbar-e", "1e280", "--a-magnitude", "1e30"], 3),
        (["--mbar-e-ratio", "1.1", "--a-magnitude", "1e-300"], 3),
    ],
    ids=["nan", "inf", "negative", "ratio-underflow", "coupling-overflow", "coupling-underflow"],
)
def test_unusable_frame_diff_exits_2_or_3(flags, code, capsys):
    assert run(["frame-diff", *flags, "--format", "json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " if code == 2 else "numerical failure: ")
    assert captured.err.count("\n") == 1


_HUGE_MBAR = ["--mbar-e", "1e308", "--mbar-p", "1e308"]


@pytest.mark.parametrize(
    "argv, key, exact, roundings",
    [
        # Mbar g = 2e298: the sum and the product round.
        (["separate", *_HUGE_MBAR, "--g", "1e-10"], "cm_coupling_N",
         2 * Fraction(1e308) * Fraction(1e-10), 2),
        # M / Mbar = 5e-9: M, Mbar and the quotient round.
        (["frame-diff", "--m-e", "1e300", *_HUGE_MBAR, "--a-magnitude", "1"], "cm_mass_ratio",
         (Fraction(1e300) + Fraction(codata_defaults().m_p_ref)) / (2 * Fraction(1e308)), 3),
    ],
    ids=["separate", "frame-diff"],
)
def test_overflowing_mbar_sum_prints_its_normal_results(argv, key, exact, roundings, capsys):
    # mbar_e + mbar_p overflows a float, but the results built from it do not.
    assert run([*argv, "--format", "json"]) == 0
    value = json.loads(capsys.readouterr().out)[key]
    assert abs(Fraction(value) - exact) <= roundings * (1 + 2.0**-49) * math.ulp(float(exact))


def test_overflowing_coupling_difference_still_exits_3(capsys):
    # |A| a = 1e308 * 9.8 really overflows, with or without Mbar carried.
    assert run(["frame-diff", "--m-e", "1e300", *_HUGE_MBAR, "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: internal_coupling_difference is inf")


@pytest.mark.parametrize(
    "flags", [["--spacing", "0"], ["--spacing=-0.01"], ["--r-max", "inf"], ["--spacing", "1e-320"]]
)
def test_unusable_spectrum_grid_exits_2(flags, capsys):
    assert run(["spectrum", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_frame_check_without_steps_exits_2(steps, capsys):
    assert run(["frame-check", "--grid", "512", "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: steps must be at least 1\n"


@pytest.mark.parametrize("a", ["inf", "-inf", "nan"])
def test_non_finite_frame_acceleration_exits_2(a, capsys):
    assert run(["frame-check", f"--a={a}", "--grid", "512", "--steps", "256"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: acceleration must be finite\n"


# Each grid asks for more than the 128 TiB user address space of a 64-bit
# Linux process, so its first array fails to allocate at once, whatever the
# host's memory and overcommit policy.
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--r-max", "1e12"],
        ["stability", "--spacing", "1e-12"],
        ["stability", "--boxes", "1e13,2e13,3e13"],
        ["frame-check", "--grid", str(2**46), "--steps", "1"],
    ],
    ids=["spectrum-r-max", "stability-spacing", "stability-boxes", "frame-check-grid"],
)
def test_unallocatable_grid_exits_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        [*command, *stable]
        for command in (["lifetime"], ["split", "--n", "2"], ["separate"])
        for stable in (["--equivalence"], ["--mbar-e-ratio", "1.1", "--g", "0"])
    ]
    + [
        ["frame-diff", "--equivalence"],
        ["frame-diff", "--mbar-e-ratio", "1.1", "--a-magnitude", "0"],
    ],
    ids=[
        f"{command}-{case}"
        for command in ("lifetime", "split", "separate", "frame-diff")
        for case in ("equivalence", "zero-field")
    ],
)
def test_stable_atom_is_reported_not_raised(argv, capsys):
    # With no internal coupling there is nothing to estimate or split; every
    # command reports that case on stdout, with no error.
    assert run([*argv, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["constants"],
        ["separate", "--mbar-e-ratio", "1.1"],
        ["split", "--n", "2", "--mbar-e-ratio", "1.1"],
        ["frame-diff", "--mbar-e-ratio", "1.1"],
    ],
    ids=["constants", "separate", "split", "frame-diff"],
)
def test_unopenable_output_exits_2(argv, tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.csv"
    assert run([*argv, "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(target) in captured.err
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


def test_frame_check_phase_overflow_exits_3(capsys):
    # Each run is refused before a path is built, and warns nothing: at
    # a = 1e160, t = 1e-80 the action a^2 t^3 / 3 overflows, and at a = 1e154,
    # t = 1e-77 the finite phase m a t = 1e77 lies far beyond pi / dx = 33.5,
    # where the grid cannot resolve it (this run once printed fidelity 0.43).
    for a, time in [("1e160", "1e-80"), ("1e154", "1e-77")]:
        argv = ["frame-check", "--a", a, "--time", time, "--grid", "512", "--steps", "64"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: ")
        assert captured.err.count("\n") == 1


def test_frame_check_escape_exits_3(capsys):
    # the accelerated path is pushed 25 units across a 48-unit grid; its kicked
    # band 55 fits below pi / dx = 134 on 2048 points, not below 33.5 on 512
    code = run(["frame-check", "--a", "50", "--time", "1", "--grid", "2048", "--steps", "4096"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: wavepacket reached the grid boundary")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flags",
    [
        ["--spacing", "0"],
        ["--spacing", "-0.05"],
        ["--spacing", "100"],
        ["--boxes", "50,100,inf"],
        ["--boxes", "50,100,nan"],
        ["--boxes", "0.01,0.02,0.03"],
        ["--f-atomic", "inf"],
        ["--window", "-0.02", "inf"],
        # The centre 5e299 absorbs every |level - centre|.
        ["--window", "-0.02", "1e300"],
    ],
)
def test_unusable_stability_grid_exits_2(flags, capsys):
    code = run(["stability", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


_TOO_WIDE_WINDOWS = {
    # The centre 5e299 would pick the ground level -0.50026 as the nearest.
    "ground-level": ["--boxes", "20,30,40", "--spacing", "0.1", "--window", "-10", "1e300"],
    # A solve of the whole spectrum on 19,021 points, 118 s, would pick the
    # first box's lowest level, 4.6e137 Hartree.
    "whole-spectrum": [
        "--spacing=6.255410639110829e-72",
        "--boxes=3.265324353615853e-69,6.311709334862826e-69,1.189904211771662e-67",
        "--f-atomic=2.039860990150016e+112", "--window", "-0.02", "1e+300",
    ],
}


@pytest.mark.parametrize("flags", _TOO_WIDE_WINDOWS.values(), ids=_TOO_WIDE_WINDOWS.keys())
def test_too_wide_stability_window_is_refused_before_any_solve(flags, monkeypatch, capsys):
    import scipy.linalg

    solves = []
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", lambda *a, **k: solves.append(k))
    start = time.perf_counter()
    code = run(["stability", *flags])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: energy window [")
    assert "too wide" in captured.err and captured.err.count("\n") == 1
    assert solves == []
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["stability", "--window", "-1e-3", "0.02"], 0),
        (["frame-check", "--a", "-1e-3", "--grid", "512", "--steps", "256"], 0),
        (["stability", "--window", "-inf", "0.02"], 2),
    ],
    ids=["window", "acceleration", "minus-inf"],
)
def test_negative_values_in_scientific_notation_are_read_as_values(argv, code, capsys):
    # argparse alone takes "-1e-3" and "-inf" for unknown flags: a usage error.
    assert run(argv) == code
    assert "usage:" not in capsys.readouterr().err


# --- every accepted scalar input: finite normal numbers, or exit 2 or 3 ---------

_EXTREMES = [0.0, 1e-300, -1e-300, 1e300, -1e300]
_INERTIAL_EXTREMES = [1e-300, 1e-110, 1e300, 1e308]


def _mass_flags(flag, reference, extremes, ratios):
    """``--x=KG`` or ``--x-ratio=R``, with the kilograms it asks for."""
    extreme = st.tuples(st.sampled_from(["", "-ratio"]), st.sampled_from(extremes)).map(
        lambda f: (f"{flag}{f[0]}={f[1]!r}", f[1] * reference if f[0] else f[1])
    )
    ratio = ratios.map(lambda r: (f"{flag}-ratio={r!r}", r * reference))
    return st.one_of(extreme, ratio)


_CONSTS = codata_defaults()
_FIELD = st.one_of(st.just(0.0), st.floats(-300.0, 300.0).map(lambda e: 10.0**e))
_COMMANDS = st.one_of(
    st.just((["separate"], "--g")),
    st.just((["frame-diff"], "--a-magnitude")),
    st.just((["lifetime"], "--g")),
    st.integers(1, 50).map(lambda n: (["split", "--n", str(n), "--no-oracle"], "--g")),
    st.integers(1, 6).map(
        lambda n: (["split", "--n", str(n), "--no-oracle", "--per-state"], "--g")
    ),
    # The oracle's cold basis grows with n; n = 20 and 50 come as examples.
    st.integers(1, 8).map(lambda n: (["split", "--n", str(n)], "--g")),
)


def _printed_floats(out, output_format):
    if output_format == "json":
        payload = json.loads(out)
        rows = payload if isinstance(payload, list) else [payload]
        return [v for row in rows for v in row.values() if type(v) is float], rows
    rows = list(csv.DictReader(io.StringIO(out)))
    numbers = []
    for row in rows:
        for cell in row.values():
            with contextlib.suppress(ValueError):
                numbers.append(float(cell))
    return numbers, rows


@settings(max_examples=250)
# The oracle column at larger n, on CODATA-like and on huge masses.
@example(
    command=(["split", "--n", "20"], "--g"),
    m_e=("--m-e-ratio=1.0", _CONSTS.m_e_ref),
    m_p=("--m-p-ratio=1.0", _CONSTS.m_p_ref),
    mbar_e=("--mbar-e-ratio=1.1", 1.1 * _CONSTS.m_e_ref),
    mbar_p=("--mbar-p-ratio=1.0", _CONSTS.m_p_ref),
    equivalence=False,
    g=9.8,
    output_format="csv",
)
@example(
    command=(["split", "--n", "50"], "--g"),
    m_e=("--m-e=1e+300", 1e300),
    m_p=("--m-p-ratio=1.0", _CONSTS.m_p_ref),
    mbar_e=("--mbar-e-ratio=1.0", _CONSTS.m_e_ref),
    mbar_p=("--mbar-p=1e+300", 1e300),
    equivalence=False,
    g=1e-3,
    output_format="json",
)
# Each product mbar m overflows a float, but A = mbar_p m_e / M is 1e300 kg.
@example(
    command=(["lifetime"], "--g"),
    m_e=("--m-e=1e+308", 1e308),
    m_p=("--m-p-ratio=1.0", _CONSTS.m_p_ref),
    mbar_e=("--mbar-e-ratio=1.0", _CONSTS.m_e_ref),
    mbar_p=("--mbar-p=1e+300", 1e300),
    equivalence=False,
    g=0.0,
    output_format="json",
)
# Each product mbar m underflows to 0, but A is about -9.1e-221 kg: not stable.
@example(
    command=(["lifetime"], "--g"),
    m_e=("--m-e=1e-110", 1e-110),
    m_p=("--m-p=1e-300", 1e-300),
    mbar_e=("--mbar-e-ratio=1.0", _CONSTS.m_e_ref),
    mbar_p=("--mbar-p=-1e-300", -1e-300),
    equivalence=False,
    g=9.8,
    output_format="json",
)
@given(
    command=_COMMANDS,
    m_e=_mass_flags("--m-e", _CONSTS.m_e_ref, _INERTIAL_EXTREMES, st.floats(0.5, 2.0)),
    m_p=_mass_flags("--m-p", _CONSTS.m_p_ref, _INERTIAL_EXTREMES, st.floats(0.5, 2.0)),
    mbar_e=_mass_flags("--mbar-e", _CONSTS.m_e_ref, _EXTREMES, st.floats(-3.0, 3.0)),
    mbar_p=_mass_flags("--mbar-p", _CONSTS.m_p_ref, _EXTREMES, st.floats(-3.0, 3.0)),
    equivalence=st.sampled_from([False, False, False, True]),
    g=_FIELD,
    output_format=st.sampled_from(["csv", "json"]),
)
def test_scalar_commands_print_normal_floats_or_exit_2_or_3(
    command, m_e, m_p, mbar_e, mbar_p, equivalence, g, output_format
):
    argv, field_flag = command
    masses = [m_e[0], m_p[0]]
    if equivalence:
        masses.append("--equivalence")
        m_e_kg, m_p_kg, mbar_e_kg, mbar_p_kg = m_e[1], m_p[1], m_e[1], m_p[1]
    else:
        masses += [mbar_e[0], mbar_p[0]]
        m_e_kg, m_p_kg, mbar_e_kg, mbar_p_kg = m_e[1], m_p[1], mbar_e[1], mbar_p[1]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, *masses, f"{field_flag}={g!r}", "--format", output_format])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
        assert err.count("\n") == 1
        return
    numbers, rows = _printed_floats(out, output_format)
    for value in numbers:
        assert math.isfinite(value), (argv, masses, value)
        assert math.copysign(1.0, value) == 1.0 or value != 0.0, (argv, "-0.0")
        assert value == 0.0 or abs(value) >= sys.float_info.min, (argv, masses, value)
    if argv[0] == "split" and "--no-oracle" not in argv:
        for row in rows:
            shift, oracle = float(row["shift_J"]), float(row["shift_oracle_J"])
            if shift == 0.0:
                assert oracle == 0.0, (argv, masses, g, row)
            else:
                assert abs(oracle - shift) <= 1e-11 * abs(shift), (argv, masses, g, row)
    if argv[0] == "lifetime":
        # A M = mbar_p m_e - mbar_e m_p in exact arithmetic.  The package rounds
        # both products, so A within a few ulps of them may come out either way.
        products = (
            Fraction(mbar_p_kg) * Fraction(m_e_kg),
            Fraction(mbar_e_kg) * Fraction(m_p_kg),
        )
        asymmetry = products[0] - products[1]
        stable = rows[0]["stable"] in (True, "true")
        if asymmetry == 0 or g == 0.0:
            assert stable, (masses, g)
        elif abs(asymmetry) > 2.0**-50 * max(map(abs, products)):
            assert not stable, (masses, g)


# --- every accepted array input: finite numbers, or exit 2 or 3 -----------------

def _decades(lo, hi):
    """10**e for e drawn from [lo, hi]: 0.0 below the float range."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


_SPECIAL = st.sampled_from([0.0, -0.01, math.inf, math.nan])
# At most 20,000 points on every grid (the radial solve's second grid has twice
# as many), and a frame grid of at most 2048 points stepped at most 512 times.
_SPECTRUM = st.builds(
    lambda l, count, spacing, points: [
        "spectrum", f"--l={l}", f"--count={count}",
        f"--spacing={spacing!r}", f"--r-max={points * spacing!r}",
    ],
    st.integers(0, 4),
    st.integers(0, 11),
    st.one_of(st.floats(0.005, 0.2), _decades(-330.0, 1.0), _SPECIAL),
    st.one_of(st.integers(200, 20_000), st.integers(1, 20_000)),
)
_STABILITY = st.builds(
    lambda spacing, counts, force, window: [
        "stability", f"--spacing={spacing!r}",
        "--boxes=" + ",".join(repr(count * spacing) for count in sorted(counts)),
        f"--f-atomic={force!r}", "--window", repr(window[0]), repr(window[1]),
    ],
    st.one_of(st.floats(0.02, 1.0), _decades(-330.0, 2.0), _SPECIAL),
    st.lists(st.integers(1, 20_000), min_size=3, max_size=3, unique=True),
    st.one_of(st.just(0.0), _decades(-12.0, 308.3), _SPECIAL),
    st.one_of(
        st.just((-0.02, 0.02)),
        st.just((-0.02, 1e300)),
        st.tuples(st.floats(-1.0, 0.5), st.floats(1e-6, 1.0)).map(lambda w: (w[0], w[0] + w[1])),
    ),
)
_FRAME_CHECK = st.builds(
    lambda a, time, grid, steps: [
        "frame-check", f"--a={a!r}", f"--time={time!r}", f"--grid={grid}", f"--steps={steps}",
    ],
    st.one_of(st.floats(-5.0, 5.0), st.sampled_from([1e154, -1e300, math.inf, math.nan])),
    st.one_of(st.floats(-0.5, 2.0), _decades(-330.0, 308.0), _SPECIAL),
    st.sampled_from([128, 256, 300, 512, 1024, 2048]),
    st.integers(0, 512),
)


def _assert_scan_solves_leaves(calls, argv):
    """Each box of a ``stability`` scan takes at most 2**8 solves, none wider
    than a depth-8 leaf of its search range clipped to the interval LAPACK
    bisects, except a single solve of that whole range where a leaf could lie
    inside the bisection's stopping width or ``stebz`` splits the matrix."""
    import numpy as np

    from gravstark import oracle

    lo, hi = -0.02, 0.02
    if "--window" in argv:
        at = argv.index("--window")
        lo, hi = float(argv[at + 1]), float(argv[at + 2])
    boxes: dict = {}
    for call in calls:
        diag, off = call.args
        boxes.setdefault(diag.size, (diag, off, []))[2].append(call.kwargs["select_range"])
    for diag, off, ranges in boxes.values():
        assert len(ranges) <= 2**8, (argv, len(ranges))
        low, high = oracle._stebz_interval(diag, off)
        root = (max(low, lo - 0.6), min(high, hi + 0.6))
        leaf = (root[1] - root[0]) / 2**8
        if ranges == [root]:
            with np.errstate(over="ignore"):
                splits = np.any(
                    np.abs(diag[1:] * diag[:-1]) * 2.0**-104 + sys.float_info.min > off * off
                )
            norm = float(np.max(np.abs(diag))) + 2.0 * float(np.max(np.abs(off)))
            assert splits or not leaf > 16 * diag.size * sys.float_info.epsilon * norm, argv
            continue
        slack = 4.0 * math.ulp(max(map(abs, root)))
        assert all(b - a <= leaf * (1.0 + 1e-9) + slack for a, b in ranges), (argv, root)


@settings(max_examples=40)
# Coefficients that overflow: 1/h^2 at h = 1e-170 and 1e-160, F L at F = 1e308.
@example(argv=["spectrum", "--spacing", "1e-170", "--r-max", "1e-167"], output_format="csv")
@example(
    argv=["stability", "--spacing", "1e-170", "--boxes", "1e-168,2e-168,3e-168"],
    output_format="csv",
)
@example(
    argv=["stability", "--spacing", "1e-160", "--boxes", "1e-158,2e-158,3e-158"],
    output_format="json",
)
@example(argv=["stability", "--f-atomic", "1e308"], output_format="csv")
# A coarse grid, whose search range reaches below the spectrum's Gershgorin bound.
@example(
    argv=["stability", "--spacing=1.0", "--boxes=39.0,400.0,800.0", "--f-atomic=0.0"],
    output_format="csv",
)
# A window whose centre, 5e299, no level can be resolved against.
@example(argv=["stability", *_TOO_WIDE_WINDOWS["whole-spectrum"]], output_format="csv")
# A negative time is refused before either path is built.
@example(argv=["frame-check", "--time", "-1"], output_format="json")
@given(
    argv=st.one_of(_SPECTRUM, _STABILITY, _FRAME_CHECK),
    output_format=st.sampled_from(["csv", "json"]),
)
def test_array_commands_print_finite_numbers_or_exit_2_or_3(argv, output_format):
    from unittest import mock

    import scipy.linalg

    from gravstark import frames

    out, err = io.StringIO(), io.StringIO()
    solve = scipy.linalg.eigvalsh_tridiagonal
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(frames, "propagate", wraps=frames.propagate) as stepped, \
            mock.patch.object(scipy.linalg, "eigvalsh_tridiagonal", wraps=solve) as solved:
        warnings.simplefilter("always")
        code = run([*argv, "--format", output_format])
    out, err = out.getvalue(), err.getvalue()
    if argv[0] == "stability":
        _assert_scan_solves_leaves(solved.call_args_list, argv)
    assert code in (0, 2, 3), (argv, code)
    assert "Traceback" not in err
    assert "Warning" not in err and not caught, (argv, [str(w.message) for w in caught])
    if code != 0:
        assert out == ""
        assert err.count("\n") == 1, (argv, err)
        # A configuration error is found before any grid is stepped.
        assert code == 3 or not stepped.called, (argv, err)
        return
    numbers, _ = _printed_floats(out, output_format)
    assert numbers
    for value in numbers:
        assert math.isfinite(value), (argv, value)
