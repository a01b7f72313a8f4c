"""The package imports numpy and scipy only inside the routes that need
them, never ``dataclasses`` or ``inspect``, and ``json`` only for JSON input
or output; it exports exactly its agreed public names.

Each import check runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds numpy and scipy from other test modules.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import gravstark

SRC = Path(__file__).resolve().parents[1] / "src"

# Subcommands that must finish without loading any scipy module;
# `lifetime` evaluates its barrier integral in closed form.
SCIPY_FREE_COMMANDS = {
    "constants": ["constants"],
    "separate": ["separate", "--mbar-e-ratio", "1.1"],
    "frame-diff": ["frame-diff", "--mbar-e-ratio", "1.1"],
    "frame-check": ["frame-check", "--time", "0.5", "--grid", "512", "--steps", "256"],
    "lifetime-stable": ["lifetime", "--mbar-e-ratio", "1.1", "--g", "0"],
    "lifetime": ["lifetime", "--mbar-e-ratio", "1.1", "--g", "9.8"],
    "split-n1": ["split", "--n", "1", "--mbar-e-ratio", "1.1", "--g", "9.8"],
}

# Subcommands that do scalar arithmetic only and must load neither numpy nor scipy;
# the `split` oracle column is built in exact rationals at every n, and needs no
# build at all where parity (n = 1) or a zero coupling fixes every shift.
NUMPY_FREE_COMMANDS = {
    "constants": ["constants"],
    "separate": ["separate", "--mbar-e-ratio", "1.1"],
    "frame-diff": ["frame-diff", "--mbar-e-ratio", "1.1"],
    "lifetime-stable": ["lifetime", "--mbar-e-ratio", "1.1", "--g", "0"],
    "lifetime": ["lifetime", "--mbar-e-ratio", "1.1", "--g", "9.8"],
    "split-no-oracle": ["split", "--n", "3", "--mbar-e-ratio", "1.1", "--no-oracle"],
    "split-per-state": ["split", "--n", "3", "--mbar-e-ratio", "1.1", "--per-state"],
    "split-n1": ["split", "--n", "1", "--mbar-e-ratio", "1.1"],
    "split-zero-coupling": ["split", "--n", "3", "--g", "0"],
    "split-n2": ["split", "--n", "2", "--mbar-e-ratio", "1.1", "--g", "9.8"],
    "split-n4": ["split", "--n", "4", "--mbar-e-ratio", "1.1", "--g", "9.8"],
    "split-n50": ["split", "--n", "50", "--mbar-e-ratio", "1.1"],
}

PROBE = """
import json, os, sys

commands, families = json.loads(sys.argv[1]), json.loads(sys.argv[2])

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] in families)

report = {}
import gravstark
report["import gravstark"] = loaded()
import gravstark.cli
report["import gravstark.cli"] = loaded()
for label, argv in commands.items():
    code = gravstark.cli.run([*argv, "--output", os.devnull])
    report[label] = loaded() if code == 0 else f"exit {code}"
print(json.dumps(report))
"""


def run_fresh(script: str, *args: str) -> str:
    """Standard output of ``script`` run with ``args`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return done.stdout


def probe(commands: dict, families: list[str]) -> dict:
    """Per stage, the modules of ``families`` loaded after running it in one fresh process."""
    report = json.loads(run_fresh(PROBE, json.dumps(commands), json.dumps(families)))
    assert list(report) == ["import gravstark", "import gravstark.cli", *commands]
    return report


def test_import_and_scipy_free_commands_load_no_scipy():
    report = probe(SCIPY_FREE_COMMANDS, ["scipy"])
    assert report == {stage: [] for stage in report}


def test_import_and_scalar_commands_load_no_numpy():
    report = probe(NUMPY_FREE_COMMANDS, ["numpy", "scipy", "dataclasses", "inspect"])
    assert report == {stage: [] for stage in report}


# Runs every scalar command as CSV, then one as JSON, and prints after each
# whether json is loaded; it imports no json itself.
CSV_PROBE = """
import os, sys

import gravstark.cli

for argv in sys.argv[1:]:
    code = gravstark.cli.run([*argv.split(), "--format", "csv", "--output", os.devnull])
    print("json" in sys.modules if code == 0 else f"exit {code}")
gravstark.cli.run(["constants", "--format", "json", "--output", os.devnull])
print("json" in sys.modules)
"""


def test_csv_output_loads_no_json():
    commands = [" ".join(argv) for argv in NUMPY_FREE_COMMANDS.values()]
    lines = run_fresh(CSV_PROBE, *commands).splitlines()
    # The last line shows the probe sees json once a JSON call loads it.
    assert lines == ["False"] * len(commands) + ["True"]


# A name joins this list only when the CLI or a documented workflow calls it.
PUBLIC_NAMES = {
    # constants, masses, separation
    "PhysicalConstants", "atomic_scale", "codata_defaults",
    "CompositeMasses", "MassModel", "derive_composites", "model_with_asymmetry",
    "FieldSpec", "separate_gravitational",
    # closed forms
    "ParabolicLevel", "evaluate_levels", "splitting_table", "compare_lifetimes",
    # numerical routes
    "degenerate_pt", "radial_eigensolve", "stabilization_scan",
    "frame_discrepancy", "frame_equivalence_check", "Wavefunction1D",
    "fidelity", "gaussian_packet", "propagate",
    # errors
    "BoundaryEscapeError", "DomainEscapeError", "EigensolverError", "EmptyWindowError",
    "GravstarkError", "GridResolutionError", "NoBarrierError", "PropagationError",
    "StabilityBoundError",
    "UndefinedRatioError", "UnrepresentableError",
}


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 33
    assert set(gravstark.__all__) == PUBLIC_NAMES
    assert len(gravstark.__all__) == len(PUBLIC_NAMES)
    # Lazily exported names resolve on first access and then sit in the
    # namespace like the eager ones; nothing else public is left there.
    for name in PUBLIC_NAMES:
        assert getattr(gravstark, name).__name__ == name
    with pytest.raises(AttributeError):
        gravstark.no_such_name
    exported = {
        name
        for name, value in vars(gravstark).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
