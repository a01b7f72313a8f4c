"""The package imports scipy only inside the solvers that need it, and
exports exactly its agreed public names.

Each scipy check runs in a fresh interpreter, because ``sys.modules`` of the
test process already holds scipy from other test modules.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import gravstark

SRC = Path(__file__).resolve().parents[1] / "src"

# Subcommands that must finish without loading any scipy module;
# `lifetime` at zero field takes the stable path and never reaches the WKB quadrature;
# the n = 1 oracle manifold is zero by parity and solves no radial grid.
SCIPY_FREE_COMMANDS = {
    "constants": ["constants"],
    "separate": ["separate", "--mbar-e-ratio", "1.1"],
    "frame-diff": ["frame-diff", "--mbar-e-ratio", "1.1"],
    "frame-check": ["frame-check", "--time", "0.5", "--grid", "512", "--steps", "256"],
    "lifetime-stable": ["lifetime", "--mbar-e-ratio", "1.1", "--g", "0"],
    "split-n1": ["split", "--n", "1", "--mbar-e-ratio", "1.1", "--g", "9.8"],
}

PROBE = """
import json, os, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

report = {}
import gravstark
report["import gravstark"] = scipy_modules()
import gravstark.cli
report["import gravstark.cli"] = scipy_modules()
for label, argv in json.loads(sys.argv[1]).items():
    code = gravstark.cli.run([*argv, "--output", os.devnull])
    report[label] = scipy_modules() if code == 0 else f"exit {code}"
print(json.dumps(report))
"""


def test_import_and_scipy_free_commands_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(SCIPY_FREE_COMMANDS)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    report = json.loads(done.stdout)
    assert list(report) == ["import gravstark", "import gravstark.cli", *SCIPY_FREE_COMMANDS]
    assert report == {stage: [] for stage in report}


# A name joins this list only when the CLI or a documented workflow calls it.
PUBLIC_NAMES = {
    # constants, masses, separation
    "PhysicalConstants", "atomic_scale", "codata_defaults",
    "CompositeMasses", "MassModel", "codata_model", "derive_composites",
    "equivalence_holds", "model_with_asymmetry",
    "FieldSpec", "separate_gravitational", "verify_separability",
    # closed forms
    "ParabolicLevel", "enumerate_levels", "evaluate_levels", "first_order_shift",
    "splitting_table", "unperturbed_energy", "closed_form_lifetime", "compare_lifetimes",
    "wkb_rate",
    # numerical routes
    "degenerate_pt", "manifold_matrix", "radial_eigensolve", "stabilization_scan",
    "FrameTrajectory", "frame_discrepancy", "frame_equivalence_check",
    "transform_wavefunction", "PropagationSpec", "Wavefunction1D", "fidelity",
    "gaussian_packet", "mean_momentum", "propagate",
    # errors
    "BoundaryEscapeError", "DomainEscapeError", "EigensolverError", "EmptyWindowError",
    "GravstarkError", "GridResolutionError", "NoBarrierError", "PropagationError",
    "QuadratureError", "ResourceLimitError", "StabilityBoundError", "StableAtomSignal",
    "UndefinedRatioError", "UnrepresentableError",
}


def test_package_exports_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(gravstark).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 49
    assert exported == PUBLIC_NAMES
