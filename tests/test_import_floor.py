"""The package imports scipy only inside the solvers that need it.

Each check runs in a fresh interpreter, because ``sys.modules`` of the test
process already holds scipy from other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
