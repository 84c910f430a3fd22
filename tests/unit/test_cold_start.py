"""A campaign process starts without scipy.

``import repro.cli`` and a ``design_summary`` point need only numpy; the
scipy routines (``brentq`` for crossover refinement, ``expm`` for exact
state-space steps) are imported on first use.  The check runs in a fresh
interpreter, because this test process has loaded scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import sys

import repro.cli
from repro.campaign.tasks import get_task

get_task("design_summary")({"separation": 4.0, "ratio": 0.1})
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded

import numpy as np
from repro import FrequencyGrid, compare_margins, design_typical_loop

omega0 = 2 * np.pi
pll = design_typical_loop(omega0=omega0, omega_ug=0.15 * omega0)
grid = FrequencyGrid.baseband(omega0, points=4000)
print(compare_margins(pll, grid=grid).summary())
"""


def test_cli_import_and_design_summary_leave_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == (
        "LTI: wUG=0.9425 PM=61.93 deg | effective: wUG=1.054 PM=47.84 deg (22.7% worse)"
    )
