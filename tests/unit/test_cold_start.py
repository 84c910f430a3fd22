"""Campaign processes and the margins path run without scipy.

``import repro.cli``, a ``design_summary`` point, a ``stability_cell``
point, a ``margins`` point and the README quickstart ``compare_margins``
need only numpy: margins of a loop with ``lambda(s) = G_z(e^{sT})`` come
from polynomial roots.  The scipy routines (``brentq`` for the scan path's
crossover refinement, ``expm`` for exact state-space steps) are imported on
first use.  The check runs in a fresh interpreter, because this test
process has loaded scipy already.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import sys

import repro.cli
from repro.campaign.tasks import get_task


def assert_scipy_unloaded(after):
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, (after, loaded)


get_task("design_summary")({"separation": 4.0, "ratio": 0.1})
assert_scipy_unloaded("design_summary")
get_task("stability_cell")({"separation": 4.0, "ratio": 0.1})
assert_scipy_unloaded("stability_cell")
get_task("margins")({"separation": 4.0, "ratio": 0.1})
assert_scipy_unloaded("margins")

import numpy as np
from repro import FrequencyGrid, compare_margins, design_typical_loop

omega0 = 2 * np.pi
pll = design_typical_loop(omega0=omega0, omega_ug=0.15 * omega0)
grid = FrequencyGrid.baseband(omega0, points=4000)
print(compare_margins(pll, grid=grid).summary())
assert_scipy_unloaded("compare_margins")
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
