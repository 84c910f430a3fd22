"""Accept-and-warn shims for the removed compute-backend and batch-adapter seams.

Every public function that took ``backend=`` still accepts it for one
release: it emits exactly one ``DeprecationWarning``, ignores the value
and returns the same bits as the call without it.  The batch-adapter
names stay importable: ``register_batch_task`` warns and registers
nothing, ``get_batch_task`` always answers ``None``.
"""

import warnings

import numpy as np
import pytest

from repro.campaign import CampaignSpec, ListSpace, run_campaign
from repro.campaign.tasks import get_batch_task, register_batch_task
from repro.core.grid import FrequencyGrid
from repro.core.operators import FeedbackOperator
from repro.experiments.band_map import run_band_map
from repro.pll.closedloop import ClosedLoopHTM
from repro.pll.design import design_typical_loop
from repro.pll.margins import compare_margins, compare_margins_batch, margin_sweep
from repro.pll.noise import NoiseAnalysis
from repro.pll.openloop import open_loop_operator
from repro.pll.sweeps import closed_loop_response_surface, sweep

W0 = 2 * np.pi
GRID = FrequencyGrid.linear(0.01 * W0, 0.45 * W0, 24)
S = 1j * np.linspace(0.05, 2.5, 9)


def _pll(ratio=0.1):
    return design_typical_loop(omega0=W0, omega_ug=ratio * W0)


def _margins(m):
    return [m.omega_ug_lti, m.phase_margin_lti_deg, m.omega_ug_eff, m.phase_margin_eff_deg]


def _pm_eff(pll):
    return compare_margins(pll).phase_margin_eff_deg


CALLS = {
    "ClosedLoopHTM": lambda **kw: ClosedLoopHTM(_pll(), **kw).frequency_response(GRID),
    "HarmonicOperator.evaluate": lambda **kw: FeedbackOperator(
        open_loop_operator(_pll())
    ).evaluate(S, 2, **kw).to_dense(),
    "compare_margins": lambda **kw: _margins(compare_margins(_pll(), **kw)),
    "compare_margins_batch": lambda **kw: [
        _margins(m) for m in compare_margins_batch([_pll(0.05), _pll(0.1)], **kw)
    ],
    "margin_sweep": lambda **kw: [
        _margins(m) for m in margin_sweep([0.05, 0.1], _pll, points=500, **kw)
    ],
    "NoiseAnalysis": lambda **kw: NoiseAnalysis(_pll(), **kw).reference_transfer(GRID),
    "sweep": lambda **kw: sweep(
        "ratio", [0.05, 0.1], _pll, {"pm_eff": _pm_eff}, **kw
    ).metric("pm_eff"),
    "closed_loop_response_surface": lambda **kw: closed_loop_response_surface(
        "ratio", [0.05, 0.1], _pll, GRID, **kw
    )[1],
    "run_band_map": lambda **kw: run_band_map(
        ratios=(0.1,), bands=1, points=16, **kw
    ).peak_gains,
}


def _deprecations(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, [w for w in caught if issubclass(w.category, DeprecationWarning)]


@pytest.mark.parametrize("name", sorted(CALLS))
def test_backend_argument_warns_once_and_is_ignored(name):
    call = CALLS[name]
    expected, quiet = _deprecations(call)
    got, warned = _deprecations(lambda: call(backend="numba"))
    assert quiet == []
    assert len(warned) == 1, [str(w.message) for w in warned]
    assert "backend" in str(warned[0].message)
    np.testing.assert_array_equal(np.asarray(got), np.asarray(expected))


def test_batch_seam_names_are_inert():
    def adapter(batch):
        return batch

    with pytest.warns(DeprecationWarning, match="register_batch_task"):
        decorate = register_batch_task("margins")
    assert decorate(adapter) is adapter
    assert get_batch_task("margins") is None

    import repro.campaign as campaign

    assert campaign.get_batch_task is get_batch_task
    assert campaign.register_batch_task is register_batch_task


def test_backend_point_parameter_is_ignored():
    point = {"ratio": 0.1, "separation": 4.0}
    plain = run_campaign(
        CampaignSpec.create(name="b", space=ListSpace.of([point]), task="margins")
    )
    tagged = run_campaign(
        CampaignSpec.create(
            name="b",
            space=ListSpace.of([point]),
            task="margins",
            defaults={"backend": "numba"},
        )
    )
    assert tagged.records[0]["status"] == "ok"
    assert tagged.records[0]["metrics"] == plain.records[0]["metrics"]
