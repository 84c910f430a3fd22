"""Tests for repro.pll.sweeps and FourierSeries.from_samples."""

import csv

import numpy as np
import pytest

from repro._errors import ValidationError
from repro.pll.design import design_typical_loop
from repro.pll.sweeps import standard_metrics, sweep
from repro.signals.fourier import FourierSeries

W0 = 2 * np.pi


def designer(ratio):
    return design_typical_loop(omega0=W0, omega_ug=ratio * W0)


class TestSweep:
    def test_basic_metrics(self):
        result = sweep(
            "ratio",
            [0.05, 0.15],
            designer,
            {"pm_eff": lambda pll: 1.0, "two": lambda pll: 2.0},
        )
        assert np.allclose(result.metric("pm_eff"), 1.0)
        assert np.allclose(result.metric("two"), 2.0)

    def test_failures_become_nan(self):
        def exploding(pll):
            raise RuntimeError("boom")

        result = sweep("ratio", [0.05], designer, {"bad": exploding, "ok": lambda p: 7.0})
        assert np.isnan(result.metric("bad")[0])
        assert result.metric("ok")[0] == 7.0

    def test_unknown_metric_rejected(self):
        result = sweep("ratio", [0.05], designer, {"a": lambda p: 1.0})
        with pytest.raises(ValidationError):
            result.metric("b")

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValidationError):
            sweep("r", [], designer, {"a": lambda p: 1.0})
        with pytest.raises(ValidationError):
            sweep("r", [0.1], designer, {})

    def test_standard_metrics_on_real_sweep(self):
        result = sweep("ratio", [0.05, 0.15, 0.3], designer, standard_metrics())
        pm_eff = result.metric("pm_eff")
        assert pm_eff[0] > pm_eff[1]
        assert np.isnan(pm_eff[2])  # no unity crossing at 0.3 -> NaN, not crash
        # The three margin metrics share one compare_margins: all NaN together.
        assert np.isnan(result.metric("pm_lti")[2])
        assert np.isnan(result.metric("bandwidth_extension")[2])
        dom = result.metric("dominant_pole_real")
        assert dom[0] < 0 and dom[1] < 0 and dom[2] > 0  # instability visible
        mod = result.metric("modulus_margin")
        assert mod[0] > mod[1] > mod[2]

    def test_standard_metrics_measure_margins_once_per_design(self, monkeypatch):
        from repro.pll import margins

        designs = []
        compare = margins.compare_margins

        def counting(pll, *args, **kwargs):
            designs.append(pll)
            return compare(pll, *args, **kwargs)

        monkeypatch.setattr(margins, "compare_margins", counting)
        metrics = standard_metrics()
        for ratio in (0.05, 0.15):
            pll = designer(ratio)
            for name in ("pm_lti", "pm_eff", "bandwidth_extension"):
                metrics[name](pll)
        assert len(designs) == 2

    def test_csv_export_with_campaign_metadata(self, tmp_path):
        result = sweep("ratio", [0.05, 0.1], designer, {"m": lambda p: 3.0})
        path = result.to_csv(tmp_path / "sweep.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        # Sweeps run through the campaign engine, so metadata columns are on
        # by default; each point id is the deterministic content hash.
        assert rows[0] == ["campaign", "point_id", "ratio", "m"]
        assert len(rows) == 3
        assert rows[1][0] == "sweep:ratio"
        assert rows[1][1] == result.point_ids[0]

    def test_csv_export_bare_table(self, tmp_path):
        result = sweep("ratio", [0.05, 0.1], designer, {"m": lambda p: 3.0})
        path = result.to_csv(tmp_path / "sweep.csv", include_metadata=False)
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["ratio", "m"]
        assert len(rows) == 3

    def test_from_records_roundtrip(self, tmp_path):
        from repro.pll.sweeps import SweepResult

        result = sweep(
            "ratio",
            [0.05, 0.1],
            designer,
            {"m": lambda p: 3.0},
            store_path=tmp_path / "sweep.jsonl",
        )
        from repro.campaign import ResultStore

        store = ResultStore.open(tmp_path / "sweep.jsonl")
        back = SweepResult.from_records(
            "ratio", store.point_records(), campaign=result.campaign
        )
        assert np.allclose(back.values, result.values)
        assert np.allclose(back.metric("m"), result.metric("m"))
        assert back.point_ids == result.point_ids


class TestFromSamples:
    def test_roundtrip_with_evaluation(self):
        fs = FourierSeries([0.2j, 1.0, 0.5 - 0.1j], W0)
        samples = fs.sample(16)
        back = FourierSeries.from_samples(samples, W0, order=1)
        assert np.allclose(back.coefficients, fs.coefficients, atol=1e-12)

    def test_matches_from_function(self):
        func = lambda t: np.cos(W0 * t) + 0.3
        direct = FourierSeries.from_function(func, W0, order=2)
        t = np.arange(32) / 32.0
        sampled = FourierSeries.from_samples(func(t), W0, order=2)
        assert np.allclose(direct.coefficients, sampled.coefficients, atol=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValidationError):
            FourierSeries.from_samples(np.ones(4), W0, order=2)
