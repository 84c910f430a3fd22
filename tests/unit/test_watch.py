"""Tests for the ``repro campaign watch`` dashboard and CLI path validation."""

import io
import shutil

import pytest

from repro._errors import ValidationError
from repro.campaign import CampaignSpec, ListSpace, run_campaign
from repro.campaign.store import ResultStore
from repro.campaign.watch import _bar, _eta_seconds, _fmt_bytes, _fmt_seconds, render, watch
from repro.cli import main
from repro.obs import trace as obs_trace

pytestmark = pytest.mark.campaign


def double(params):
    return {"y": params["x"] * 2.0}


def _run(store, n=6, **kwargs):
    spec = CampaignSpec.create(
        name="watched",
        space=ListSpace.of([{"x": float(i)} for i in range(n)]),
        task=double,
    )
    return run_campaign(spec, store, **kwargs)


class TestRender:
    def test_complete_run_frame(self, tmp_path):
        store = tmp_path / "r.jsonl"
        _run(store)
        frame = render(store)
        first = frame.splitlines()[0]
        assert "watched" in first
        assert "COMPLETE" in first
        assert "manifest: spec" in frame
        assert "6/6 (100%)" in frame
        assert "finished: 6 ok / 0 failed" in frame
        assert "[" + "#" * 32 + "]" in frame

    def test_partial_store_frame(self, tmp_path):
        store = tmp_path / "r.jsonl"
        _run(store)
        # Truncate to header + 2 point lines: a mid-run (or killed) store.
        lines = store.read_text().splitlines()
        points = [ln for ln in lines if '"kind":"point"' in ln]
        store.write_text("\n".join([lines[0]] + points[:2]) + "\n")
        frame = render(store)
        assert "COMPLETE" not in frame.splitlines()[0]
        assert "2/6" in frame
        assert "4 pending" in frame
        assert "workers: none live (1 stopped)" in frame

    def test_stream_line_and_eta(self, tmp_path):
        store = tmp_path / "r.jsonl"
        _run(store)
        lines = store.read_text().splitlines()
        points = [ln for ln in lines if '"kind":"point"' in ln]
        store.write_text("\n".join([lines[0]] + points[:3]) + "\n")
        log_dir = obs_trace.trace_dir(store)
        shutil.rmtree(log_dir)  # the run's own samples; these replace them
        log_dir.mkdir()
        (log_dir / "w.jsonl").write_text(
            '{"kind":"sample","seq":0,"time":100.0,"done":0,"failed":0,'
            '"cache_hits":3,"cache_misses":1,"stalls":1,"worker":"w"}\n'
            '{"kind":"sample","seq":1,"time":103.0,"done":3,"failed":0,'
            '"cache_hits":3,"cache_misses":1,"stalls":1,"worker":"w"}\n'
        )
        frame = render(store)
        assert "stream: 2 sample(s)" in frame
        assert "cache 75% hit" in frame
        assert "1 stall(s)" in frame
        # 3 pending at 1 point/s observed -> ~3s
        assert "eta: ~3s at observed throughput" in frame

    def test_render_missing_store_raises(self, tmp_path):
        with pytest.raises(ValidationError):
            render(tmp_path / "absent.jsonl")

    def test_render_directory_raises_with_path(self, tmp_path):
        with pytest.raises(ValidationError, match=str(tmp_path)):
            render(tmp_path)


class TestWatchLoop:
    def test_once_prints_single_frame(self, tmp_path):
        store = tmp_path / "r.jsonl"
        _run(store)
        out = io.StringIO()
        assert watch(store, once=True, out=out) == 0
        assert "COMPLETE" in out.getvalue()
        assert "\x1b" not in out.getvalue()  # --once stays pipe-friendly

    def test_refresh_loop_exits_on_complete(self, tmp_path):
        store = tmp_path / "r.jsonl"
        _run(store)
        out = io.StringIO()
        assert watch(store, interval=0.01, out=out) == 0
        assert out.getvalue().startswith("\x1b[2J\x1b[H")


class TestHelpers:
    def test_bar_shapes(self):
        assert _bar(0, 0, 0) == "[" + "?" * 32 + "]"
        assert _bar(4, 0, 8).count("#") == 16
        # a single failure always gets at least one cell
        assert "x" in _bar(999, 1, 1000)

    def test_fmt_seconds(self):
        assert _fmt_seconds(45) == "45s"
        assert _fmt_seconds(600) == "10m"
        assert _fmt_seconds(8000) == "2.2h"

    def test_fmt_bytes(self):
        assert _fmt_bytes(123_000_000) == "123MB"

    def test_eta_none_without_throughput(self):
        assert _eta_seconds([], 5) is None
        assert _eta_seconds(
            [{"time": 1.0, "done": 2, "failed": 0}] * 2, 5
        ) is None  # no gain
        assert _eta_seconds(
            [
                {"time": 1.0, "done": 0, "failed": 0},
                {"time": 2.0, "done": 4, "failed": 0},
            ],
            0,
        ) is None  # nothing pending


class TestCli:
    def test_campaign_watch_once_exit_zero(self, tmp_path, capsys):
        store = tmp_path / "r.jsonl"
        _run(store)
        assert main(["campaign", "watch", str(store), "--once"]) == 0
        out = capsys.readouterr().out
        assert "COMPLETE" in out
        assert "manifest: spec" in out

    def test_campaign_watch_bad_path_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["campaign", "watch", str(missing), "--once"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_on_directory_names_path(self, tmp_path, capsys):
        assert main(["obs", "summary", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert str(tmp_path) in err
        assert "is a directory" in err

    def test_campaign_status_shows_manifest(self, tmp_path, capsys):
        store = tmp_path / "r.jsonl"
        _run(store)
        assert main(["campaign", "status", str(store)]) == 0
        assert "manifest" in capsys.readouterr().out


class TestStoreValidation:
    def test_open_directory_raises_with_path(self, tmp_path):
        with pytest.raises(ValidationError, match="is a directory"):
            ResultStore.open(tmp_path)
