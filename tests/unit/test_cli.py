"""Tests for repro.cli — the loop-analysis report and campaign commands."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.ratio == 0.1
        assert args.separation == 4.0
        assert not args.plots and not args.symbolic

    def test_custom_values(self):
        args = build_parser().parse_args(
            ["--ratio", "0.2", "--separation", "6", "--leakage", "1e-6"]
        )
        assert args.ratio == 0.2
        assert args.separation == 6.0
        assert args.leakage == 1e-6


class TestMain:
    def test_basic_report(self, capsys):
        assert main(["--ratio", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "LTI" in out and "effective" in out
        assert "Floquet" in out
        assert "z-domain stable: True" in out

    def test_unstable_loop_reported(self, capsys):
        assert main(["--ratio", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "z-domain stable: False" in out
        assert "Floquet stable: False" in out

    def test_symbolic_section(self, capsys):
        assert main(["--ratio", "0.05", "--symbolic"]) == 0
        out = capsys.readouterr().out
        assert "coth" in out
        assert "A(s)" in out

    def test_leakage_section(self, capsys):
        assert main(["--ratio", "0.05", "--leakage", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "dBc" in out
        assert "static phase offset" in out

    def test_plots_section(self, capsys):
        assert main(["--ratio", "0.1", "--plots"]) == 0
        out = capsys.readouterr().out
        assert "|A| (a) vs |lambda| (L)" in out
        assert "L effective lambda" in out

    def test_bad_design_is_clean_error(self, capsys):
        # separation <= 1 is a DesignError -> exit code 2, message on stderr.
        assert main(["--separation", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_floquet_matches_zdomain_in_output(self, capsys):
        main(["--ratio", "0.15"])
        out = capsys.readouterr().out
        z_line = next(line for line in out.splitlines() if line.startswith("z-domain closed"))
        f_line = next(line for line in out.splitlines() if line.startswith("Floquet multipliers"))
        # The printed (rounded) pole sets agree.
        z_vals = z_line.split(":", 1)[1]
        f_vals = f_line.split(":", 1)[1]
        assert z_vals.strip() == f_vals.strip()


@pytest.mark.campaign
class TestCampaignCommand:
    @pytest.fixture
    def spec_path(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-map",
                    "task": "stability_limit",
                    "defaults": {"tol": 5e-3},
                    "space": {"kind": "grid", "axes": {"separation": [3.0, 4.0]}},
                }
            )
        )
        return path

    def test_run_then_status(self, spec_path, capsys):
        out_path = spec_path.parent / "map.results.jsonl"
        assert main(["campaign", "run", str(spec_path), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "2 ok" in out and str(out_path) in out

        assert main(["campaign", "status", str(out_path)]) == 0
        status_out = capsys.readouterr().out
        assert "cli-map" in status_out and "complete: True" in status_out

    def test_two_worker_run_prints_one_worker_line_per_point(self, spec_path, capfd):
        # Each lease worker prints the points it finishes, tagged with its
        # pid and its own count; the status line reports the whole run.
        out_path = spec_path.parent / "two.jsonl"
        argv = ["campaign", "run", str(spec_path), "--out", str(out_path), "--workers", "2"]
        assert main(argv) == 0
        lines = [line for line in capfd.readouterr().out.splitlines() if line.startswith("[")]
        assert len(lines) == 2
        assert all(line.startswith("[worker ") for line in lines)
        assert main(["campaign", "status", str(out_path)]) == 0
        assert "last run: lease x2" in capfd.readouterr().out

    def test_default_out_path_next_to_spec(self, spec_path, capsys):
        assert main(["campaign", "run", str(spec_path), "--quiet"]) == 0
        assert (spec_path.parent / "map.results.jsonl").exists()

    def test_status_of_partial_campaign_exits_one(self, spec_path, capsys):
        out_path = spec_path.parent / "partial.jsonl"
        main(["campaign", "run", str(spec_path), "--out", str(out_path), "--quiet"])
        capsys.readouterr()
        # Drop one point record to simulate an interrupted run.
        lines = out_path.read_text().splitlines()
        points = [l for l in lines if '"kind":"point"' in l]
        out_path.write_text("\n".join([lines[0], points[0]]) + "\n")

        assert main(["campaign", "status", str(out_path)]) == 1
        assert "1 pending" in capsys.readouterr().out

        # ...and resume finishes it.
        assert main(["campaign", "resume", str(out_path), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(out_path)]) == 0

    def test_run_refuses_existing_store_without_overwrite(self, spec_path, capsys):
        out_path = spec_path.parent / "dup.jsonl"
        main(["campaign", "run", str(spec_path), "--out", str(out_path), "--quiet"])
        capsys.readouterr()
        assert main(["campaign", "run", str(spec_path), "--out", str(out_path)]) == 2
        assert "already exists" in capsys.readouterr().err
        assert (
            main(
                ["campaign", "run", str(spec_path), "--out", str(out_path),
                 "--overwrite", "--quiet"]
            )
            == 0
        )

    def test_missing_or_invalid_spec_is_clean_error(self, tmp_path, capsys):
        assert main(["campaign", "run", str(tmp_path / "nope.json")]) == 2
        assert "no campaign spec" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["campaign", "run", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_tasks_listing(self, capsys):
        assert main(["campaign", "tasks"]) == 0
        out = capsys.readouterr().out
        for name in ("margins", "stability_limit", "standard_metrics", "band_map"):
            assert name in out

    def test_campaign_flags_do_not_disturb_report_defaults(self):
        args = build_parser().parse_args([])
        assert args.ratio == 0.1 and getattr(args, "command", None) is None
