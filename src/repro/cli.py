"""Command-line interface: loop-analysis report and campaign runner.

Loop report (the default command)::

    python -m repro --ratio 0.15 [--separation 4] [--omega0 6.2832]
                    [--icp 1e-3] [--leakage 0] [--plots] [--symbolic]

Designs the typical loop at the requested ``omega_UG / omega_0`` and prints
a full report: LTI metrics, effective (time-varying) metrics, z-domain
stability, Floquet multipliers, and optionally the symbolic closed forms
and an ASCII Bode chart — the complete workflow of the library in one
command.

Campaign engine (:mod:`repro.campaign`)::

    python -m repro campaign run SPEC.json [--out RESULTS.jsonl]
                    [--workers N] [--timeout S] [--retries N] ...
    python -m repro campaign resume RESULTS.jsonl [--workers N] [--retry-failed]
    python -m repro campaign status RESULTS.jsonl
    python -m repro campaign watch RESULTS.jsonl [--interval S] [--once]
    python -m repro campaign tasks

Multi-host execution (shared-filesystem lease workers)::

    python -m repro campaign init SPEC.json --out RESULTS.jsonl
    python -m repro campaign worker RESULTS.jsonl   # on any host, any number

``init`` creates the store and freezes the lease batch plan; each
``worker`` invocation joins the campaign elastically — claiming batch
leases, stealing expired ones from dead workers, and leaving when the
point set is covered (or after ``--max-idle`` seconds with nothing
claimable).  See ``docs/CAMPAIGNS.md`` ("Multi-host execution").

``SPEC.json`` holds a serialized :class:`repro.campaign.CampaignSpec`::

    {"name": "margins-map", "task": "margins",
     "defaults": {"omega0": 6.283185307179586},
     "space": {"kind": "grid",
               "axes": {"ratio": [0.05, 0.1, 0.2],
                        "separation": [2.0, 4.0, 8.0]}}}

``run`` executes every point into an append-only JSONL store — serially,
or on N lease workers on this host for ``--workers N`` (other hosts can
join that store with ``worker``); kill it at any moment and ``resume``
completes only the missing points.  ``status`` prints progress without
touching the campaign.

Observability reports (:mod:`repro.obs`)::

    REPRO_OBS=1 python -m repro campaign run SPEC.json ...
    python -m repro obs summary RESULTS.jsonl
    python -m repro obs top RESULTS.jsonl -n 10 [--by wall|cpu|count]
    python -m repro obs health RESULTS.jsonl [-n 10] [--severity warning]
                    [--fail-on warning|error]
    python -m repro obs export RESULTS.jsonl [MORE ...]
                    [--json | --csv | --trace out.json] [--out obs.json]
    python -m repro obs trace RESULTS.jsonl [--serve-log serve.trace.jsonl]
                    [--trace-id HEX32] [--out trace.json]
    python -m repro obs profile RESULTS.jsonl [--serve-log FILE ...]
                    [--out collapsed.txt] [--html flame.html] [--top N] [--json]
    python -m repro obs slo RESULTS.jsonl [--spec slo.json]
                    [--fail-on breach] [--json]

``SOURCE`` is a campaign result store (the merged span/counter snapshot is
read from its summary record) or a raw obs snapshot JSON, e.g. one written
through ``REPRO_OBS_EXPORT=path``; several sources merge into one view.
``obs health`` reports the numerical health events the core probes emitted
(see ``docs/OBSERVABILITY.md``) and, with ``--fail-on``, exits nonzero when
events at or above that severity occurred — the CI gate.  ``--trace``
writes Chrome Trace Event Format for ``chrome://tracing`` / Perfetto.
``obs trace``, ``obs profile`` and ``obs slo`` read the store's telemetry
logs, one per worker process under ``<store>.trace/`` (plus serve logs).
``obs trace`` is the *distributed* collector: it merges their spans and
samples into one Chrome trace with per-host/per-worker lanes and a
critical-path summary.  ``obs profile`` is its statistical-profiling
sibling: it merges their profile deltas into collapsed-stack text or a
d3-flamegraph HTML page.  ``obs slo`` evaluates declarative SLOs
(multi-window burn rates) over the run-wide sum of the workers' samples;
``--fail-on breach`` makes it a CI gate.

Benchmark baselines (:mod:`repro.obs.baseline`)::

    python -m repro bench compare CURRENT.jsonl [...] \
                    --baseline BENCH_baseline.json [--tolerance 25%]
                    [--min-seconds 0.01] [--report report.json]

Diffs bench ``--json-out`` JSONL against the committed baseline and exits
nonzero when a gated metric (``*_seconds`` lower-better, ``*speedup*``
higher-better) degrades beyond the tolerance.

Analysis service (:mod:`repro.serve`)::

    python -m repro serve [--host H] [--port P] [--workers N]
                    [--max-inflight N] [--cache-bytes B] [--cache-ttl S]
                    [--cache-shards N] [--batch-window S]
                    [--spill-threshold N] [--jobs-dir DIR] [--manifest FILE]
                    [--trace-log FILE] [--no-job-autostart]
                    [--job-lease-batch N]
    python -m repro jobs DIR_OR_STORE [--id JOB_ID]

``serve`` runs the HTTP/JSON analysis server (endpoints and wire contract
in ``docs/SERVING.md``); ``jobs`` inspects the background-job stores a
server spilled heavy stability maps into — a jobs directory lists every
job, a single store (or ``--id``) prints its full poll status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro._errors import ReproError, ValidationError


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="HTM-based PLL loop analysis report"
    )
    parser.add_argument(
        "--ratio", type=float, default=0.1, help="omega_UG / omega_0 (default 0.1)"
    )
    parser.add_argument(
        "--separation", type=float, default=4.0, help="zero/pole separation (default 4)"
    )
    parser.add_argument(
        "--omega0", type=float, default=2 * np.pi, help="reference frequency rad/s"
    )
    parser.add_argument("--icp", type=float, default=1e-3, help="charge-pump current A")
    parser.add_argument("--leakage", type=float, default=0.0, help="pump leakage A")
    parser.add_argument("--plots", action="store_true", help="ASCII Bode chart of A and lambda")
    parser.add_argument("--symbolic", action="store_true", help="print symbolic closed forms")

    commands = parser.add_subparsers(dest="command")
    campaign = commands.add_parser(
        "campaign", help="parameter-space campaign engine (run/resume/status)"
    )
    actions = campaign.add_subparsers(dest="campaign_command", required=True)

    def policy_flags(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--workers", type=int, default=1, help="lease workers (1 = serial)")
        sub.add_argument("--timeout", type=float, default=None, help="per-point timeout (s)")
        sub.add_argument("--retries", type=int, default=0, help="extra attempts per failed point")
        sub.add_argument("--backoff", type=float, default=0.0, help="retry backoff factor (s)")
        sub.add_argument(
            "--checkpoint-every", type=int, default=25, help="points between fsynced checkpoints"
        )
        sub.add_argument("--quiet", action="store_true", help="suppress per-point progress")
        sub.add_argument(
            "--heartbeat-interval",
            type=float,
            default=5.0,
            help="seconds between the samples each worker logs (default 5)",
        )
        sub.add_argument(
            "--no-heartbeats",
            action="store_true",
            help="disable the sampler and the stall/straggler check",
        )
        sub.add_argument(
            "--stall-factor",
            type=float,
            default=3.0,
            help="stall threshold in heartbeat intervals (default 3)",
        )
        sub.add_argument(
            "--straggler-factor",
            type=float,
            default=4.0,
            help="straggler threshold vs the median point time (default 4)",
        )
        sub.add_argument(
            "--stream",
            action="store_true",
            help="ignored: every worker logs samples at --heartbeat-interval",
        )
        sub.add_argument(
            "--memory-budget-mb",
            type=float,
            default=None,
            help="per-point peak-RSS budget; points above it are flagged",
        )
        sub.add_argument(
            "--batch-size",
            type=int,
            default=0,
            help="points per lease batch (0 = auto)",
        )
        sub.add_argument(
            "--lease-ttl",
            type=float,
            default=30.0,
            help="lease expiry horizon in seconds (lease workers)",
        )
        sub.add_argument(
            "--profile",
            action="store_true",
            help="sample worker stacks into the store's telemetry logs "
            "(or REPRO_OBS=profile); merge with `repro obs profile`",
        )

    run_cmd = actions.add_parser("run", help="run a campaign spec file")
    run_cmd.add_argument("spec", help="path to the campaign spec JSON")
    run_cmd.add_argument(
        "--out", default=None, help="result store path (default <spec>.results.jsonl)"
    )
    run_cmd.add_argument(
        "--overwrite", action="store_true", help="replace an existing result store"
    )
    policy_flags(run_cmd)

    resume_cmd = actions.add_parser("resume", help="complete a partially-run campaign")
    resume_cmd.add_argument("results", help="path to the JSONL result store")
    resume_cmd.add_argument(
        "--retry-failed", action="store_true", help="re-run terminally failed points too"
    )
    policy_flags(resume_cmd)

    init_cmd = actions.add_parser(
        "init", help="create a store + lease plan for multi-host workers"
    )
    init_cmd.add_argument("spec", help="path to the campaign spec JSON")
    init_cmd.add_argument(
        "--out", default=None, help="result store path (default <spec>.results.jsonl)"
    )
    init_cmd.add_argument(
        "--overwrite", action="store_true", help="replace an existing result store"
    )
    init_cmd.add_argument(
        "--batch-size", type=int, default=0, help="points per lease batch (0 = auto)"
    )

    worker_cmd = actions.add_parser(
        "worker", help="join a campaign as one elastic lease worker"
    )
    worker_cmd.add_argument("results", help="path to the shared JSONL result store")
    worker_cmd.add_argument(
        "--max-idle",
        type=float,
        default=None,
        help="leave after this many seconds with nothing claimable",
    )
    worker_cmd.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        help="seconds between claim attempts when idle (default ttl/5)",
    )
    policy_flags(worker_cmd)

    status_cmd = actions.add_parser("status", help="print campaign progress")
    status_cmd.add_argument("results", help="path to the JSONL result store")

    watch_cmd = actions.add_parser(
        "watch", help="live dashboard over a (running) campaign store"
    )
    watch_cmd.add_argument("results", help="path to the JSONL result store")
    watch_cmd.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    watch_cmd.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )

    actions.add_parser("tasks", help="list registered task adapters")

    obs_cmd = commands.add_parser(
        "obs", help="observability reports: spans, counters, profiles"
    )
    obs_actions = obs_cmd.add_subparsers(dest="obs_command", required=True)

    def obs_source(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "source",
            nargs="+",
            help="campaign results JSONL (run with REPRO_OBS=1) or obs "
            "snapshot JSON file(s); multiple sources are merged",
        )

    summary_cmd = obs_actions.add_parser(
        "summary", help="per-stage span/counter/histogram report"
    )
    obs_source(summary_cmd)
    summary_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of text",
    )

    export_cmd = obs_actions.add_parser(
        "export", help="dump the merged obs snapshot"
    )
    obs_source(export_cmd)
    export_fmt = export_cmd.add_mutually_exclusive_group()
    export_fmt.add_argument(
        "--json", action="store_true", help="emit canonical JSON (the default)"
    )
    export_fmt.add_argument(
        "--csv", action="store_true", help="emit flat CSV (one row per bucket)"
    )
    export_fmt.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write Chrome Trace Event Format (chrome://tracing / Perfetto)",
    )
    export_cmd.add_argument(
        "--out", default=None, help="write to a file instead of stdout"
    )

    top_cmd = obs_actions.add_parser("top", help="hottest span buckets")
    obs_source(top_cmd)
    top_cmd.add_argument(
        "-n", "--count", type=int, default=10, help="buckets to list (default 10)"
    )
    top_cmd.add_argument(
        "--by",
        choices=("wall", "cpu", "count"),
        default="wall",
        help="ranking key (default wall)",
    )
    top_cmd.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON object instead of text",
    )

    trace_cmd = obs_actions.add_parser(
        "trace",
        help="merge distributed trace shards into one Chrome trace "
        "+ critical-path summary",
    )
    trace_cmd.add_argument(
        "store",
        help="campaign/job store JSONL; the spans and samples of its "
        "<store>.trace/ logs are merged",
    )
    trace_cmd.add_argument(
        "--serve-log",
        action="append",
        default=[],
        metavar="FILE",
        help="also merge a serve-process span log (repeatable)",
    )
    trace_cmd.add_argument(
        "--trace-id",
        default=None,
        help="keep only events of this trace (default: all traces)",
    )
    trace_cmd.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the Chrome trace JSON to FILE (default <store>.trace.json)",
    )

    profile_cmd = obs_actions.add_parser(
        "profile",
        help="merge statistical-profiler deltas into collapsed stacks "
        "or a flamegraph",
    )
    profile_cmd.add_argument(
        "store",
        help="campaign/job store JSONL (the profile deltas of its "
        "<store>.trace/ logs are merged)",
    )
    profile_cmd.add_argument(
        "--serve-log",
        action="append",
        default=[],
        metavar="FILE",
        help="also merge a serve-process log's profile deltas (repeatable)",
    )
    profile_cmd.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write collapsed stacks ('frame;frame count' lines) to FILE",
    )
    profile_cmd.add_argument(
        "--html",
        default=None,
        metavar="FILE",
        help="write a self-contained d3-flamegraph HTML page to FILE",
    )
    profile_cmd.add_argument(
        "--top",
        type=int,
        default=0,
        metavar="N",
        help="print the N hottest frames instead of collapsed stacks",
    )
    profile_cmd.add_argument(
        "--json", action="store_true", help="emit the merged profile as JSON"
    )

    slo_cmd = obs_actions.add_parser(
        "slo", help="evaluate SLO burn rates over a store (and CI gate)"
    )
    slo_cmd.add_argument(
        "source",
        help="campaign/job result store JSONL (burn rates are computed "
        "over its workers' samples, else its terminal status)",
    )
    slo_cmd.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="SLO definitions JSON (default: the built-in campaign SLOs)",
    )
    slo_cmd.add_argument(
        "--fail-on",
        choices=("breach",),
        default=None,
        help="exit 1 when any SLO is burning through its budget",
    )
    slo_cmd.add_argument(
        "--json", action="store_true", help="emit the evaluation as JSON"
    )

    health_cmd = obs_actions.add_parser(
        "health", help="numerical-health event report (and CI gate)"
    )
    obs_source(health_cmd)
    health_cmd.add_argument(
        "-n", "--worst", type=int, default=10, help="event buckets to list (default 10)"
    )
    health_cmd.add_argument(
        "--severity",
        choices=("info", "warning", "error"),
        default="info",
        help="hide events below this severity (default info)",
    )
    health_cmd.add_argument(
        "--fail-on",
        choices=("warning", "error"),
        default=None,
        help="exit 1 when events at or above this severity occurred",
    )

    bench_cmd = commands.add_parser(
        "bench", help="benchmark baseline tooling (compare)"
    )
    bench_actions = bench_cmd.add_subparsers(dest="bench_command", required=True)
    compare_cmd = bench_actions.add_parser(
        "compare", help="diff bench --json-out JSONL against a committed baseline"
    )
    compare_cmd.add_argument(
        "current", nargs="+", help="bench JSONL file(s) of the current run"
    )
    compare_cmd.add_argument(
        "--baseline", required=True, help="committed baseline JSONL (BENCH_*.json)"
    )
    compare_cmd.add_argument(
        "--tolerance",
        default="25%",
        help="allowed relative degradation, e.g. 25%% or 0.25 (default 25%%)",
    )
    compare_cmd.add_argument(
        "--min-seconds",
        type=float,
        default=0.01,
        help="noise floor: skip timings under this on both sides (default 0.01)",
    )
    compare_cmd.add_argument(
        "--report", default=None, help="also write the comparison as JSON to FILE"
    )

    serve_cmd = commands.add_parser(
        "serve", help="HTTP/JSON analysis server (micro-batching, caching)"
    )
    serve_cmd.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_cmd.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = any free port)"
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=4, help="compute thread-pool width"
    )
    serve_cmd.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission bound; past it requests get 429 + Retry-After",
    )
    serve_cmd.add_argument(
        "--cache-shards", type=int, default=4, help="result-cache shard count"
    )
    serve_cmd.add_argument(
        "--cache-entries", type=int, default=256, help="cache entries per shard"
    )
    serve_cmd.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help="total result-cache byte budget (default unbounded)",
    )
    serve_cmd.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="result-cache entry TTL in seconds (default no expiry)",
    )
    serve_cmd.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        help="micro-batching window in seconds (default 0.005)",
    )
    serve_cmd.add_argument(
        "--spill-threshold",
        type=int,
        default=64,
        help="stability-map cells beyond which the request becomes a job",
    )
    serve_cmd.add_argument(
        "--jobs-dir",
        default=None,
        help="directory for background-job stores (omitting disables jobs)",
    )
    serve_cmd.add_argument(
        "--manifest",
        default=None,
        help="server manifest path (default <jobs-dir>/server.manifest.json)",
    )
    serve_cmd.add_argument(
        "--trace-log",
        default=None,
        metavar="FILE",
        help="record span events (distributed tracing) and, with "
        "--profile, profile deltas to this JSONL file",
    )
    serve_cmd.add_argument(
        "--profile",
        action="store_true",
        help="run the statistical sampling profiler for the server's lifetime",
    )
    serve_cmd.add_argument(
        "--profile-hz",
        type=int,
        default=97,
        help="sampling rate for --profile and /v1/profilez (default 97)",
    )
    serve_cmd.add_argument(
        "--slo-spec",
        default=None,
        metavar="FILE",
        help="SLO definitions JSON for /v1/sloz (default: serve SLOs)",
    )
    serve_cmd.add_argument(
        "--slo-interval",
        type=float,
        default=10.0,
        help="seconds between SLO burn-rate samples (default 10)",
    )
    serve_cmd.add_argument(
        "--no-job-autostart",
        action="store_true",
        help="prepare spilled jobs (store + manifest + lease plan) but leave "
        "execution to external `repro campaign worker` processes",
    )
    serve_cmd.add_argument(
        "--job-lease-batch",
        type=int,
        default=None,
        help="lease batch size frozen into prepared job plans",
    )

    jobs_cmd = commands.add_parser(
        "jobs", help="inspect the analysis server's background-job stores"
    )
    jobs_cmd.add_argument(
        "store", help="jobs directory (lists jobs) or one job store JSONL"
    )
    jobs_cmd.add_argument(
        "--id", default=None, help="job id to inspect within a jobs directory"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns an exit code."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "command", None) == "campaign":
            return _campaign(args)
        if getattr(args, "command", None) == "obs":
            return _obs(args)
        if getattr(args, "command", None) == "bench":
            return _bench(args)
        if getattr(args, "command", None) == "serve":
            return _serve(args)
        if getattr(args, "command", None) == "jobs":
            return _jobs(args)
        return _report(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`) — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


# -- obs subcommand ----------------------------------------------------------------


def _obs(args) -> int:
    from repro import obs

    if args.obs_command == "trace":
        return _obs_trace(args)
    if args.obs_command == "profile":
        return _obs_profile(args)
    if args.obs_command == "slo":
        return _obs_slo(args)
    # Multiple sources (shard exports, per-host snapshots) merge into one
    # registry view — same associative merge the campaign coordinator uses.
    snapshot = obs.load_snapshot(args.source[0])
    for extra in args.source[1:]:
        snapshot = obs.merge_snapshots(snapshot, obs.load_snapshot(extra))
    if args.obs_command == "summary":
        if args.json:
            from repro.obs.report import summary_json

            print(json.dumps(summary_json(snapshot), sort_keys=True))
        else:
            print(obs.format_summary(snapshot))
        return 0
    if args.obs_command == "top":
        if args.json:
            from repro.obs.report import top_json

            print(json.dumps(top_json(snapshot, n=args.count, by=args.by), sort_keys=True))
        else:
            print(obs.format_top(snapshot, n=args.count, by=args.by))
        return 0
    if args.obs_command == "health":
        from repro.obs.health import format_health, max_severity, severity_rank

        print(format_health(snapshot, n=args.worst, min_severity=args.severity))
        if args.fail_on is not None:
            worst = max_severity(snapshot)
            if worst is not None and severity_rank(worst) >= severity_rank(
                args.fail_on
            ):
                print(
                    f"health gate: {worst} events present "
                    f"(--fail-on {args.fail_on})",
                    file=sys.stderr,
                )
                return 1
        return 0
    # export: --trace / --csv / --json (default)
    if args.trace is not None:
        Path(args.trace).write_text(obs.to_chrome_trace(snapshot) + "\n")
        print(f"wrote {args.trace}")
        return 0
    rendered = obs.to_csv(snapshot) if args.csv else obs.to_json(snapshot) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}")
    else:
        print(rendered, end="")
    return 0


def _obs_trace(args) -> int:
    """Collector: merge a store's trace shards (+ serve logs) into one trace."""
    from repro.obs import trace as obs_trace

    store = Path(args.store)
    if not store.exists():
        raise ValidationError(f"no store at {store}")
    for log in args.serve_log:
        if not Path(log).exists():
            raise ValidationError(f"no serve log at {log}")
    document = obs_trace.build_chrome_trace(
        store, serve_logs=args.serve_log, trace_id=args.trace_id
    )
    if not document["traceEvents"]:
        print(
            f"no trace events for {store} — run with REPRO_OBS=1 "
            "(and a trace context) to record spans",
            file=sys.stderr,
        )
        return 1
    out = Path(args.out) if args.out else store.with_suffix(".trace.json")
    out.write_text(json.dumps(document, sort_keys=True) + "\n")
    hosts = document["otherData"]["hosts"]
    print(
        f"merged {len(document['traceEvents'])} events from "
        f"{len(hosts)} host(s) ({', '.join(hosts)}); "
        f"{len(document['traceIds'])} trace id(s)"
    )
    print(obs_trace.format_critical_path(document["criticalPath"]))
    print(f"wrote {out}")
    return 0


def _obs_profile(args) -> int:
    """Collector: merge the profile deltas of a store's logs (+ serve logs)."""
    from repro.obs import profile as obs_profile
    from repro.obs.trace import LogReader

    store = Path(args.store)
    if not store.exists():
        raise ValidationError(f"no store at {store}")
    for log in args.serve_log:
        if not Path(log).exists():
            raise ValidationError(f"no serve log at {log}")
    profiles = LogReader(store, logs=args.serve_log).refresh().profiles()
    if not profiles:
        print(
            f"no profile deltas for {store} — run with --profile "
            "(or REPRO_OBS=profile) to record samples",
            file=sys.stderr,
        )
        return 1
    merged = obs_profile.merge_profiles(profiles)
    if args.json:
        print(json.dumps(merged, sort_keys=True))
        return 0
    wrote = False
    if args.out:
        Path(args.out).write_text(obs_profile.to_collapsed(merged))
        print(f"wrote {args.out}")
        wrote = True
    if args.html:
        Path(args.html).write_text(
            obs_profile.to_flamegraph_html(
                merged, title=f"repro profile: {store.name}"
            )
        )
        print(f"wrote {args.html}")
        wrote = True
    if wrote or args.top:
        workers = merged.get("workers") or []
        print(
            f"{merged['samples']} sample(s) at {merged['hz']} Hz from "
            f"{len(workers)} worker(s) ({merged['clock']} clock), "
            f"{merged['dropped']} dropped"
        )
        for entry in obs_profile.top_frames(merged, n=args.top or 5):
            print(
                f"  {entry['frame']}: {entry['fraction']:.0%} self "
                f"({entry['self']} sample(s))"
            )
        return 0
    print(obs_profile.to_collapsed(merged), end="")
    return 0


def _obs_slo(args) -> int:
    """Evaluate SLO burn rates over a store; optionally gate CI on breach."""
    from repro.obs import slo as obs_slo

    source = Path(args.source)
    if not source.exists():
        raise ValidationError(f"no store at {source}")
    definitions = obs_slo.load_slo_spec(args.spec) if args.spec else None
    result = obs_slo.evaluate_store(source, definitions)
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(obs_slo.format_slo_report(result))
    if args.fail_on == "breach" and result["breach"]:
        print("slo gate: budget burn breach (--fail-on breach)", file=sys.stderr)
        return 1
    return 0


# -- bench subcommand --------------------------------------------------------------


def _bench(args) -> int:
    from repro.obs.baseline import (
        compare_benchmarks,
        load_bench_lines,
        parse_tolerance,
    )

    baseline = load_bench_lines([args.baseline])
    current = load_bench_lines(args.current)
    comparison = compare_benchmarks(
        baseline,
        current,
        tolerance=parse_tolerance(args.tolerance),
        min_seconds=args.min_seconds,
        baseline_label=args.baseline,
    )
    print(comparison.summary())
    if args.report:
        Path(args.report).write_text(comparison.to_json() + "\n")
        print(f"report: {args.report}")
    return 0 if comparison.ok else 1


# -- serve / jobs subcommands ------------------------------------------------------


def _serve(args) -> int:
    import asyncio

    from repro.serve import AnalysisServer, ServerConfig

    if not 0 <= args.port <= 65535:
        raise ValidationError(f"port must be in [0, 65535], got {args.port}")
    if args.workers < 1:
        raise ValidationError(f"--workers must be >= 1, got {args.workers}")
    if args.max_inflight < 1:
        raise ValidationError(
            f"--max-inflight must be >= 1, got {args.max_inflight}"
        )
    if args.cache_bytes is not None and args.cache_bytes < 1:
        raise ValidationError(
            f"--cache-bytes must be positive, got {args.cache_bytes}"
        )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        cache_shards=args.cache_shards,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_bytes,
        cache_ttl=args.cache_ttl,
        batch_window=args.batch_window,
        spill_threshold=args.spill_threshold,
        jobs_dir=args.jobs_dir,
        manifest_path=args.manifest,
        trace_log=args.trace_log,
        job_autostart=not args.no_job_autostart,
        job_lease_batch=args.job_lease_batch,
        profile=args.profile,
        profile_hz=args.profile_hz,
        slo_spec=args.slo_spec,
        slo_interval=args.slo_interval,
    )
    server = AnalysisServer(config)

    async def _run() -> None:
        await server.start()
        print(
            f"repro serve: http://{config.host}:{server.port} "
            f"({config.workers} workers, {config.max_inflight} in-flight max, "
            f"jobs {'at ' + config.jobs_dir if config.jobs_dir else 'disabled'})"
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: stopped")
    except OSError as exc:  # bind failure: port in use, bad address, ...
        raise ValidationError(
            f"cannot bind {args.host}:{args.port}: {exc}"
        ) from None
    return 0


def _jobs(args) -> int:
    from repro.campaign.watch import poll_store

    path = Path(args.store)
    if not path.exists():
        raise ValidationError(f"no jobs directory or store at {path}")
    if args.id is not None:
        if not path.is_dir():
            raise ValidationError(
                f"--id needs a jobs directory, but {path} is a file"
            )
        path = path / f"{args.id}.jsonl"
        if not path.exists():
            raise ValidationError(f"no job {args.id!r} in {path.parent}")

    if path.is_dir():
        stores = sorted(path.glob("*.jsonl"))
        if not stores:
            print(f"no jobs in {path}")
            return 0
        for store in stores:
            try:
                status = poll_store(store)
            except ReproError as exc:
                print(f"{store.stem}: unreadable ({exc})")
                continue
            state = "complete" if status["complete"] else "running/partial"
            print(
                f"{store.stem}: {state} — {status['done']} ok, "
                f"{status['failed']} failed, {status['pending']} pending "
                f"of {status['points']} [{status['task']}]"
            )
        return 0

    print(json.dumps(poll_store(path), indent=2, sort_keys=True, default=str))
    return 0


# -- campaign subcommand -----------------------------------------------------------


def _policy_from_args(args) -> "ExecutionPolicy":
    from repro.campaign import ExecutionPolicy

    return ExecutionPolicy(
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        checkpoint_every=args.checkpoint_every,
        heartbeat_interval=(
            None if args.no_heartbeats else args.heartbeat_interval
        ),
        stall_factor=args.stall_factor,
        straggler_factor=args.straggler_factor,
        memory_budget_mb=args.memory_budget_mb,
        batch_size=args.batch_size,
        lease_ttl=args.lease_ttl,
        profile=args.profile,
    )


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(record, telemetry) -> None:
        mark = "ok" if record["status"] == "ok" else "FAILED"
        if telemetry.mode == "lease-worker":
            # A lease worker counts only its own points: no process sees
            # the run-wide count while the workers share the map.
            count = f"worker {record.get('worker')} #{telemetry.processed}"
        else:
            count = f"{telemetry.processed + telemetry.skipped}/{telemetry.total_points}"
        # One write per line (print writes the newline apart): lease
        # workers share this stdout.
        sys.stdout.write(f"[{count}] {record['id']} {mark} ({record['elapsed']:.2f} s)\n")
        sys.stdout.flush()

    return progress


def _campaign(args) -> int:
    from repro.campaign import (
        available_tasks,
        campaign_status,
        resume_campaign,
        run_campaign,
    )

    if args.campaign_command == "tasks":
        for name, doc in available_tasks().items():
            print(f"{name:>18}  {doc}")
        return 0

    if args.campaign_command == "watch":
        from repro.campaign.watch import watch

        return watch(args.results, interval=args.interval, once=args.once)

    if args.campaign_command == "init":
        from repro.campaign import CampaignSpec
        from repro.campaign.lease import DEFAULT_LEASE_BATCH, ensure_plan, lease_dir
        from repro.campaign.store import ResultStore

        spec_path = Path(args.spec)
        try:
            spec_data = json.loads(spec_path.read_text())
        except FileNotFoundError:
            raise ValidationError(f"no campaign spec at {spec_path}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{spec_path} is not valid JSON: {exc}") from None
        spec = CampaignSpec.from_json(spec_data)
        out = (
            Path(args.out)
            if args.out
            else spec_path.with_suffix(".results.jsonl")
        )
        ResultStore.create(out, spec, overwrite=args.overwrite)
        plan = ensure_plan(
            lease_dir(out), spec, args.batch_size or DEFAULT_LEASE_BATCH
        )
        from repro.campaign import ExecutionPolicy
        from repro.obs import manifest as obs_manifest

        obs_manifest.write_manifest(
            obs_manifest.manifest_path(out),
            obs_manifest.build_manifest(
                spec,
                ExecutionPolicy(batch_size=args.batch_size or DEFAULT_LEASE_BATCH),
            ),
        )
        print(
            f"initialized {out}: {plan['points']} point(s) in "
            f"{len(plan['batches'])} lease batch(es)"
        )
        print(f"launch workers with: repro campaign worker {out}")
        return 0

    if args.campaign_command == "worker":
        from repro.campaign.lease import run_worker

        report = run_worker(
            args.results,
            policy=_policy_from_args(args),
            max_idle=args.max_idle,
            poll_interval=args.poll_interval,
            progress=_progress_printer(args.quiet),
        )
        print(report.telemetry.summary())
        print(
            f"worker {report.worker}: {report.batches_done} batch(es), "
            f"{report.points_done} ok, {report.points_failed} failed, "
            f"{report.reclaims} reclaim(s), {report.duplicates} duplicate(s)"
            + (" · wrote final summary" if report.finalized else "")
        )
        return 0 if report.points_failed == 0 else 1

    if args.campaign_command == "status":
        status = campaign_status(args.results)
        print(f"campaign: {status['name']} (task {status['task']})")
        print(
            f"points:   {status['done']} ok, {status['failed']} failed, "
            f"{status['pending']} pending of {status['points']}"
            + (
                f" (merged across {status['shards']} worker shard(s))"
                if status.get("shards")
                else ""
            )
        )
        print(f"complete: {status['complete']}")
        summary = status.get("summary")
        if summary:
            cache = summary.get("cache") or {}
            print(
                f"last run: {summary.get('mode')} x{summary.get('workers')} "
                f"in {summary.get('wall_seconds', 0.0):.2f} s, cache "
                f"{cache.get('hits', 0)}h/{cache.get('misses', 0)}m over "
                f"{cache.get('worker_processes', 0)} worker(s)"
            )
        manifest = status.get("manifest")
        if manifest:
            print(
                f"manifest: spec {manifest.get('spec_hash')} · "
                f"run #{manifest.get('runs', 1)} · "
                f"repro {manifest.get('package_version')} · "
                f"python {manifest.get('python')}"
                + (
                    f" · git {manifest['git_sha']}"
                    if manifest.get("git_sha")
                    else ""
                )
            )
        return 0 if status["complete"] else 1

    if args.campaign_command == "run":
        from repro.campaign import CampaignSpec

        spec_path = Path(args.spec)
        try:
            spec_data = json.loads(spec_path.read_text())
        except FileNotFoundError:
            raise ValidationError(f"no campaign spec at {spec_path}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{spec_path} is not valid JSON: {exc}") from None
        spec = CampaignSpec.from_json(spec_data)
        out = (
            Path(args.out)
            if args.out
            else spec_path.with_suffix(".results.jsonl")
        )
        result = run_campaign(
            spec,
            out,
            policy=_policy_from_args(args),
            progress=_progress_printer(args.quiet),
            overwrite=args.overwrite,
        )
    else:  # resume
        result = resume_campaign(
            args.results,
            policy=_policy_from_args(args),
            progress=_progress_printer(args.quiet),
            retry_failed=args.retry_failed,
        )

    print(result.telemetry.summary())
    if result.store_path is not None:
        print(f"results: {result.store_path}")
        if result.telemetry.obs_snapshot() is not None:
            print(f"obs: spans recorded — `repro obs summary {result.store_path}`")
            if result.telemetry.health_counts():
                print(
                    f"health: events recorded — "
                    f"`repro obs health {result.store_path}`"
                )
    return 0 if not result.failed_records else 1


def _report(args) -> int:
    from repro.baselines.zdomain import closed_loop_z, sampled_open_loop
    from repro.blocks.chargepump import ChargePump
    from repro.pll.architecture import PLL
    from repro.pll.closedloop import ClosedLoopHTM
    from repro.pll.design import design_typical_loop, shape_phase_margin_deg
    from repro.pll.margins import compare_margins
    from repro.simulator.floquet import floquet_multipliers

    omega0 = args.omega0
    base = design_typical_loop(
        omega0=omega0,
        omega_ug=args.ratio * omega0,
        separation=args.separation,
        charge_pump_current=args.icp,
    )
    pll = base
    if args.leakage > 0:
        pll = PLL(
            pfd=base.pfd,
            charge_pump=ChargePump(args.icp, leakage=args.leakage),
            filter_impedance=base.filter_impedance,
            vco=base.vco,
        )

    print(pll.describe())
    print(f"target: wUG/w0 = {args.ratio:g}, separation {args.separation:g} "
          f"(LTI PM {shape_phase_margin_deg(args.separation):.2f} deg)")
    print("-" * 64)

    try:
        margins = compare_margins(pll)
        print(margins.summary())
    except ReproError as exc:
        print(f"effective margins: not measurable ({exc})")

    cz = closed_loop_z(sampled_open_loop(base))
    # Rounded before sorting, so round-off in a conjugate pair's real parts
    # cannot change the printed order.
    print(f"z-domain closed-loop poles: {np.sort_complex(np.round(cz.poles(), 4))}")
    print(f"z-domain stable: {cz.is_stable()}")

    flo = floquet_multipliers(base)
    print(f"Floquet multipliers:        {np.sort_complex(np.round(flo.multipliers, 4))}")
    print(
        f"Floquet stable: {flo.is_stable} "
        f"(spectral radius {flo.spectral_radius:.4f})"
    )

    from repro.pll.poles import find_closed_loop_poles

    s_poles = find_closed_loop_poles(base)
    print("s-domain Floquet exponents (roots of 1 + lambda(s)):")
    for pole in s_poles:
        print(
            f"  s = {pole.s:.4f}  |e^sT| = {abs(pole.multiplier):.4f}"
            + ("  [UNSTABLE]" if not pole.is_stable else "")
        )

    if args.leakage > 0:
        from repro.pll.spurs import predict_reference_spurs

        pred = predict_reference_spurs(pll, harmonics=3)
        print("-" * 64)
        print(f"leakage {args.leakage:g} A -> static phase offset "
              f"{pred.static_phase_offset:.3e} s")
        for k in (1, 2, 3):
            print(f"  reference spur k={k}: {pred.spur_dbc(k, pll.vco.f0):.1f} dBc")

    if args.symbolic:
        from repro.symbolic import effective_gain_expression, open_loop_expression

        print("-" * 64)
        print("A(s)      =", open_loop_expression(base).render())
        print("lambda(s) =", effective_gain_expression(base).render())

    if args.plots:
        from repro.reporting.ascii_plot import AsciiPlot

        closed = ClosedLoopHTM(base)
        from repro.pll.openloop import lti_open_loop

        a = lti_open_loop(base)
        grid = np.logspace(-2, np.log10(0.49), 120) * omega0
        plot = AsciiPlot(
            width=70,
            height=14,
            log_x=True,
            title="|A| (a) vs |lambda| (L), dB",
            x_label="omega (rad/s)",
        )
        plot.add(grid, 20 * np.log10(np.abs(a.frequency_response(grid))), glyph="a", label="LTI A")
        plot.add(
            grid,
            20 * np.log10(np.abs(closed.effective_gain_response(grid))),
            glyph="L",
            label="effective lambda",
        )
        print("-" * 64)
        print(plot.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
