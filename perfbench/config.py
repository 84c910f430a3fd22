"""Fixed workload parameters, each with the reason it has this value.

Rates, the ladder and the latency limit are absolute numbers chosen from
the capacity measured at the commit that introduced the benchmark (2-core
x86-64 container, Python 3.11, numpy 2.4); changing any of them changes
the benchmark, so a change that claims a gain must leave this file alone.
"""

from __future__ import annotations

import os

#: Load-generator width: at most one keep-alive connection or campaign
#: worker process per core, so the client never needs more cores than the
#: machine has.  Capped so a large host does not turn into another workload.
NPROC = max(1, min(len(os.sched_getaffinity(0)), 4))

# -- serve-mix -------------------------------------------------------------------

#: Low rate (req/s): under a tenth of the capacity measured with two
#: connections (~210-240 req/s), so latency is service time plus the 5 ms
#: batching window, with little queueing.  p50 falls among cache hits of
#: small to mid-size H00 grids, where latency rises steeply with rank, so
#: any queueing moves it: at 50 req/s the run-to-run spread of p50 was
#: about twice that at 20 req/s.
LOW_RATE = 20.0
#: High rate (req/s): 1.5x the low rate.  Queueing for the connections, the
#: event loop and the compute threads starts to show in p95; at 40 req/s a
#: slow stretch of this host's CPU already swung p95 by ~0.3 between runs.
HIGH_RATE = 30.0
#: Rate ladder (req/s) for ``max_rps``: the low and high rates, then steps
#: of 1.08x.  Capacity moves by ~15% from run to run with this host's CPU
#: speed, so with 1.15x steps the highest passing rung jumped by one or two
#: rungs (15-32%); 1.08x steps keep each jump small.
LADDER = (
    20.0, 30.0, 100.0, 108.0, 117.0, 126.0, 136.0, 147.0, 159.0, 171.0, 185.0,
    200.0, 216.0, 233.0, 252.0, 272.0, 294.0, 317.0, 343.0, 370.0, 400.0,
    432.0, 466.0, 503.0, 544.0, 587.0, 634.0, 685.0, 740.0, 799.0,
)
#: The staircase for ``max_rps`` starts here, a rung or two below the
#: capacity measured at this commit (317 req/s passed and 343 failed), so
#: that most of its rungs are spent around the highest passing rate.
STAIRCASE_START = 294.0
#: p95 limit (ms) for a ladder rung to pass: an interactive analysis
#: request should answer within 200 ms.  Today's p95 is 17-27 ms at the
#: fixed rates and seconds past capacity; at 200 ms the cut falls on the
#: steep part of the latency knee, so host noise moves it little.
P95_LIMIT_MS = 200.0
#: The low- and high-rate phases run in this many alternating slices, each
#: on its own server, so both metrics sample the whole run: this host's
#: CPU speed changes by up to ~30% for stretches of seconds to tens of
#: seconds, and one contiguous window per metric let such a stretch land
#: on one metric.  After each round of slices the ``max_rps`` staircase
#: runs one rung, so its rungs are spread over the run too.
SLICES = 12
#: Share of ``--seconds`` measured at the low rate, at the high rate, and
#: at each of the ``SLICES`` staircase rungs.
LOW_RATE_SHARE = 0.45
HIGH_RATE_SHARE = 0.37
#: Staircase rungs last ~1.2 s at --seconds 35: ~350 requests near
#: capacity, enough for a p95 with 17 samples beyond it.  Short rungs
#: leave the fixed rates most of the run; the staircase's median over its
#: rungs absorbs the extra pass/fail noise of each.
STAIRCASE_RUNG_SHARE = 0.034
#: The backlog rule: a rung fails when it completes fewer than this share of
#: its offered rate per second of measured time.  A server that does not
#: keep up leaves a backlog that is still draining after the last due time,
#: which stretches the measured time; over a ~1.2 s rung, a backlog of
#: ~0.06 s fails it.
KEEP_UP = 0.95
#: Share of each rung's requests that repeat a (design, grid) of the hot set,
#: and the margins share of the fresh rest.  With the hot set's endpoint
#: pattern (``inputs._HOT_ENDPOINTS``) they give ~57% margins requests and a
#: measured repeat share of ~0.77.  Among the values that keep the mix about
#: half and half and the repeat share about three quarters, these put the
#: cheap cache hits (margins, and H00 grids under ~100 points) at ~57% of
#: requests, so p50 lies inside that cluster.  At ~52%, p50 sat at its
#: edge, and a slow stretch of this host raised it by up to ~60%.
HOT_SHARE = 0.8
FRESH_MARGINS_SHARE = 0.4
#: Size of the Zipf-weighted hot set, and its exponent.
HOT_SET = 16
ZIPF_S = 1.1
#: The hot set's response entries trade Zipf ranks this many times per
#: rung, so every response rank holds the entry of every grid-size stratum
#: once (there are as many strata as response ranks, 8).
HOT_ROTATIONS = 8
#: Explicit response grids: point counts drawn log-uniformly in this range.
GRID_POINTS = (20, 3000)
#: Design population: every (ratio, separation) here has a gain crossover,
#: so no margins request fails.  Warm-up designs use separations above the
#: measured range so they never repeat a measured input.
RATIO_RANGE = (0.02, 0.22)
SEPARATION_RANGE = (2.5, 6.0)
WARMUP_SEPARATION = (6.5, 7.0)
WARMUP_REQUESTS = 24
#: A rung whose send backlog exceeds this many seconds is aborted: it has
#: failed, and waiting longer only stretches the run.
ABORT_BACKLOG_S = 3.0
#: Client timeout per request (s); a request past it counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: Served designs recomputed in-process per rung by the correctness gate.
VERIFY_SAMPLE = 6
#: Relative tolerances of the correctness gate (served vs in-process).
MARGINS_RTOL = 1e-9
H00_RTOL = 1e-9

# -- campaigns --------------------------------------------------------------------

#: campaign-map: separation x ratio stability_cell grid spanning the
#: z-domain stability limit (ratio ~0.27-0.30 for these separations).
MAP_AXES = (20, 20)
#: campaign-sweep: design_summary points; large enough that the lease
#: worker's merged re-reads dominate (records read grow with size).
SWEEP_AXES = (30, 40)
#: Lease workers leave after this many seconds with nothing claimable.
SWEEP_MAX_IDLE = "2"
#: Sampled points recomputed in-process per campaign repetition.
CAMPAIGN_VERIFY_SAMPLE = 8

#: The README quickstart line pinned by every run's correctness gate.
QUICKSTART_LINE = "LTI: wUG=0.9425 PM=61.93 deg | effective: wUG=1.054 PM=47.84 deg"
