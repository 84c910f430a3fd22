"""Self time on synthetic nested spans, and span parentage of wrappers."""

import pytest

from perfbench import layers, tracing


def span(sid, parent, t0, t1, layer="a"):
    return (sid, parent, layer, layer, t0, t1, 1, None, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, 0, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),
        span(3, 1, 2.0, 5.0),  # overlaps span 2: the union is [1, 5]
        span(4, 3, 2.5, 3.5),  # grandchild: counts against span 3 only
        span(5, 1, 9.0, 12.0),  # clipped to the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


def test_layer_totals_sum_self_time_and_outer_inclusive_time():
    proc = {
        "pid": 1,
        "spans": [
            span(1, 0, 0.0, 4.0, "outer"),
            span(2, 1, 1.0, 2.0, "inner"),
            span(3, 2, 1.2, 1.4, "inner"),
        ],
        "events": [],
        "counts": {"store.records": 3},
    }
    tot = layers.totals([proc])
    assert tot.self_of("outer") == pytest.approx(3.0)
    assert tot.self_of("inner") == pytest.approx(1.0)
    assert tot.inclusive_s["inner"] == pytest.approx(1.0)
    assert tot.calls == {"outer": 1, "inner": 2}
    assert tot.counts == {"store.records": 3}


def test_wrappers_record_parentage(tmp_path):
    rec = tracing.Recorder(tmp_path)

    def inner(x):
        return x + 1

    wrapped_inner = rec.wrap("in", "inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = rec.wrap("out", "outer", outer)
    assert wrapped_outer(1) == 4
    assert rec.wrap("in", "inner", inner) is wrapped_inner
    (child, parent) = rec.spans
    assert child[2] == "in" and parent[2] == "out"
    assert child[1] == parent[0] and parent[1] == 0
    rec.flush()
    (proc,) = tracing.load(tmp_path)
    assert len(proc["spans"]) == 2
