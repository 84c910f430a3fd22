"""The max_rps staircase estimate."""

from types import SimpleNamespace

from perfbench import workloads


def _rung(rate: float, ok: bool, achieved: float | None = None):
    result = SimpleNamespace(achieved_rate=lambda: rate if achieved is None else achieved)
    return SimpleNamespace(rate=rate, passes=lambda: ok, result=result)


def _stairs(rungs) -> workloads._Staircase:
    stairs = object.__new__(workloads._Staircase)
    stairs.rungs = rungs
    return stairs


def test_median_of_passing_rungs_after_the_first_failure():
    rungs = [
        _rung(252, True),  # the approach does not count
        _rung(272, True),
        _rung(294, False),
        _rung(272, True, 271.0),
        _rung(294, False),
        _rung(272, True, 270.0),
        _rung(294, True, 293.0),
    ]
    value, note = _stairs(rungs).estimate()
    assert value == 271.0
    assert "3 passing rungs" in note


def test_no_failure_reports_the_highest_passing_rung():
    value, _note = _stairs([_rung(294, True, 290.0), _rung(317, True, 315.0)]).estimate()
    assert value == 315.0


def test_no_pass_after_the_first_failure_reports_the_highest_passing_rung():
    value, _note = _stairs([_rung(294, True, 292.0), _rung(343, False)]).estimate()
    assert value == 292.0
    value, _note = _stairs([_rung(294, False), _rung(272, False)]).estimate()
    assert value == 0.0
