"""Ablation A1: the closed-form aliasing sum vs symmetric truncation.

Design question (DESIGN.md): is the closed form — partial fractions, each
summed over all ``m`` into a pole group of ``z = e^{sT}`` — worth it over
just truncating ``sum_m A(s + j m w0)``?  Answer: the truncated sum needs
thousands of terms to reach 1e-4 absolute accuracy (O(1/M) tail) while the
closed form is exact and ~100x faster at that accuracy.

CI runs this file with ``--benchmark-disable``: the accuracy ladder then
checks the closed form against the truncated sum on every push.
"""

import numpy as np
import pytest

from repro.core.aliasing import AliasedSum, truncated_alias_sum
from repro.pll.openloop import lti_open_loop

RATIO = 0.1


@pytest.fixture(scope="module")
def loop_gain(loop_at_ratio):
    return lti_open_loop(loop_at_ratio(RATIO)).rational


@pytest.fixture(scope="module")
def eval_grid(reference_omega0):
    return 1j * np.linspace(0.03, 0.45, 40) * reference_omega0


@pytest.mark.benchmark(group="ablation-aliasing")
def test_closed_form(benchmark, loop_gain, eval_grid, reference_omega0):
    alias = AliasedSum.of(loop_gain, reference_omega0)
    values = benchmark(alias, eval_grid)
    assert np.all(np.isfinite(values))


@pytest.mark.benchmark(group="ablation-aliasing")
@pytest.mark.parametrize("harmonics", [32, 256, 2048])
def test_truncated(benchmark, loop_gain, eval_grid, reference_omega0, harmonics):
    values = benchmark(
        truncated_alias_sum, loop_gain, eval_grid, reference_omega0, harmonics
    )
    assert np.all(np.isfinite(values))


def test_truncation_accuracy_ladder(loop_gain, eval_grid, reference_omega0):
    """Accuracy side of the trade-off: error vs closed form halves per
    doubling of M (O(1/M) tail), never reaching the closed form."""
    alias = AliasedSum.of(loop_gain, reference_omega0)
    exact = alias(eval_grid)
    scale = float(np.max(np.abs(exact)))
    errors = {}
    for harmonics in (32, 128, 512, 2048):
        approx = truncated_alias_sum(loop_gain, eval_grid, reference_omega0, harmonics)
        errors[harmonics] = float(np.max(np.abs(approx - exact))) / scale
    assert errors[128] < errors[32]
    assert errors[512] < errors[128]
    assert errors[2048] < errors[512]
    assert errors[2048] > 1e-9  # truncation never attains the closed form
