"""Baseline PLL analyses the paper compares against.

* :mod:`repro.baselines.lti_approx` — the classical continuous-time LTI
  approximation (Gardner's textbook analysis; paper refs [2], [7]): valid
  while the unity-gain frequency stays well below the reference frequency.
* :mod:`repro.baselines.zdomain` — the discrete-time z-domain model of
  Hein & Scott / Gardner (paper refs [3], [5]): captures sampling exactly at
  the sampling instants but obscures the mixed continuous/discrete nature
  the HTM description retains.

A structural identity links the baselines to the paper's method: the
effective open-loop gain satisfies ``lambda(s) = G_z(e^{sT})`` where ``G_z``
is the impulse-invariant z-domain open-loop gain — the HTM model contains
the z-domain model as its restriction to ``z = e^{sT}``, while additionally
describing inter-sample and frequency-conversion behaviour.  The library
builds ``G_z`` once, as the z form of ``lambda``
(:func:`repro.pll.openloop.effective_gain_sum`), and the z-domain baseline
returns it.
"""

from repro.baselines.lti_approx import ClassicalLTIAnalysis
from repro.baselines.zdomain import (
    ZTransferFunction,
    closed_loop_z,
    sampled_open_loop,
    stability_limit_ratio,
)

__all__ = [
    "ClassicalLTIAnalysis",
    "ZTransferFunction",
    "closed_loop_z",
    "sampled_open_loop",
    "stability_limit_ratio",
]
