"""Linear time-invariant (LTI) substrate.

This subpackage provides the s-domain machinery the rest of the library is
built on: rational functions, transfer functions, state-space models, Bode
analysis (crossover frequencies, phase/gain margins) and stability tests,
plus the z view of a sampled loop, pulse transfer functions
(:mod:`repro.lti.ztransfer`).

It is intentionally self-contained: the HTM core (:mod:`repro.core`) embeds
LTI systems as diagonal harmonic transfer matrices, the closed-form aliasing
sums (:mod:`repro.core.aliasing`) need partial-fraction expansions and hold
their result as a pulse transfer function, and the behavioural simulator
(:mod:`repro.simulator`) needs exact matrix-exponential stepping of
state-space models.
"""

from repro.lti.rational import PartialFractionTerm, RationalFunction
from repro.lti.transfer import TransferFunction
from repro.lti.statespace import StateSpace
from repro.lti.bode import (
    BodePoint,
    MarginReport,
    bandwidth_3db,
    delay_margin,
    gain_crossover,
    gain_margin,
    modulus_margin,
    peaking_db,
    phase_crossover,
    phase_margin,
    stability_margins,
)
from repro.lti.stability import (
    NyquistSummary,
    hurwitz_stable,
    nyquist_encirclements,
    routh_table,
)
from repro.lti.timedomain import impulse_response, step_response

__all__ = [
    "PartialFractionTerm",
    "RationalFunction",
    "TransferFunction",
    "StateSpace",
    "BodePoint",
    "MarginReport",
    "bandwidth_3db",
    "delay_margin",
    "gain_crossover",
    "gain_margin",
    "modulus_margin",
    "peaking_db",
    "phase_crossover",
    "phase_margin",
    "stability_margins",
    "NyquistSummary",
    "hurwitz_stable",
    "nyquist_encirclements",
    "routh_table",
    "impulse_response",
    "step_response",
]
