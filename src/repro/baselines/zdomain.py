"""Discrete-time z-domain PLL model (Hein & Scott 1988; Gardner 1980).

The paper's refs [3] and [5] treat the charge-pump PLL as a sampled-data
system: the phase error is a sequence ``e[n]``, and the loop dynamics a
pulse transfer function ``G_z(z)`` — the z-transform of the samples of the
impulse response of the continuous path between the sampler and the phase
output::

    F(s) = v0 * I_cp * Z_LF(s) / s        (filter + VCO; A(s) = F(s)/T)
    g(t) = L^{-1}{F},   G_z(z) = sum_{n>=0} g(nT) z^{-n}

Key structural identity: the paper's effective open-loop gain equals this
model on the unit-circle image of the s-plane,

    lambda(s) = G_z(e^{sT}),

because ``lambda`` is the aliasing sum ``(1/T) sum_m F(s + j m w0)`` and
Poisson summation turns that into the sampled-impulse-response series.  So
``G_z`` is not built here: it is the z form that
:func:`~repro.pll.openloop.effective_gain_sum` already holds, from the one
partial-fraction expansion of the loop.  For a loop gain of relative
degree 1, ``g`` jumps at ``t = 0`` and the identity takes the sample there
as the midpoint ``g(0+)/2``, the principal value of the symmetric sum.  The
HTM model therefore *contains* the z-domain model, while also describing
inter-sample behaviour and band conversion — the paper's criticism of
refs [3, 5] is precisely that "they still don't fully recognize the mixed
continuous-time/discrete-time nature of PLLs".
"""

from __future__ import annotations

import math

import numpy as np

from repro._errors import ValidationError
from repro._validation import check_order
from repro.core.aliasing import AliasedSum
from repro.lti.rational import RationalFunction
from repro.lti.ztransfer import ZTransferFunction
from repro.obs import spans as obs
from repro.pll.architecture import PLL
from repro.pll.openloop import effective_gain_sum


def sampled_open_loop(pll: PLL) -> ZTransferFunction:
    """Discrete-time open-loop gain ``G_z(z)`` of a PLL.

    Impulse-sampling PFD: the z form of ``lambda`` from
    :func:`~repro.pll.openloop.effective_gain_sum`.  Sample-and-hold PFD:
    the standard zero-order-hold transform
    ``G_z = (1 - z^{-1}) Z{ samples of L^{-1}(F/s) }``.

    In both cases ``G_z(e^{sT})`` reproduces the paper's ``lambda(s)``.  A
    sampling offset is ignored: it moves the sampling instants and the
    charge-pump impulses fired at them by the same amount, so with a
    time-invariant VCO the loop seen from one sample to the next is
    unchanged (in the HTM, the sampler's row factor cancels the column
    phase), and ``lambda`` does not depend on it.  A loop with a transport
    delay or an LPTV VCO is refused.
    """
    with obs.span("baselines.zdomain.sampled_open_loop"):
        return _sampled_open_loop(pll)


def _sampled_open_loop(pll: PLL) -> ZTransferFunction:
    from repro.blocks.pfd import SampleHoldPFD

    if pll.has_delay:
        raise ValidationError("z-domain baseline assumes a delay-free loop")
    vco_tf = pll.vco.lti_transfer()  # raises for LPTV VCO
    if not isinstance(pll.pfd, SampleHoldPFD):
        return effective_gain_sum(pll).z
    # ZOH transform: (1 - z^-1) Z{ (F/s)(nT) } = ((z-1)/z) Z{...}, and
    # Z{ (F/s)(nT) } is the aliasing sum of A/s.  It carries (z-1)^mu in its
    # denominator (poles of F/s at s=0), so cancel one (z-1) factor
    # *structurally* — generic rational multiplication would leave a
    # removable num/den pair at z = 1 that poisons the closed-loop pole test.
    stepped = (pll.pfd.gain * vco_tf * pll.h_lf).rational * RationalFunction.integrator()
    base = AliasedSum.of(stepped, pll.omega0).z.rational
    den = base.den
    quotient, remainder = np.polydiv(den, np.array([1.0, -1.0]))
    rem_scale = float(np.max(np.abs(np.atleast_1d(remainder))))
    if rem_scale > 1e-9 * float(np.max(np.abs(den))):
        raise ValidationError(
            "ZOH transform: expected a (z-1) factor in the sampled "
            f"denominator, residual {rem_scale:.3g}"
        )
    new_den = np.polymul(np.atleast_1d(quotient), np.array([1.0, 0.0]))
    return ZTransferFunction(base.num, new_den, pll.period)


def closed_loop_z(open_loop: ZTransferFunction) -> ZTransferFunction:
    """Discrete closed loop ``G_z / (1 + G_z)`` (negative unity feedback).

    Formed coefficient-wise as ``num / (den + num)`` — algebraically exact,
    avoiding the root-cancellation step of generic rational division (which
    is lossy around the multiple pole at ``z = 1``).
    """
    g = open_loop.rational
    num = g.num
    den = g.den
    closed_den = np.polyadd(den, num)
    return ZTransferFunction(num, closed_den, open_loop.period)


def step_response_samples(system: ZTransferFunction, samples: int) -> np.ndarray:
    """Discrete unit-step response ``y[n]`` of a pulse transfer function.

    Evaluated by running the difference equation implied by ``num/den``
    (direct-form filtering of a step input) — exact to round-off, no
    inverse-transform tables needed.
    """
    check_order("samples", samples, minimum=1)
    num = system.rational.num
    den = system.rational.den
    # Align numerator to the denominator's degree (causal system check).
    if num.size > den.size:
        raise ValidationError("non-causal pulse transfer function (num degree > den)")
    pad = den.size - num.size
    b = np.concatenate([np.zeros(pad, dtype=complex), num])
    a = den
    y = np.zeros(samples, dtype=complex)
    u = np.ones(samples)
    for n in range(samples):
        acc = 0.0 + 0.0j
        for k in range(b.size):
            if n - k >= 0:
                acc += b[k] * u[n - k]
        for k in range(1, a.size):
            if n - k >= 0:
                acc -= a[k] * y[n - k]
        y[n] = acc / a[0]
    if np.max(np.abs(y.imag)) < 1e-9 * max(float(np.max(np.abs(y.real))), 1e-30):
        return y.real.copy()
    return y


def stability_limit_ratio(
    designer,
    lo: float = 0.01,
    hi: float = 0.499,
    tol: float = 1e-4,
) -> float:
    """Largest stable ``w_UG / w0`` according to the z-domain model.

    Bisects on the ratio with the closed-loop pole-radius test — the
    discrete-time analogue of Gardner's stability limit.  ``designer`` maps
    a ratio to a :class:`PLL` (as in :func:`repro.pll.margins.margin_sweep`).

    Raises
    ------
    ValidationError
        If the loop is already unstable at ``lo`` or still stable at ``hi``.
    """

    def stable(ratio: float) -> bool:
        pll = designer(ratio)
        return closed_loop_z(sampled_open_loop(pll)).is_stable()

    if not stable(lo):
        raise ValidationError(f"loop already unstable at w_UG/w0 = {lo}")
    if stable(hi):
        raise ValidationError(f"loop still stable at w_UG/w0 = {hi}; no limit in range")
    while hi - lo > tol:
        mid = math.sqrt(lo * hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo
