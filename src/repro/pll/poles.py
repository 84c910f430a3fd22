"""Closed-loop poles of the time-varying loop in the s-domain (extension).

The closed loop ``theta = V l^T thetaref / (1 + lambda)`` has its dynamics
in the zeros of the **characteristic function** ``1 + lambda(s)``.  Because
``lambda`` is j-omega0-periodic, its zeros repeat in vertical strips: the
fundamental-strip roots are the loop's **Floquet exponents** ``s_k``, and
``z_k = e^{s_k T}`` are exactly the z-domain closed-loop poles / Floquet
multipliers computed elsewhere in this library — a three-way identity the
integration tests assert.

Roots are found by Newton iteration with the *exact* derivative
``lambda'(s)`` (term-wise ``dS_j/dx = -j S_{j+1}``, see
:meth:`repro.core.aliasing.AliasedSum.derivative`), seeded from the
logarithms of the closed-loop poles of ``lambda``'s own z form
``G / (1 + G)``.  Both come from the one expansion of
:func:`~repro.pll.openloop.effective_gain_sum`, so any loop with the closed
form — an LPTV VCO or a sampling offset included — has its poles found.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from repro._errors import ConvergenceError
from repro._validation import check_order, check_positive
from repro.pll.architecture import PLL
from repro.pll.openloop import effective_gain_sum


@dataclass(frozen=True)
class ClosedLoopPole:
    """One fundamental-strip root of ``1 + lambda(s) = 0``.

    Attributes
    ----------
    s:
        The Floquet exponent (rad/s complex frequency).
    multiplier:
        ``e^{sT}`` — the per-cycle growth factor.
    residual:
        ``|1 + lambda(s)|`` at the accepted root.
    """

    s: complex
    multiplier: complex
    residual: float

    @property
    def is_stable(self) -> bool:
        """True when the exponent lies in the open left half plane."""
        return self.s.real < 0.0

    @property
    def damping_time_constant(self) -> float:
        """``-1 / Re(s)`` in seconds (inf for unstable/marginal poles)."""
        if self.s.real >= 0:
            return float("inf")
        return -1.0 / self.s.real

    @property
    def quality_factor(self) -> float:
        """``|s| / (2 |Re s|)`` — the usual pole Q (inf for marginal)."""
        if self.s.real == 0:
            return float("inf")
        return abs(self.s) / (2.0 * abs(self.s.real))


def _newton_root(
    func, dfunc, seed: complex, tol: float, max_iter: int
) -> tuple[complex, float]:
    s = complex(seed)
    for _ in range(max_iter):
        value = func(s)
        if abs(value) < tol:
            return s, abs(value)
        slope = dfunc(s)
        if slope == 0:
            raise ConvergenceError(f"Newton stalled at s = {s}: zero derivative")
        step = value / slope
        # Damp wild steps: lambda has poles between the roots.
        if abs(step) > 1.0:
            step *= 1.0 / abs(step)
        s = s - step
    value = func(s)
    if abs(value) < 100 * tol:
        return s, abs(value)
    raise ConvergenceError(
        f"Newton did not converge from seed {seed}: residual {abs(value):.3g}"
    )


def find_closed_loop_poles(
    pll: PLL,
    tol: float = 1e-10,
    max_iter: int = 80,
) -> list[ClosedLoopPole]:
    """Locate all fundamental-strip roots of ``1 + lambda(s) = 0``.

    Seeds come from the closed-loop poles of ``lambda``'s z form
    (``s = log(z)/T``), so the count always matches the loop order; Newton
    with the analytic ``lambda'`` then polishes each to ``tol``.

    Requires the closed form (:func:`~repro.pll.openloop.has_closed_form`:
    impulse-sampling PFD, no delay).
    """
    check_positive("tol", tol)
    check_order("max_iter", max_iter, minimum=1)
    from repro.baselines.zdomain import closed_loop_z

    lam = effective_gain_sum(pll)
    dlam = lam.derivative()

    def func(s: complex) -> complex:
        return 1.0 + lam(s)

    z_poles = closed_loop_z(lam.z).poles()
    period = pll.period
    omega0 = pll.omega0
    poles: list[ClosedLoopPole] = []
    for z in z_poles:
        if z == 0:
            # A z-plane pole at the origin is a pure one-cycle delay mode
            # (s -> -infinity); it has no finite s-domain counterpart.
            continue
        seed = cmath.log(z) / period
        s_root, residual = _newton_root(func, dlam, seed, tol, max_iter)
        # Fold into the fundamental strip Im(s) in (-w0/2, w0/2].
        im = (s_root.imag + omega0 / 2) % omega0 - omega0 / 2
        s_root = complex(s_root.real, im)
        poles.append(
            ClosedLoopPole(
                s=s_root, multiplier=cmath.exp(s_root * period), residual=residual
            )
        )
    poles.sort(key=lambda p: -p.s.real)
    return poles


def refine_pole(
    pll: PLL, seed: complex, tol: float = 1e-10, max_iter: int = 80
) -> ClosedLoopPole:
    """Polish a single root of ``1 + lambda(s)`` from a user-supplied seed."""
    lam = effective_gain_sum(pll)
    s_root, residual = _newton_root(
        lambda s: 1.0 + lam(s), lam.derivative(), seed, tol, max_iter
    )
    return ClosedLoopPole(
        s=s_root, multiplier=cmath.exp(s_root * pll.period), residual=residual
    )


def dominant_pole(pll: PLL, **kwargs) -> ClosedLoopPole:
    """The rightmost (slowest / least stable) fundamental-strip pole."""
    poles = find_closed_loop_poles(pll, **kwargs)
    if not poles:
        raise ConvergenceError("no closed-loop poles found")
    return poles[0]
