"""Discrete-time z-domain PLL model (Hein & Scott 1988; Gardner 1980).

The paper's refs [3] and [5] treat the charge-pump PLL as a sampled-data
system: the phase error is a sequence ``e[n]``, and the loop dynamics a
pulse transfer function ``G_z(z)``.  We build ``G_z`` by impulse-invariant
transformation of the continuous path between the sampler and the phase
output::

    F(s) = v0 * I_cp * Z_LF(s) / s        (filter + VCO; A(s) = F(s)/T)
    g(t) = L^{-1}{F},   G_z(z) = sum_{n>=0} g(nT) z^{-n}

computed in closed form from the partial fractions of ``F`` (poles up to
triple multiplicity — the loop has a double pole at DC).

Key structural identity (validated in the tests): the paper's effective
open-loop gain equals this model on the unit-circle image of the s-plane,

    lambda(s) = G_z(e^{sT}),

because ``lambda`` is the aliasing sum ``(1/T) sum_m F(s + j m w0)`` and
Poisson summation turns that into the sampled-impulse-response series
(exact when ``F`` has relative degree >= 2, which holds here).  The HTM
model therefore *contains* the z-domain model, while also describing
inter-sample behaviour and band conversion — the paper's criticism of
refs [3, 5] is precisely that "they still don't fully recognize the mixed
continuous-time/discrete-time nature of PLLs".
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

import numpy as np

from repro._errors import ValidationError
from repro._validation import check_order, check_positive
from repro.lti.rational import (
    UNITY_ROOT_TOL,
    RationalFunction,
    poly_value_and_derivative,
    polynomial_roots,
    swept_angle,
)
from repro.obs import spans as obs
from repro.pll.architecture import PLL


class PoleGroup(NamedTuple):
    """``num(z) / (z - pole)^order``: the terms of one pole cluster."""

    pole: complex
    order: int
    num: np.ndarray


class ZTransferFunction:
    """A rational pulse transfer function ``G(z)`` with sample period ``T``.

    Thin z-semantics wrapper over :class:`RationalFunction` (polynomials are
    variable-agnostic): adds unit-circle evaluation, discrete stability and
    discrete frequency response.

    A ``G(z)`` built as a sum of :class:`PoleGroup` terms (as
    :func:`sampled_open_loop` builds it) is evaluated from those terms: the
    expanded denominator loses accuracy near a multiple pole by cancellation
    (``eps / |z - 1|^2`` at the loop's double pole at ``z = 1``), each
    ``(z - pole)^order`` does not.  Algebra (poles, the closed loop) uses the
    expanded polynomials.
    """

    __slots__ = ("_rf", "period", "_groups")

    def __init__(self, num: Sequence[complex], den: Sequence[complex], period: float):
        self._rf = RationalFunction(num, den)
        self.period = check_positive("period", period)
        self._groups: tuple[PoleGroup, ...] | None = None

    @classmethod
    def from_rational(
        cls,
        rf: RationalFunction,
        period: float,
        groups: Sequence[PoleGroup] | None = None,
    ) -> "ZTransferFunction":
        """Wrap an existing rational function (``groups``: the same function
        as a sum of pole-cluster terms, used for evaluation)."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "_rf", rf)
        object.__setattr__(obj, "period", check_positive("period", period))
        object.__setattr__(obj, "_groups", None if groups is None else tuple(groups))
        return obj

    @property
    def rational(self) -> RationalFunction:
        """Underlying rational function in ``z``."""
        return self._rf

    def __call__(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate at ``z``."""
        if self._groups is None:
            return self._rf(z)
        z_arr = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = sum(
                np.polyval(g.num, z_arr) / (z_arr - g.pole) ** g.order for g in self._groups
            )
        return complex(value) if z_arr.ndim == 0 else value

    def at_s(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate at ``z = e^{sT}`` — the s-plane image used by the identity
        ``lambda(s) = G_z(e^{sT})``."""
        return self(np.exp(np.asarray(s, dtype=complex) * self.period))

    def frequency_response(self, omega: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate on the unit circle at ``z = e^{j omega T}``."""
        omega_arr = np.asarray(omega, dtype=float)
        return np.asarray(self(np.exp(1j * omega_arr * self.period)), dtype=complex)

    def eval_jomega(self, omega: Sequence[float] | np.ndarray) -> np.ndarray:
        """Alias for margin tooling compatibility."""
        return self.frequency_response(omega)

    # -- the unit circle without a grid (see repro.lti.bode.exact_margins) ----

    def unity_gain_frequencies(self) -> np.ndarray:
        """Frequencies ``0 < omega < pi/T`` where ``|G(e^{j omega T})| = 1``, ascending.

        With ``G = N/D`` and both padded to degree ``n``, the polynomial
        ``P(z) = N(z) z^n conj(N)(1/z) - D(z) z^n conj(D)(1/z)`` equals
        ``z^n (|N|^2 - |D|^2)`` on ``|z| = 1``, so its unit-circle roots are
        the unity-gain points (as :func:`numpy.roots` finds them, not yet
        polished).
        """
        num, den = self._rf.num, self._rf.den
        size = max(num.size, den.size)
        num = np.concatenate([np.zeros(size - num.size), num])
        den = np.concatenate([np.zeros(size - den.size), den])
        gap = np.convolve(num, np.conj(num[::-1])) - np.convolve(den, np.conj(den[::-1]))
        roots = polynomial_roots(gap)
        on_circle = roots[np.abs(np.abs(roots) - 1.0) <= UNITY_ROOT_TOL]
        omega = np.angle(on_circle) / self.period
        return np.sort(omega[omega > 0])

    def log_gain(self, omega: float) -> tuple[float, float]:
        """``log|G(e^{j omega T})|`` and its derivative in ``omega``."""
        z = cmath.exp(1j * omega * self.period)
        if self._groups is None:
            value, dlog = self._rf.log_derivative_at(z)
        else:
            value, dlog = _groups_log_derivative(self._groups, z)
        return value, (1j * self.period * z * dlog).real

    def phase_change(self, omega_a: float, omega_b: float) -> float | None:
        """Change of ``arg G(e^{j omega T})`` from ``omega_a`` to ``omega_b``.

        Taken from the zeros and poles along the unit-circle arc
        (:func:`~repro.lti.rational.swept_angle`); ``None`` when a root lies
        on it.  Needs ``0 <= omega_a < omega_b < pi/T``.
        """
        start = cmath.exp(1j * omega_a * self.period)
        stop = cmath.exp(1j * omega_b * self.period)
        zeros = swept_angle(polynomial_roots(self._rf.num), start, stop, arc=True)
        poles = swept_angle(polynomial_roots(self._rf.den), start, stop, arc=True)
        if zeros is None or poles is None:
            return None
        return zeros - poles

    def poles(self) -> np.ndarray:
        """Poles in the z-plane."""
        return self._rf.poles()

    def is_stable(self, margin: float = 0.0) -> bool:
        """True when every pole lies strictly inside the unit circle."""
        poles = self.poles()
        if poles.size == 0:
            return True
        return bool(np.all(np.abs(poles) < 1.0 - margin))

    def __repr__(self) -> str:
        return f"ZTransferFunction(order={self._rf.den_degree}, T={self.period:.6g})"


def _groups_log_derivative(groups: tuple[PoleGroup, ...], z: complex) -> tuple[float, complex]:
    """``log|G(z)|`` and ``G'(z) / G(z)`` of a sum of pole groups at one point."""
    value = slope = 0j
    for group in groups:
        n, dn = poly_value_and_derivative(group.num, z)
        gap = z - group.pole
        if gap == 0:
            return math.inf, complex(math.nan)
        scale = gap**-group.order
        value += n * scale
        slope += (dn - group.order * n / gap) * scale
    if value == 0:
        return -math.inf, complex(math.nan)
    return math.log(abs(value)), slope / value


def _impulse_invariant_numerator(
    residue: complex, a: complex, order: int, period: float
) -> np.ndarray:
    """Numerator of the z-transform of samples of ``r t^{k-1} e^{pt}/(k-1)!``.

    The matching denominator is ``(z - a)^order`` with ``a = e^{pT}``::

        k=1:  r z
        k=2:  r T a z
        k=3:  r T^2 a z (z + a) / 2
    """
    if order == 1:
        return np.array([residue, 0.0], dtype=complex)
    if order == 2:
        return np.array([residue * period * a, 0.0], dtype=complex)
    if order == 3:
        scale = residue * period**2 * a / 2.0
        return np.array([scale, scale * a, 0.0], dtype=complex)
    raise ValidationError(
        f"impulse-invariant transform implemented up to pole multiplicity 3, got {order}"
    )


def _pole_group_transform(
    items: list[tuple[int, complex]], pole: complex, period: float
) -> PoleGroup:
    """Combine all terms of one pole cluster over the shared ``(z - a)^mu``.

    Building the common denominator *structurally* (rather than adding
    rationals and cancelling roots afterwards) keeps multiple poles exact —
    root-based cancellation loses ~eps^(1/mu) accuracy on clustered roots.
    """
    a = cmath.exp(pole * period)
    mu = max(order for order, _ in items)
    num_total = np.zeros(1, dtype=complex)
    base = np.array([1.0, -a], dtype=complex)
    for order, residue in items:
        piece = _impulse_invariant_numerator(residue, a, order, period)
        for _ in range(mu - order):
            piece = np.convolve(piece, base)
        num_total = np.polyadd(num_total, piece)
    return PoleGroup(a, mu, num_total)


def _z_transform_of_samples(f_s: RationalFunction, period: float) -> list[PoleGroup]:
    """Z-transform of the samples of ``L^{-1}{f_s}`` via partial fractions."""
    direct, terms = f_s.partial_fractions()
    if np.any(np.abs(direct) > 0):
        raise ValidationError("unexpected direct term in strictly proper F(s)")
    clusters: dict[complex, list[tuple[int, complex]]] = {}
    for term in terms:
        clusters.setdefault(term.pole, []).append((term.order, term.residue))
    return [_pole_group_transform(items, pole, period) for pole, items in clusters.items()]


def _sum_groups(groups: list[PoleGroup]) -> RationalFunction:
    """The pole groups as one rational function of ``z``."""
    total = RationalFunction.constant(0.0)
    for group in groups:
        base = np.array([1.0, -group.pole], dtype=complex)
        den = np.array([1.0], dtype=complex)
        for _ in range(group.order):
            den = np.convolve(den, base)
        total = total + RationalFunction(group.num, den)
    return total


def sampled_open_loop(pll: PLL) -> ZTransferFunction:
    """Discrete-time open-loop gain ``G_z(z)`` of a PLL.

    Impulse-sampling PFD: impulse-invariant transform of
    ``F(s) = v0 I_cp Z(s)/s`` (requires relative degree >= 2 so the
    ``g(0+)`` half-sample term vanishes).  Sample-and-hold PFD: the
    standard zero-order-hold transform
    ``G_z = (1 - z^{-1}) Z{ samples of L^{-1}(F/s) }``.

    In both cases ``G_z(e^{sT})`` reproduces the paper's ``lambda(s)``.
    """
    with obs.span("baselines.zdomain.sampled_open_loop"):
        return _sampled_open_loop(pll)


def _sampled_open_loop(pll: PLL) -> ZTransferFunction:
    from repro.blocks.pfd import SampleHoldPFD

    if pll.has_delay:
        raise ValidationError("z-domain baseline assumes a delay-free loop")
    vco_tf = pll.vco.lti_transfer()  # raises for LPTV VCO
    f_s = (vco_tf * pll.h_lf).rational
    period = pll.period
    if isinstance(pll.pfd, SampleHoldPFD):
        # ZOH transform: (1 - z^-1) Z{ (F/s)(nT) } = ((z-1)/z) Z{...}.
        # Z{F/s} carries (z-1)^mu in its denominator (poles of F/s at s=0),
        # so cancel one (z-1) factor *structurally* — generic rational
        # multiplication would leave a removable num/den pair at z = 1 that
        # poisons the closed-loop pole test.
        stepped = f_s * RationalFunction.integrator()
        base = _sum_groups(_z_transform_of_samples(stepped, period))
        den = base.den
        quotient, remainder = np.polydiv(den, np.array([1.0, -1.0]))
        rem_scale = float(np.max(np.abs(np.atleast_1d(remainder))))
        if rem_scale > 1e-9 * float(np.max(np.abs(den))):
            raise ValidationError(
                "ZOH transform: expected a (z-1) factor in the sampled "
                f"denominator, residual {rem_scale:.3g}"
            )
        new_den = np.polymul(np.atleast_1d(quotient), np.array([1.0, 0.0]))
        return ZTransferFunction.from_rational(
            RationalFunction(base.num, new_den), period
        )
    if f_s.relative_degree < 2:
        raise ValidationError(
            "impulse-invariant sampling requires relative degree >= 2 "
            f"(got {f_s.relative_degree}); g(0+) would contribute a half-sample term"
        )
    groups = _z_transform_of_samples(f_s, period)
    return ZTransferFunction.from_rational(_sum_groups(groups), period, groups)


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
    return ZTransferFunction.from_rational(
        RationalFunction(num, closed_den), open_loop.period
    )


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
