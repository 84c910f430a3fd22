"""Pulse transfer functions ``G(z)`` with a sample period ``T``.

The z view of a sampled loop: the paper's effective gain is
``lambda(s) = G(e^{sT})`` (:class:`~repro.core.aliasing.AliasedSum`), and the
z-domain baseline of refs [3, 5] works on the same ``G``
(:mod:`repro.baselines.zdomain`).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence

import numpy as np

from repro._validation import check_positive
from repro.lti.rational import (
    UNITY_ROOT_TOL,
    RationalFunction,
    poly_value_and_derivative,
    polynomial_roots,
    swept_angle,
)


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

    A ``G(z)`` built as a sum of :class:`PoleGroup` terms (:meth:`from_groups`)
    is evaluated from those terms: the expanded denominator loses accuracy
    near a multiple pole by cancellation (``eps / |z - 1|^2`` at the loop's
    double pole at ``z = 1``), each ``(z - pole)^order`` does not.  Algebra
    (poles, the closed loop, unit-circle roots) uses the expanded
    polynomials, which such a ``G`` forms on first use.
    """

    __slots__ = ("_rf", "period", "_groups")

    def __init__(self, num: Sequence[complex], den: Sequence[complex], period: float):
        self._rf = RationalFunction(num, den)
        self.period = check_positive("period", period)
        self._groups: tuple[PoleGroup, ...] | None = None

    @classmethod
    def from_groups(cls, groups: Sequence[PoleGroup], period: float) -> "ZTransferFunction":
        """The sum of pole groups (proper: each ``num`` has degree <= ``order``)."""
        obj = cls.__new__(cls)
        obj._rf = None
        obj.period = check_positive("period", period)
        obj._groups = tuple(groups)
        return obj

    @property
    def rational(self) -> RationalFunction:
        """Underlying rational function in ``z``."""
        if self._rf is None:
            self._rf = _sum_groups(self._groups)
        return self._rf

    def __call__(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate at ``z``."""
        if self._groups is None:
            return self._rf(z)
        z_arr = np.asarray(z, dtype=complex)
        value = np.zeros(z_arr.shape, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            for g in self._groups:
                value += np.polyval(g.num, z_arr) / (z_arr - g.pole) ** g.order
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
        num, den = self.rational.num, self.rational.den
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
        zeros = swept_angle(polynomial_roots(self.rational.num), start, stop, arc=True)
        poles = swept_angle(polynomial_roots(self.rational.den), start, stop, arc=True)
        if zeros is None or poles is None:
            return None
        return zeros - poles

    def poles(self) -> np.ndarray:
        """Poles in the z-plane."""
        return self.rational.poles()

    def is_stable(self, margin: float = 0.0) -> bool:
        """True when every pole lies strictly inside the unit circle."""
        poles = self.poles()
        if poles.size == 0:
            return True
        return bool(np.all(np.abs(poles) < 1.0 - margin))

    def __repr__(self) -> str:
        return f"ZTransferFunction(order={self.rational.den_degree}, T={self.period:.6g})"


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


def _sum_groups(groups: Sequence[PoleGroup]) -> RationalFunction:
    """The pole groups as one rational function of ``z``."""
    total = RationalFunction.constant(0.0)
    for group in groups:
        base = np.array([1.0, -group.pole], dtype=complex)
        den = np.array([1.0], dtype=complex)
        for _ in range(group.order):
            den = np.convolve(den, base)
        total = total + RationalFunction(group.num, den)
    return total
