"""Rational functions of the Laplace variable ``s``.

:class:`RationalFunction` is the basic algebraic object of the LTI substrate:
a ratio of two polynomials with complex coefficients, supporting arithmetic,
evaluation on arrays of complex frequencies, pole/zero extraction,
frequency scaling and partial-fraction expansion with repeated poles.

The partial-fraction expansion is the piece the paper's closed-form
"effective open-loop gain" computation rests on: the aliasing sum
``lambda(s) = sum_m A(s + j m w0)`` (paper eq. 37) is evaluated exactly by
expanding ``A`` into terms ``r / (s - p)^j`` and summing each term over all
``m`` into a pole group of ``z = e^{sT}`` (see :mod:`repro.core.aliasing`).
Repeated poles matter because the paper's loop gain has a *double* pole at
DC (two poles at the origin, Fig. 5).

Coefficient convention: descending powers, as used by :func:`numpy.polyval`.
Products are :func:`numpy.convolve`: it is :func:`numpy.polymul` without the
``poly1d`` round trip (about 20x faster at these degrees), and the stored
coefficients carry no leading zeros for ``polymul`` to trim.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._errors import ValidationError


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Strip leading (highest-power) coefficients that are exactly zero."""
    idx = 0
    while idx < coeffs.size - 1 and coeffs[idx] == 0:
        idx += 1
    return coeffs[idx:]


def _as_poly(name: str, coeffs: Sequence[complex] | np.ndarray) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D coefficient sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must contain only finite coefficients")
    return _trim(arr)


def _poly_taylor(coeffs: np.ndarray, point: complex, count: int) -> np.ndarray:
    """Return the first ``count`` Taylor coefficients of a polynomial at ``point``.

    Taylor coefficient ``k`` is ``p^(k)(point) / k!``; computed by repeated
    synthetic division, which is numerically benign for the modest degrees
    used here.
    """
    taylor = np.zeros(count, dtype=complex)
    work = coeffs.astype(complex).copy()
    for k in range(count):
        if work.size == 0:
            break
        # Synthetic division of `work` by (s - point): quotient + remainder.
        quotient = np.zeros(max(work.size - 1, 0), dtype=complex)
        acc = work[0]
        for i in range(1, work.size):
            if quotient.size:
                quotient[i - 1] = acc
            acc = work[i] + acc * point
        taylor[k] = acc
        work = quotient
        if work.size == 0:
            break
    return taylor


@dataclass(frozen=True)
class PartialFractionTerm:
    """One term ``residue / (s - pole)**order`` of a partial-fraction expansion."""

    pole: complex
    order: int
    residue: complex

    def __call__(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate this single term at ``s``."""
        return self.residue / (np.asarray(s, dtype=complex) - self.pole) ** self.order


class RationalFunction:
    """A ratio of two complex-coefficient polynomials in ``s``.

    Parameters
    ----------
    num, den:
        Coefficient sequences in descending powers of ``s``.  The denominator
        must not be identically zero.

    Notes
    -----
    Instances are immutable; all arithmetic returns new objects.  No implicit
    pole/zero cancellation is performed by arithmetic — call
    :meth:`simplified` explicitly when cancellation is wanted.
    """

    __slots__ = ("_num", "_den", "_pf_cache", "_poles")

    def __init__(self, num: Sequence[complex], den: Sequence[complex]):
        num_arr = _as_poly("num", num)
        den_arr = _as_poly("den", den)
        if den_arr.size == 1 and den_arr[0] == 0:
            raise ValidationError("denominator must not be identically zero")
        # Normalise so the denominator is monic: keeps magnitudes comparable
        # across arithmetic chains and makes equality checks meaningful.
        lead = den_arr[0]
        object.__setattr__(self, "_num", num_arr / lead)
        object.__setattr__(self, "_den", den_arr / lead)
        object.__setattr__(self, "_pf_cache", {})
        object.__setattr__(self, "_poles", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_zpk(
        cls,
        zeros: Iterable[complex],
        poles: Iterable[complex],
        gain: complex = 1.0,
    ) -> "RationalFunction":
        """Build ``gain * prod(s - z) / prod(s - p)`` from zeros/poles/gain."""
        zeros = list(zeros)
        poles = list(poles)
        num = gain * np.poly(zeros) if zeros else np.array([gain], dtype=complex)
        den = np.poly(poles) if poles else np.array([1.0], dtype=complex)
        return cls(np.atleast_1d(num), np.atleast_1d(den))

    @classmethod
    def constant(cls, value: complex) -> "RationalFunction":
        """The constant rational function ``value``."""
        return cls([value], [1.0])

    @classmethod
    def s(cls) -> "RationalFunction":
        """The identity rational function ``s``."""
        return cls([1.0, 0.0], [1.0])

    @classmethod
    def integrator(cls, order: int = 1) -> "RationalFunction":
        """The ideal integrator ``1 / s**order``."""
        if order < 1:
            raise ValidationError(f"integrator order must be >= 1, got {order}")
        den = np.zeros(order + 1, dtype=complex)
        den[0] = 1.0
        return cls([1.0], den)

    # -- basic properties --------------------------------------------------

    @property
    def num(self) -> np.ndarray:
        """Numerator coefficients (descending powers), denominator-monic scaling."""
        return self._num.copy()

    @property
    def den(self) -> np.ndarray:
        """Monic denominator coefficients (descending powers)."""
        return self._den.copy()

    @property
    def num_degree(self) -> int:
        """Degree of the numerator polynomial."""
        return self._num.size - 1

    @property
    def den_degree(self) -> int:
        """Degree of the denominator polynomial."""
        return self._den.size - 1

    @property
    def relative_degree(self) -> int:
        """Denominator degree minus numerator degree (positive = strictly proper)."""
        return self.den_degree - self.num_degree

    def is_proper(self) -> bool:
        """True when the numerator degree does not exceed the denominator degree."""
        return self.num_degree <= self.den_degree

    def is_strictly_proper(self) -> bool:
        """True when the numerator degree is below the denominator degree."""
        return self.num_degree < self.den_degree

    def is_zero(self, tol: float = 0.0) -> bool:
        """True when every numerator coefficient has magnitude <= ``tol``."""
        return bool(np.all(np.abs(self._num) <= tol))

    def poles(self) -> np.ndarray:
        """Roots of the denominator (with multiplicity, unsorted).

        The denominator is rooted once per instance (the coefficients are
        immutable, which the partial-fraction ladder relies on); each call
        returns a fresh copy.
        """
        if self._poles is None:
            roots = np.roots(self._den) if self.den_degree else np.empty(0, dtype=complex)
            object.__setattr__(self, "_poles", roots)
        return self._poles.copy()

    def zeros(self) -> np.ndarray:
        """Roots of the numerator (with multiplicity, unsorted)."""
        if self.num_degree == 0:
            return np.empty(0, dtype=complex)
        return np.roots(self._num)

    def dc_gain(self) -> complex:
        """Value at ``s = 0`` (``inf`` for a pole at the origin, 0 allowed)."""
        num0 = self._num[-1]
        den0 = self._den[-1]
        if den0 == 0:
            return complex(np.inf) if num0 != 0 else complex(np.nan)
        return num0 / den0

    # -- evaluation --------------------------------------------------------

    def __call__(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate the rational function at complex frequency ``s``.

        Accepts scalars or arrays; returns the same shape.  Evaluation at an
        exact pole yields ``inf``/``nan`` as NumPy division dictates.
        """
        s_arr = np.asarray(s, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.polyval(self._num, s_arr) / np.polyval(self._den, s_arr)
        if np.isscalar(s) or s_arr.ndim == 0:
            return complex(value)
        return value

    def eval_jomega(self, omega: Sequence[float] | np.ndarray) -> np.ndarray:
        """Evaluate on the imaginary axis, ``s = j * omega`` (vectorized)."""
        omega_arr = np.asarray(omega, dtype=float)
        return np.asarray(self(1j * omega_arr), dtype=complex)

    def log_derivative_at(self, x: complex) -> tuple[float, complex]:
        """``log|F(x)|`` and ``F'(x) / F(x)`` at one point (Horner's scheme)."""
        n, dn = poly_value_and_derivative(self._num, x)
        d, dd = poly_value_and_derivative(self._den, x)
        if n == 0 or d == 0:
            return (math.inf if d == 0 else -math.inf), complex(math.nan)
        return math.log(abs(n)) - math.log(abs(d)), dn / n - dd / d

    # -- the j omega axis without a grid (see repro.lti.bode.exact_margins) --

    def unity_gain_frequencies(self) -> np.ndarray:
        """Frequencies ``omega > 0`` where ``|F(j omega)| = 1``, ascending.

        They are the real positive roots of ``|N(j omega)|^2 - |D(j omega)|^2``,
        a polynomial in ``omega``, as :func:`numpy.roots` finds them (not yet
        polished).
        """
        q_num = _jomega_poly(self._num)
        q_den = _jomega_poly(self._den)
        gap = np.polysub(
            np.convolve(q_num, np.conj(q_num)), np.convolve(q_den, np.conj(q_den))
        )
        roots = polynomial_roots(gap)
        real = roots[np.abs(roots.imag) <= UNITY_ROOT_TOL * np.abs(roots)].real
        return np.sort(real[real > 0])

    def log_gain(self, omega: float) -> tuple[float, float]:
        """``log|F(j omega)|`` and its derivative in ``omega``."""
        value, dlog = self.log_derivative_at(1j * omega)
        return value, (1j * dlog).real

    def phase_change(self, omega_a: float, omega_b: float) -> float | None:
        """Change of ``arg F(j omega)`` from ``omega_a`` to ``omega_b``, in radians.

        Taken from the zeros and poles along the straight path ``j omega``
        (:func:`swept_angle`); ``None`` when a root lies on it.
        """
        start, stop = 1j * omega_a, 1j * omega_b
        zeros = swept_angle(polynomial_roots(self._num), start, stop)
        poles = swept_angle(polynomial_roots(self._den), start, stop)
        if zeros is None or poles is None:
            return None
        return zeros - poles

    # -- algebra -----------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return RationalFunction.constant(complex(other))
        raise TypeError(f"cannot combine RationalFunction with {type(other).__name__}")

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        num = np.polyadd(
            np.convolve(self._num, other._den), np.convolve(other._num, self._den)
        )
        den = np.convolve(self._den, other._den)
        return RationalFunction(num, den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self._num, self._den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(
            np.convolve(self._num, other._num), np.convolve(self._den, other._den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(
            np.convolve(self._num, other._den), np.convolve(self._den, other._num)
        )

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __pow__(self, exponent: int) -> "RationalFunction":
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("RationalFunction exponent must be an integer")
        if exponent == 0:
            return RationalFunction.constant(1.0)
        base = self if exponent > 0 else RationalFunction(self._den, self._num)
        result = RationalFunction.constant(1.0)
        for _ in range(abs(int(exponent))):
            result = result * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        # Cross-multiplied coefficient comparison avoids representation
        # differences (e.g. un-cancelled common factors still compare equal
        # only if coefficients match exactly after monic normalisation).
        return (
            self._num.shape == other._num.shape
            and self._den.shape == other._den.shape
            and bool(np.allclose(self._num, other._num, rtol=0, atol=0))
            and bool(np.allclose(self._den, other._den, rtol=0, atol=0))
        )

    def __hash__(self):
        return hash((self._num.tobytes(), self._den.tobytes()))

    def close_to(self, other: "RationalFunction", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Numerically compare two rational functions as *functions*.

        Uses cross-multiplication ``n1 * d2 ~= n2 * d1`` so differently
        factored but equal functions compare equal.
        """
        lhs = np.convolve(self._num, other._den)
        rhs = np.convolve(other._num, self._den)
        size = max(lhs.size, rhs.size)
        lhs = np.pad(lhs, (size - lhs.size, 0))
        rhs = np.pad(rhs, (size - rhs.size, 0))
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), atol)
        return bool(np.allclose(lhs, rhs, rtol=rtol, atol=atol * scale))

    # -- transformations ----------------------------------------------------

    def scaled_frequency(self, factor: float) -> "RationalFunction":
        """Return ``F(s / factor)``: stretches the frequency axis by ``factor``.

        Used to renormalise loop gains (the paper plots everything against
        ``omega / omega_UG``).
        """
        if factor <= 0 or not math.isfinite(factor):
            raise ValidationError(f"frequency scale factor must be finite positive, got {factor}")
        powers_num = np.arange(self.num_degree, -1, -1)
        powers_den = np.arange(self.den_degree, -1, -1)
        return RationalFunction(
            self._num / factor**powers_num, self._den / factor**powers_den
        )

    def shifted(self, offset: complex) -> "RationalFunction":
        """Return ``F(s + offset)``: translates along the complex axis.

        This is precisely what HTM diagonal embedding does with
        ``offset = j m w0`` (paper eq. 12).
        """
        num = _poly_shift(self._num, offset)
        den = _poly_shift(self._den, offset)
        return RationalFunction(num, den)

    def derivative(self) -> "RationalFunction":
        """Return ``dF/ds`` using the quotient rule."""
        n, d = self._num, self._den
        dn = np.polyder(n) if n.size > 1 else np.zeros(1, dtype=complex)
        dd = np.polyder(d) if d.size > 1 else np.zeros(1, dtype=complex)
        num = np.polysub(np.convolve(dn, d), np.convolve(n, dd))
        den = np.convolve(d, d)
        return RationalFunction(num, den)

    def simplified(self, tol: float = 1e-8) -> "RationalFunction":
        """Cancel numerically-coincident pole/zero pairs.

        Roots are matched greedily when they lie within ``tol * (1 + |root|)``
        of each other.  The result reproduces the same function values but
        with lower degree; useful after long arithmetic chains.
        """
        zeros = list(self.zeros())
        poles = list(self.poles())
        # A vanishingly small leading coefficient makes the companion-matrix
        # roots overflow; cancellation is meaningless there — return as-is.
        if any(not np.isfinite(r) for r in zeros + poles):
            return self
        kept_zeros: list[complex] = []
        for z in zeros:
            match = None
            for i, p in enumerate(poles):
                if abs(z - p) <= tol * (1.0 + abs(z)):
                    match = i
                    break
            if match is None:
                kept_zeros.append(z)
            else:
                poles.pop(match)
        lead_num = self._num[0]
        return RationalFunction.from_zpk(kept_zeros, poles, lead_num)

    # -- partial fractions ---------------------------------------------------

    def pole_multiplicities(self, tol: float = 1e-6) -> list[tuple[complex, int]]:
        """Cluster denominator roots into ``(pole, multiplicity)`` groups.

        Roots within ``tol * (1 + |root|)`` of a cluster centroid are merged;
        the reported pole is the cluster mean, which is more accurate than any
        single root of a multiple pole.
        """
        roots = self.poles()
        clusters: list[list[complex]] = []
        for r in sorted(roots, key=lambda c: (c.real, c.imag)):
            placed = False
            for cluster in clusters:
                centroid = sum(cluster) / len(cluster)
                if abs(r - centroid) <= tol * (1.0 + abs(centroid)):
                    cluster.append(r)
                    placed = True
                    break
            if not placed:
                clusters.append([r])
        return [(sum(c) / len(c), len(c)) for c in clusters]

    def partial_fractions(
        self, tol: float | None = None
    ) -> tuple[np.ndarray, list[PartialFractionTerm]]:
        """Expand into a polynomial part plus first-order-and-higher pole terms.

        Parameters
        ----------
        tol:
            Pole-clustering tolerance.  ``None`` (default) tries a ladder of
            tolerances and accepts the first expansion that reconstructs the
            function to 1e-6 relative accuracy at probe points — necessary
            because an ``m``-fold root of a double-precision polynomial is
            perturbed by ``~eps**(1/m)`` (1e-5 for a triple pole).

        Returns
        -------
        direct:
            Coefficients (descending powers) of the polynomial part —
            ``[0]`` when the function is strictly proper.
        terms:
            One :class:`PartialFractionTerm` per ``(pole, order)`` pair with
            ``order`` running from 1 to the pole multiplicity.

        Notes
        -----
        Residues for a pole ``p`` of multiplicity ``mu`` are the Taylor
        coefficients at ``p`` of the deflated function
        ``g(s) = num(s) / (den(s) / (s-p)^mu)``; the deflated denominator is
        rebuilt from the *other* pole clusters, which is far more stable than
        polynomial long division.
        """
        # Memoized per instance (immutable coefficients): the expansion is
        # expensive (tolerance ladder + probe-point reconstruction) and the
        # aliasing-sum machinery asks for it repeatedly.  Callers must not
        # mutate the returned `direct` array.
        cached = self._pf_cache.get(tol)
        if cached is not None:
            return cached
        if self.is_zero():
            result = (np.zeros(1, dtype=complex), [])
            self._pf_cache[tol] = result
            return result
        if tol is not None:
            result = self._partial_fractions_at_tol(tol)
            self._pf_cache[tol] = result
            return result
        best: tuple[float, tuple[np.ndarray, list[PartialFractionTerm]]] | None = None
        num_scale = float(np.max(np.abs(self._num))) or 1.0
        for candidate in (1e-9, 1e-7, 1e-5, 1e-3):
            try:
                expansion = self._partial_fractions_at_tol(candidate)
            except ValidationError:
                continue
            err = self._reconstruction_error(expansion)
            # Penalise expansions with enormous mutually-cancelling residues:
            # a nearly-multiple root split across two simple terms can still
            # reconstruct well at probe points while being useless downstream.
            residue_scale = max((abs(t.residue) for t in expansion[1]), default=0.0)
            score = err + 1e-14 * residue_scale / num_scale
            if best is None or score < best[0]:
                best = (score, expansion)
        if best is None:
            raise ValidationError("partial-fraction expansion failed at every tolerance")
        self._pf_cache[tol] = best[1]
        return best[1]

    def _reconstruction_error(
        self, expansion: tuple[np.ndarray, list[PartialFractionTerm]]
    ) -> float:
        """Relative reconstruction error of an expansion at probe points."""
        direct, terms = expansion
        poles = self.poles()
        radius = 2.0 * (1.0 + (np.max(np.abs(poles)) if poles.size else 0.0))
        probes = radius * np.exp(1j * np.array([0.37, 1.91, 3.67, 5.23]))
        worst = 0.0
        for s in probes:
            exact = self(s)
            approx = complex(np.polyval(direct, s)) + sum(t(s) for t in terms)
            worst = max(worst, abs(approx - exact) / max(abs(exact), 1e-30))
        return worst

    def _partial_fractions_at_tol(
        self, tol: float
    ) -> tuple[np.ndarray, list[PartialFractionTerm]]:
        num, den = self._num, self._den
        direct = np.zeros(1, dtype=complex)
        if not self.is_strictly_proper():
            direct, rem = np.polydiv(num, den)
            num = _trim(np.atleast_1d(rem))
            if num.size == 1 and num[0] == 0:
                return direct, []
        groups = self.pole_multiplicities(tol=tol)
        terms: list[PartialFractionTerm] = []
        for idx, (pole, mu) in enumerate(groups):
            others: list[complex] = []
            for jdx, (other_pole, other_mu) in enumerate(groups):
                if jdx != idx:
                    others.extend([other_pole] * other_mu)
            deflated = np.poly(others) if others else np.array([1.0], dtype=complex)
            n_taylor = _poly_taylor(num, pole, mu)
            d_taylor = _poly_taylor(np.atleast_1d(deflated), pole, mu)
            if d_taylor[0] == 0:
                raise ValidationError(
                    "pole clustering failed: deflated denominator vanishes at the pole; "
                    "try a larger tol"
                )
            g = np.zeros(mu, dtype=complex)
            for k in range(mu):
                acc = n_taylor[k]
                for m in range(1, k + 1):
                    acc -= d_taylor[m] * g[k - m]
                g[k] = acc / d_taylor[0]
            for k in range(mu):
                terms.append(PartialFractionTerm(pole=pole, order=mu - k, residue=g[k]))
        terms = [t for t in terms if t.residue != 0]
        return direct, terms

    # -- misc ----------------------------------------------------------------

    def __repr__(self) -> str:
        def fmt(poly: np.ndarray) -> str:
            return "[" + ", ".join(f"{c:.6g}" for c in poly) + "]"

        return f"RationalFunction(num={fmt(self._num)}, den={fmt(self._den)})"


def _poly_shift(coeffs: np.ndarray, offset: complex) -> np.ndarray:
    """Coefficients of ``p(s + offset)`` given coefficients of ``p(s)``.

    Computed with the binomial theorem on each monomial; degrees in this
    library are small (< 20) so this is exact enough in double precision.
    """
    degree = coeffs.size - 1
    out = np.zeros_like(coeffs)
    for i, c in enumerate(coeffs):
        power = degree - i  # monomial c * s**power
        for k in range(power + 1):
            out[coeffs.size - 1 - k] += c * math.comb(power, k) * offset ** (power - k)
    return out


#: Relative tolerance within which a root of ``|N|^2 - |D|^2`` counts as
#: real (or, in the z-domain, on the unit circle).  A false candidate costs
#: one rejected Newton polish; a missed one sends the caller to the scan.
UNITY_ROOT_TOL = 1e-6

#: A zero or pole this close (relative) to the path makes its swept angle
#: ambiguous by a full turn.
_PATH_TOL = 1e-9


def polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """:func:`numpy.roots` after zeroing coefficients below the rounding of the largest.

    A coefficient like ``1e-107`` (from a z-domain pole at ``e^{-244 T}``)
    as the leading term swamps the companion matrix, and every root comes
    back wrong; zeroed, it moves a root to 0 or infinity instead.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    scale = float(np.max(np.abs(coeffs), initial=0.0))
    return np.roots(np.where(np.abs(coeffs) > 1e-15 * scale, coeffs, 0.0))


def poly_value_and_derivative(coeffs: np.ndarray, x: complex) -> tuple[complex, complex]:
    """``p(x)`` and ``p'(x)`` of one polynomial at one point (Horner's scheme)."""
    value = slope = 0j
    for c in coeffs.tolist():
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _jomega_poly(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of ``p(j omega)`` as a polynomial in ``omega``."""
    powers = np.arange(coeffs.size - 1, -1, -1)
    return coeffs * np.array([1.0, 1j, -1.0, -1j])[powers % 4]


def swept_angle(
    roots: np.ndarray, start: complex, stop: complex, arc: bool = False
) -> float | None:
    """Total angle the factors ``x - r`` sweep as ``x`` runs from ``start`` to ``stop``.

    Along the straight segment each root ``r`` sweeps the principal angle of
    ``(stop - r) / (start - r)``: a segment never winds around a point.  With
    ``arc=True`` the path is the counterclockwise unit-circle arc from
    ``start`` to ``stop`` (less than a half turn), and a root inside the
    disk between the arc and its chord sweeps one more full turn, because
    the arc goes around it.  Those roots are the ones inside the disk whose
    principal angle is negative (they lie right of the chord).  ``None``
    when a root lies on the path, where the angle jumps by half a turn.
    """
    if start == stop:
        return 0.0
    chord = stop - start
    total = 0.0
    for r in np.asarray(roots, dtype=complex).tolist():
        if arc:
            offset = (cmath.phase(r / start) + _PATH_TOL) % (2 * math.pi)
            span = cmath.phase(stop / start)
            on_path = abs(abs(r) - 1.0) <= _PATH_TOL and offset <= span + 2 * _PATH_TOL
        else:
            along = min(max(((r - start) * chord.conjugate()).real / abs(chord) ** 2, 0.0), 1.0)
            on_path = abs(r - (start + along * chord)) <= _PATH_TOL * abs(chord)
        if on_path:
            return None
        turn = cmath.phase((stop - r) / (start - r))
        if arc and turn < 0.0 and abs(r) < 1.0:
            turn += 2 * math.pi
        total += turn
    return total if math.isfinite(total) else None
