"""Exact aliasing sums ``sum_m F(s + j m w0)`` for rational ``F``.

The paper's effective open-loop gain is the aliasing sum of the LTI loop
gain (eq. 37)::

    lambda(s) = sum_{m = -inf}^{+inf} A(s + j m w0)

Truncating this sum converges slowly; this module instead evaluates it in
closed form.  Expanding ``A`` into partial fractions, every term
``r / (s - p)^j`` contributes an elementary sum

    S_j(x) = sum_m 1 / (x + j m w0)^j,   x = s - p

and ``S_1(x) = (T/2) coth(T x / 2)`` (the Mittag-Leffler expansion of coth,
interpreted as the symmetric principal-value limit, which is the physically
correct pairing of ±m alias terms).  Higher orders follow by repeated
differentiation, which closes over polynomials in ``y = coth(T x / 2)``
because ``dy/du = 1 - y^2``::

    S_j(x) = (-1)^(j-1) c^j / (j-1)! * p_j(y),   c = T/2
    p_1(y) = y,   p_{j+1}(y) = (1 - y^2) p_j'(y)

This reproduces the known special cases ``S_2 = c^2 csch^2`` and
``S_3 = c^3 coth csch^2`` and extends to any pole multiplicity — needed
because the paper's loop gain has a double pole at DC.

With ``z = e^{sT}`` and ``a = e^{pT}``, ``y = (z + a) / (z - a)``, so each
term is a pole group ``num(z) / (z - a)^j`` and the whole sum is a rational
function ``G(z)`` with ``lambda(s) = G(e^{sT})`` — the z-domain model of the
paper's refs [3, 5].  :class:`AliasedSum` holds the sum in that form: terms
whose poles lie a multiple of ``j w0`` apart share one ``a`` and one group,
and for a relative-degree-1 ``F`` the groups carry the principal-value
constant ``(T/2) sum r``.  :func:`elementary_alias_sum` evaluates the coth
form directly; it is the test oracle.

The truncated fallback :func:`truncated_alias_sum` uses symmetric ±m pairing
so that relative-degree-1 functions still converge (quadratically).
"""

from __future__ import annotations

import cmath
import math
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro._errors import ValidationError
from repro._validation import check_order, check_positive
from repro.core.grid import as_omega_grid
from repro.lti.rational import PartialFractionTerm, RationalFunction
from repro.lti.transfer import TransferFunction
from repro.lti.ztransfer import PoleGroup, ZTransferFunction
from repro.obs import health
from repro.obs import spans as _obs


def coth(z: complex | np.ndarray) -> complex | np.ndarray:
    """Numerically stable complex hyperbolic cotangent.

    Uses ``coth(z) = (1 + e^{-2z}) / (1 - e^{-2z})`` on the right half plane
    (where ``|e^{-2z}| <= 1`` so nothing overflows) and odd symmetry
    elsewhere.  Poles at ``z = j k pi`` produce ``inf`` naturally.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    sign = np.where(z_arr.real < 0, -1.0, 1.0)
    z_pos = z_arr * sign
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.exp(-2.0 * z_pos)
        out = sign * (1.0 + w) / (1.0 - w)
    if scalar:
        return complex(out[0])
    return out


@lru_cache(maxsize=64)
def _alias_poly(order: int) -> tuple[float, ...]:
    """Coefficients (ascending powers of y) of ``p_order`` from the recurrence.

    ``p_1 = y``; ``p_{j+1} = (1 - y^2) * dp_j/dy``.  Cached because orders
    repeat across partial-fraction terms.
    """
    coeffs = [0.0, 1.0]  # p_1(y) = y
    for _ in range(order - 1):
        deriv = [power * c for power, c in enumerate(coeffs)][1:]
        # (1 - y^2) * deriv, in plain floats: numpy.polynomial is a large
        # import that the hot paths of a campaign worker otherwise never pay.
        coeffs = [a - b for a, b in zip(deriv + [0.0, 0.0], [0.0, 0.0] + deriv)]
    return tuple(coeffs)


def elementary_alias_sum(x: complex | np.ndarray, omega0: float, order: int = 1):
    """``S_order(x) = sum_m 1/(x + j m w0)^order`` in closed form.

    ``order = 1`` is the principal-value (symmetric) sum; ``order >= 2`` is
    absolutely convergent.
    """
    omega0 = check_positive("omega0", omega0)
    order = check_order("order", order, minimum=1)
    c = math.pi / omega0  # T / 2
    y = coth(c * np.asarray(x, dtype=complex))
    poly = np.asarray(_alias_poly(order))
    value = np.polynomial.polynomial.polyval(y, poly)
    scale = (-1.0) ** (order - 1) * c**order / math.factorial(order - 1)
    result = scale * value
    if np.ndim(x) == 0:
        return complex(result)
    return result


#: Terms whose ``a`` agree this closely (relative) share one pole group:
#: s-poles ``j k w0`` apart (an LPTV VCO's ISF harmonics put several on
#: ``z = 1``) and one filter pole expanded once per ISF harmonic.
_SAME_POLE_TOL = 1e-9


def _pole_groups(terms: Sequence[PartialFractionTerm], period: float) -> list[PoleGroup]:
    """The terms ``r S_j(s - p)`` as one group ``num(z) / (z - a)^mu`` per ``a = e^{pT}``.

    With ``y = (z + a) / (z - a)``, ``p_j(y) = sum_k q_k y^k`` has numerator
    ``sum_k q_k (z + a)^k (z - a)^(j - k)`` over ``(z - a)^j``; a term below
    its group's order ``mu`` takes ``mu - j`` more factors ``(z - a)``.
    """
    clusters: list[tuple[complex, list[PartialFractionTerm]]] = []
    for term in terms:
        a = cmath.exp(term.pole * period)
        for pole, members in clusters:
            if abs(pole - a) <= _SAME_POLE_TOL * (1.0 + abs(a)):
                members.append(term)
                break
        else:
            clusters.append((a, [term]))
    c = period / 2.0
    groups = []
    for a, members in clusters:
        order = max(term.order for term in members)
        num = np.zeros(order + 1, dtype=complex)
        for term in members:
            j = term.order
            scale = term.residue * (-1.0) ** (j - 1) * c**j / math.factorial(j - 1)
            for k, q in enumerate(_alias_poly(j)):
                if q:
                    piece = np.array([scale * q])
                    for root in [-a] * k + [a] * (order - k):
                        piece = np.convolve(piece, [1.0, -root])
                    num += piece
        groups.append(PoleGroup(a, order, num))
    return groups


def _as_rational(system) -> RationalFunction:
    if isinstance(system, TransferFunction):
        return system.rational
    if not isinstance(system, RationalFunction):
        raise ValidationError(f"AliasedSum requires a rational system, got {type(system).__name__}")
    return system


# Content-keyed LRU of AliasedSum constructions (see AliasedSum.of).
_OF_CACHE: "OrderedDict[tuple, AliasedSum]" = OrderedDict()
_OF_CACHE_LOCK = threading.Lock()
_OF_CACHE_MAXSIZE = 128


class AliasedSum:
    """Callable closed form of ``sum_m F(s + j m w0)`` for rational ``F``.

    Build with :meth:`of`.  The sum is held as the pole groups of ``G(z)``
    (attribute ``z``, a :class:`~repro.lti.ztransfer.ZTransferFunction`) and
    evaluated at ``z = e^{sT}``; ``terms`` keeps the partial fractions of
    ``F`` it was built from.  Evaluation is vectorized over ``s`` and exact
    up to partial-fraction round-off; in particular it contains *all* alias
    terms, unlike any finite truncation.

    Raises
    ------
    ValidationError
        If ``F`` is not strictly proper — the aliasing sum of a function
        that does not roll off diverges.
    """

    __slots__ = ("omega0", "terms", "z")

    def __init__(self, omega0: float, terms: Sequence[PartialFractionTerm]):
        self.omega0 = check_positive("omega0", omega0)
        self.terms = list(terms)
        period = 2.0 * math.pi / self.omega0
        self.z = ZTransferFunction.from_groups(_pole_groups(self.terms, period), period)

    @classmethod
    def of(cls, system, omega0: float, cluster_tol: float | None = None) -> "AliasedSum":
        """Construct from a rational system (TransferFunction or RationalFunction).

        ``system`` may also be a sequence of them; the result is the sum of
        their aliasing sums (one summand per ISF harmonic of an LPTV VCO).

        Constructions are memoized on the *content* of the rational functions
        (coefficient bytes, ``omega0``, ``cluster_tol``): every caller that
        asks for the same loop's sum — the closed-loop HTM, the margins, the
        z-domain model, the pole search — shares one partial-fraction
        expansion.  :class:`AliasedSum` instances are immutable, so sharing
        them is safe.
        """
        if not isinstance(system, (list, tuple)):
            system = [system]
        parts = [_as_rational(part) for part in system]
        key = (
            tuple((part.num.tobytes(), part.den.tobytes()) for part in parts),
            float(omega0),
            cluster_tol,
        )
        with _OF_CACHE_LOCK:
            cached = _OF_CACHE.get(key)
            if cached is not None:
                _OF_CACHE.move_to_end(key)
                return cached
        terms: list[PartialFractionTerm] = []
        for rational in parts:
            if not rational.is_strictly_proper() and not rational.is_zero():
                raise ValidationError(
                    "aliasing sum diverges: the function must be strictly proper "
                    f"(relative degree {rational.relative_degree})"
                )
            direct, part_terms = rational.partial_fractions(tol=cluster_tol)
            if np.any(np.abs(direct) > 0):
                raise ValidationError("aliasing sum diverges: non-zero direct polynomial part")
            terms += part_terms
        result = cls(omega0, terms)
        with _OF_CACHE_LOCK:
            _OF_CACHE[key] = result
            _OF_CACHE.move_to_end(key)
            while len(_OF_CACHE) > _OF_CACHE_MAXSIZE:
                _OF_CACHE.popitem(last=False)
        return result

    def __call__(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """Evaluate the full aliasing sum at ``s`` (scalar or array)."""
        return self.z.at_s(s)

    def eval_jomega(self, omega) -> np.ndarray:
        """Evaluate on the imaginary axis (for Bode/margin tooling).

        Accepts a :class:`~repro.core.grid.FrequencyGrid` or a raw array.
        """
        omega_arr = as_omega_grid("omega", omega)
        return np.asarray(self(1j * omega_arr), dtype=complex)

    def base_poles(self) -> np.ndarray:
        """Poles of the summand ``F``; the sum has copies at ``p + j m w0``."""
        return np.array(sorted({t.pole for t in self.terms}, key=lambda p: (p.real, p.imag)))

    def derivative(self) -> "AliasedSum":
        """The exact derivative ``d/ds sum_m F(s + j m w0)``.

        Term-wise: ``d/dx S_j(x) = -j * S_{j+1}(x)``, so each partial
        fraction term of order ``j`` maps to one of order ``j + 1`` with
        residue ``-j * r`` — still a closed-form aliasing sum.  Used by the
        Newton pole search in :mod:`repro.pll.poles`.
        """
        new_terms = [
            PartialFractionTerm(
                pole=t.pole, order=t.order + 1, residue=-t.order * t.residue
            )
            for t in self.terms
        ]
        return AliasedSum(self.omega0, new_terms)

    def is_periodic_check(self, s: complex, rtol: float = 1e-8) -> "health.CheckResult":
        """Verify the defining periodicity ``lambda(s + j w0) = lambda(s)``.

        The aliasing sum is invariant under ``s -> s + j w0`` by construction;
        exposed as a cheap self-test hook.  Returns a
        :class:`repro.obs.health.CheckResult` whose value is the relative
        deviation between the two evaluations and whose threshold is
        ``rtol``; it is truthy exactly when the check passes, so
        ``assert alias.is_periodic_check(s)`` works unchanged.  A failure
        emits a warning health event when observability is enabled.
        """
        a = self(s)
        b = self(s + 1j * self.omega0)
        deviation = abs(a - b) / max(abs(a), abs(b), 1e-30)
        result = health.CheckResult(
            "is_periodic_check", deviation, float(rtol), deviation <= float(rtol)
        )
        if not result.passed:
            _obs.health_event(
                "health.aliasing.periodicity",
                deviation,
                float(rtol),
                severity="warning",
                message="aliasing sum not j*w0-periodic at this s",
            )
        return result

    def __repr__(self) -> str:
        return f"AliasedSum(omega0={self.omega0:.6g}, terms={len(self.terms)})"


def truncated_alias_sum(
    system: Callable[[complex], complex],
    s: complex | np.ndarray,
    omega0: float,
    harmonics: int,
) -> complex | np.ndarray:
    """Symmetric truncation ``sum_{m=-M}^{M} F(s + j m w0)``.

    Works for any callable ``F`` (not only rational).  Terms are added in
    ±m pairs from the outside in, which both implements the principal-value
    pairing and improves floating-point summation accuracy.
    """
    omega0 = check_positive("omega0", omega0)
    harmonics = check_order("harmonics", harmonics, minimum=0)
    s_arr = np.asarray(s, dtype=complex)
    flat = np.atleast_1d(s_arr)
    total = np.zeros(flat.shape, dtype=complex)
    for m in range(harmonics, 0, -1):
        total += np.asarray(system(flat + 1j * m * omega0), dtype=complex)
        total += np.asarray(system(flat - 1j * m * omega0), dtype=complex)
    total += np.asarray(system(flat), dtype=complex)
    if s_arr.ndim == 0:
        return complex(total[0])
    return total
