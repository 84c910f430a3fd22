"""Closed-loop HTM via the rank-one Sherman–Morrison–Woodbury closure.

This module implements paper sec. 4.  Because the sampling PFD's HTM is rank
one, the open-loop HTM factors as ``G(s) = V(s) l^T`` (eq. 30) with

    V_n(s) = (w0/2pi) * sum_k v_k H_LF(s + j(n-k) w0) / (s + j n w0)   (eq. 29)

and the closed loop collapses to (eq. 34)

    theta(s) = V(s) l^T thetaref(s) / (1 + lambda(s)),
    lambda(s) = l^T V(s) = sum_n V_n(s).

``lambda`` — the **effective open-loop gain** — is evaluated two ways:

* ``method='closed'``: exactly, as the aliasing sum
  ``sum_m sum_k B_k(s + j m w0)`` of the rational functions
  ``B_k(sig) = (w0/2pi) v_k H_LF(sig) / (sig + j k w0)``, held in the z form
  of :func:`~repro.pll.openloop.effective_gain_sum`.  For a time-invariant
  VCO this is the paper's ``lambda(s) = sum_m A(s + j m w0)`` (eq. 37).  A
  sampling offset rotates ``V_n`` and ``l_n`` by opposite phases, which
  cancel in ``lambda``; with an LPTV VCO it also advances the ISF
  (:func:`~repro.pll.openloop.isf_harmonics`), which the ``B_k`` carry.
* ``method='truncated'``: by symmetric truncation of ``sum_n V_n(s)`` —
  required when the loop contains a transport delay or a sample-and-hold
  PFD (irrational summands), and used by ablation A1 and as the oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._errors import ValidationError
from repro._validation import check_order, ignore_backend
from repro.core.grid import FrequencyGrid, as_omega_grid, as_s_grid
from repro.core.htm import HTM
from repro.core.operators import FeedbackOperator
from repro.obs import health
from repro.obs import spans as obs
from repro.pll.architecture import PLL
from repro.pll.openloop import effective_gain_sum, isf_harmonics, open_loop_operator


class ClosedLoopHTM:
    """Closed-loop small-signal model ``theta(s) = H(s) thetaref(s)``.

    Parameters
    ----------
    pll:
        The PLL description.
    method:
        ``'closed'`` (default) for the exact aliasing sum, or
        ``'truncated'`` for symmetric finite sums.  ``'closed'`` raises
        :class:`~repro._errors.ValidationError` for a loop with transport
        delay or a sample-and-hold PFD; those need ``'truncated'``.
    harmonics:
        Truncation half-width M for ``method='truncated'``.
    backend:
        Deprecated and ignored.
    """

    def __init__(
        self,
        pll: PLL,
        method: str = "closed",
        harmonics: int = 64,
        backend=None,
    ):
        ignore_backend(backend)
        if method not in ("closed", "truncated"):
            raise ValidationError(f"method must be 'closed' or 'truncated', got {method!r}")
        from repro.blocks.pfd import SampleHoldPFD

        self._hold = (
            pll.pfd.hold_transfer if isinstance(pll.pfd, SampleHoldPFD) else None
        )
        self._lambda = effective_gain_sum(pll) if method == "closed" else None
        self.pll = pll
        self.method = method
        self.harmonics = check_order("harmonics", harmonics, minimum=1)
        self._gain = pll.pfd.gain  # w0 / 2pi
        self._h_lf = pll.h_lf
        self._harmonics = isf_harmonics(pll)
        self._delay = pll.delay
        self._offset = pll.pfd.sampling_offset

    # -- construction helpers ---------------------------------------------------

    def _band_transfer(self, s: np.ndarray) -> np.ndarray:
        """``hold(s) * H_LF(s) * delay(s)`` — the scalar chain after the sampler."""
        value = np.asarray(self._h_lf(s), dtype=complex)
        if self._hold is not None:
            value = value * np.asarray(self._hold(s), dtype=complex)
        if self._delay is not None:
            value = value * self._delay.transfer(s)
        return value

    # -- the rank-one column V (eq. 29) -------------------------------------------

    def vtilde_element(self, s: complex | np.ndarray, n: int) -> complex | np.ndarray:
        """Column element ``V_n(s)`` (vectorized over ``s``).

        A sampling offset ``t_off`` rotates it by ``e^{-j n w0 t_off}`` and
        advances the ISF (:func:`~repro.pll.openloop.isf_harmonics`).
        """
        omega0 = self.pll.omega0
        s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
        total = np.zeros(s_arr.shape, dtype=complex)
        for k, vk in self._harmonics:
            total += vk * self._band_transfer(s_arr + 1j * (n - k) * omega0)
        total *= self._gain / (s_arr + 1j * n * omega0)
        if self._offset != 0.0:
            total *= np.exp(-1j * n * omega0 * self._offset)
        if np.ndim(s) == 0:
            return complex(total[0])
        return total

    def vtilde(self, s: complex, order: int) -> np.ndarray:
        """The truncated column vector ``[V_{-K}(s) .. V_{K}(s)]``."""
        order = check_order("order", order, minimum=0)
        return self.vtilde_grid(np.array([s], dtype=complex), order)[0]

    def vtilde_grid(
        self, s: FrequencyGrid | np.ndarray, order: int
    ) -> np.ndarray:
        """Batched column vectors: shape ``(len(s), 2*order+1)``.

        Vectorizes eq. (29) over the frequency grid *and* the output
        harmonic index simultaneously — the batched analogue of calling
        :meth:`vtilde_element` for each ``n``.  ``s`` may be a
        :class:`~repro.core.grid.FrequencyGrid` (evaluated on ``j omega``)
        or a raw complex array.
        """
        s_arr = as_s_grid("s", s)
        order = check_order("order", order, minimum=0)
        if obs.enabled():
            with obs.span(
                "pll.closedloop.vtilde_grid",
                points=int(s_arr.size),
                order=int(order),
            ):
                return self._vtilde_grid_impl(s_arr, order)
        return self._vtilde_grid_impl(s_arr, order)

    def _vtilde_grid_impl(self, s_arr: np.ndarray, order: int) -> np.ndarray:
        omega0 = self.pll.omega0
        ns = np.arange(-order, order + 1)
        if not self._harmonics:
            return np.zeros((s_arr.size, ns.size), dtype=complex)
        ks = np.array([k for k, _ in self._harmonics], dtype=int)
        vks = np.array([vk for _, vk in self._harmonics], dtype=complex)
        # (L, N, nk): s + j (n - k) w0 for every grid point / harmonic / ISF term.
        shifts = ns[None, :, None] - ks[None, None, :]
        band = self._band_transfer(s_arr[:, None, None] + 1j * shifts * omega0)
        total = band @ vks  # sum over the ISF harmonics
        total *= self._gain / (s_arr[:, None] + 1j * ns[None, :] * omega0)
        if self._offset != 0.0:
            total *= np.exp(-1j * ns * omega0 * self._offset)[None, :]
        return total

    def row_vector(self, order: int) -> np.ndarray:
        """The rank-one row factor ``l^T`` (phase-rotated by a sampling offset)."""
        return self.pll.pfd.row_vector(order)

    # -- effective open-loop gain (eq. 33 / 37) --------------------------------------

    def effective_gain(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """``lambda(s)`` — the effective open-loop gain.

        Exact (closed form) or truncated depending on the configured method.
        """
        if obs.enabled():
            # The scalar lambda(s) evaluation IS the rank-one SMW solve's
            # cost: every closed-loop transfer divides by 1 + lambda.
            with obs.span(
                "pll.closedloop.effective_gain",
                method=self.method,
                points=int(np.size(s)),
            ):
                lam = self._effective_gain_impl(s)
                self._gain_health(lam)
                return lam
        return self._effective_gain_impl(s)

    def _gain_health(self, lam: complex | np.ndarray) -> None:
        """Obs-enabled sentinels on an effective-gain evaluation.

        Flags ``|1 + lambda(s)|`` dips below the near-singular tolerance —
        every closed-loop transfer divides by that quantity, so such points
        are numerically on a closed-loop pole — and non-finite gain values.
        """
        lam_arr = np.atleast_1d(np.asarray(lam, dtype=complex))
        if not health.check_finite(
            "health.closedloop.nonfinite",
            lam_arr,
            message="non-finite effective gain lambda(s)",
            method=self.method,
        ):
            lam_arr = lam_arr[np.isfinite(lam_arr)]
            if lam_arr.size == 0:
                return
        margin = float(np.min(np.abs(1.0 + lam_arr)))
        if margin < health.LAMBDA_SINGULAR_TOL:
            obs.health_event(
                "health.closedloop.lambda_singular",
                margin,
                health.LAMBDA_SINGULAR_TOL,
                severity="warning",
                direction="below",
                message="|1 + lambda| near zero: grid point on a closed-loop pole",
                method=self.method,
            )

    def _effective_gain_impl(
        self, s: complex | np.ndarray
    ) -> complex | np.ndarray:
        if self._lambda is not None:
            return self._lambda(s)
        return self._effective_gain_truncated(s)

    def _effective_gain_truncated(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """Symmetric truncation ``sum_{n=-M}^{M} row_n V_n(s)`` (outside-in)."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
        omega0 = self.pll.omega0
        total = np.zeros(s_arr.shape, dtype=complex)
        for n in range(self.harmonics, 0, -1):
            for sign in (n, -n):
                term = np.asarray(self.vtilde_element(s_arr, sign), dtype=complex)
                if self._offset != 0.0:
                    # Row factor exp(+j n w0 offset) cancels the column phase.
                    term = term * np.exp(1j * sign * omega0 * self._offset)
                total += term
        total += np.asarray(self.vtilde_element(s_arr, 0), dtype=complex)
        if np.ndim(s) == 0:
            return complex(total[0])
        return total

    def effective_gain_response(
        self, omega: FrequencyGrid | Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """``lambda(j omega)`` on a real frequency grid (margin tooling input).

        Accepts a :class:`~repro.core.grid.FrequencyGrid` or a raw array.
        """
        omega_arr = as_omega_grid("omega", omega)
        return np.asarray(self.effective_gain(1j * omega_arr), dtype=complex)

    # -- closed-loop transfers (eq. 34 / 38) --------------------------------------------

    def element(self, s: complex | np.ndarray, n: int, m: int) -> complex | np.ndarray:
        """Closed-loop HTM element ``H_{n,m}(s) = V_n(s) row_m / (1 + lambda(s))``.

        Note the element is independent of ``m`` up to the offset phase: the
        sampler aliases every input band onto the error sequence with equal
        weight (the rank-one structure of eq. 36).
        """
        lam = self.effective_gain(s)
        vn = self.vtilde_element(s, n)
        row_m = 1.0
        if self._offset != 0.0:
            row_m = np.exp(1j * m * self.pll.omega0 * self._offset)
        return vn * row_m / (1.0 + lam)

    def h00(self, s: complex | np.ndarray) -> complex | np.ndarray:
        """Baseband-to-baseband closed-loop transfer (eq. 38)."""
        return self.element(s, 0, 0)

    def frequency_response(
        self, omega: FrequencyGrid | Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """``H00(j omega)`` on a real frequency grid.

        Accepts a :class:`~repro.core.grid.FrequencyGrid` or a raw array.
        """
        omega_arr = as_omega_grid("omega", omega)
        return np.asarray(self.h00(1j * omega_arr), dtype=complex)

    # Alias so Bode/margin tooling accepts a ClosedLoopHTM directly.
    eval_jomega = frequency_response

    def sensitivity_element(self, s: complex | np.ndarray, n: int, m: int) -> complex | np.ndarray:
        """Element of ``(I + G)^{-1} = I - V l^T / (1 + lambda)`` (eq. 32).

        The ``(n, m)`` entry is ``delta_{nm} - H_{n,m}``; the baseband entry
        is the error (sensitivity) transfer that shapes VCO-referred noise.
        """
        delta = 1.0 if n == m else 0.0
        return delta - self.element(s, n, m)

    def closed_loop_row(self, s: complex, order: int) -> np.ndarray:
        """Column of band transfers ``H_{n,0}(s)`` for ``n = -order..order``.

        Shows where reference-band signal content re-emerges across output
        bands (the Fig. 2 picture for the closed loop).
        """
        lam = self.effective_gain(s)
        return self.vtilde(s, order) / (1.0 + lam)

    # -- brute-force reference (eq. 28 directly) -------------------------------------------

    def dense_reference(self, s: complex, order: int) -> HTM:
        """Dense ``(I + G)^{-1} G`` at truncation ``order`` — the SMW cross-check.

        This is the expensive path the paper's rank-one closed form avoids;
        kept as the validation oracle (ablation A2).
        """
        return self._reference_operator().htm(s, order)

    def dense_reference_grid(
        self, s: FrequencyGrid | np.ndarray, order: int
    ) -> np.ndarray:
        """Batched dense closure: ``(len(s), 2*order+1, 2*order+1)`` stack.

        The grid-parallel form of :meth:`dense_reference`, evaluated through
        the vectorized operator stack (and the grid memoization layer).  The
        returned stack is read-only; ``.copy()`` before mutating.
        """
        return self._reference_operator().dense_grid(s, order)

    def structured_reference_grid(self, s: FrequencyGrid | np.ndarray, order: int):
        """Structure-tagged closed-loop grid — the fast reference path.

        Evaluates the same eq.-(28) operator as :meth:`dense_reference_grid`
        through :meth:`~repro.core.operators.HarmonicOperator.evaluate`:
        the rank-one sampling loop composes symbolically and closes via the
        SMW scalar denominator (O(N) per point) instead of the stacked dense
        solve.  Returns a :class:`~repro.core.structured.StructuredGrid`;
        call ``.to_dense()`` or ``.element_grid(n, m)`` to get numbers.
        """
        return self._reference_operator().evaluate(s, order)

    def _reference_operator(self) -> FeedbackOperator:
        """The (cached) brute-force closed-loop operator of eq. (28)."""
        op = getattr(self, "_reference_op", None)
        if op is None:
            op = FeedbackOperator(open_loop_operator(self.pll))
            self._reference_op = op
        return op

    def __repr__(self) -> str:
        return (
            f"ClosedLoopHTM(method={self.method!r}, harmonics={self.harmonics}, "
            f"pll={self.pll.describe()})"
        )
