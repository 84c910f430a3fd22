"""State-space models and exact piecewise-constant-input integration.

The behavioural PLL simulator (:mod:`repro.simulator`) integrates the loop
filter between charge-pump events with **zero discretization error** by using
the matrix exponential of an augmented system.  This module provides the
:class:`StateSpace` representation, conversion from transfer functions
(controllable canonical form) and the exact stepping primitive
:meth:`StateSpace.step_held_input`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro._errors import ValidationError


class StateSpace:
    """Continuous-time LTI system ``x' = A x + B u``, ``y = C x + D u``.

    Single-input single-output throughout this library (``B`` is a column,
    ``C`` a row, ``D`` a scalar), though the matrices are stored generally.
    """

    __slots__ = ("A", "B", "C", "D")

    def __init__(
        self,
        A: Sequence[Sequence[float]] | np.ndarray,
        B: Sequence[Sequence[float]] | np.ndarray,
        C: Sequence[Sequence[float]] | np.ndarray,
        D: float | Sequence[Sequence[float]] | np.ndarray,
    ):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.C = np.atleast_2d(np.asarray(C, dtype=float))
        self.D = np.atleast_2d(np.asarray(D, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValidationError(f"A must be square, got shape {self.A.shape}")
        if self.B.shape[0] != n:
            raise ValidationError(f"B must have {n} rows, got shape {self.B.shape}")
        if self.C.shape[1] != n:
            raise ValidationError(f"C must have {n} columns, got shape {self.C.shape}")
        if self.D.shape != (self.C.shape[0], self.B.shape[1]):
            raise ValidationError(
                f"D shape {self.D.shape} inconsistent with C rows {self.C.shape[0]} "
                f"and B columns {self.B.shape[1]}"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_transfer_function(cls, tf) -> "StateSpace":
        """Controllable-canonical realization of a proper transfer function.

        Raises
        ------
        ValidationError
            If the transfer function is improper (more zeros than poles):
            such systems are not realizable as state space.
        """
        if not tf.is_proper():
            raise ValidationError("cannot realize an improper transfer function in state space")
        den = np.asarray(tf.den, dtype=complex)
        num = np.asarray(tf.num, dtype=complex)
        if np.max(np.abs(den.imag)) > 1e-12 * max(np.max(np.abs(den.real)), 1.0) or np.max(
            np.abs(num.imag)
        ) > 1e-12 * max(np.max(np.abs(num.real)), 1.0):
            raise ValidationError("state-space realization requires real coefficients")
        den = den.real
        num = num.real
        n = den.size - 1
        num_padded = np.zeros(n + 1)
        num_padded[n + 1 - num.size :] = num
        d = num_padded[0]  # feedthrough: leading coefficient after padding
        # Residual numerator after removing the direct path: b - d * a.
        b = num_padded[1:] - d * den[1:]
        if n == 0:
            return cls(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), [[d]])
        A = np.zeros((n, n))
        A[0, :] = -den[1:]
        if n > 1:
            A[1:, :-1] = np.eye(n - 1)
        B = np.zeros((n, 1))
        B[0, 0] = 1.0
        C = b.reshape(1, n)
        return cls(A, B, C, [[d]])

    # -- basic queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        """Number of state variables."""
        return self.A.shape[0]

    def poles(self) -> np.ndarray:
        """Eigenvalues of ``A``."""
        return np.linalg.eigvals(self.A)

    def transfer_at(self, s: complex) -> complex:
        """Evaluate ``C (sI - A)^{-1} B + D`` at one complex frequency."""
        n = self.order
        resolvent = np.linalg.solve(s * np.eye(n) - self.A, self.B)
        return complex((self.C @ resolvent + self.D)[0, 0])

    def dc_gain(self) -> complex:
        """Gain at ``s = 0`` (may be infinite for integrating systems)."""
        try:
            return self.transfer_at(0.0)
        except np.linalg.LinAlgError:
            return complex(np.inf)

    # -- exact stepping -----------------------------------------------------------

    def step_held_input(
        self, x: np.ndarray, u: float, dt: float
    ) -> tuple[np.ndarray, float]:
        """Advance the state by ``dt`` with the input held constant at ``u``.

        Uses the augmented-matrix exponential trick so the zero-order-hold
        discretization is exact to machine precision::

            exp([[A, B], [0, 0]] dt) = [[Ad, Bd], [0, I]]

        Returns the new state and the output *at the end* of the interval.
        """
        if dt < 0:
            raise ValidationError(f"dt must be non-negative, got {dt}")
        x = np.asarray(x, dtype=float).reshape(self.order)
        if dt == 0.0:
            return x.copy(), self.output(x, u)
        Ad, Bd = self.discretize(dt)
        x_next = Ad @ x + Bd.ravel() * u
        return x_next, self.output(x_next, u)

    def discretize(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact zero-order-hold discretization ``(Ad, Bd)`` for step ``dt``."""
        if dt <= 0:
            raise ValidationError(f"dt must be positive, got {dt}")
        from scipy.linalg import expm  # on first use: most processes never need scipy

        n = self.order
        m = self.B.shape[1]
        aug = np.zeros((n + m, n + m))
        aug[:n, :n] = self.A
        aug[:n, n:] = self.B
        phi = expm(aug * dt)
        return phi[:n, :n], phi[:n, n:]

    def output(self, x: np.ndarray, u: float) -> float:
        """Instantaneous output ``y = C x + D u``."""
        x = np.asarray(x, dtype=float).reshape(self.order)
        return float((self.C @ x)[0] + self.D.ravel()[0] * u)

    def simulate_held(
        self,
        times: np.ndarray,
        inputs: np.ndarray,
        x0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Simulate with an input held constant over each interval.

        ``inputs[i]`` is applied over ``[times[i], times[i+1])``; the returned
        outputs are sampled at each time point (before the next hold value is
        applied).  This is the reference integrator for the event-driven
        simulator tests.
        """
        times = np.asarray(times, dtype=float)
        inputs = np.asarray(inputs, dtype=float)
        if times.ndim != 1 or times.size < 1:
            raise ValidationError("times must be a non-empty 1-D array")
        if inputs.size != times.size:
            raise ValidationError("inputs must match times in length")
        if np.any(np.diff(times) < 0):
            raise ValidationError("times must be non-decreasing")
        x = np.zeros(self.order) if x0 is None else np.asarray(x0, dtype=float).copy()
        states = np.empty((times.size, self.order))
        outputs = np.empty(times.size)
        states[0] = x
        outputs[0] = self.output(x, inputs[0])
        for i in range(times.size - 1):
            dt = times[i + 1] - times[i]
            if dt > 0:
                x, _ = self.step_held_input(x, inputs[i], dt)
            states[i + 1] = x
            outputs[i + 1] = self.output(x, inputs[i + 1])
        return states, outputs

    def __repr__(self) -> str:
        return f"StateSpace(order={self.order})"
