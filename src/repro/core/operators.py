"""Lazy, composable LPTV operators with structured HTM evaluation.

A :class:`HarmonicOperator` represents an LPTV system symbolically and can
produce its truncated HTM at any complex frequency and truncation order.
Keeping operators lazy (instead of fixing a truncation up front) lets the
same loop description be evaluated at whatever order an accuracy target
demands — the truncation study of DESIGN.md ablation A3 relies on this.

Primitive operators mirror the paper's building blocks:

* :class:`LTIOperator` — diagonal HTM ``H(s + j n w0)`` (eq. 12);
* :class:`MultiplicationOperator` — Toeplitz HTM ``P_{n-m}`` (eq. 13);
* :class:`SamplingOperator` — the impulse-train sampler, rank-one
  ``(w0/2pi) l l^T`` (eqs. 19–20);
* :class:`IsfIntegrationOperator` — the VCO phase operator
  ``v_{n-m} / (s + j n w0)`` (eq. 25).

Composites: :class:`SeriesOperator`, :class:`ParallelOperator`,
:class:`ScaledOperator`, :class:`FeedbackOperator`.

Evaluation comes in three flavours:

* :meth:`HarmonicOperator.evaluate` — the **preferred entry point**: a
  structure-tagged :class:`~repro.core.structured.StructuredGrid` over a
  whole frequency grid.  Primitives report their HTM structure (diagonal /
  banded / rank-one / dense) and composites compose the *tags* symbolically
  — a rank-one loop's feedback closure runs through the paper's SMW scalar
  denominator instead of a stacked solve — closing to numbers only at the
  terminal call.
* :meth:`HarmonicOperator.dense_grid` — the batched **dense oracle**: a
  ``(len(s), 2K+1, 2K+1)`` stack built by brute-force composition
  (feedback really solves the stacked system).  The property suite asserts
  ``evaluate(...).to_dense()`` against it.
* :meth:`HarmonicOperator.dense` — one dense matrix at one scalar ``s``,
  delegated to the grid path via a one-point grid (cache-bypassed).

Grid results are memoized per operator node in
:data:`repro.core.memo.grid_cache` — structured and dense blocks under
separate cache flavors — and returned **read-only**; ``.copy()`` before
mutating.  Subclasses implement :meth:`_structured_grid` (or, for
dense-only operators, the scalar :meth:`dense`).
"""

from __future__ import annotations

from abc import ABC

import numpy as np

from repro._errors import ValidationError
from repro._validation import check_order, check_positive, ignore_backend
from repro.core.grid import as_s_grid
from repro.core.htm import HTM
from repro.core.memo import bypass as memo_bypass
from repro.core.memo import grid_cache
from repro.core.structured import StructuredGrid
from repro.obs import health
from repro.obs import spans as obs
from repro.signals.fourier import FourierSeries
from repro.signals.isf import ImpulseSensitivity


def default_element_order(n: int, m: int) -> int:
    """The canonical default truncation order for a single element request.

    ``max(|n|, |m|, 1)`` — never less than 1, so feedback closures are never
    silently evaluated on a degenerate 1x1 truncation.  This is the one rule
    used by both :meth:`HarmonicOperator.element` and
    :func:`repro.core.sweep.sweep_element`.
    """
    return max(abs(n), abs(m), 1)


class HarmonicOperator(ABC):
    """Abstract LPTV operator on a fundamental frequency ``omega0``."""

    def __init__(self, omega0: float):
        self._omega0 = check_positive("omega0", omega0)

    @property
    def omega0(self) -> float:
        """Fundamental angular frequency (rad/s)."""
        return self._omega0

    @property
    def period(self) -> float:
        """Fundamental period in seconds."""
        return 2 * np.pi / self._omega0

    # -- structured evaluation ---------------------------------------------------

    def evaluate(self, s, order: int, backend=None) -> StructuredGrid:
        """Structure-tagged lazy evaluation over a grid — the preferred API.

        ``s`` may be a :class:`~repro.core.grid.FrequencyGrid` (evaluated on
        ``j omega``) or any 1-D array of complex Laplace points.  Returns a
        :class:`~repro.core.structured.StructuredGrid` whose tag records the
        HTM structure (diagonal / banded / rank_one / dense); composites
        compose tags symbolically and numbers are only materialised by
        ``.to_dense()`` or a genuinely dense fallback.

        Results are memoized per operator node under the
        ``("structured",)`` cache flavor, separate from the dense-oracle
        blocks, and are immutable.  ``backend`` is deprecated and ignored.
        """
        ignore_backend(backend)
        s_arr = as_s_grid("s", s)
        order = check_order("order", order, minimum=0)
        compute = self._structured_kernel
        flavor = ("structured",)
        if obs.enabled():
            with obs.span(
                "core.evaluate",
                op=type(self).__name__,
                points=int(s_arr.size),
                order=int(order),
            ):
                return grid_cache.fetch(self, s_arr, order, compute, flavor=flavor)
        return grid_cache.fetch(self, s_arr, order, compute, flavor=flavor)

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        """Structure-tagged kernel behind :meth:`evaluate` — override this.

        The base class raises; :meth:`_structured_kernel` falls back to
        wrapping a scalar ``dense`` override as a dense structured grid.
        """
        raise NotImplementedError

    def _structured_kernel(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        """Dispatch to the best available kernel for this class.

        Preference order: the structured protocol, then a scalar ``dense``
        override looped over the grid.
        """
        cls = type(self)
        if cls._structured_grid is not HarmonicOperator._structured_grid:
            return self._structured_grid(s_arr, order)
        if cls.dense is not HarmonicOperator.dense:
            size = 2 * order + 1
            out = np.empty((s_arr.size, size, size), dtype=complex)
            for i, si in enumerate(s_arr):
                out[i] = self.dense(complex(si), order)
            return StructuredGrid.dense(out, order=order)
        raise TypeError(
            f"{cls.__name__} implements neither _structured_grid nor dense"
        )

    # -- dense evaluation (oracle path) -------------------------------------------

    def dense(self, s: complex, order: int) -> np.ndarray:
        """Dense ``(2*order+1)^2`` matrix of the truncated HTM at ``s``.

        Delegates to the grid kernel on a one-point grid (inside
        :func:`repro.core.memo.bypass`, so scalar probes never churn the
        grid cache).  The returned matrix is a fresh writable copy.
        """
        order = check_order("order", order, minimum=0)
        s_arr = np.array([complex(s)], dtype=complex)
        with memo_bypass():
            return np.array(self._dense_grid(s_arr, order)[0])

    def dense_grid(self, s, order: int) -> np.ndarray:
        """Batched dense HTM stack ``(len(s), 2*order+1, 2*order+1)``.

        This is the brute-force **oracle** path: composites really multiply
        / add / solve stacked matrices, independent of the structured
        algebra behind :meth:`evaluate` — which is what makes
        structured-vs-dense equivalence assertions meaningful.  Results are
        memoized per operator node (see :mod:`repro.core.memo`) and are
        **read-only**; ``.copy()`` before mutating.
        """
        s_arr = as_s_grid("s", s)
        order = check_order("order", order, minimum=0)
        if obs.enabled():
            # Spans nest: a composite's children report under its path, so
            # `repro obs top` separates e.g. a feedback solve's inner grid
            # evaluations from standalone sweeps of the same operator.
            with obs.span(
                "core.dense_grid",
                op=type(self).__name__,
                points=int(s_arr.size),
                order=int(order),
            ):
                out = grid_cache.fetch(self, s_arr, order, self._dense_grid)
                health.check_finite(
                    "health.dense_grid.nonfinite", out, op=type(self).__name__
                )
                return out
        return grid_cache.fetch(self, s_arr, order, self._dense_grid)

    def _dense_grid(self, s_arr: np.ndarray, order: int) -> np.ndarray:
        """Vectorized dense kernel behind :meth:`dense_grid`.

        The base implementation densifies the structured kernel;
        :class:`FeedbackOperator` overrides it so the dense path stays a
        genuinely independent stacked solve (the dense oracle).
        """
        return np.asarray(self._structured_kernel(s_arr, order).to_dense())

    def fingerprint(self) -> tuple:
        """Hashable, id-stable structural key for grid memoization.

        Value-based where the operator content is plain data; falls back to
        object identity for opaque subclasses (the cache pins the operator
        so the id cannot be recycled while the entry lives).
        """
        return (type(self).__name__, id(self))

    def htm(self, s: complex, order: int) -> HTM:
        """Evaluate the truncated HTM snapshot at ``s``."""
        order = check_order("order", order, minimum=0)
        s_arr = np.array([complex(s)], dtype=complex)
        with memo_bypass():
            stack = self._dense_grid(s_arr, order)
        return HTM.from_stack(stack, self._omega0, s_arr, 0)

    def element(self, s: complex, n: int, m: int, order: int | None = None) -> complex:
        """Single HTM element ``H_{n,m}(s)``.

        ``order`` defaults to the canonical rule ``max(|n|, |m|, 1)`` (see
        :func:`default_element_order`); pass ``order=0`` explicitly for the
        degenerate 1x1 truncation.
        """
        if order is None:
            order = default_element_order(n, m)
        return self.htm(s, order).element(n, m)

    # -- composition sugar ------------------------------------------------------

    def _check_same_fundamental(self, other: "HarmonicOperator") -> None:
        if abs(self._omega0 - other._omega0) > 1e-12 * self._omega0:
            raise ValidationError("operators have different fundamental frequencies")

    def __matmul__(self, other: "HarmonicOperator") -> "SeriesOperator":
        """Series: ``self`` applied after ``other`` (paper eq. 11)."""
        return SeriesOperator(self, other)

    def __add__(self, other: "HarmonicOperator") -> "ParallelOperator":
        """Parallel connection (paper eq. 10)."""
        return ParallelOperator(self, other)

    def __mul__(self, scalar) -> "ScaledOperator":
        if isinstance(scalar, np.ndarray):
            if scalar.ndim != 0:
                raise TypeError(
                    "operator * expects a scalar, got an array of shape "
                    f"{scalar.shape}; use @ for composition"
                )
            scalar = scalar[()]  # unwrap the 0-d array to a NumPy scalar
        if not isinstance(scalar, (int, float, complex, np.number)):
            raise TypeError("operator * expects a scalar; use @ for composition")
        return ScaledOperator(self, complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "ScaledOperator":
        return ScaledOperator(self, -1.0)

    def feedback(self) -> "FeedbackOperator":
        """Negative-feedback closure ``(I + self)^{-1} self`` (eq. 28)."""
        return FeedbackOperator(self)


class IdentityOperator(HarmonicOperator):
    """The identity system ``y = u``."""

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        ones = np.ones(2 * order + 1, dtype=complex)
        return StructuredGrid.diagonal(np.broadcast_to(ones, (s_arr.size, ones.size)), order=order)

    def fingerprint(self) -> tuple:
        return ("identity", self._omega0)


def _transfer_fingerprint(transfer) -> tuple:
    """Value-based key for rational transfers, id-based for raw callables."""
    num = getattr(transfer, "num", None)
    den = getattr(transfer, "den", None)
    if isinstance(num, np.ndarray) and isinstance(den, np.ndarray):
        return ("rational", num.tobytes(), den.tobytes())
    return ("callable", id(transfer))


class LTIOperator(HarmonicOperator):
    """An LTI system embedded as a diagonal HTM (paper eq. 12).

    ``transfer`` may be a :class:`~repro.lti.transfer.TransferFunction`, a
    :class:`~repro.lti.rational.RationalFunction`, or any scalar callable
    ``H(s)`` (which permits irrational responses such as delays).
    """

    def __init__(self, transfer, omega0: float):
        super().__init__(omega0)
        if not callable(transfer):
            raise ValidationError("transfer must be callable as H(s)")
        self.transfer = transfer

    def _transfer_values(self, s_grid: np.ndarray) -> np.ndarray:
        """Evaluate the transfer on an arbitrary-shape complex grid.

        Tries the callable directly (rational transfers and well-behaved
        closures broadcast over NumPy arrays); falls back to an element-wise
        loop for scalar-only callables — which also re-raises any genuine
        evaluation error.
        """
        try:
            values = np.asarray(self.transfer(s_grid), dtype=complex)
            if values.shape == s_grid.shape:
                return values
        except Exception:
            pass
        flat = np.array(
            [self.transfer(complex(si)) for si in s_grid.ravel()], dtype=complex
        )
        return flat.reshape(s_grid.shape)

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        n = np.arange(-order, order + 1)
        diag = self._transfer_values(s_arr[:, None] + 1j * self._omega0 * n[None, :])
        return StructuredGrid.diagonal(diag, order=order)

    def fingerprint(self) -> tuple:
        return ("lti", self._omega0, _transfer_fingerprint(self.transfer))


class MultiplicationOperator(HarmonicOperator):
    """Memoryless multiplication ``y(t) = p(t) u(t)`` (paper eq. 13)."""

    def __init__(self, series: FourierSeries):
        super().__init__(series.omega0)
        self.series = series

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        # The Toeplitz HTM is s-independent: one broadcast constant per
        # non-zero harmonic band, zero extra memory per grid point.
        size = 2 * order + 1
        coeffs = np.asarray(self.series.coefficients, dtype=complex)
        offsets = np.arange(coeffs.size) - self.series.order
        bands: dict[int, np.ndarray] = {}
        for pk, k in zip(coeffs, offsets):
            k = int(k)
            if (pk == 0 and k != 0) or abs(k) > size - 1:
                continue
            bands[k] = np.broadcast_to(np.asarray(pk), (s_arr.size, size))
        if not bands or set(bands) == {0}:
            diag = bands.get(0, np.zeros((s_arr.size, size), dtype=complex))
            return StructuredGrid.diagonal(diag, order=order)
        return StructuredGrid.banded(bands, order=order)

    def fingerprint(self) -> tuple:
        return ("mult", self._omega0, self.series.coefficients.tobytes())


class SamplingOperator(HarmonicOperator):
    """Ideal impulse-train sampler ``y(t) = sum_m delta(t - mT - offset) u(t)``.

    With zero offset this is the paper's sampling-PFD kernel: the rank-one
    all-ones HTM scaled by ``w0 / 2pi`` (eqs. 19–20).  A non-zero sampling
    phase ``offset`` (sampling instants ``t_m = m T + offset``) rotates the
    kernel coefficients to ``P_k = (1/T) exp(-j k w0 offset)`` but preserves
    rank one.
    """

    def __init__(self, omega0: float, offset: float = 0.0):
        super().__init__(omega0)
        self.offset = float(offset)

    def column_vector(self, order: int) -> np.ndarray:
        """The rank-one column factor: ``exp(-j n w0 offset)`` per output harmonic."""
        n = np.arange(-order, order + 1)
        return np.exp(-1j * n * self._omega0 * self.offset)

    def row_vector(self, order: int) -> np.ndarray:
        """The rank-one row factor: ``exp(-j m w0 offset)`` per input harmonic."""
        return np.conj(self.column_vector(order))

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        # s-independent rank one: the gain folds into the column factor and
        # both factors broadcast (zero-copy) over the grid.
        gain = self._omega0 / (2 * np.pi)
        column = gain * self.column_vector(order)
        row = self.row_vector(order)
        return StructuredGrid.rank_one(
            np.broadcast_to(column, (s_arr.size, column.size)),
            np.broadcast_to(row, (s_arr.size, row.size)),
            order=order,
        )

    def fingerprint(self) -> tuple:
        return ("sampling", self._omega0, self.offset)


class IsfIntegrationOperator(HarmonicOperator):
    """The VCO phase operator: ISF multiplication followed by integration.

    Implements paper eq. (25): ``H[n, m](s) = v_{n-m} / (s + j n w0)``.
    For a time-invariant ISF the matrix is diagonal ``v0 / (s + j n w0)``,
    i.e. the LTI integrator of the classical analysis.
    """

    def __init__(self, isf: ImpulseSensitivity):
        super().__init__(isf.omega0)
        self.isf = isf

    def _nonzero_offsets(self) -> np.ndarray:
        """Toeplitz offsets ``k`` with ``v_k != 0`` (usually a handful)."""
        series = self.isf.series
        coeffs = series.coefficients
        return np.flatnonzero(coeffs) - series.order

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        size = 2 * order + 1
        n = np.arange(-order, order + 1)
        denom = s_arr[:, None] + 1j * n[None, :] * self._omega0  # (L, N)
        offsets = [int(k) for k in self._nonzero_offsets() if abs(int(k)) <= size - 1]
        if not offsets:
            return StructuredGrid.diagonal(np.zeros((s_arr.size, size), dtype=complex), order=order)
        # One band per non-zero ISF harmonic; rows whose column index falls
        # outside the truncation stay exact zeros and are never divided, so
        # structural zeros survive even at the integrator poles s = -j n w0.
        idx = np.arange(size)
        bands: dict[int, np.ndarray] = {}
        with np.errstate(divide="ignore"):
            for k in offsets:
                vk = complex(self.isf.coefficient(k))
                val = np.zeros((s_arr.size, size), dtype=complex)
                rows = idx[(idx - k >= 0) & (idx - k < size)]
                if rows.size:
                    val[:, rows] = vk / denom[:, rows]
                bands[k] = val
        if set(bands) == {0}:
            return StructuredGrid.diagonal(bands[0], order=order)
        return StructuredGrid.banded(bands, order=order)

    def fingerprint(self) -> tuple:
        return ("isf", self._omega0, self.isf.series.coefficients.tobytes())


class SeriesOperator(HarmonicOperator):
    """Cascade ``y = first-then-second``: stored as (second, first)."""

    def __init__(self, second: HarmonicOperator, first: HarmonicOperator):
        second._check_same_fundamental(first)
        super().__init__(second.omega0)
        self.second = second
        self.first = first

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        # Structure composes symbolically: diagonal x diagonal stays an
        # elementwise product, anything x rank-one stays factored, and only
        # genuinely dense pairs fall back to a stacked matmul.
        return self.second.evaluate(s_arr, order) @ self.first.evaluate(s_arr, order)

    def fingerprint(self) -> tuple:
        return ("series", self.second.fingerprint(), self.first.fingerprint())


class ParallelOperator(HarmonicOperator):
    """Summing junction of two operators driven by the same input."""

    def __init__(self, left: HarmonicOperator, right: HarmonicOperator):
        left._check_same_fundamental(right)
        super().__init__(left.omega0)
        self.left = left
        self.right = right

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        return self.left.evaluate(s_arr, order) + self.right.evaluate(s_arr, order)

    def fingerprint(self) -> tuple:
        return ("parallel", self.left.fingerprint(), self.right.fingerprint())


class ScaledOperator(HarmonicOperator):
    """Scalar multiple of an operator."""

    def __init__(self, inner: HarmonicOperator, scalar: complex):
        super().__init__(inner.omega0)
        self.inner = inner
        self.scalar = complex(scalar)

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        return self.inner.evaluate(s_arr, order).scale(self.scalar)

    def fingerprint(self) -> tuple:
        return ("scaled", self.scalar, self.inner.fingerprint())


class FeedbackOperator(HarmonicOperator):
    """Negative-feedback closure ``(I + G)^{-1} G`` (paper eq. 28).

    Two genuinely independent evaluation routes coexist:

    * :meth:`evaluate` composes structure — a rank-one open loop closes via
      the SMW scalar denominator (paper eqs. 30–34, O(N) per grid point), a
      diagonal loop closes elementwise;
    * :meth:`dense_grid` / :meth:`dense` keep the brute-force stacked
      ``np.linalg.solve`` as the reference implementation — the correctness
      oracle the structured path is asserted against, and the general route
      for loops with no exploitable structure.
    """

    def __init__(self, open_loop: HarmonicOperator):
        super().__init__(open_loop.omega0)
        self.open_loop = open_loop

    def _structured_grid(self, s_arr: np.ndarray, order: int) -> StructuredGrid:
        return self.open_loop.evaluate(s_arr, order).feedback()

    def _dense_grid(self, s_arr: np.ndarray, order: int) -> np.ndarray:
        g = self.open_loop.dense_grid(s_arr, order)
        eye = np.eye(g.shape[-1], dtype=complex)
        if obs.enabled():
            # The dense linear solve is the expensive tail of a feedback
            # closure — spanned separately from the open-loop evaluation.
            with obs.span(
                "core.feedback.solve", points=int(s_arr.size), order=int(order)
            ):
                system = eye[None, :, :] + g
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    cond = np.linalg.cond(system)
                worst = float(np.max(cond)) if cond.size else 0.0
                if not np.isfinite(worst) or worst > health.CONDITION_LIMIT:
                    obs.health_event(
                        "health.feedback.condition",
                        worst,
                        health.CONDITION_LIMIT,
                        severity="warning",
                        message="ill-conditioned I + G in feedback solve",
                        order=int(order),
                    )
                return np.linalg.solve(system, g)
        return np.linalg.solve(eye[None, :, :] + g, g)

    def fingerprint(self) -> tuple:
        return ("feedback", self.open_loop.fingerprint())


def lti_diagonal(transfer, omega0: float, s: complex, order: int) -> np.ndarray:
    """Convenience: dense diagonal embedding of an LTI transfer at ``s``."""
    return LTIOperator(transfer, omega0).dense(s, order)


def ones_vector(order: int) -> np.ndarray:
    """The truncated all-ones vector ``l`` of paper eq. (20)."""
    check_order("order", order, minimum=0)
    return np.ones(2 * order + 1, dtype=complex)
