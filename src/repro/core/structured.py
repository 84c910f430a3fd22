"""Structure-tagged lazy HTM grids — the evaluation layer behind ``evaluate()``.

The paper's loop is *structured*: LTI blocks are diagonal in the harmonic
basis (eq. 12), memoryless multiplication and ISF integration are banded
Toeplitz (eqs. 13, 25), and the sampling PFD is rank one (eqs. 19–20).  A
:class:`StructuredGrid` carries a whole frequency grid's worth of one
operator's HTM in the cheapest faithful representation:

=============  =======================  =================================
kind           storage                  matrix entry ``H[l, i, j]``
=============  =======================  =================================
``diagonal``   ``diag (L, N)``          ``diag[l, i]`` when ``i == j``
``banded``     ``{k: val (L, N)}``      ``val[l, i]`` when ``i - j == k``
``rank_one``   ``column, row (L, N)``   ``column[l, i] * row[l, j]``
``dense``      ``data (L, N, N)``       ``data[l, i, j]``
=============  =======================  =================================

Composition (``@``, ``+``, :meth:`scale`, :meth:`feedback`) dispatches on
the tags and stays symbolic wherever the algebra allows — diagonal times
diagonal is an elementwise product, anything times rank-one stays rank-one,
and the feedback closure of a rank-one loop goes through the SMW scalar
denominator (paper eqs. 30–34, O(N) per grid point) instead of a stacked
``(N, N)`` solve.  Numbers are only materialised by :meth:`to_dense` (or a
genuinely dense fallback).

Instances are immutable: component arrays are frozen read-only so cached
grids can be shared between callers (see :mod:`repro.core.memo`).
"""

from __future__ import annotations

import numpy as np

from repro._errors import ValidationError
from repro.core.rank_one import smw_closed_loop_grid
from repro.obs import health
from repro.obs import spans as obs

__all__ = ["StructuredGrid"]

DIAGONAL = "diagonal"
BANDED = "banded"
RANK_ONE = "rank_one"
DENSE = "dense"


def _freeze(arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=complex)
    if arr.flags.writeable:
        arr.flags.writeable = False
    return arr


class StructuredGrid:
    """One operator's HTM over a frequency grid, tagged with its structure."""

    __slots__ = ("kind", "order", "_diag", "_bands", "_column", "_row", "_data")

    def __init__(self, kind: str, order: int):
        self.kind = kind
        self.order = int(order)
        self._diag = None
        self._bands = None
        self._column = None
        self._row = None
        self._data = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def diagonal(cls, diag, *, order: int) -> "StructuredGrid":
        """A diagonal stack from ``diag`` of shape ``(L, 2*order+1)``."""
        out = cls(DIAGONAL, order)
        out._diag = _freeze(diag)
        out._check_factor(out._diag, "diag")
        return out

    @classmethod
    def banded(cls, bands, *, order: int) -> "StructuredGrid":
        """A banded Toeplitz-like stack from ``{offset: (L, N) values}``.

        ``bands[k][l, i]`` is the entry at ``(i, i - k)``; positions whose
        column index falls outside the truncation are ignored, so they may
        hold arbitrary values (broadcast constants included).
        """
        out = cls(BANDED, order)
        frozen = {int(k): _freeze(v) for k, v in bands.items()}
        if not frozen:
            raise ValidationError("banded grid needs at least one band")
        for val in frozen.values():
            out._check_factor(val, "band")
        out._bands = frozen
        return out

    @classmethod
    def rank_one(cls, column, row, *, order: int) -> "StructuredGrid":
        """A rank-one stack ``column[l] row[l]^T`` from ``(L, N)`` factors."""
        out = cls(RANK_ONE, order)
        out._column = _freeze(column)
        out._row = _freeze(row)
        out._check_factor(out._column, "column")
        out._check_factor(out._row, "row")
        return out

    @classmethod
    def dense(cls, data, *, order: int) -> "StructuredGrid":
        """A dense stack from ``data`` of shape ``(L, N, N)``."""
        out = cls(DENSE, order)
        out._data = _freeze(data)
        size = 2 * out.order + 1
        if out._data.ndim != 3 or out._data.shape[1:] != (size, size):
            raise ValidationError(
                f"dense grid needs shape (L, {size}, {size}), got {out._data.shape}"
            )
        return out

    def _check_factor(self, arr: np.ndarray, label: str) -> None:
        if arr.ndim != 2 or arr.shape[1] != self.size:
            raise ValidationError(
                f"structured {label} needs shape (L, {self.size}), got {arr.shape}"
            )

    # -- shape -------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Truncated matrix size ``N = 2*order + 1``."""
        return 2 * self.order + 1

    @property
    def npoints(self) -> int:
        """Number of grid points ``L``."""
        if self.kind == DIAGONAL:
            return self._diag.shape[0]
        if self.kind == BANDED:
            return next(iter(self._bands.values())).shape[0]
        if self.kind == RANK_ONE:
            return self._column.shape[0]
        return self._data.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.npoints, self.size, self.size)

    @property
    def nbytes(self) -> int:
        """Logical byte size of the stored factors (broadcast views count full)."""
        if self.kind == DIAGONAL:
            return int(self._diag.nbytes)
        if self.kind == BANDED:
            return int(sum(v.nbytes for v in self._bands.values()))
        if self.kind == RANK_ONE:
            return int(self._column.nbytes + self._row.nbytes)
        return int(self._data.nbytes)

    def __repr__(self) -> str:
        return f"StructuredGrid(kind={self.kind!r}, points={self.npoints}, order={self.order})"

    # -- element access -----------------------------------------------------------

    def element_grid(self, n: int, m: int) -> np.ndarray:
        """Entries ``H_{n,m}`` across the grid, without densifying."""
        i, j = n + self.order, m + self.order
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise ValidationError(
                f"harmonic indices ({n}, {m}) outside truncation order {self.order}"
            )
        if self.kind == DIAGONAL:
            if i != j:
                return np.zeros(self.npoints, dtype=complex)
            return self._diag[:, i].copy()
        if self.kind == BANDED:
            val = self._bands.get(i - j)
            if val is None:
                return np.zeros(self.npoints, dtype=complex)
            return val[:, i].copy()
        if self.kind == RANK_ONE:
            return self._column[:, i] * self._row[:, j]
        return self._data[:, i, j].copy()

    # -- terminal closure ---------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Materialise the ``(L, N, N)`` stack (read-only) — the terminal call."""
        if self.kind == DENSE:
            return self._data
        if self.kind == RANK_ONE:
            return _freeze(self._column[:, :, None] * self._row[:, None, :])
        out = np.zeros(self.shape, dtype=complex)
        idx = np.arange(self.size)
        if self.kind == DIAGONAL:
            out[:, idx, idx] = self._diag
            return _freeze(out)
        for k, val in self._bands.items():
            rows = idx[(idx - k >= 0) & (idx - k < self.size)]
            if rows.size:
                out[:, rows, rows - k] = val[:, rows]
        return _freeze(out)

    # -- factor application (rank-one absorption) -----------------------------------

    def apply_to_column(self, vec: np.ndarray) -> np.ndarray:
        """``M @ vec`` per grid point for ``vec`` of shape ``(L, N)``."""
        if self.kind == DIAGONAL:
            return self._diag * vec
        if self.kind == RANK_ONE:
            inner = np.einsum("ln,ln->l", self._row, vec)
            return self._column * inner[:, None]
        if self.kind == BANDED:
            out = np.zeros(vec.shape, dtype=complex)
            idx = np.arange(self.size)
            for k, val in self._bands.items():
                rows = idx[(idx - k >= 0) & (idx - k < self.size)]
                if rows.size:
                    out[:, rows] += val[:, rows] * vec[:, rows - k]
            return out
        return np.einsum("lij,lj->li", self._data, vec)

    def apply_to_row(self, vec: np.ndarray) -> np.ndarray:
        """``vec^T @ M`` per grid point for ``vec`` of shape ``(L, N)``."""
        if self.kind == DIAGONAL:
            return vec * self._diag
        if self.kind == RANK_ONE:
            inner = np.einsum("ln,ln->l", vec, self._column)
            return self._row * inner[:, None]
        if self.kind == BANDED:
            out = np.zeros(vec.shape, dtype=complex)
            idx = np.arange(self.size)
            for k, val in self._bands.items():
                cols = idx[(idx + k >= 0) & (idx + k < self.size)]
                if cols.size:
                    out[:, cols] += val[:, cols + k] * vec[:, cols + k]
            return out
        return np.einsum("li,lij->lj", vec, self._data)

    # -- composition --------------------------------------------------------------

    def _check_compatible(self, other: "StructuredGrid") -> None:
        if not isinstance(other, StructuredGrid):
            raise TypeError(
                f"expected a StructuredGrid operand, got {type(other).__name__}"
            )
        if other.order != self.order or other.npoints != self.npoints:
            raise ValidationError(
                f"structured grids disagree: {self.shape} vs {other.shape}"
            )

    def _as_bands(self) -> dict[int, np.ndarray]:
        if self.kind == BANDED:
            return dict(self._bands)
        return {0: self._diag}

    def __matmul__(self, other: "StructuredGrid") -> "StructuredGrid":
        self._check_compatible(other)
        if obs.enabled():
            obs.add("core.structured.matmul", pair=f"{self.kind}@{other.kind}")
        if self.kind == DIAGONAL and other.kind == DIAGONAL:
            return StructuredGrid.diagonal(self._diag * other._diag, order=self.order)
        # Rank-one absorbs anything on either side and stays rank one.
        if other.kind == RANK_ONE:
            return StructuredGrid.rank_one(
                self.apply_to_column(other._column), other._row, order=self.order
            )
        if self.kind == RANK_ONE:
            return StructuredGrid.rank_one(
                self._column, other.apply_to_row(self._row), order=self.order
            )
        if self.kind in (DIAGONAL, BANDED) and other.kind in (DIAGONAL, BANDED):
            return self._banded_matmul(other)
        return StructuredGrid.dense(
            np.matmul(self.to_dense(), other.to_dense()), order=self.order
        )

    def _banded_matmul(self, other: "StructuredGrid") -> "StructuredGrid":
        size = self.size
        idx = np.arange(size)
        out: dict[int, np.ndarray] = {}
        for a, av in self._as_bands().items():
            for b, bv in other._as_bands().items():
                off = a + b
                if abs(off) > size - 1:
                    continue
                term = np.zeros((self.npoints, size), dtype=complex)
                rows = idx[(idx - a >= 0) & (idx - a < size)]
                if rows.size == 0:
                    continue
                term[:, rows] = av[:, rows] * bv[:, rows - a]
                if off in out:
                    out[off] = out[off] + term
                else:
                    out[off] = term
        if not out:
            return StructuredGrid.diagonal(
                np.zeros((self.npoints, size), dtype=complex), order=self.order
            )
        if set(out) == {0}:
            return StructuredGrid.diagonal(out[0], order=self.order)
        return StructuredGrid.banded(out, order=self.order)

    def __add__(self, other: "StructuredGrid") -> "StructuredGrid":
        self._check_compatible(other)
        if obs.enabled():
            obs.add("core.structured.add", pair=f"{self.kind}+{other.kind}")
        if self.kind == DIAGONAL and other.kind == DIAGONAL:
            return StructuredGrid.diagonal(self._diag + other._diag, order=self.order)
        if self.kind in (DIAGONAL, BANDED) and other.kind in (DIAGONAL, BANDED):
            merged = self._as_bands()
            for k, val in other._as_bands().items():
                merged[k] = merged[k] + val if k in merged else val
            if set(merged) == {0}:
                return StructuredGrid.diagonal(merged[0], order=self.order)
            return StructuredGrid.banded(merged, order=self.order)
        return StructuredGrid.dense(self.to_dense() + other.to_dense(), order=self.order)

    def scale(self, alpha: complex) -> "StructuredGrid":
        """Scalar multiple — structure-preserving for every tag."""
        alpha = complex(alpha)
        if self.kind == DIAGONAL:
            return StructuredGrid.diagonal(alpha * self._diag, order=self.order)
        if self.kind == BANDED:
            return StructuredGrid.banded(
                {k: alpha * v for k, v in self._bands.items()}, order=self.order
            )
        if self.kind == RANK_ONE:
            return StructuredGrid.rank_one(alpha * self._column, self._row, order=self.order)
        return StructuredGrid.dense(alpha * self._data, order=self.order)

    # -- feedback closure ---------------------------------------------------------

    def feedback(self) -> "StructuredGrid":
        """Negative-feedback closure ``(I + G)^{-1} G`` of this open loop.

        * rank-one: the paper's SMW scalar closure (eq. 34) — stays rank
          one, O(N) per grid point;
        * diagonal: elementwise ``d / (1 + d)``;
        * banded / dense: the batched dense solve (structure is not closed
          under feedback), counted by ``core.structured.feedback_dense``.

        Near-singular closures (``|1 + lambda|`` below the tolerance)
        mirror the dense solve: the affected points go to inf/nan and are
        flagged through warning health events rather than raising.
        """
        if obs.enabled():
            obs.add("core.structured.feedback", kind=self.kind)
        if self.kind == RANK_ONE:
            column, row = smw_closed_loop_grid(self._column, self._row)
            return StructuredGrid.rank_one(column, row, order=self.order)
        if self.kind == DIAGONAL:
            denom = 1.0 + self._diag
            if obs.enabled():
                finite = np.abs(denom[np.isfinite(denom)])
                margin = float(np.min(finite)) if finite.size else 0.0
                if margin < health.LAMBDA_SINGULAR_TOL:
                    obs.health_event(
                        "health.rank_one.near_singular",
                        margin,
                        health.LAMBDA_SINGULAR_TOL,
                        severity="warning",
                        direction="below",
                        message="|1 + d| near zero in diagonal feedback closure",
                        size=int(self.size),
                    )
            with np.errstate(divide="ignore", invalid="ignore"):
                return StructuredGrid.diagonal(self._diag / denom, order=self.order)
        if obs.enabled():
            obs.add("core.structured.feedback_dense", kind=self.kind)
        g = self.to_dense()
        eye = np.eye(self.size, dtype=complex)
        system = eye[None, :, :] + g
        if obs.enabled():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                cond = np.linalg.cond(system)
            worst = float(np.max(cond)) if cond.size else 0.0
            if not np.isfinite(worst) or worst > health.CONDITION_LIMIT:
                obs.health_event(
                    "health.feedback.condition",
                    worst,
                    health.CONDITION_LIMIT,
                    severity="warning",
                    message="ill-conditioned I + G in structured feedback fallback",
                    order=int(self.order),
                )
        return StructuredGrid.dense(np.linalg.solve(system, g), order=self.order)
