"""Rank-one HTMs and the Sherman–Morrison–Woodbury loop closure.

The sampling PFD's HTM is rank one (paper sec. 3.1), so the PLL open-loop
gain factors as ``G(s) = V(s) l^T`` (eq. 30).  The Sherman–Morrison–Woodbury
identity then reduces the infinite-dimensional loop inversion to scalar
arithmetic (eqs. 31–34)::

    (I + V l^T)^{-1} = I - V l^T / (1 + lambda),   lambda = l^T V
    closed loop:  theta = V l^T thetaref / (1 + lambda)

This module implements that closure for *truncated* vectors of any order and
exposes it both as raw vector algebra (:func:`smw_inverse_apply`,
:func:`smw_closed_loop`) and as a :class:`RankOneHTM` convenience wrapper.
"""

from __future__ import annotations

import numpy as np

from repro._errors import ValidationError
from repro.core.htm import HTM
from repro.obs import health
from repro.obs import spans as obs


class RankOneHTM:
    """An HTM of the form ``column @ row^T`` (outer product).

    The sampling PFD is the canonical instance: ``column = row = l`` scaled
    by ``w0/2pi``.  Stored factored, so products with diagonal/dense matrices
    stay O(N) / O(N^2) instead of O(N^3).
    """

    __slots__ = ("column", "row", "omega0", "s")

    def __init__(self, column: np.ndarray, row: np.ndarray, omega0: float, s: complex = 0j):
        column = np.asarray(column, dtype=complex)
        row = np.asarray(row, dtype=complex)
        if column.ndim != 1 or row.ndim != 1 or column.size != row.size:
            raise ValidationError("column and row must be 1-D vectors of equal length")
        if column.size % 2 == 0:
            raise ValidationError("rank-one HTM factors must have odd length (harmonics -K..K)")
        self.column = column.copy()
        self.row = row.copy()
        self.omega0 = float(omega0)
        self.s = complex(s)

    @property
    def order(self) -> int:
        """Truncation order K."""
        return (self.column.size - 1) // 2

    def to_htm(self) -> HTM:
        """Materialise the dense snapshot."""
        return HTM(np.outer(self.column, self.row), self.omega0, self.s)

    def left_multiply_dense(self, matrix: np.ndarray) -> "RankOneHTM":
        """Return ``matrix @ self`` — still rank one with a new column factor."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (self.column.size, self.column.size):
            raise ValidationError(
                f"matrix shape {matrix.shape} incompatible with rank-one factors of "
                f"size {self.column.size}"
            )
        return RankOneHTM(matrix @ self.column, self.row, self.omega0, self.s)

    def trace_like(self) -> complex:
        """``row^T column`` — the scalar lambda of the SMW closure."""
        return complex(self.row @ self.column)


def smw_inverse_apply(column: np.ndarray, row: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Apply ``(I + column row^T)^{-1}`` to ``rhs`` without forming matrices.

    Implements paper eq. (31)–(32).  Raises if ``1 + row^T column`` is
    numerically zero — that is precisely the loop's characteristic equation
    ``1 + lambda(s) = 0``, i.e. ``s`` sits on a closed-loop pole.
    """
    column = np.asarray(column, dtype=complex)
    row = np.asarray(row, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    lam = complex(row @ column)
    denom = 1.0 + lam
    if obs.enabled():
        _solve_health(column, row, denom)
    if abs(denom) < 1e-300:
        raise ZeroDivisionError("1 + lambda(s) = 0: s lies on a closed-loop pole")
    obs.add("core.rank_one.smw_inverse_apply", size=int(column.size))
    return rhs - column * (row @ rhs) / denom


def smw_closed_loop(column: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Dense closed-loop matrix ``(I + V l^T)^{-1} V l^T = V l^T / (1 + lambda)``.

    This is paper eq. (34) in matrix form; the result is again rank one.
    """
    column = np.asarray(column, dtype=complex)
    row = np.asarray(row, dtype=complex)
    lam = complex(row @ column)
    denom = 1.0 + lam
    if obs.enabled():
        _solve_health(column, row, denom)
    if abs(denom) < 1e-300:
        raise ZeroDivisionError("1 + lambda(s) = 0: s lies on a closed-loop pole")
    obs.add("core.rank_one.smw_closed_loop", size=int(column.size))
    return np.outer(column, row) / denom


def smw_closed_loop_grid(
    column: np.ndarray, row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batched SMW closure over a grid, staying in factored rank-one form.

    ``column`` and ``row`` are ``(L, N)`` stacks of the open-loop factors
    ``G(s_l) = c_l r_l^T`` per grid point.  Returns the closed-loop factors
    ``(column / (1 + lambda), row)`` — paper eq. (34) without ever forming a
    matrix, O(N) per point.

    Unlike the scalar :func:`smw_closed_loop`, grid points where
    ``1 + lambda`` vanishes do **not** raise: they go to inf/nan — the same
    behaviour as the batched dense solve this path replaces — and are
    flagged through a warning health event when observability is enabled.
    """
    column = np.asarray(column, dtype=complex)
    row = np.asarray(row, dtype=complex)
    if column.ndim != 2 or column.shape != row.shape:
        raise ValidationError(
            "column and row must be (points, size) stacks of equal shape, got "
            f"{column.shape} and {row.shape}"
        )
    lam = np.einsum("ln,ln->l", row, column)
    denom = 1.0 + lam
    if obs.enabled():
        obs.add("core.rank_one.smw_closed_loop_grid", points=int(column.shape[0]))
        mags = np.abs(denom[np.isfinite(denom)])
        margin = float(np.min(mags)) if mags.size else 0.0
        if margin < health.LAMBDA_SINGULAR_TOL:
            obs.health_event(
                "health.rank_one.near_singular",
                margin,
                health.LAMBDA_SINGULAR_TOL,
                severity="warning",
                direction="below",
                message="|1 + lambda| near zero on the grid: points close to a closed-loop pole",
                size=int(column.shape[1]),
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        closed = column / denom[:, None]
    return closed, row


def _solve_health(column: np.ndarray, row: np.ndarray, denom: complex) -> None:
    """Obs-enabled health probes for one SMW solve.

    Always checks the closure denominator against the near-singular
    tolerance; additionally runs the full (dense, expensive) identity check
    per solve when ``REPRO_OBS_SMW_CHECK=1`` opts in.
    """
    if abs(denom) < health.LAMBDA_SINGULAR_TOL:
        obs.health_event(
            "health.rank_one.near_singular",
            abs(denom),
            health.LAMBDA_SINGULAR_TOL,
            severity="warning",
            direction="below",
            message="|1 + lambda| near zero: s close to a closed-loop pole",
            size=int(column.size),
        )
    if health.smw_probe_enabled() and abs(denom) >= 1e-300:
        smw_identity_check(column, row, rtol=health.SMW_RESIDUAL_TOL)


def smw_identity_check(
    column: np.ndarray, row: np.ndarray, rtol: float = 1e-9
) -> health.CheckResult:
    """Residual of ``(I + C r^T) (I - C r^T/(1+lam)) - I`` as a structured check.

    Returns a :class:`repro.obs.health.CheckResult` whose value is the
    maximum absolute element of the residual matrix and whose threshold is
    ``rtol``.  The result still compares like the bare float this function
    historically returned (``smw_identity_check(c, r) < 1e-12`` works
    unchanged).  A failing check emits a warning health event when
    observability is enabled.
    """
    column = np.asarray(column, dtype=complex)
    row = np.asarray(row, dtype=complex)
    n = column.size
    lam = complex(row @ column)
    eye = np.eye(n, dtype=complex)
    forward = eye + np.outer(column, row)
    inverse = eye - np.outer(column, row) / (1.0 + lam)
    residual = float(np.max(np.abs(forward @ inverse - eye)))
    result = health.CheckResult(
        "smw_identity_check", residual, float(rtol), residual <= float(rtol)
    )
    if not result.passed:
        obs.health_event(
            "health.rank_one.smw_residual",
            residual,
            float(rtol),
            severity="warning",
            message="SMW closure disagrees with the dense inverse",
            size=int(n),
        )
    return result
