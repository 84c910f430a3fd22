"""Small argument-validation helpers used across the package.

These helpers raise :class:`repro._errors.ValidationError` with consistent,
descriptive messages.  They intentionally return the validated (possibly
converted) value so they can be used inline::

    self.omega0 = check_positive("omega0", omega0)
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence

import numpy as np

from repro._errors import ValidationError


def check_positive(name: str, value: float) -> float:
    """Return ``value`` as a float, requiring it to be finite and > 0."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a finite positive number, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Return ``value`` as a float, requiring it to be finite and >= 0."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValidationError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def check_finite(name: str, value: float) -> float:
    """Return ``value`` as a float, requiring it to be finite."""
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def check_order(name: str, value: int, minimum: int = 0) -> int:
    """Return ``value`` as an int, requiring ``value >= minimum``.

    Used for truncation orders, polynomial degrees and harmonic counts.
    """
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Return ``value`` as a float in the open interval (0, 1)."""
    value = float(value)
    if not np.isfinite(value) or not 0.0 < value < 1.0:
        raise ValidationError(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return value


def as_complex_array(name: str, values: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Return ``values`` as a 1-D complex ndarray, rejecting empty input."""
    arr = np.atleast_1d(np.asarray(values, dtype=complex))
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    return arr


def as_float_array(name: str, values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Return ``values`` as a 1-D float ndarray, rejecting empty input."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must contain only finite values")
    return arr


def check_odd_dimension(name: str, value: int) -> int:
    """Return ``value`` as an int, requiring it to be odd and >= 1.

    HTM truncations always have dimension ``2K + 1`` (harmonics ``-K..K``),
    so every dense HTM matrix must be square with odd size.
    """
    value = check_order(name, value, minimum=1)
    if value % 2 == 0:
        raise ValidationError(f"{name} must be odd (HTMs span harmonics -K..K), got {value}")
    return value


def ignore_backend(backend) -> None:
    """Warn once about a ``backend=`` argument, which is accepted and ignored.

    Structured evaluation has one (NumPy) implementation.  The public
    functions that used to take a compute-backend choice keep the keyword
    for one release and route it here.
    """
    if backend is not None:
        warnings.warn(
            "the backend argument is deprecated and ignored: structured "
            "evaluation always runs on NumPy",
            DeprecationWarning,
            stacklevel=3,
        )
