"""Argument validation shared across the library.

Validation failures raise ``ValueError``/``TypeError`` with messages naming
the offending argument, so user errors surface at the public API boundary
rather than deep inside vectorized numpy code.
"""

from __future__ import annotations

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Require ``0 < value <= 1``; return it."""
    if not 0 < value <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it."""
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def is_count(value) -> bool:
    """Whether ``value`` is a non-negative ``int`` (``bool`` excluded)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_shape(value) -> bool:
    """Whether ``value``, parsed from JSON, is a list of non-negative ints."""
    return isinstance(value, list) and all(is_count(n) for n in value)


def check_shape3d(name: str, shape) -> tuple[int, int, int]:
    """Require a length-3 tuple of positive integers; return it normalized."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s <= 0 for s in shape):
        raise ValueError(f"{name} must be a (nz, ny, nx) of positive ints, got {shape!r}")
    return shape


def check_volume_array(name: str, array: np.ndarray) -> np.ndarray:
    """Require a 3D numeric ndarray; return it as C-contiguous float32.

    Returns a view when the input is already float32 C-order, otherwise a
    converted copy — callers treat the result as read-shared.
    """
    array = np.asarray(array)
    if array.ndim != 3:
        raise ValueError(f"{name} must be a 3D array, got ndim={array.ndim}")
    if not np.issubdtype(array.dtype, np.number):
        raise TypeError(f"{name} must be numeric, got dtype={array.dtype}")
    return np.ascontiguousarray(array, dtype=np.float32)


def check_finite(name: str, array: np.ndarray) -> np.ndarray:
    """Require all elements finite; return the array unchanged."""
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{name} contains non-finite values")
    return array
