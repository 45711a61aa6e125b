"""Angle conventions and validators.

Polarization is axis-like: an analyzer at angle theta and one at theta + pi
are the same physical device.  All deviation angles handled by the model
therefore live on [-pi/2, pi/2], and arbitrary angle differences are folded
back into that window by :func:`reduce_axis_angle`.

Angles are plain floats in radians throughout the package; degrees appear
only at the command line.
"""

from __future__ import annotations

import numpy as np

from .errors import AngleDomainError

HALF_WINDOW = np.pi / 2.0

# Slack for values produced by deg->rad conversion landing an ulp outside
# the closed window.
_DOMAIN_SLACK = 1e-9

# Points in one degree grid: a step too small for the span is a usage error,
# not an allocation failure.
_MAX_GRID_POINTS = 10**6


def _real_array(value, name: str, error=AngleDomainError) -> np.ndarray:
    """value as a float array; a value numpy cannot convert raises `error`, naming it."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise error(f"{name} must be real-valued") from None


def reduce_axis_angle(delta):
    """Fold an angle difference into [-pi/2, pi/2] modulo pi.

    Works on scalars and arrays.  The midpoint convention of ``np.round``
    (ties to even) makes the fold deterministic at exactly +/- pi/2.
    """
    delta = _real_array(delta, "angle difference")
    if not np.all(np.isfinite(delta)):
        raise AngleDomainError("angle difference must be finite")
    reduced = delta - np.pi * np.round(delta / np.pi)
    return float(reduced) if reduced.ndim == 0 else reduced


def require_deviation_angle(value, name: str = "angle"):
    """Validate that value lies in [-pi/2, pi/2]; return it clamped as float array/scalar.

    Raises AngleDomainError for non-numeric or non-finite input, or input
    outside the window by more than a rounding ulp.
    """
    arr = _real_array(value, name)
    if not np.all(np.isfinite(arr)):
        raise AngleDomainError(f"{name} must be finite")
    if np.any(np.abs(arr) > HALF_WINDOW + _DOMAIN_SLACK):
        bad = float(np.max(np.abs(arr)))
        raise AngleDomainError(
            f"{name} must lie in [-pi/2, pi/2]; got magnitude {bad!r}"
        )
    clamped = np.clip(arr, -HALF_WINDOW, HALF_WINDOW)
    return float(clamped) if clamped.ndim == 0 else clamped


def degrees_grid(start_deg: float, stop_deg: float, step_deg: float) -> np.ndarray:
    """Inclusive degree grid start:step:stop, returned in radians."""
    start_deg = _real_array(start_deg, "grid start")
    stop_deg = _real_array(stop_deg, "grid stop")
    step_deg = _real_array(step_deg, "grid step")
    if step_deg <= 0 or not np.isfinite(step_deg):
        raise AngleDomainError("grid step must be positive and finite")
    if not (np.isfinite(start_deg) and np.isfinite(stop_deg)):
        raise AngleDomainError("grid start and stop must be finite")
    if stop_deg < start_deg:
        raise AngleDomainError("grid stop must not precede start")
    count = np.floor((stop_deg - start_deg) / step_deg + 1e-9) + 1
    if count > _MAX_GRID_POINTS:
        raise AngleDomainError(f"grid of {count:.3g} points exceeds the cap {_MAX_GRID_POINTS}")
    return np.deg2rad(start_deg + step_deg * np.arange(int(count)))
