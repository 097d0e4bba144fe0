"""Power-law fitting and skeleton-based estimation of search information."""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import DegenerateFitError, NetskelError

# Rule of thumb: the skeleton estimate is only reliable when the skeleton
# keeps at least this fraction of the original nodes.
RELIABLE_RATIO = 0.3


class PowerLawFit(NamedTuple):
    amplitude: float
    exponent: float
    r_squared: float


class _ScalingFields(NamedTuple):
    inverse_amplitude: float = 1.012
    inverse_exponent: float = 2.35
    tree_amplitude: float = 0.721
    tree_exponent: float = 2.550


class ScalingConstants(_ScalingFields):
    """Published scaling constants; override any of them with a re-fitted value."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ScalingConstants:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise NetskelError(f"{name} must be finite, got {value}")
        for name in ("inverse_amplitude", "tree_amplitude"):
            if getattr(self, name) <= 0:
                raise NetskelError(f"{name} must be positive")
        return self

    @classmethod
    def _make(cls, iterable) -> ScalingConstants:
        """As NamedTuple._make, but through the checks; _replace calls it."""
        return cls(*iterable)


class SkeletonEstimate(NamedTuple):
    h_skeleton: float
    ratio: float
    estimate_bits: float
    low_confidence: bool


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """OLS on (ln x, ln y): y = amplitude * x^exponent, r^2 in log space."""
    if len(points) < 3:
        raise DegenerateFitError(f"need at least 3 points, got {len(points)}")
    for x, y in points:
        if not (0 < x < math.inf and 0 < y < math.inf):
            raise NetskelError(f"power-law fit requires positive finite values, got ({x}, {y})")
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    if all(abs(v - lx[0]) <= 1e-8 + 1e-5 * abs(lx[0]) for v in lx):
        raise DegenerateFitError("all x values are equal; slope is undetermined")
    import statistics  # deferred: it loads decimal and fractions, 0.55 MiB of peak RSS

    slope, intercept = statistics.linear_regression(lx, ly)
    ss_res = math.fsum((b - (slope * a + intercept)) ** 2 for a, b in zip(lx, ly))
    mean = math.fsum(ly) / len(ly)
    ss_tot = math.fsum((b - mean) ** 2 for b in ly)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-18 else 0.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    return PowerLawFit(amplitude=math.exp(intercept), exponent=slope, r_squared=r2)


def estimate_h_from_skeleton(
    h_skeleton: float,
    n_skeleton: int,
    n_original: int,
    c: ScalingConstants = ScalingConstants(),
) -> float:
    """Approximate the original network's search information from its skeleton:
    inverse_amplitude * (n_skeleton / n_original)^(-inverse_exponent) * h_skeleton.
    """
    if n_skeleton <= 0:
        raise NetskelError(f"n_skeleton must be positive, got {n_skeleton}")
    if n_skeleton > n_original:
        raise NetskelError(
            f"skeleton ({n_skeleton} nodes) cannot exceed the original ({n_original})"
        )
    if not 0 <= h_skeleton < math.inf:
        raise NetskelError(f"h_skeleton must be finite and non-negative, got {h_skeleton}")
    ratio = n_skeleton / n_original
    try:
        bits = c.inverse_amplitude * ratio ** (-c.inverse_exponent) * h_skeleton
    except OverflowError:
        bits = math.inf
    if not math.isfinite(bits):
        raise NetskelError(
            f"estimate is not finite with inverse_amplitude={c.inverse_amplitude} "
            f"and inverse_exponent={c.inverse_exponent}"
        )
    return bits


def skeleton_estimate(
    h_skeleton: float,
    n_skeleton: int,
    n_original: int,
    c: ScalingConstants = ScalingConstants(),
) -> SkeletonEstimate:
    """estimate_h_from_skeleton plus the low-confidence flag for small skeletons."""
    bits = estimate_h_from_skeleton(h_skeleton, n_skeleton, n_original, c)
    ratio = n_skeleton / n_original
    return SkeletonEstimate(
        h_skeleton=h_skeleton,
        ratio=ratio,
        estimate_bits=bits,
        low_confidence=ratio < RELIABLE_RATIO,
    )


def approx_h_tree(n: int, c: ScalingConstants = ScalingConstants()) -> float:
    """Average-tree scaling: tree_amplitude * n^tree_exponent."""
    if n < 1:
        raise NetskelError(f"n must be positive, got {n}")
    return c.tree_amplitude * n ** c.tree_exponent


def relative_error(estimate: float, actual: float) -> float:
    """(estimate - actual) / actual, signed."""
    if actual <= 0:
        raise NetskelError(f"actual must be positive, got {actual}")
    return (estimate - actual) / actual
