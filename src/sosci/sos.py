"""Intervals for the k-largest-of-m setting with simultaneous coverage over
the selected set.

The construction splits an error budget alpha between the two interval sides
through a parameter delta in (0, 1):

    lambda_lower = delta * alpha / m        (per-side tail for the lower end)
    lambda_upper = (1 - delta) * alpha / k  (per-side tail for the upper end)

and each selected estimate y gets the interval

    [y - F0^{-1}(1 - lambda_lower),  y + F0^{-1}(1 - lambda_upper)].

A miss below the truth can happen for at most m coordinates and a miss above
only for the k selected ones, so the probability that any selected interval
misses is at most m * lambda_lower + k * lambda_upper = alpha, for any joint
dependence between the coordinates.  delta = m / (m + k) makes the two tail
levels equal; "shortest" tunes delta to minimize the common interval length.
Both are rows of the method table in `baselines`, which also holds
`k_of_m_intervals`; this module keeps the split itself, its offsets at a
fixed delta and the delta search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import NORMAL, ShiftFamily, _check_family, _check_mk, _check_real, _check_unit
from .select import select_top_k

__all__ = [
    "OptimizationError",
    "ConfidenceInterval",
    "interval_length",
    "optimize_delta",
]

DELTA_EPS = 1e-6  # search clip: delta -> {0, 1} drives one offset to infinity

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class OptimizationError(Exception):
    """A numerical computation gave no usable value: a family quantile that
    is not finite at a tail level, a tail level that underflows (or leaves
    1 - level at 1), an FCW (coverage-of-winners) root solve that fails, or
    an abs-max calibration that does not converge."""


@dataclass(frozen=True)
class ConfidenceInterval:
    """One interval [lo, hi] for the parameter at 0-based `index`."""

    index: int
    lo: float
    hi: float
    method: str

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not (lo.__class__ is float is hi.__class__ and math.isfinite(lo) and math.isfinite(hi)):
            # anything but two finite floats is checked, and a real that is
            # not an int or a float (a Decimal, say) is kept as its float
            lo, hi = _check_real(lo, "lo"), _check_real(hi, "hi")
            if self.lo.__class__ not in (int, float):
                object.__setattr__(self, "lo", lo)
            if self.hi.__class__ not in (int, float):
                object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def _delta_levels(m: int, k: int, alpha: float, delta: float) -> tuple[float, float]:
    # the split of alpha: lower tail for all m coordinates, upper for the k selected
    return delta * alpha / m, (1.0 - delta) * alpha / k


def _finite_offset(offset: float, family: ShiftFamily, level: float,
                   m: int, k: int, alpha: float) -> float:
    # an offset formed from `family`'s quantile at tail `level`, which must be finite
    if not math.isfinite(offset):
        raise OptimizationError(
            f"family {family.name!r} gives the non-finite offset {offset!r} at tail "
            f"level {level!r}, m={m}, k={k}, alpha={alpha!r}")
    return offset


def _delta_offsets(m: int, k: int, alpha: float, delta: float,
                   family: ShiftFamily) -> tuple[float, float]:
    # unchecked: the delta search calls this at every step.  A lower level
    # at or below 2^-54 leaves 1 - level at 1: a named failure, not a
    # quantile of 1.  The upper level never underflows alone: 1 - delta is at
    # least 2^-53 and k <= m, so it is at least 2^-53 times the lower level
    lam_lo, lam_up = _delta_levels(m, k, alpha, delta)
    p_lo = 1.0 - lam_lo
    if p_lo == 1.0:
        raise OptimizationError(
            f"delta-family lower tail level {lam_lo!r} rounds 1 - level to 1 "
            f"at delta={delta!r}, m={m}, k={k}, alpha={alpha!r}")
    return (_finite_offset(family.quantile(p_lo), family, lam_lo, m, k, alpha),
            _finite_offset(-family.quantile(lam_up), family, lam_up, m, k, alpha))


def _checked_offsets(m: int, k: int, alpha: float, delta: float,
                     family: ShiftFamily) -> tuple[float, float]:
    # a caller-given delta: interval_length and the fixed policy
    _check_mk(m, k)
    alpha = _check_unit(alpha, "alpha")
    delta = _check_unit(delta, "delta")
    _check_family(family)
    return _delta_offsets(m, k, alpha, delta, family)


def interval_length(m: int, k: int, alpha: float, delta: float,
                    family: ShiftFamily = NORMAL) -> float:
    """Common length of the delta-family intervals (same across ranks)."""
    return sum(_checked_offsets(m, k, alpha, delta, family))


def _golden_section_min(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Golden-section minimizer on [a, b] for a unimodal f; returns the
    midpoint of the final bracket."""
    if not a < b:
        raise ValueError("need a < b")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimize_delta(m: int, k: int, alpha: float,
                   family: ShiftFamily = NORMAL) -> tuple[float, float]:
    """delta minimizing the interval length, and the minimal length.

    The length is convex in delta for the families used here, so a
    golden-section search over (DELTA_EPS, 1 - DELTA_EPS) suffices.
    """
    _check_mk(m, k)
    alpha = _check_unit(alpha, "alpha")
    _check_family(family)

    def length(delta: float) -> float:
        return sum(_delta_offsets(m, k, alpha, delta, family))

    delta_star = _golden_section_min(length, DELTA_EPS, 1.0 - DELTA_EPS)
    return delta_star, length(delta_star)


def _selected_intervals(y: np.ndarray, k: int, lower: float, upper: float,
                        label: str) -> list[ConfidenceInterval]:
    # [y_i - lower, y_i + upper] for the k largest y_i, best-first
    return [ConfidenceInterval(idx, float(y[idx]) - lower, float(y[idx]) + upper, label)
            for idx in select_top_k(y, k)]
