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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import NORMAL, ShiftFamily, _check_family, _check_mk, _check_unit
from .select import select_top_k

__all__ = [
    "OptimizationError",
    "ConfidenceInterval",
    "IntervalSpec",
    "symmetric_delta",
    "spec_from_delta",
    "interval_length",
    "optimize_delta",
    "k_of_m_intervals",
    "golden_section_min",
]

DELTA_EPS = 1e-6  # search clip: delta -> {0, 1} drives one offset to infinity

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class OptimizationError(Exception):
    """An interval-length optimization failed to produce a finite value."""


@dataclass(frozen=True)
class ConfidenceInterval:
    """One interval [lo, hi] for the parameter at 0-based `index`."""

    index: int
    lo: float
    hi: float
    method: str

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class IntervalSpec:
    """Resolved tail levels and offsets for one (m, k, alpha, delta, family)."""

    lambda_lower: float
    lambda_upper: float
    c_lower: float
    c_upper: float

    def __post_init__(self):
        if not (0.0 < self.lambda_lower < 1.0 and 0.0 < self.lambda_upper < 1.0):
            raise ValueError("tail levels must lie in (0, 1)")
        if not (math.isfinite(self.c_lower) and math.isfinite(self.c_upper)):
            raise ValueError("offsets must be finite")


def symmetric_delta(m: int, k: int) -> float:
    """The delta that equalizes the two tail levels at alpha / (m + k)."""
    _check_mk(m, k)
    return m / (m + k)


def spec_from_delta(m: int, k: int, alpha: float, delta: float,
                    family: ShiftFamily = NORMAL) -> IntervalSpec:
    _check_mk(m, k)
    _check_unit(alpha, "alpha")
    _check_unit(delta, "delta")
    _check_family(family)
    return _spec(m, k, alpha, delta, family)


def _spec(m: int, k: int, alpha: float, delta: float, family: ShiftFamily) -> IntervalSpec:
    # unchecked: the delta search calls this at every step
    lam_lo = delta * alpha / m
    lam_up = (1.0 - delta) * alpha / k
    return IntervalSpec(
        lambda_lower=lam_lo,
        lambda_upper=lam_up,
        c_lower=family.quantile(1.0 - lam_lo),
        c_upper=-family.quantile(lam_up),
    )


def interval_length(m: int, k: int, alpha: float, delta: float,
                    family: ShiftFamily = NORMAL) -> float:
    """Common length of the delta-family intervals (same across ranks)."""
    spec = spec_from_delta(m, k, alpha, delta, family)
    return spec.c_lower + spec.c_upper


def golden_section_min(f, a: float, b: float, tol: float = 1e-10) -> float:
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


def optimize_delta(m: int, k: int, alpha: float, family: ShiftFamily = NORMAL,
                   tol: float = 1e-10) -> tuple[float, float]:
    """delta minimizing the interval length, and the minimal length.

    The length is convex in delta for the families used here, so a
    golden-section search over (DELTA_EPS, 1 - DELTA_EPS) suffices.
    """
    _check_mk(m, k)
    _check_unit(alpha, "alpha")
    _check_family(family)

    def length(delta: float) -> float:
        try:
            spec = _spec(m, k, alpha, delta, family)
            val = spec.c_lower + spec.c_upper
        except ValueError as exc:
            # tail level underflowed the quantile domain
            raise OptimizationError(
                f"interval length undefined at delta={delta!r} (alpha too extreme)") from exc
        if not math.isfinite(val):
            raise OptimizationError(
                f"non-finite interval length at delta={delta!r} (alpha too extreme)")
        return val

    delta_star = golden_section_min(length, DELTA_EPS, 1.0 - DELTA_EPS, tol)
    return delta_star, length(delta_star)


def k_of_m_intervals(y, k: int, alpha: float, delta_policy: str = "symmetric", *,
                     delta: float | None = None,
                     family: ShiftFamily = NORMAL) -> list[ConfidenceInterval]:
    """Intervals for the k largest of m estimates, best-first.

    delta_policy is one of "symmetric", "shortest", or "fixed" (which requires
    `delta`).  Every coordinate shares the one error `family`.
    """
    y = np.asarray(y, dtype=float)
    m = y.size
    if delta_policy == "symmetric":
        if delta is not None:
            raise ValueError("delta is only accepted with delta_policy='fixed'")
        delta = symmetric_delta(m, k)
        label = "sos_symmetric"
    elif delta_policy == "shortest":
        if delta is not None:
            raise ValueError("delta is only accepted with delta_policy='fixed'")
        delta, _ = optimize_delta(m, k, alpha, family)
        label = "sos_shortest"
    elif delta_policy == "fixed":
        if delta is None:
            raise ValueError("delta_policy='fixed' requires delta")
        label = "sos_fixed"
    else:
        raise ValueError(f"unknown delta_policy {delta_policy!r}")

    spec = spec_from_delta(m, k, alpha, delta, family)
    return _selected_intervals(y, k, spec.c_lower, spec.c_upper, label)


def _selected_intervals(y: np.ndarray, k: int, lower: float, upper: float,
                        label: str) -> list[ConfidenceInterval]:
    # [y_i - lower, y_i + upper] for the k largest y_i, best-first
    return [ConfidenceInterval(idx, float(y[idx]) - lower, float(y[idx]) + upper, label)
            for idx in select_top_k(y, k)]
