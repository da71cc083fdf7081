"""Reference interval methods for the k-largest-of-m setting.

Alongside the delta-family construction in `sos`, this module collects the
classical yardsticks: the unadjusted interval, Bonferroni and Sidak
simultaneous intervals, the coverage-of-winners construction (per-coordinate
offsets (c, d) around the selected estimates, tuned for the rank statistics
of m independent standard normals), and the selection-aware false-coverage
variant that widens only the lower side by the selection fraction k/m.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from .dist import NORMAL, ShiftFamily, _check_mk, _check_unit, std_normal_cdf
from .select import select_top_k  # noqa: F401  (bench/tracer.py wraps it by this name)
from .sos import (
    ConfidenceInterval,
    _selected_intervals,
    _spec,
    golden_section_min,
    optimize_delta,
)

__all__ = [
    "MethodLabel",
    "bonferroni_halfwidth",
    "sidak_halfwidth",
    "fcw_constants",
    "fcr_selection_aware_offsets",
    "fcr_selection_aware_interval",
    "method_tail_levels",
    "method_offsets",
    "method_length",
]


class MethodLabel(str, enum.Enum):
    """Stable method names used in tables, reports, and CLI output."""

    UNADJUSTED = "unadjusted"
    BONFERRONI = "bonferroni"
    SIDAK = "sidak"
    FCW_SYMMETRIC = "fcw_symmetric"
    FCW_SHORTEST = "fcw_shortest"
    SOS_SYMMETRIC = "sos_symmetric"
    SOS_SHORTEST = "sos_shortest"
    FCR_SELECTION_AWARE = "fcr_selection_aware"

    def __str__(self) -> str:  # so f-strings print the bare label
        return self.value


def bonferroni_halfwidth(m: int, alpha: float, family: ShiftFamily = NORMAL) -> float:
    """Half-width of two-sided simultaneous intervals at per-coordinate level
    alpha / m."""
    return method_offsets(MethodLabel.BONFERRONI, m, 1, alpha, family)[0]


def sidak_halfwidth(m: int, alpha: float, family: ShiftFamily = NORMAL) -> float:
    """Half-width of two-sided intervals at per-coordinate level
    1 - (1 - alpha)^(1/m); exact simultaneous coverage under independence."""
    return method_offsets(MethodLabel.SIDAK, m, 1, alpha, family)[0]


def _fcw_coverage(c: float, d: float, m: int, k: int) -> float:
    # joint probability that all k selected intervals [y - c, y + d] cover,
    # for m independent standard normal coordinates
    a = std_normal_cdf(c)
    b = std_normal_cdf(-d)
    return (a - b) ** (k - 1) * (a ** (m - k + 1) - b ** (m - k + 1))


def _fcw_tail_limit(d: float, m: int, k: int) -> float:
    # coverage as c -> infinity; an inner solve for c is feasible only above 1 - alpha
    b = std_normal_cdf(-d)
    return (1.0 - b) ** (k - 1) * (1.0 - b ** (m - k + 1))


def _fcw_solve_c(d: float, m: int, k: int, alpha: float) -> float | None:
    target = 1.0 - alpha
    if _fcw_tail_limit(d, m, k) <= target + 1e-9:
        return None
    hi = 10.0 + d
    return brentq(lambda c: _fcw_coverage(c, d, m, k) - target, 1e-12, hi, xtol=1e-12)


def fcw_constants(m: int, k: int, alpha: float, mode: str = "symmetric") -> tuple[float, float]:
    """Offsets (c, d) for intervals [y - c, y + d] around the k largest of m
    independent standard normal estimates, with simultaneous coverage 1 - alpha.

    mode "symmetric" forces c == d; mode "shortest" minimizes c + d over
    d >= 0 (the lower offset absorbs the upward selection bias, so the
    optimum always sits at d <= the symmetric constant).
    """
    _check_mk(m, k)
    _check_unit(alpha, "alpha")
    target = 1.0 - alpha
    c_sym = brentq(lambda c: _fcw_coverage(c, c, m, k) - target, 1e-12, 12.0, xtol=1e-12)
    if mode == "symmetric":
        return c_sym, c_sym
    if mode != "shortest":
        raise ValueError(f"unknown mode {mode!r}")

    if _fcw_tail_limit(0.0, m, k) > target + 1e-9:
        d_lo = 0.0
    else:
        # feasibility margin, kept below alpha so that target + margin < 1
        margin = min(1e-6, alpha / 2.0)
        d_lo = brentq(lambda d: _fcw_tail_limit(d, m, k) - (target + margin), 0.0, 20.0,
                      xtol=1e-12)

    def total(d: float) -> float:
        c = _fcw_solve_c(d, m, k, alpha)
        return math.inf if c is None else c + d

    d_hi = c_sym + 0.5
    d_star = golden_section_min(total, d_lo, d_hi, tol=1e-9)
    # the optimum can sit on the boundary (d = d_lo); keep the best candidate
    d_star = min((d_lo, d_star, d_hi), key=total)
    c_star = _fcw_solve_c(d_star, m, k, alpha)
    if c_star is None:
        raise ValueError(f"no feasible lower offset at d={d_star!r} (alpha too extreme)")
    return c_star, d_star


def fcr_selection_aware_offsets(m: int, k: int, alpha: float,
                                family: ShiftFamily = NORMAL) -> tuple[float, float]:
    """Offsets (lower, upper) of the selection-aware false-coverage interval:
    lower tail widened to (alpha/2) * (k/m), upper tail kept at alpha/2."""
    return method_offsets(MethodLabel.FCR_SELECTION_AWARE, m, k, alpha, family)


def fcr_selection_aware_interval(y, k: int, alpha: float,
                                 family: ShiftFamily = NORMAL) -> list[ConfidenceInterval]:
    """Selection-aware intervals for the k largest of m estimates, best-first."""
    y = np.asarray(y, dtype=float)
    offsets = fcr_selection_aware_offsets(y.size, k, alpha, family)
    return _selected_intervals(y, k, *offsets, MethodLabel.FCR_SELECTION_AWARE.value)


def method_tail_levels(method, m: int, k: int, alpha: float,
                       family: ShiftFamily = NORMAL) -> tuple[float, float]:
    """Per-coordinate tail probabilities (lower, upper) so that the offsets of
    a quantile-based method are F0^{-1}(1 - p).

    The coverage-of-winners methods are defined through normal-specific
    constants rather than tail levels, so they are rejected here; `family`
    only enters for sos_shortest, whose optimal delta depends on the shape.
    """
    method = MethodLabel(method)
    _check_mk(m, k)
    _check_unit(alpha, "alpha")
    if method is MethodLabel.UNADJUSTED:
        return alpha / 2.0, alpha / 2.0
    if method is MethodLabel.BONFERRONI:
        p = alpha / (2.0 * m)
        return p, p
    if method is MethodLabel.SIDAK:
        p = -math.expm1(math.log1p(-alpha) / m) / 2.0  # no cancellation at small alpha
        return p, p
    if method is MethodLabel.SOS_SYMMETRIC:
        p = alpha / (m + k)
        return p, p
    if method is MethodLabel.SOS_SHORTEST:
        delta, _ = optimize_delta(m, k, alpha, family)
        spec = _spec(m, k, alpha, delta, family)
        return spec.lambda_lower, spec.lambda_upper
    if method is MethodLabel.FCR_SELECTION_AWARE:
        return 0.5 * alpha * k / m, 0.5 * alpha
    raise ValueError(f"{method.value} is not a quantile-level method")


def _resolve_families(family, m: int) -> list[ShiftFamily]:
    # the mixed panel's one family per coordinate
    if not (isinstance(family, Sequence)
            and all(isinstance(f, ShiftFamily) for f in family)):
        raise ValueError(f"family must be a ShiftFamily or a sequence of them, got {family!r}")
    if len(family) != m:
        raise ValueError(f"need one family per coordinate: got {len(family)} for m={m}")
    return list(family)


def method_offsets(method, m: int, k: int, alpha: float,
                   family: ShiftFamily | Sequence[ShiftFamily] = NORMAL):
    """Offsets (lower, upper) such that each selected interval is
    [y - lower, y + upper].

    `family` is one ShiftFamily, giving two floats, or one family per
    coordinate, giving two arrays of m offsets.  With a sequence, the tail
    levels (and so the sos_shortest delta) are tuned on the normal family and
    each coordinate takes its own family's quantile.
    """
    method = MethodLabel(method)
    single = isinstance(family, ShiftFamily)
    families = [family] if single else _resolve_families(family, m)
    if method in (MethodLabel.FCW_SYMMETRIC, MethodLabel.FCW_SHORTEST):
        if any(f.name != "normal" for f in families):
            raise ValueError(f"{method.value} is defined for normal estimates only")
        mode = "symmetric" if method is MethodLabel.FCW_SYMMETRIC else "shortest"
        c, d = fcw_constants(m, k, alpha, mode)
        return (c, d) if single else (np.full(m, c), np.full(m, d))
    p_lo, p_up = method_tail_levels(method, m, k, alpha, family if single else NORMAL)
    lower = [f.quantile(1.0 - p_lo) for f in families]
    upper = [f.quantile(1.0 - p_up) for f in families]
    return (lower[0], upper[0]) if single else (np.array(lower), np.array(upper))


def method_length(method, m: int, k: int, alpha: float,
                  family: ShiftFamily = NORMAL) -> float:
    lower, upper = method_offsets(method, m, k, alpha, family)
    return lower + upper
