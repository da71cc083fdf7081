"""Reference interval methods for the k-largest-of-m setting.

Alongside the delta-family construction in `sos`, this module collects the
classical yardsticks: the unadjusted interval, Bonferroni and Sidak
simultaneous intervals, the coverage-of-winners construction (per-coordinate
offsets (c, d) around the selected estimates, tuned for the rank statistics
of m independent standard normals), and the selection-aware false-coverage
variant that widens only the lower side by the selection fraction k/m.
`method_offsets` turns any of these labels, and the delta family's
sos_symmetric and sos_shortest rows, into offsets; `k_of_m_intervals` reads
those rows for its symmetric and shortest policies.
"""

from __future__ import annotations

import enum
import math

from .dist import (
    _SQRT2,
    NORMAL,
    ShiftFamily,
    _check_family,
    _check_mk,
    _check_real_array,
    _check_unit,
    std_normal_cdf,
)
from .select import select_top_k  # noqa: F401  (bench/tracer.py wraps it by this name)
from .sos import (
    ConfidenceInterval,
    OptimizationError,
    _checked_offsets,
    _delta_levels,
    _finite_offset,
    _golden_section_min,
    _selected_intervals,
    optimize_delta,
)

__all__ = [
    "MethodLabel",
    "sidak_halfwidth",
    "fcw_constants",
    "method_tail_levels",
    "method_offsets",
    "k_of_m_intervals",
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


_BRENT_RTOL = 4.0 * math.ulp(1.0)  # 4 eps, the default rtol of scipy's brentq
_BRENT_STEPS = 100


def _brent(f, lo: float, hi: float, flo: float, fhi: float, xtol: float) -> float:
    """Root of f on [lo, hi], given flo = f(lo) and fhi = f(hi), nonzero and
    of opposite signs.

    A step-for-step port of scipy's Zeros/brentq.c at scipy's default rtol and
    step cap: from the same bracket it takes the same iterates and so returns
    the same root to the bit.  Each magnitude is formed once per step as
    `x if x > 0.0 else 0.0 - x`, which is abs(x) to the bit, signed zeros
    included, and min(a, b) is written out as `b if b < a else a`, which keeps
    min's first-wins and NaN results.
    """
    rtol = _BRENT_RTOL
    xpre, xcur, fpre, fcur = lo, hi, flo, fhi
    apre = flo if flo > 0.0 else 0.0 - flo
    acur = fhi if fhi > 0.0 else 0.0 - fhi
    xblk = fblk = ablk = spre = scur = 0.0
    for _ in range(_BRENT_STEPS):
        # fpre is flo or a value that passed the fcur == 0.0 return below, so
        # it is never 0; at fcur == 0.0 this block's writes are never read
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, ablk = xpre, fpre, apre
            spre = scur = xcur - xpre
        if ablk < acur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            apre, acur, ablk = acur, ablk, acur
        delta = (xtol + rtol * (xcur if xcur > 0.0 else 0.0 - xcur)) / 2
        sbis = (xblk - xcur) / 2
        asbis = sbis if sbis > 0.0 else 0.0 - sbis
        if fcur == 0.0 or asbis < delta:
            return xcur
        aspre = spre if spre > 0.0 else 0.0 - spre
        if aspre > delta and acur < apre:
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # C's division by 0 gives inf or nan, and either one bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            limit = 3 * asbis - delta
            if 2 * (stry if stry > 0.0 else 0.0 - stry) < (limit if limit < aspre else aspre):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre, apre = xcur, fcur, acur
        if (scur if scur > 0.0 else 0.0 - scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise OptimizationError(f"root solve met a NaN function value at x={xcur!r}")
        acur = fcur if fcur > 0.0 else 0.0 - fcur
    raise OptimizationError(f"root solve did not converge in {_BRENT_STEPS} steps")


def _fcw_root(f, lo: float, hi: float, m: int, k: int, alpha: float) -> float:
    # root of an increasing f on [lo, hi]; an end where f is already 0 (as
    # when 1 - alpha rounds to 1) is no root of the coverage equation
    flo, fhi = f(lo), f(hi)
    if not flo < 0.0 < fhi:
        raise OptimizationError(
            f"no FCW constant attains coverage 1 - alpha at m={m}, k={k}, alpha={alpha!r}")
    return _brent(f, lo, hi, flo, fhi, 1e-12)


def _fcw_solve_c(d: float, m: int, k: int, alpha: float) -> float:
    # _fcw_coverage(c, d, m, k) - (1 - alpha), with the d terms and the
    # exponents formed once; Phi(c) is std_normal_cdf's own expression
    target = 1.0 - alpha
    above, n = k - 1, m - k + 1
    b = std_normal_cdf(-d)
    bn = b ** n
    erfc = math.erfc

    def excess(c: float) -> float:
        a = 0.5 * erfc(-c / _SQRT2)
        return (a - b) ** above * (a ** n - bn) - target

    return _fcw_root(excess, 1e-12, 10.0 + d, m, k, alpha)


def fcw_constants(m: int, k: int, alpha: float, mode: str = "symmetric") -> tuple[float, float]:
    """Offsets (c, d) for intervals [y - c, y + d] around the k largest of m
    independent standard normal estimates.

    mode "symmetric" forces c == d and has simultaneous coverage 1 - alpha.
    mode "shortest" minimizes c + d over d >= 0 (the lower offset absorbs the
    upward selection bias, so the optimum always sits at d <= the symmetric
    constant), but it constrains only the configuration with k - 1 parameters
    far above the rest, not the one with all k far above, so its coverage
    can fall short of 1 - alpha: with all k selected parameters far above,
    its miss is 10.0 alpha at (m, k, alpha) = (100, 1, 0.05), 3.27 alpha at
    (2, 1, 0.05) and 1.23 alpha at (10, 2, 0.05).  ROADMAP Direction 1 holds
    the mend.
    """
    _check_mk(m, k)
    alpha = _check_unit(alpha, "alpha")
    if mode not in ("symmetric", "shortest"):
        raise ValueError(f"unknown mode {mode!r}")
    # the coverage rounds Phi(c) near 1 (one unit) and raises it to powers
    # summing to m (m units), so it resolves 1 - alpha to about 1e-3 of alpha
    # only while (m + 1) * 2^-53 <= alpha / 1000; past that a solve can return
    # constants whose miss is several times alpha
    if (m + 1) * math.ulp(1.0) / 2.0 > alpha / 1000.0:
        raise OptimizationError(
            f"FCW coverage in double precision cannot resolve 1 - alpha "
            f"at m={m}, k={k}, alpha={alpha!r}")
    target = 1.0 - alpha
    c_sym = _fcw_root(lambda c: _fcw_coverage(c, c, m, k) - target, 1e-12, 12.0, m, k, alpha)
    if mode == "symmetric":
        return c_sym, c_sym

    # d_lo, where the coverage as c -> infinity clears 1 - alpha by a margin;
    # each margin stays below alpha so that target + margin < 1
    if _fcw_coverage(math.inf, 0.0, m, k) > target + min(1e-9, alpha / 4.0):
        d_lo = 0.0
    else:
        d_lo = _fcw_root(
            lambda d: _fcw_coverage(math.inf, d, m, k) - (target + min(1e-6, alpha / 2.0)),
            0.0, 20.0, m, k, alpha)
    d_hi = c_sym + 0.5
    d_star = _golden_section_min(lambda d: _fcw_solve_c(d, m, k, alpha) + d, d_lo, d_hi, tol=1e-9)
    # the optimum can sit on the boundary, so d_lo is a candidate too, unless its
    # root stopped on a flat step of the coverage at or below 1 - alpha: the steps
    # of (1 - Phi(-d))^(k-1), about k * 2^-53, outgrow the 1e-6 margin past k ~ 1e10
    feasible = _fcw_coverage(math.inf, d_lo, m, k) > target
    ends = (d_lo, d_star, d_hi) if feasible else (d_star, d_hi)
    c_star, d_star = min(((_fcw_solve_c(d, m, k, alpha), d) for d in ends),
                         key=lambda cd: cd[0] + cd[1])
    return c_star, d_star


def method_tail_levels(method, m: int, k: int, alpha: float,
                       family: ShiftFamily = NORMAL) -> tuple[float, float]:
    """Per-coordinate tail probabilities (lower, upper) so that the offsets of
    a quantile-based method are -F0^{-1}(p).

    The coverage-of-winners methods are defined through normal-specific
    constants rather than tail levels, so they are rejected here; `family`
    only enters for sos_shortest, whose optimal delta depends on the shape.
    A level that underflows to 0 raises OptimizationError.
    """
    method = MethodLabel(method)
    _check_mk(m, k)
    alpha = _check_unit(alpha, "alpha")
    if method is MethodLabel.UNADJUSTED:
        levels = alpha / 2.0, alpha / 2.0
    elif method is MethodLabel.BONFERRONI:
        levels = (alpha / (2.0 * m),) * 2
    elif method is MethodLabel.SIDAK:
        # expm1/log1p: no cancellation at small alpha.  Bernoulli's inequality
        # puts the level at or above Bonferroni's; the max keeps it there
        # through rounding, as at m = 1, where the two are equal
        levels = (max(-math.expm1(math.log1p(-alpha) / m), alpha / m) / 2.0,) * 2
    elif method is MethodLabel.SOS_SYMMETRIC:
        levels = (alpha / (m + k),) * 2
    elif method is MethodLabel.SOS_SHORTEST:
        delta, _ = optimize_delta(m, k, alpha, family)
        levels = _delta_levels(m, k, alpha, delta)
    elif method is MethodLabel.FCR_SELECTION_AWARE:
        levels = 0.5 * alpha * k / m, 0.5 * alpha
    else:
        raise ValueError(f"{method.value} is defined for normal estimates only")
    if 0.0 in levels:
        raise OptimizationError(
            f"{method.value} tail levels underflow to 0 at m={m}, k={k}, alpha={alpha!r}")
    return levels


def method_offsets(method, m: int, k: int, alpha: float,
                   family: ShiftFamily = NORMAL) -> tuple[float, float]:
    """Offsets (lower, upper) such that each selected interval is
    [y - lower, y + upper] for estimates with errors from `family`.

    An offset is -F0^{-1}(p) at its tail level p, which equals F0^{-1}(1 - p)
    by the family's symmetry without rounding 1 - p, so no small level loses
    digits to it.
    """
    method = MethodLabel(method)
    _check_family(family)
    if method in (MethodLabel.FCW_SYMMETRIC, MethodLabel.FCW_SHORTEST):
        if family.name != "normal":
            raise ValueError(f"{method.value} is defined for normal estimates only")
        mode = "symmetric" if method is MethodLabel.FCW_SYMMETRIC else "shortest"
        return fcw_constants(m, k, alpha, mode)
    p_lo, p_up = method_tail_levels(method, m, k, alpha, family)
    return (_finite_offset(-family.quantile(p_lo), family, p_lo, m, k, alpha),
            _finite_offset(-family.quantile(p_up), family, p_up, m, k, alpha))


def k_of_m_intervals(y, k: int, alpha: float, delta_policy: str = "symmetric", *,
                     delta: float | None = None,
                     family: ShiftFamily = NORMAL) -> list[ConfidenceInterval]:
    """Intervals for the k largest of m estimates, best-first.

    delta_policy "symmetric" and "shortest" are the sos_symmetric and
    sos_shortest rows of the method table; "fixed" requires `delta`.  Every
    coordinate shares the one error `family`.
    """
    y = _check_real_array(y, "y")
    m = y.size
    if delta_policy == "fixed":
        if delta is None:
            raise ValueError("delta_policy='fixed' requires delta")
        return _selected_intervals(y, k, *_checked_offsets(m, k, alpha, delta, family),
                                   "sos_fixed")
    if delta_policy not in ("symmetric", "shortest"):
        raise ValueError(f"unknown delta_policy {delta_policy!r}")
    if delta is not None:
        raise ValueError("delta is only accepted with delta_policy='fixed'")
    label = f"sos_{delta_policy}"
    return _selected_intervals(y, k, *method_offsets(label, m, k, alpha, family), label)
