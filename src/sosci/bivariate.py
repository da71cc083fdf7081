"""Interval constructions for a pair of estimates selected by size.

Two selection rules are covered:

* larger of two (`larger_of_two_interval`): for exchangeable estimates with a
  symmetric error law, the unadjusted interval around the larger estimate
  keeps its nominal coverage, with no widening at all.

* larger absolute value of two (`abs_max_interval`, independent standard
  normal errors): here the unadjusted interval can undercover.  The interval
  is built by inverting an acceptance region whose probability is computed by
  `b_region_probability`; the calibration constant `c_plus(a)` depends only on
  the magnitude `a` of the candidate parameter value and shrinks from the
  two-coordinate Sidak constant at a = 0 to the unadjusted constant as
  a -> infinity, so the resulting interval is never longer than Sidak's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.optimize import brentq

from .baselines import MethodLabel, method_offsets, sidak_halfwidth
from .dist import NORMAL, ShiftFamily, _check_alpha, std_normal_cdf, std_normal_pdf
from .select import select_abs_max, select_top_k
from .sos import ConfidenceInterval

__all__ = [
    "QuadratureError",
    "CPlusCurve",
    "larger_of_two_interval",
    "b_region_probability",
    "c_plus",
    "cplus_curve",
    "abs_max_interval",
]

_QUAD_TOL = 1e-11
_QUAD_BUDGET = 1e-8  # accumulated abserr above this is treated as failure


class QuadratureError(Exception):
    """Numerical quadrature failed to reach the requested accuracy."""


def larger_of_two_interval(y, alpha: float, family: ShiftFamily = NORMAL) -> ConfidenceInterval:
    """Unadjusted interval around the larger of two exchangeable estimates.

    Selecting the larger of two estimates whose errors are exchangeable and
    symmetric does not inflate the two-sided miss probability: a miss high and
    a miss low swap roles under the exchange (Y1, Y2) -> (2 theta - Y2,
    2 theta - Y1) when both parameters are equal, and separated parameters
    only make the selected estimate more likely to track its own parameter.
    """
    c, _ = method_offsets(MethodLabel.UNADJUSTED, 2, 1, alpha, family)
    y = np.asarray(y, dtype=float)
    if y.size != 2:
        raise ValueError(f"needs exactly 2 estimates, got {y.size}")
    idx = select_top_k(y, 1).selected[0]
    w = float(y[idx])
    return ConfidenceInterval(idx, w - c, w + c, "larger_of_two")


def _b_term(mu_i: float, mu_j: float, c: float) -> tuple[float, float]:
    # Pr{ |Y_i - mu_i| <= c and |Y_j| < |Y_i| } for independent standard
    # normal errors, by conditioning on Y_i = mu_i + t:
    #   integral_{-c}^{c} phi(t) [Phi(|t + mu_i| - mu_j) - Phi(-|t + mu_i| - mu_j)] dt
    # The |t + mu_i| kink is passed to the quadrature as a break point.
    def integrand(t: float) -> float:
        u = abs(t + mu_i)
        return std_normal_pdf(t) * (std_normal_cdf(u - mu_j) - std_normal_cdf(-u - mu_j))

    kink = -mu_i
    points = [kink] if -c < kink < c else None
    out = integrate.quad(integrand, -c, c, points=points,
                         epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200, full_output=1)
    if len(out) > 3:
        raise QuadratureError(f"quadrature trouble for mu=({mu_i}, {mu_j}), c={c}: {out[3]}")
    return float(out[0]), float(out[1])


def b_region_probability(mu, c: float) -> float:
    """Probability that the abs-max selected coordinate of Y ~ N(mu, I_2)
    lands within c of its own mean.

    At mu = 0 this equals (2 Phi(c) - 1)^2, the square of the unadjusted
    two-sided coverage, which is why the calibrated constant at 0 matches the
    two-coordinate Sidak constant.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (2,) or not np.all(np.isfinite(mu)):
        raise ValueError("mu must be two finite means")
    if c < 0.0:
        raise ValueError(f"c must be >= 0, got {c!r}")
    if c == 0.0:
        return 0.0
    total = 0.0
    err = 0.0
    for mu_i, mu_j in ((mu[0], mu[1]), (mu[1], mu[0])):
        val, e = _b_term(float(mu_i), float(mu_j), float(c))
        total += val
        err += e
    if err > _QUAD_BUDGET:
        raise QuadratureError(f"accumulated quadrature error {err:.3e} exceeds budget")
    return min(max(total, 0.0), 1.0)


def c_plus(a: float, alpha: float) -> float:
    """Smallest c with Pr{hit at mean (a, 0)} >= 1 - alpha, for a >= 0.

    Bracketed between the unadjusted constant (the a -> infinity limit) and
    the two-coordinate Sidak constant (the value at a = 0); the probability is
    increasing in c, so a sign-change root gives the calibration exactly.
    """
    if a < 0.0:
        raise ValueError(f"a must be >= 0, got {a!r} (the curve is even: use |a|)")
    _check_alpha(alpha)
    target = 1.0 - alpha
    mu = (float(a), 0.0)

    def gap(c: float) -> float:
        return b_region_probability(mu, c) - target

    # c >= 0, and gap(0) = -target < 0, so the lower end is clamped at 0
    lo = max(method_offsets(MethodLabel.UNADJUSTED, 2, 1, alpha)[0] - 0.05, 0.0)
    hi = sidak_halfwidth(2, alpha) + 0.05
    for _ in range(8):  # defensive: widen if the standard bracket ever fails
        if gap(lo) < 0.0 < gap(hi):
            break
        lo = max(lo - 0.25, 0.0)
        hi += 0.25
    else:
        raise QuadratureError(f"could not bracket the calibration constant at a={a}")
    return float(brentq(gap, lo, hi, xtol=1e-9))


@dataclass(frozen=True, eq=False)
class CPlusCurve:
    """c_plus(|a|) tabulated on a uniform grid and interpolated linearly.

    The curve is even in a and flat beyond a_max (where it has already
    converged to the unadjusted constant to well below grid resolution).
    Calling the curve with any array-like returns interpolated constants.
    """

    alpha: float
    a_max: float
    step: float
    grid_a: np.ndarray
    grid_c: np.ndarray

    @classmethod
    def build(cls, alpha: float, a_max: float = 8.0, step: float = 0.01) -> "CPlusCurve":
        if a_max <= 0.0 or step <= 0.0 or step > a_max:
            raise ValueError("need 0 < step <= a_max")
        n = int(round(a_max / step))
        grid_a = np.linspace(0.0, n * step, n + 1)
        grid_c = np.array([c_plus(float(a), alpha) for a in grid_a])
        return cls(alpha=alpha, a_max=float(grid_a[-1]), step=float(step),
                   grid_a=grid_a, grid_c=grid_c)

    @property
    def grid(self) -> list[tuple[float, float]]:
        return [(float(a), float(c)) for a, c in zip(self.grid_a, self.grid_c)]

    def __call__(self, a):
        return np.interp(np.abs(a), self.grid_a, self.grid_c)


@lru_cache(maxsize=8)
def cplus_curve(alpha: float, a_max: float = 8.0, step: float = 0.01) -> CPlusCurve:
    """Cached curve; building one evaluates ~a_max/step quadrature roots."""
    return CPlusCurve.build(alpha, a_max, step)


def _first_crossing_root(a_knots, g_knots, w, exact, c_flat):
    # smallest a with g(a) = a + c(|a|) >= w; g is increasing at the knots in
    # practice, and scanning left-to-right keeps the result conservative even
    # if interpolation wobbles
    if w > g_knots[-1]:
        return w - c_flat  # flat region beyond the grid
    idx = int(np.argmax(g_knots >= w))
    if idx == 0:
        return w - c_flat
    return _polish(exact, float(a_knots[idx - 1]), float(a_knots[idx]))


def _last_crossing_root(a_knots, g_knots, w, exact, c_flat):
    # largest a with g(a) = a - c(|a|) <= w
    if w >= g_knots[-1]:
        return w + c_flat
    below = np.nonzero(g_knots <= w)[0]
    if below.size == 0:
        return w + c_flat
    idx = int(below[-1])
    if idx == len(a_knots) - 1:
        return w + c_flat
    return _polish(exact, float(a_knots[idx]), float(a_knots[idx + 1]))


def _polish(f, lo: float, hi: float) -> float:
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        # interpolation placed the root a knot away; widen once, else accept
        # the knot-level answer (error below grid resolution)
        width = hi - lo
        lo2, hi2 = lo - width, hi + width
        if f(lo2) * f(hi2) < 0.0:
            return float(brentq(f, lo2, hi2, xtol=1e-9))
        return 0.5 * (lo + hi)
    return float(brentq(f, lo, hi, xtol=1e-9))


def _invert_endpoints(w: float, curve: CPlusCurve, alpha: float) -> tuple[float, float]:
    # endpoints for a nonnegative selected value w:
    #   lower = inf{a : a + c(|a|) >= w},  upper = sup{a : a - c(|a|) <= w}
    a_knots = np.concatenate([-curve.grid_a[::-1], curve.grid_a[1:]])
    c_knots = np.concatenate([curve.grid_c[::-1], curve.grid_c[1:]])
    c_flat = float(curve.grid_c[-1])

    def exact_c(a: float) -> float:
        mag = abs(a)
        return c_plus(mag, alpha) if mag <= curve.a_max else c_flat

    lower = _first_crossing_root(a_knots, a_knots + c_knots, w,
                                 lambda a: a + exact_c(a) - w, c_flat)
    upper = _last_crossing_root(a_knots, a_knots - c_knots, w,
                                lambda a: a - exact_c(a) - w, c_flat)
    return lower, upper


def abs_max_interval(y, alpha: float, curve: CPlusCurve | None = None) -> ConfidenceInterval:
    """Interval for the parameter whose estimate has the larger absolute
    value, for independent standard normal errors.

    Endpoints invert the family of acceptance intervals |w - a| <= c_plus(|a|):
    the interval is exactly {a : |w - a| <= c_plus(|a|)}, which is shorter than
    the two-coordinate Sidak box at every w and approaches the unadjusted
    interval for large |w|.
    """
    _check_alpha(alpha)
    selection = select_abs_max(y)
    idx = selection.selected[0]
    w = float(np.asarray(y, dtype=float)[idx])
    if curve is None:
        curve = cplus_curve(alpha)
    elif not math.isclose(curve.alpha, alpha, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError(f"curve was built for alpha={curve.alpha}, got {alpha}")
    if w >= 0.0:
        lo, hi = _invert_endpoints(w, curve, alpha)
    else:
        lo, hi = _invert_endpoints(-w, curve, alpha)
        lo, hi = -hi, -lo
    return ConfidenceInterval(idx, lo, hi, "abs_max")
