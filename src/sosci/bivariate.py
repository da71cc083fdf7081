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
from scipy import special
from scipy.optimize import brentq

from .baselines import MethodLabel, method_offsets, sidak_halfwidth
from .dist import _INV_SQRT_2PI, NORMAL, ShiftFamily, _check_alpha
from .select import select_abs_max, select_top_k
from .sos import ConfidenceInterval

__all__ = [
    "CPlusCurve",
    "larger_of_two_interval",
    "b_region_probability",
    "c_plus",
    "cplus_curve",
    "abs_max_interval",
]

_GL_X, _GL_W = special.roots_legendre(48)  # Gauss-Legendre rule on [-1, 1]
_C_UNDERFLOW = 40.0  # phi(40) ~ 1e-348 underflows: no miss beyond c = 40
_A_MAX = 8.0  # c_plus has converged to the unadjusted constant well before this


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
    (idx,) = select_top_k(y, 1)
    w = float(y[idx])
    return ConfidenceInterval(idx, w - c, w + c, "larger_of_two")


def _miss_term(mu_i: float, mu_j: float, c: float) -> float:
    # Pr{ |Y_i - mu_i| > c and |Y_j| < |Y_i| } for independent standard
    # normal errors, by conditioning on Y_i = mu_i + t:
    #   integral_{|t| > c} phi(t) [Phi(|t + mu_i| - mu_j) - Phi(-|t + mu_i| - mu_j)] dt
    # Integrating the two tails, not [-c, c], keeps full relative accuracy
    # when the miss probability is tiny.  Each tail ends where phi has fallen
    # by e^-40 from phi(c) and is split at the |t + mu_i| kink (a kink outside
    # the tail leaves one panel empty); the integrand is smooth on each panel,
    # so a fixed Gauss-Legendre rule is exact to rounding.
    c = min(c, _C_UNDERFLOW)
    far = c + 80.0 / (math.sqrt(c * c + 80.0) + c)  # far^2 / 2 - c^2 / 2 = 40
    left = min(max(-mu_i, -far), -c)
    right = min(max(-mu_i, c), far)
    lo = np.array([-far, left, c, right])
    hi = np.array([left, -c, right, far])
    half = 0.5 * (hi - lo)[:, None]
    t = 0.5 * (hi + lo)[:, None] + half * _GL_X
    u = np.abs(t + mu_i)
    f = np.exp(-0.5 * t * t) * (special.ndtr(u - mu_j) - special.ndtr(-u - mu_j))
    return _INV_SQRT_2PI * float(np.sum(half * _GL_W * f))


def _miss_probability(mu_0: float, mu_1: float, c: float) -> float:
    # 1 - b_region_probability: the two coordinates' selection events split
    # the sample space, so their conditional integrals over all t sum to 1
    return _miss_term(mu_0, mu_1, c) + _miss_term(mu_1, mu_0, c)


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
    if not c >= 0.0:
        raise ValueError(f"c must be >= 0, got {c!r}")
    if c == 0.0:  # exactly 0, where 1 - miss would leave rounding error
        return 0.0
    return min(max(1.0 - _miss_probability(float(mu[0]), float(mu[1]), c), 0.0), 1.0)


def _limits(alpha: float) -> tuple[float, float]:
    # the unadjusted constant (c_plus as a -> infinity) and the
    # two-coordinate Sidak constant (c_plus at a = 0)
    return method_offsets(MethodLabel.UNADJUSTED, 2, 1, alpha)[0], sidak_halfwidth(2, alpha)


def c_plus(a: float, alpha: float) -> float:
    """Smallest c with Pr{hit at mean (a, 0)} >= 1 - alpha, for a >= 0.

    Bracketed between the unadjusted constant (the a -> infinity limit) and
    the two-coordinate Sidak constant (the value at a = 0); the probability is
    increasing in c, so a sign-change root gives the calibration exactly.
    """
    if not 0.0 <= a < math.inf:
        raise ValueError(f"a must be finite and >= 0, got {a!r} (the curve is even: use |a|)")
    _check_alpha(alpha)
    z, s = _limits(alpha)
    # solved on the miss probability, not on 1 - alpha, so the root keeps its
    # accuracy at small alpha; the miss is 1 at c = 0, so the lower end is
    # clamped at 0
    return float(brentq(lambda c: alpha - _miss_probability(float(a), 0.0, c),
                        max(z - 0.05, 0.0), s + 0.05, xtol=1e-9))


@dataclass(frozen=True, eq=False)
class CPlusCurve:
    """c_plus(a) tabulated at grid_a = 0, step, ..., a_max.

    The curve is even in a and flat beyond a_max (where it has already
    converged to the unadjusted constant to well below grid resolution).
    """

    alpha: float
    a_max: float
    step: float
    grid_a: np.ndarray
    grid_c: np.ndarray

    @classmethod
    def build(cls, alpha: float, a_max: float = _A_MAX, step: float = 0.01) -> "CPlusCurve":
        if not 0.0 < step <= a_max < math.inf:
            raise ValueError(f"need finite 0 < step <= a_max, got step={step!r}, a_max={a_max!r}")
        n = int(round(a_max / step))
        grid_a = np.linspace(0.0, n * step, n + 1)
        grid_c = np.array([c_plus(float(a), alpha) for a in grid_a])
        return cls(alpha=alpha, a_max=float(grid_a[-1]), step=float(step),
                   grid_a=grid_a, grid_c=grid_c)


@lru_cache(maxsize=8)
def cplus_curve(alpha: float, a_max: float = _A_MAX, step: float = 0.01) -> CPlusCurve:
    """Cached curve; building one evaluates ~a_max/step quadrature roots."""
    return CPlusCurve.build(alpha, a_max, step)


def _invert_endpoints(w: float, alpha: float, a_max: float) -> tuple[float, float]:
    # endpoints for a nonnegative selected value w:
    #   lower = inf{a : a + c(|a|) >= w},  upper = sup{a : a - c(|a|) <= w}
    # c lies in [z, s] and its slope exceeds -1, so a + c(|a|) and a - c(|a|)
    # are increasing and each endpoint is the one sign change in its bracket
    z, s = _limits(alpha)

    def c(a: float) -> float:
        return c_plus(min(abs(a), a_max), alpha)

    lower = brentq(lambda a: a + c(a) - w, w - s - 0.05, w - z + 0.05, xtol=1e-9)
    upper = brentq(lambda a: a - c(a) - w, w + z - 0.05, w + s + 0.05, xtol=1e-9)
    return float(lower), float(upper)


def abs_max_interval(y, alpha: float, curve: CPlusCurve | None = None) -> ConfidenceInterval:
    """Interval for the parameter whose estimate has the larger absolute
    value, for independent standard normal errors.

    Endpoints invert the family of acceptance intervals |w - a| <= c_plus(|a|):
    the interval is exactly {a : |w - a| <= c_plus(|a|)}, which is shorter than
    the two-coordinate Sidak box at every w and approaches the unadjusted
    interval for large |w|.  Both endpoints are solved against exact c_plus
    values; `curve` only sets a_max (default 8), beyond which the constant is
    held flat, as on the tabulated curve.
    """
    _check_alpha(alpha)
    idx = select_abs_max(y)
    w = float(np.asarray(y, dtype=float)[idx])
    a_max = _A_MAX
    if curve is not None:
        if not isinstance(curve, CPlusCurve):
            raise ValueError(f"curve must be a CPlusCurve, got {curve!r}")
        if not math.isclose(curve.alpha, alpha, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"curve was built for alpha={curve.alpha}, got {alpha}")
        a_max = curve.a_max
    lo, hi = _invert_endpoints(abs(w), alpha, a_max)
    if w < 0.0:
        lo, hi = -hi, -lo
    return ConfidenceInterval(idx, lo, hi, "abs_max")
