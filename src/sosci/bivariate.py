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
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .baselines import MethodLabel, method_offsets, sidak_halfwidth
from .dist import (
    _MAX_GRID,
    NORMAL,
    ShiftFamily,
    _check_mean_pair,
    _check_real,
    _check_real_array,
    _check_unit,
)
from .select import select_abs_max, select_top_k
from .sos import ConfidenceInterval, OptimizationError

__all__ = [
    "CPlusCurve",
    "larger_of_two_interval",
    "b_region_probability",
    "c_plus",
    "cplus_curve",
    "abs_max_interval",
]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# the 28-node Gauss-Legendre rule on [-1, 1], scipy.special's to the bit,
# written out because computing it would import scipy.linalg
_GL_X = np.array([
    -0.9964424975739544, -0.9813031653708728, -0.9542592806289381,
    -0.9156330263921321, -0.8658925225743951, -0.8056413709171792,
    -0.7356108780136318, -0.656651094038865, -0.5697204718114017,
    -0.4758742249551182, -0.37625151608907875, -0.27206162763517805,
    -0.16456928213338082, -0.05507928988403422, 0.05507928988403422,
    0.16456928213338082, 0.27206162763517805, 0.37625151608907875,
    0.4758742249551182, 0.5697204718114017, 0.656651094038865,
    0.7356108780136318, 0.8056413709171792, 0.8658925225743951,
    0.9156330263921321, 0.9542592806289381, 0.9813031653708728,
    0.9964424975739544,
])
_GL_W = np.array([
    0.009124282593092585, 0.02113211259277212, 0.03290142778230522,
    0.04427293475900388, 0.05510734567571665, 0.0652729239669997,
    0.07464621423456862, 0.08311341722890143, 0.09057174439303295,
    0.09693065799793002, 0.1021129675780608, 0.10605576592284646,
    0.10871119225829423, 0.11004701301647533, 0.11004701301647533,
    0.10871119225829423, 0.10605576592284646, 0.1021129675780608,
    0.09693065799793002, 0.09057174439303295, 0.08311341722890143,
    0.07464621423456862, 0.0652729239669997, 0.05510734567571665,
    0.04427293475900388, 0.03290142778230522, 0.02113211259277212,
    0.009124282593092585,
])
_C_UNDERFLOW = 40.0  # phi(40) ~ 1e-348 underflows: no miss beyond c = 40
_A_MAX = 8.0  # a tabulated curve's default extent
# a mean this far out is as good as infinitely far: c_plus has the same bits
# at every a beyond about 13, and the rule's nodes (within 41 of their mean)
# never reach the |t + mu_i| kink
_A_FLAT = 100.0
_STEP_TOL = 1e-12  # a Newton solve stops once every step in (a, c) is this small
_MAX_STEPS = 50  # every solve tried took at most 6 steps from the Sidak start
_SEED_PASSES = 4  # contraction passes on a tabulated curve before an endpoint solve
_CHUNK = 32  # elements per pass of the quadrature rule


def larger_of_two_interval(y, alpha: float, family: ShiftFamily = NORMAL) -> ConfidenceInterval:
    """Unadjusted interval around the larger of two exchangeable estimates.

    Selecting the larger of two estimates whose errors are exchangeable and
    symmetric does not inflate the two-sided miss probability: a miss high and
    a miss low swap roles under the exchange (Y1, Y2) -> (2 theta - Y2,
    2 theta - Y1) when both parameters are equal, and separated parameters
    only make the selected estimate more likely to track its own parameter.
    """
    c, _ = method_offsets(MethodLabel.UNADJUSTED, 2, 1, alpha, family)
    y = _check_real_array(y, "y")
    if y.size != 2:
        raise ValueError(f"needs exactly 2 estimates, got {y.size}")
    (idx,) = select_top_k(y, 1)
    w = float(y[idx])
    return ConfidenceInterval(idx, w - c, w + c, "larger_of_two")


def _tail_rule(mu_i: np.ndarray, mu_j: np.ndarray, c: np.ndarray, mean_slopes: bool):
    # For each element, the miss term
    #   Pr{ |Y_i - mu_i| > c and |Y_j| < |Y_i| }
    # for independent standard normal errors, and its slopes in c and, when
    # `mean_slopes` is set, in mu_i and mu_j (else those two are None).
    # Conditioning on Y_i = mu_i + t,
    #   term = integral_{|t| > c} phi(t) h(t) dt,
    #   h(t) = Phi(|t + mu_i| - mu_j) - Phi(-|t + mu_i| - mu_j).
    # The term is even in mu_i (t -> -t), so it is taken at |mu_i|, whose
    # |t + mu_i| kink at t = -|mu_i| can only fall in the lower tail.
    # Integrating the two tails, not [-c, c], keeps full relative accuracy
    # when the miss probability is tiny.  Each tail ends where phi has fallen
    # by e^-40 from phi(c), and the lower one is split at the kink (a kink
    # outside it leaves one panel empty); the integrand and its mu slopes are
    # smooth on each panel, so a fixed Gauss-Legendre rule is exact to
    # rounding.  The c slope is the integrand at the two tail edges,
    # -phi(c) [h(c) + h(-c)], and needs no quadrature.
    from scipy import special  # imported here: only the abs-max rule needs ndtr

    sign_i, mu_i = np.sign(mu_i), np.abs(mu_i)
    c = np.minimum(c, _C_UNDERFLOW)
    far = c + 80.0 / (np.sqrt(c * c + 80.0) + c)  # far^2 / 2 - c^2 / 2 = 40
    left = np.minimum(np.maximum(-mu_i, -far), -c)
    lo = np.stack([-far, left, c], axis=-1)
    hi = np.stack([left, -c, far], axis=-1)
    half = 0.5 * (hi - lo)[..., None]
    t = 0.5 * (hi + lo)[..., None] + half * _GL_X  # (n, 3 panels, 28 nodes)
    weight = half * _GL_W * np.exp(-0.5 * t * t)
    t += mu_i[:, None, None]
    u = np.abs(t)
    mu_j3 = mu_j[:, None, None]

    def integral(f):
        # one pairwise sum per element over its 84 contiguous nodes, so an
        # element's value does not depend on the batch it is evaluated in
        return _INV_SQRT_2PI * np.sum((weight * f).reshape(len(mu_i), -1), axis=-1)

    def h(edge):
        v = np.abs(edge + mu_i)
        return special.ndtr(v - mu_j) - special.ndtr(-v - mu_j)

    term = integral(special.ndtr(u - mu_j3) - special.ndtr(-u - mu_j3))
    d_c = -_INV_SQRT_2PI * np.exp(-0.5 * c * c) * (h(c) + h(-c))
    if not mean_slopes:
        return term, None, None, d_c
    near = np.exp(-0.5 * (u - mu_j3) ** 2)  # sqrt(2 pi) phi(|t + mu_i| - mu_j)
    away = np.exp(-0.5 * (u + mu_j3) ** 2)  # sqrt(2 pi) phi(-|t + mu_i| - mu_j)
    d_mu_i = sign_i * _INV_SQRT_2PI * integral(np.sign(t) * (near + away))
    d_mu_j = _INV_SQRT_2PI * integral(away - near)
    return term, d_mu_i, d_mu_j, d_c


def _miss_probability(mu_0: np.ndarray, mu_1: np.ndarray, c: np.ndarray,
                      mean_slope: bool = True):
    # 1 - b_region_probability at means (mu_0, mu_1), with its slopes in c
    # and, when `mean_slope` is set, in mu_0 (else that row is 0): the two
    # coordinates' selection events split the sample space, so their
    # conditional integrals over all t sum to 1.  Elements go through the
    # rule _CHUNK at a time, which bounds its temporaries.
    out = np.zeros((3, len(mu_0)))
    for lo in range(0, len(mu_0), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        n = len(mu_0[part])
        term, d_mu_i, d_mu_j, d_c = _tail_rule(np.concatenate([mu_0[part], mu_1[part]]),
                                               np.concatenate([mu_1[part], mu_0[part]]),
                                               np.concatenate([c[part], c[part]]), mean_slope)
        out[0, part] = term[:n] + term[n:]
        out[2, part] = d_c[:n] + d_c[n:]
        if mean_slope:
            out[1, part] = d_mu_i[:n] + d_mu_j[n:]
    return out


def b_region_probability(mu, c: float) -> float:
    """Probability that the abs-max selected coordinate of Y ~ N(mu, I_2)
    lands within c of its own mean.

    At mu = 0 this equals (2 Phi(c) - 1)^2, the square of the unadjusted
    two-sided coverage, which is why the calibrated constant at 0 matches the
    two-coordinate Sidak constant.
    """
    mu = _check_mean_pair(mu, c)
    if c == 0.0:  # exactly 0, where 1 - miss would leave rounding error
        return 0.0
    lo, hi = sorted(np.abs(mu))
    if hi > _A_FLAT:
        # the probability depends on |mu_0| and |mu_1| alone: once both
        # exceed _A_FLAT, on their gap alone, and not on a gap beyond it.
        # Holding both there keeps the rule's squares finite at any mean
        lo = min(lo, _A_FLAT)
        mu = np.array([lo + min(hi - lo, _A_FLAT), lo])
    miss = float(_miss_probability(mu[:1], mu[1:], np.array([float(c)]), False)[0, 0])
    return min(max(1.0 - miss, 0.0), 1.0)


def _newton(a: np.ndarray, c: np.ndarray, slope: np.ndarray, w: np.ndarray,
            alpha: float) -> tuple[np.ndarray, np.ndarray]:
    # Solves, for each element, the pair
    #   log miss(|a|, c) = log alpha   and   a + slope c = w
    # by Newton steps in (a, c) from the given start.  |a| is held at
    # _A_FLAT beyond it, which changes no bit of miss and keeps a huge a
    # from overflowing the rule's squares.  The second equation
    # is linear, so a start on it stays on it.  log miss is smooth and close
    # to quadratic in c (about -c^2 / 2 far in the tail): from a start at the
    # two-coordinate Sidak end of the range, every solve tried (alpha from
    # 1e-13 to 1 - 1e-8, |w| up to 1e12) converged within 6 steps, and from
    # a start on a tabulated curve (the abs-max endpoints) within 2 or 3.
    # An element is frozen once its step is below _STEP_TOL, so each result
    # is the one a batch of that element alone would give.
    # With every slope 0 (calibration), g is 0 from the start and stays 0,
    # and f_a enters the step only through g and slope: its quadrature is
    # skipped, and the 0 that stands in for it leaves every step's bits as
    # they would be with it.
    a, c = a.copy(), c.copy()
    log_alpha = math.log(alpha)
    mean_slope = bool(np.any(slope))
    todo = np.arange(len(a))
    for _ in range(_MAX_STEPS):
        at, ct, st = a[todo], c[todo], slope[todo]
        inside = np.abs(at) < _A_FLAT
        miss, miss_a, miss_c = _miss_probability(
            np.where(inside, np.abs(at), _A_FLAT), np.zeros(len(todo)), ct, mean_slope)
        f = np.log(miss) - log_alpha
        g = at + st * ct - w[todo]
        f_a = np.where(inside, np.sign(at) * miss_a / miss, 0.0)
        f_c = miss_c / miss
        det = st * f_a - f_c
        step_a = (f_c * g - st * f) / det
        step_c = (f - f_a * g) / det
        a[todo] = at + step_a
        c[todo] = ct + step_c
        # a NaN step never counts as converged
        todo = todo[~(np.maximum(np.abs(step_a), np.abs(step_c)) <= _STEP_TOL)]
        if not len(todo):
            return a, c
    raise OptimizationError(
        f"abs-max calibration did not converge in {_MAX_STEPS} Newton steps at alpha={alpha}")


def _calibrate(grid_a: np.ndarray, alpha: float) -> np.ndarray:
    # c_plus at each a >= 0: the constraint a = a_i holds from the start
    start = np.full(len(grid_a), sidak_halfwidth(2, alpha))
    return _newton(grid_a, start, np.zeros(len(grid_a)), grid_a, alpha)[1]


def c_plus(a: float, alpha: float) -> float:
    """Smallest c with Pr{hit at mean (a, 0)} >= 1 - alpha, for a >= 0.

    The miss probability falls in c from 1 at c = 0, so the calibration is
    its one root: Newton steps on the log miss probability, whose c slope is
    the integrand at the tail edges, started at the two-coordinate Sidak
    constant (the value at a = 0, and the largest over a).
    """
    _check_real(a, "a", lambda v: 0.0 <= v < math.inf,
                "be finite and >= 0 (the curve is even: use |a|)")
    _check_unit(alpha, "alpha")
    return float(_calibrate(np.array([float(a)]), alpha)[0])


def _check_grid(alpha: float, a_max: float, step: float) -> int:
    # the number of steps from 0 to a_max; its knots are counted before any is allocated
    _check_unit(alpha, "alpha")
    if not 0.0 < _check_real(step, "step") <= _check_real(a_max, "a_max"):
        raise ValueError(f"need 0 < step <= a_max, got step={step!r}, a_max={a_max!r}")
    steps = a_max / step  # inf once the ratio overflows
    if not (math.isfinite(steps) and round(steps) < _MAX_GRID):
        raise ValueError(f"a grid from 0 to a_max={a_max!r} by step={step!r} "
                         f"has more than {_MAX_GRID} knots")
    return round(steps)


@dataclass(frozen=True, eq=False)
class CPlusCurve:
    """c_plus(a) tabulated at grid_a = 0, step, ..., a_max.

    The curve is even in a.  Construction calibrates the table: it checks
    alpha, a_max and step, moves a_max to the last knot, and solves every
    knot in one batch, each equal to `c_plus` at its a.  The table cannot be
    passed in, and both arrays are read-only: `cplus_curve` hands one cached
    curve to every caller, and `abs_max_interval` starts its endpoint solves
    on it, so a_max and step move where a solve starts, never an endpoint.
    """

    alpha: float
    a_max: float = _A_MAX
    step: float = 0.01
    grid_a: np.ndarray = field(init=False)
    grid_c: np.ndarray = field(init=False)

    def __post_init__(self):
        n = _check_grid(self.alpha, self.a_max, self.step)
        grid_a = np.linspace(0.0, n * self.step, n + 1)
        grid_c = _calibrate(grid_a, self.alpha)
        grid_a.flags.writeable = grid_c.flags.writeable = False
        # frozen: each derived field is set once, here
        for name, value in (("a_max", float(grid_a[-1])), ("step", float(self.step)),
                            ("grid_a", grid_a), ("grid_c", grid_c)):
            object.__setattr__(self, name, value)

    @classmethod
    def build(cls, alpha: float, a_max: float = _A_MAX, step: float = 0.01) -> "CPlusCurve":
        """The curve for (alpha, a_max, step); the same as calling the class."""
        return cls(alpha, a_max, step)


def cplus_curve(alpha: float, a_max: float = _A_MAX, step: float = 0.01) -> CPlusCurve:
    """Cached curve; the arguments are checked before the cache sees them."""
    _check_grid(alpha, a_max, step)
    return _cached_curve(alpha, a_max, step)


@lru_cache(maxsize=8)
def _cached_curve(alpha: float, a_max: float, step: float) -> CPlusCurve:
    return CPlusCurve.build(alpha, a_max, step)


def _invert_endpoints(w: float, alpha: float,
                      curve: CPlusCurve | None) -> tuple[float, float]:
    # endpoints for a nonnegative selected value w:
    #   lower = inf{a : a + c(|a|) >= w},  upper = sup{a : a - c(|a|) <= w}
    # c lies in [z, s] and its slope exceeds -1, so a + c(|a|) and a - c(|a|)
    # are increasing and each endpoint is the one solution of a +/- c = w
    # with c = c_plus(|a|); both are solved in one batch.  Without a curve
    # the solve starts at the ends of the Sidak box, where c = s.  With one,
    # passes of c -> curve(|w -/+ c|) move that start close to the root on
    # the tabulated curve: the map is a contraction because the curve's
    # slope exceeds -1 (np.interp holds it flat past the last knot, which
    # moves only the start).  Newton then iterates against exact c_plus, so
    # the curve sets where the solve starts and nothing else.
    slope = np.array([1.0, -1.0])
    c = np.full(2, sidak_halfwidth(2, alpha))
    if curve is not None:
        for _ in range(_SEED_PASSES):
            c = np.interp(np.abs(w - slope * c), curve.grid_a, curve.grid_c)
    a, _ = _newton(w - slope * c, c, slope, np.array([w, w]), alpha)
    return float(a[0]), float(a[1])


def abs_max_interval(y, alpha: float, curve: CPlusCurve | None = None) -> ConfidenceInterval:
    """Interval for the parameter whose estimate has the larger absolute
    value, for independent standard normal errors.

    Endpoints invert the family of acceptance intervals |w - a| <= c_plus(|a|):
    the interval is exactly {a : |w - a| <= c_plus(|a|)}, which is shorter than
    the two-coordinate Sidak box at every w and approaches the unadjusted
    interval for large |w|.  Both endpoints are solved against exact c_plus
    values at every a.  A `curve` only starts each endpoint's solve at the
    root on the tabulated curve, which saves Newton steps; without one the
    solve starts at the Sidak box.  Either start gives the same endpoints to
    within the solve's step tolerance.
    """
    _check_unit(alpha, "alpha")
    idx = select_abs_max(y)
    w = float(np.asarray(y, dtype=float)[idx])
    if curve is not None:
        if not isinstance(curve, CPlusCurve):
            raise ValueError(f"curve must be a CPlusCurve, got {curve!r}")
        if not math.isclose(curve.alpha, alpha, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"curve was built for alpha={curve.alpha}, got {alpha}")
    lo, hi = _invert_endpoints(abs(w), alpha, curve)
    if w < 0.0:
        lo, hi = -hi, -lo
    return ConfidenceInterval(idx, lo, hi, "abs_max")
