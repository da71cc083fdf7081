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

import bisect
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
_SQRT_HALF = math.sqrt(0.5)
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
# the quintic reading of a curve's table: for 6 evenly spaced knots at
# v = -2.5, ..., 2.5 in units of the step, _QUINTIC[k, j] is the coefficient
# of v^j in the quintic that is 1 at knot k and 0 at the others.  Written as
# fractions because numpy.linalg would load LAPACK at import
_QUINTIC = np.array([
    [3 / 256, -3 / 640, -5 / 96, 1 / 48, 1 / 48, -1 / 120],
    [-25 / 256, 25 / 384, 13 / 32, -13 / 48, -1 / 16, 1 / 24],
    [75 / 128, -75 / 64, -17 / 48, 17 / 24, 1 / 24, -1 / 12],
    [75 / 128, 75 / 64, -17 / 48, -17 / 24, 1 / 24, 1 / 12],
    [-25 / 256, -25 / 384, 13 / 32, 13 / 48, -1 / 16, -1 / 24],
    [3 / 256, 3 / 640, -5 / 96, -1 / 48, 1 / 48, 1 / 120],
])
_C_UNDERFLOW = 40.0  # phi(40) ~ 1e-348 underflows: no miss beyond c = 40
_A_MAX = 8.0  # a tabulated curve's default extent
# a mean this far out is as good as infinitely far: c_plus has the same bits
# at every a beyond about 13, and the rule's nodes (within 41 of their mean)
# never reach the |t + mu_i| kink
_A_FLAT = 100.0
_STEP_TOL = 1e-12  # a Newton solve stops once every step in (a, c) is this small
_MAX_STEPS = 50  # every solve tried took at most 6 steps (see _invert_endpoints)
_START_STEPS = 2  # Newton steps on a curve's quintic reading before an endpoint solve
# elements per pass of the mean-0 rule, set by the pass's largest array:
# a calibration pass's integrand rows, 8 bytes at each of the 2 coordinates'
# 3 panels of len(_GL_X) nodes per element.  The pass keeps them under
# glibc's default 128 KB mmap threshold.  An array above it is mapped fresh
# and unmapped when freed, so every pass would page-fault on each of its
# pages (the page-fault cliff): at 128 elements a default build took about
# 5000 minor faults
_CHUNK = 128 * 1024 // (2 * 3 * len(_GL_X) * 8)


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


def _panels(mu_i: np.ndarray, c: np.ndarray):
    # The rule's panels for coordinates at |means| mu_i (elements on the last
    # axis): c held at _C_UNDERFLOW, c^2, each coordinate's panel bounds
    # (lo, hi) as (-far, left), (left, -c), (c, far), where
    # left = min(max(-mu_i, -far), -c) is the kink held within the tail, and
    # each panel's nodes and weights, phi(node) folded into the weights.
    # The upper panel does not depend on mu_i.  An endpoint solve's pair
    # forms these, and each panel's half-width and midpoint 0.5 (hi -/+ lo),
    # on floats, which round as numpy's do, and reads them as one array
    if mu_i.ndim == 1 and len(mu_i) <= 2:
        table = []
        for mu, c in zip(mu_i.tolist(), c.tolist()):
            c = min(c, _C_UNDERFLOW)
            far = c + 80.0 / (math.sqrt(c * c + 80.0) + c)
            left = min(max(-mu, -far), -c)
            table.append((c, c * c, -far, left, left, -c, c, far, 0.5 * (left + far),
                          0.5 * (-c - left), 0.5 * (far - c), 0.5 * (left - far),
                          0.5 * (left - c), 0.5 * (far + c)))
        table = np.array(table)
        c, c_2, bounds, half, mid = (table[:, 0], table[:, 1], table[:, 2:8], table[:, 8:11, None],
                                     table[:, 11:, None])
    else:
        bounds = np.empty(mu_i.shape + (6,))
        c = np.minimum(c, _C_UNDERFLOW, out=bounds[..., 4])
        c_2 = c * c
        np.add(c, 80.0 / (np.sqrt(c_2 + 80.0) + c), out=bounds[..., 5])  # far^2 / 2 - c^2 / 2 = 40
        np.negative(bounds[..., 4:], out=bounds[..., 3::-3])  # -c and -far
        np.minimum(np.maximum(-mu_i, bounds[..., 0]), bounds[..., 3], out=bounds[..., 1])
        bounds[..., 2] = bounds[..., 1]
        lo, hi = bounds[..., 0::2], bounds[..., 1::2]
        half, mid = 0.5 * (hi - lo)[..., None], 0.5 * (hi + lo)[..., None]
    panels = half * _GL_X  # the nodes, each panel's q in a row
    panels += mid
    weight = -0.5 * panels
    weight *= panels
    np.exp(weight, out=weight)
    weight *= half * _GL_W
    return c, c_2, bounds, panels, weight


def _tail_rule(mu_0: np.ndarray, mu_1: np.ndarray, c: np.ndarray) -> np.ndarray:
    # For each element, 1 - b_region_probability at means (mu_0, mu_1) (c may
    # be (2, n), one per coordinate).  The two coordinates' selection events
    # split the sample space, so the miss is the sum over i (j the other
    # coordinate) of the term
    #   Pr{ |Y_i - mu_i| > c and |Y_j| < |Y_i| }
    # for independent standard normal errors.  Conditioning on Y_i = mu_i + t,
    #   term = integral_{|t| > c} phi(t) h(t) dt,
    #   h(t) = Phi(|t + mu_i| - mu_j) - Phi(-|t + mu_i| - mu_j).
    # The term is even in mu_i (t -> -t), so it is taken at |mu_i|, whose
    # |t + mu_i| kink at t = -|mu_i| can only fall in the lower tail.
    # Integrating the two tails, not [-c, c], keeps full relative accuracy
    # when the miss probability is tiny.  Each tail ends where phi has fallen
    # by e^-40 from phi(c), and the lower one is split at the kink (a kink
    # outside it leaves one panel empty); the integrand is smooth on each
    # panel, so a fixed Gauss-Legendre rule is exact to rounding.
    from scipy import special  # imported here: only the abs-max rule needs ndtr

    n, nodes = len(mu_0), 3 * len(_GL_X)
    # each array runs over (coordinate i, element, node)
    means = np.stack([mu_0, mu_1])
    mu_i, mu_j = np.abs(means), means[::-1, :, None]
    panels, weight = _panels(mu_i, c)[3:]
    size = np.abs(panels.reshape(2, n, nodes) + mu_i[..., None])
    h = special.ndtr(size - mu_j)
    h -= special.ndtr(-size - mu_j)
    h *= weight.reshape(2, n, nodes)
    miss = _INV_SQRT_2PI * np.add.reduce(h, axis=-1)
    return miss[0] + miss[1]


def _abs_max_miss(theta_0: np.ndarray, theta_1: np.ndarray, alpha: float) -> np.ndarray:
    # the abs-max interval's exact SoS miss at each theta: it covers theta_i exactly when
    # |Y_i - theta_i| <= c_plus(|theta_i|), so _tail_rule's terms at each coordinate's c
    size = np.abs(np.stack([theta_0, theta_1]))
    return _tail_rule(theta_0, theta_1, _calibrate(size.ravel(), alpha).reshape(size.shape))


def _zero_mean_rule(a: np.ndarray, c: np.ndarray, mean_slopes: bool) -> np.ndarray:
    # The rule at means (a, 0) for a >= 0 and c >= 0, as every Newton solve
    # calls it: _tail_rule's miss, its slope in a (when `mean_slopes` is set,
    # else 0) and its slope in c, as the rows of a (3, n) array.  The c slope
    # is the integrand at the two tail edges, -phi(c) [h(c) + h(-c)], and
    # needs no quadrature.  It computes each distinct value of the general
    # rule at any two means, with its slopes, once, and keeps every bit of
    # it: the test oracle `general_miss_rule` is that rule, the reference
    # whose bits it keeps.  Coordinate 1 (at mean 0) has the upper panel (c, far) that
    # coordinate 0 has, and its lower panel is that one mirrored: the rule's
    # nodes are antisymmetric and its weights symmetric, and rounding is
    # sign-symmetric, so the lower panel holds the upper one's nodes negated
    # and reversed, with the same weights and integrand.  Its kink panel
    # [-c, -c] has weight 0 and every node at -c, so its products are its
    # edge values times 0 (a zero keeps the sign the full rule gives it), and
    # its edges c and -c give the same h.  On the upper panel its lower-sign
    # argument -node - a is coordinate 0's -(node + a), to the bit, so
    # coordinate 1 runs ndtr only on its upper sign's node - a, over the
    # panel and the edge c.  Coordinate 0's other mean is 0, so its two
    # arguments are -|t + a| and |t + a|; where |t + a| >= 1, scipy's ndtr
    # takes its erfc branch and returns exactly 1 - ndtr(-|t + a|), so ndtr
    # runs there on the lower sign alone.  That leaves 115 ndtr points per
    # element, plus those within 1 of coordinate 0's kink (137 in all on
    # average over a default build), of the general rule's 232, and 84
    # weight exps of its 168.
    from scipy import special  # imported here: only the abs-max rule needs ndtr

    n, q = len(a), len(_GL_X)
    nodes = 3 * q
    c, c_2, bounds, panels, weight = _panels(a, c)
    # coordinate 0's t + a at its nodes and edges c + a, -c + a
    t = np.empty((n, nodes + 2))
    np.add(panels.reshape(n, nodes), a[:, None], out=t[:, :nodes])
    np.add(bounds[:, 4:2:-1], a[:, None], out=t[:, nodes:])
    size = np.abs(t)
    # one ndtr pass: coordinate 0's lower sign, then coordinate 1's upper
    # sign on its upper panel and at the edge c
    z = np.empty((n, nodes + 2 + q + 1))
    np.negative(size, out=z[:, :nodes + 2])
    np.subtract(panels[:, 2], a[:, None], out=z[:, nodes + 2:-1])
    np.subtract(c, a, out=z[:, -1])
    cdf = special.ndtr(z)
    lower, own = cdf[:, :nodes + 2], cdf[:, nodes + 2:]
    shared = lower[:, 2 * q:nodes + 1]  # coordinate 1's lower sign: upper panel, edge c
    h = np.subtract(1.0, lower)  # coordinate 0's upper sign, then its h
    close = size < 1.0
    h[close] = special.ndtr(size[close])  # not where=: scipy's ufuncs corrupted memory with it
    h -= lower
    # coordinate 1's integrand (row 0) and mean slope (row 1) on its upper
    # panel and at the edge c
    k = 1 + mean_slopes
    upper = np.empty((n, k, q + 1))
    np.subtract(own, shared, out=upper[:, 0])
    rows = np.empty((2, n, k, nodes))
    rows[0, :, 0] = h[:, :nodes]
    if mean_slopes:
        # sqrt(2 pi) phi at each argument: coordinate 0's two signs share it
        gauss = z ** 2
        gauss *= -0.5
        np.exp(gauss, out=gauss)
        at_t = gauss[:, :nodes]
        np.multiply(np.sign(t[:, :nodes]), at_t + at_t, out=rows[0, :, 1])
        np.subtract(gauss[:, 2 * q:nodes + 1], gauss[:, nodes + 2:], out=upper[:, 1])
    rows[0] *= weight.reshape(n, 1, nodes)
    np.multiply(upper[..., :q], weight[:, None, 2], out=rows[1, ..., 2 * q:])
    np.multiply(upper[..., q:], 0.0, out=rows[1, ..., q:2 * q])
    rows[1, ..., :q] = rows[1, ..., nodes - 1:2 * q - 1:-1]
    edges = np.empty((2, n))
    np.add(h[:, nodes], h[:, nodes + 1], out=edges[0])
    np.add(upper[:, 0, q], upper[:, 0, q], out=edges[1])
    return _sum_rows(rows, edges, c_2, a)


def _sum_rows(rows: np.ndarray, edges: np.ndarray, c_2: np.ndarray,
              mu_0: np.ndarray) -> np.ndarray:
    # the rule's (3, n) output from each coordinate's weighted integrand rows
    # (and mean-slope rows, if any) and the integrand's sum over its two
    # tail edges.  One pairwise sum per element and integral over its
    # contiguous nodes, so an element's value does not depend on the batch
    # it is evaluated in
    n, k = rows.shape[1:3]
    integral = _INV_SQRT_2PI * np.add.reduce(rows, axis=-1)
    out = np.empty((3, n))
    if k > 1:
        integral[0, :, 1] *= np.sign(mu_0) * _INV_SQRT_2PI
        integral[1, :, 1] *= _INV_SQRT_2PI
    else:
        out[1] = 0.0
    np.add(integral[0], integral[1], out=out[:k].T)
    d_c = -_INV_SQRT_2PI * np.exp(-0.5 * c_2) * edges
    np.add(d_c[0], d_c[1], out=out[2])
    return out


def _miss_probability(a: np.ndarray, c: np.ndarray, mean_slope: bool) -> np.ndarray:
    # _zero_mean_rule over any number of elements, _CHUNK at a time, so that
    # no pass maps fresh pages (see _CHUNK); a batch of one pass, such as an
    # endpoint solve's two elements, gets the rule's own array back
    if len(a) <= _CHUNK:
        return _zero_mean_rule(a, c, mean_slope)
    out = np.empty((3, len(a)))
    for lo in range(0, len(a), _CHUNK):
        part = slice(lo, lo + _CHUNK)
        out[:, part] = _zero_mean_rule(a[part], c[part], mean_slope)
    return out


def _coverage_rule(a: np.ndarray, c: np.ndarray, mean_slope: bool) -> np.ndarray:
    # b_region_probability at means (a, 0) for a >= 0 and c > 0, its slope
    # in a (when `mean_slope` is set, else 0) and its slope in c, as the rows
    # of a (3, n) array laid out as _miss_probability's: the complement of
    # _tail_rule's miss, integrated over [-c, c] itself, for solves at
    # alpha > 1/2.  There the miss nears 1, and 1 - miss would keep the
    # coverage to absolute, not relative, accuracy.  With h_i as in
    # _tail_rule, the coverage is the sum over i of
    #   integral_{-c}^{c} phi(t) h_i(t) dt,
    #   h_0(t) = erf(|t + a| / sqrt 2),
    #   h_1(t) = (erf((|t| + a) / sqrt 2) + erf((|t| - a) / sqrt 2)) / 2,
    # written with erf, not as differences of ndtr values near 1/2, so that h
    # keeps its relative accuracy as t and a near 0.  Coordinate 0 is split
    # at its kink -a when a < c (else its first panel is empty); coordinate 1
    # is even in t, so its split at 0 leaves two mirror images, and it is
    # twice its integral over [0, c].  The c slope is the integrand at the
    # two edges, phi(c) [h_0(c) + h_0(-c) + h_1(c) + h_1(-c)]: the tail rule's
    # edge terms with the sign flipped.  The a slope integrates h_i's slopes
    # sign(t + a) e(t + a) and [e(|t| + a) - e(|t| - a)] / 2, where
    # e(x) = sqrt(2 / pi) exp(-x^2 / 2); h_0's slope jumps at the kink, a panel edge
    from scipy import special  # imported here: only the abs-max rule needs erf

    n, kink = len(a), np.maximum(-a, -c)
    lo, hi = np.stack([-c, kink, np.zeros(n)], axis=-1), np.stack([kink, c, c], axis=-1)
    half = 0.5 * (hi - lo)[..., None]
    t = half * _GL_X  # the nodes, each panel's in a row
    t += 0.5 * (hi + lo)[..., None]
    weight = np.exp(-0.5 * t * t)
    weight *= half * _GL_W
    weight[:, 2] *= 2.0
    out = np.zeros((3, n))
    size = t + a[:, None, None]
    below = t[:, 2] - a[:, None]
    if mean_slope:  # the weights hold exp(-t^2 / 2), and e(x) / sqrt(2 pi) is 1 / pi
        gauss = np.exp(-0.5 * size * size)
        gauss[:, :2] *= np.sign(size[:, :2])
        gauss[:, 2] -= np.exp(-0.5 * below * below)
        gauss[:, 2] *= 0.5
        gauss *= weight
        out[1] = np.add.reduce(gauss.reshape(n, -1), axis=-1) / math.pi
    np.abs(size[:, :2], out=size[:, :2])
    h = special.erf(size * _SQRT_HALF)
    h[:, 2] += special.erf(below * _SQRT_HALF)
    h[:, 2] *= 0.5
    h *= weight
    out[0] = _INV_SQRT_2PI * np.add.reduce(h.reshape(n, -1), axis=-1)
    edges = special.erf(np.stack([c + a, np.abs(c - a), c - a]) * _SQRT_HALF)
    out[2] = _INV_SQRT_2PI * np.exp(-0.5 * c * c) * (2.0 * edges[0] + edges[1] + edges[2])
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
    miss = float(_tail_rule(mu[:1], mu[1:], np.array([float(c)]))[0])
    return min(max(1.0 - miss, 0.0), 1.0)


def _solve_c(a: np.ndarray, c: np.ndarray, alpha: float) -> np.ndarray:
    # c_plus at each a in [0, _A_FLAT] from the start c, skipping the rule's a
    # slope.  For alpha <= 1/2, Newton steps in c on log miss(a, c) = log alpha:
    # log miss is close to quadratic in c (about -c^2 / 2 far in the tail).
    # For alpha > 1/2, steps in log c on log coverage(a, c) = log1p(-alpha),
    # the coverage from _coverage_rule.  As alpha nears 1, c falls toward 0
    # like sqrt(1 - alpha) at a = 0 and like 1 - alpha for large a, and log
    # coverage is close to linear in log c (slope 2 at a = 0, 1 for large a):
    # steps in log c keep c positive from either of _calibrate's starts, and
    # _STEP_TOL bounds each last step relative to c.  From _calibrate's
    # starts every knot of a curve to a = 12 by 0.01 converged within 5 steps
    # at nine alphas from 1e-13 to 1 - 1e-8, on the miss and on the coverage.
    # An element is frozen once its step is below _STEP_TOL, so each result
    # is the one a batch of it alone would give
    on_coverage = alpha > 0.5
    target = math.log1p(-alpha) if on_coverage else math.log(alpha)
    out, todo = np.empty(len(a)), np.arange(len(a))
    for _ in range(_MAX_STEPS):
        if on_coverage:
            cover, _, cover_c = _coverage_rule(a, c, False)
            step = (np.log(cover) - target) * cover / (c * cover_c)
            c = c * np.exp(-step)
        else:
            miss, _, miss_c = _miss_probability(a, c, False)
            step = (np.log(miss) - target) / (miss_c / miss)
            c = c - step
        done = np.abs(step) <= _STEP_TOL  # a NaN step never counts as converged
        out[todo[done]] = c[done]
        if done.all():
            return out
        moving = ~done
        todo, a, c = todo[moving], a[moving], c[moving]
    raise OptimizationError(
        f"abs-max calibration did not converge in {_MAX_STEPS} Newton steps at alpha={alpha}")


def _calibrate(grid_a: np.ndarray, alpha: float) -> np.ndarray:
    # c_plus at each a >= 0.  Both solves read a only through
    # min(a, _A_FLAT), so each distinct such value is solved once and its c
    # is copied to every a that shares it: exact, and a long flat run costs
    # one solve.  Below alpha = 1/2 the solve is on the miss, above it on the
    # coverage, _CHUNK elements at a time so that no pass maps fresh pages.
    # c_plus falls from the two-coordinate Sidak constant s at a = 0 toward
    # the unadjusted constant z, and is near z once a >= s: each a starts at
    # z there and at s below it.  The start depends on a alone, so a curve's
    # knot keeps the bits of the scalar c_plus at its a
    flat, where = np.unique(np.minimum(grid_a, _A_FLAT), return_inverse=True)
    sidak = sidak_halfwidth(2, alpha)
    start = np.where(flat >= sidak, -NORMAL.quantile(alpha / 2.0), sidak)
    if alpha > 0.5:
        return np.concatenate([_solve_c(flat[lo:lo + _CHUNK], start[lo:lo + _CHUNK], alpha)
                               for lo in range(0, len(flat), _CHUNK)])[where]
    return _solve_c(flat, start, alpha)[where]


def c_plus(a: float, alpha: float) -> float:
    """Smallest c with Pr{hit at mean (a, 0)} >= 1 - alpha, for a >= 0.

    The miss probability falls in c from 1 at c = 0, so the calibration is
    its one root: Newton steps on the log miss probability, whose c slope is
    the integrand at the tail edges.  The solve starts at the two-coordinate
    Sidak constant s (the value at a = 0, and the largest over a) when
    a < s, and at the unadjusted constant (the limit as a grows) when
    a >= s.  Above alpha = 1/2 the steps are in log c on the log coverage,
    integrated over [-c, c], so c keeps its relative accuracy as alpha
    nears 1.
    """
    a = _check_real(a, "a", lambda v: 0.0 <= v < math.inf,
                    "be finite and >= 0 (the curve is even: use |a|)")
    alpha = _check_unit(alpha, "alpha")
    return float(_calibrate(np.array([a]), alpha)[0])


def _check_grid(alpha: float, a_max: float, step: float) -> tuple[float, float, int]:
    # alpha and step as floats, and the number of steps from 0 to a_max; its
    # knots are counted before any is allocated
    alpha, step_f = _check_unit(alpha, "alpha"), _check_real(step, "step")
    a_max_f = _check_real(a_max, "a_max")
    if not 0.0 < step_f <= a_max_f:
        raise ValueError(f"need 0 < step <= a_max, got step={step!r}, a_max={a_max!r}")
    steps = a_max_f / step_f  # inf once the ratio overflows
    if not (math.isfinite(steps) and round(steps) < _MAX_GRID):
        raise ValueError(f"a grid from 0 to a_max={a_max!r} by step={step!r} "
                         f"has more than {_MAX_GRID} knots")
    return alpha, step_f, round(steps)


@dataclass(frozen=True, eq=False)
class CPlusCurve:
    """c_plus(a) tabulated at grid_a = 0, step, ..., a_max.

    The curve is even in a.  Construction calibrates the table: it checks
    alpha, a_max and step, moves a_max to the last knot, and solves every
    knot in one batch, each equal to `c_plus` at its a.  The table cannot be
    passed in, and both arrays are read-only: `cplus_curve` hands one cached
    curve to every caller, and `abs_max_interval` starts its endpoint solves
    on it, so a_max and step move where a solve starts, never an endpoint.
    Construction also forms, once, what every such start reads, as tuples
    of Python floats: the lines grid_a + grid_c and grid_a - grid_c,
    grid_a itself, and the quintic coefficients of each run of 6 knots.
    """

    alpha: float
    a_max: float = _A_MAX
    step: float = 0.01
    grid_a: np.ndarray = field(init=False)
    grid_c: np.ndarray = field(init=False)
    # c_plus's limit as a grows (the unadjusted constant), which bounds a start past
    # a_max, and the start tables (see _curve_start), the quintic's rows in one tuple
    _c_inf: float = field(init=False, repr=False)
    _plus: tuple = field(init=False, repr=False)
    _minus: tuple = field(init=False, repr=False)
    _knots: tuple = field(init=False, repr=False)
    _quintic: tuple = field(init=False, repr=False)

    def __post_init__(self):
        alpha, step, n = _check_grid(self.alpha, self.a_max, self.step)
        grid_a = np.linspace(0.0, n * step, n + 1)
        grid_c = _calibrate(grid_a, alpha)
        # row s holds the power coefficients in v of the quintic through
        # knots |s - 2|, ..., |s + 3| (knots mirrored across 0, so it is even
        # there), v = 0 midway between knots s and s + 1; einsum, not
        # matmul: a BLAS call would grow the process by its buffers
        quintic = np.empty((0, 6))
        if n >= 5:
            mirrored = np.concatenate([grid_c[2:0:-1], grid_c])
            quintic = np.einsum("sk,kj->sj", np.lib.stride_tricks.sliding_window_view(
                mirrored, 6), _QUINTIC)
        derived = (("alpha", alpha), ("a_max", float(grid_a[-1])), ("step", step),
                   ("grid_a", grid_a), ("grid_c", grid_c), ("_c_inf", -NORMAL.quantile(alpha / 2)),
                   *zip(("_plus", "_minus", "_knots", "_quintic"), (tuple(table.tolist()) for table
                        in (grid_a + grid_c, grid_a - grid_c, grid_a, quintic.ravel()))))
        grid_a.flags.writeable = grid_c.flags.writeable = False
        for name, value in derived:  # frozen: each derived field is set once, here
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


def _interp(r: float, line: tuple, knots: tuple, right: float) -> float:
    # np.interp(r, line, knots, right=right) on floats, in its order and to its bits
    j = max(bisect.bisect_right(line, r) - 1, 0)  # below the line: knots[0], np.interp's left
    return (knots[j] if r <= line[j] else right if j == len(line) - 1 else
            (knots[j + 1] - knots[j]) / (line[j + 1] - line[j]) * (r - line[j]) + knots[j])


def _curve_start(curve: CPlusCurve, w: float) -> list[float]:
    # c at the start of each endpoint solve (lower, upper) for w >= 0, read
    # off the tabulated curve.  With b = |a|, each endpoint solves
    #   b + sigma c(b) = r:  the lower one, a = b >= 0 when w >= c(0), as
    #   (sigma, r) = (1, w), else a = -b as (-1, -w); the upper one as (-1, w).
    # b + c(b) and b - c(b) are increasing (c's slope lies in (-1, 0]), so
    # _interp on the curve's line b + sigma c(b) inverts the table's linear
    # reading exactly, with c held at its last knot past a_max.  Where 6
    # knots fit around that root, Newton steps on their quintic p (the
    # curve's row of coefficients, read by Horner's rule) then move it to
    # within about 1e-14 of the root on exact c_plus, except where a is near
    # c_plus(a) (a in 2.03 to 2.18 at alpha = 0.05): there the rule's kink
    # panel opens, c_plus is less smooth, and p can be off by up to 2e-6.
    # On a curve of under 6 knots the linear root is the start.
    # Past a_max c_plus still moves at small alpha (by 2.3e-11 beyond the
    # default a_max = 8 at alpha = 1e-6), so there the start is the last
    # quintic read at the linear root, held between c_end and c_plus's limit
    # as a grows (`_c_inf`, the unadjusted constant); the order of max and
    # min sends a NaN, from a quintic read far past the table, to c_end.
    c_0, c_end = float(curve.grid_c[0]), float(curve.grid_c[-1])
    step, stencils = curve.step, curve._quintic
    sign = 1.0 if w >= c_0 else -1.0
    start = [0.0, 0.0]
    for i, (sigma, r) in enumerate(((sign, sign * w), (-1.0, w))):
        line = curve._plus if sigma > 0.0 else curve._minus
        b = _interp(r, line, curve._knots, r - sigma * c_end)
        if b <= curve.a_max and stencils:
            # the row's knots j0, ..., j0 + 5 and v = b / step - (j0 + 2.5);
            # q holds the coefficients in v of b + sigma p(b) - r
            x = b / step
            j0 = min(math.floor(x) - 2, len(stencils) // 6 - 3)
            center = j0 + 2.5
            q0, q1, q2, q3, q4, q5 = stencils[6 * j0 + 12:6 * j0 + 18]
            q0, q1 = sigma * q0 + (step * center - r), sigma * q1 + step
            q2, q3, q4, q5 = sigma * q2, sigma * q3, sigma * q4, sigma * q5
            v = x - center
            for _ in range(_START_STEPS):
                f = q0 + v * (q1 + v * (q2 + v * (q3 + v * (q4 + v * q5))))
                f_v = q1 + v * (2.0 * q2 + v * (3.0 * q3 + v * (4.0 * q4 + v * 5.0 * q5)))
                v -= f / f_v
            b = step * (v + center)
        elif stencils:
            q0, q1, q2, q3, q4, q5 = stencils[-6:]
            v = b / step - (len(stencils) // 6 - 0.5)
            p = q0 + v * (q1 + v * (q2 + v * (q3 + v * (q4 + v * q5))))
            start[i] = max(curve._c_inf, min(c_end, p))
            continue
        # c is held within the table's range: beside a huge step, b loses its
        # low bits to v and the quintic's c can leave it
        start[i] = min(max(sigma * (r - b), c_end), c_0)
    return start


def _invert_endpoints(w: float, alpha: float,
                      curve: CPlusCurve | None) -> list[float]:
    # endpoints for a nonnegative selected value w:
    #   lower = inf{a : a + c(|a|) >= w},  upper = sup{a : a - c(|a|) <= w}
    # c lies in [z, s] and its slope exceeds -1, so a + c(|a|) and a - c(|a|)
    # are increasing and each endpoint is the one solution of a + sigma c = w
    # (sigma 1 lower, -1 upper) with F(|a|, c) = 0, c = c_plus(|a|).  Each is
    # solved by Newton steps in (a, x) from the start c at the ends of the
    # Sidak box, where c = s, or at the root on a curve's reading
    # (`_curve_start`), and a = w - sigma c; the steps iterate against exact
    # c_plus either way, so the curve sets where a solve starts and nothing
    # else.  x = c on the log miss for alpha <= 1/2 and, as _calibrate does,
    # x = log c on the log coverage above it, which keeps the endpoints'
    # relative accuracy as c nears 0.  |a| is held at _A_FLAT beyond it,
    # where the rule keeps its bits and F is flat in a.  Both endpoints share
    # a rule pass per step, and the rest of a step runs on Python floats,
    # which round as numpy's do (but not math.log: the log is numpy's).  An
    # endpoint freezes once both its steps are at most _STEP_TOL (a NaN step
    # never is), and the other goes on alone.  From the Sidak box every solve
    # tried (alpha 1e-13 to 1 - 1e-14, |w| to 1e12) took at most 6 steps;
    # from a curve's start one step mostly confirms the endpoint
    start = (sidak_halfwidth(2, alpha),) * 2 if curve is None else _curve_start(curve, w)
    on_coverage = alpha > 0.5
    rule = _coverage_rule if on_coverage else _miss_probability
    target = math.log1p(-alpha) if on_coverage else math.log(alpha)
    out = [w - start[0], w + start[1]]
    moving = [(0, 1.0, out[0], start[0]), (1, -1.0, out[1], start[1])]
    for _ in range(_MAX_STEPS):
        rows = rule(np.array([min(abs(a), _A_FLAT) for _, _, a, _ in moving]),
                    np.array([c for *_, c in moving]), True)
        still = []
        for (i, sigma, a, c), log_v, v, v_a, v_c in zip(
                moving, np.log(rows[0]).tolist(), *rows.tolist()):
            f, g = log_v - target, a + sigma * c - w
            f_a = (v_a if a > 0.0 else -v_a) / v if 0.0 < abs(a) < _A_FLAT else 0.0
            f_x, g_x = v_c / v, sigma
            if on_coverage:
                f_x, g_x = c * f_x, sigma * c
            det = g_x * f_a - f_x
            step_a = (f_x * g - g_x * f) / det
            step_x = (f - f_a * g) / det
            a += step_a
            c = c * math.exp(step_x) if on_coverage else c + step_x
            if abs(step_a) <= _STEP_TOL and abs(step_x) <= _STEP_TOL:
                out[i] = a
            else:
                still.append((i, sigma, a, c))
        if not still:
            return out
        moving = still
    raise OptimizationError(f"abs-max endpoint solve did not converge in {_MAX_STEPS} "
                            f"Newton steps at w={w}, alpha={alpha}")


def abs_max_interval(y, alpha: float, curve: CPlusCurve | None = None) -> ConfidenceInterval:
    """Interval for the parameter whose estimate has the larger absolute
    value, for independent standard normal errors.

    Endpoints invert the family of acceptance intervals |w - a| <= c_plus(|a|):
    the interval is exactly {a : |w - a| <= c_plus(|a|)}, which is shorter than
    the two-coordinate Sidak box at every w and approaches the unadjusted
    interval for large |w|.  Both endpoints are solved together against
    exact c_plus values at every a, on the miss probability, or above
    alpha = 1/2 on the coverage, as c_plus is, so that they keep their
    relative accuracy as alpha nears 1.  A `curve` only starts each
    endpoint's solve at the root on the tabulated curve, which saves Newton
    steps; without one the solve starts at the Sidak box.  Either start gives
    the same endpoints to within the solve's step tolerance.
    """
    alpha = _check_unit(alpha, "alpha")
    y = _check_real_array(y, "y")
    idx = select_abs_max(y)
    w = y.tolist()[idx]
    if curve is not None:
        if not isinstance(curve, CPlusCurve):
            raise ValueError(f"curve must be a CPlusCurve, got {curve!r}")
        if not math.isclose(curve.alpha, alpha, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"curve was built for alpha={curve.alpha}, got {alpha}")
    lo, hi = _invert_endpoints(abs(w), alpha, curve)
    if w < 0.0:
        lo, hi = -hi, -lo
    return ConfidenceInterval(idx, lo, hi, "abs_max")
