"""Independent numerical oracles for the test suite.

These deliberately avoid the code paths used by the package: the normal CDF
is a Taylor series (no erf/erfc), quantiles come from plain bisection,
the Student-t CDF integrates the density directly, and the abs-max region
probability and the larger-of-two miss probability are adaptive quadrature
over math.erfc (the package uses a fixed Gauss-Legendre rule over scipy's
ndtr).  The exact top-k miss rates of independent normal estimators are a
one-dimensional integral that the package never forms: its coverage engine,
which they check, samples them and calls no normal CDF.  That integral
borrows the package's Gauss-Legendre nodes and scipy's ndtr.  The abs-max
start, `curve_start`, borrows the package's quintic basis but none of a
curve's precomputed tables: it gathers and contracts each stencil per call.
Expected values frozen into tests were produced by these functions.

`general_miss_rule` is the abs-max tail rule at any two means with its
slopes in the first mean and in c, the rule the package's mean-0 rule
(`bivariate._zero_mean_rule`) and its value-only rule (`bivariate._tail_rule`)
must match to the bit.  It borrows the package's panels (`_panels`: bounds,
nodes and weights) and row sums (`_sum_rows`), so a bit test compares only
what each rule computes itself, and it evaluates every node and sign that
the mean-0 rule mirrors or skips.

The one exception is `estimate_b_probability`, a Monte-Carlo check of the
abs-max region probability.  It reuses the package's sampler, abs-max
selection and miss counter on purpose: what it checks is the quadrature, by
an independent route (simulation), and its frozen hit counts pin that
sampler's draw order and tie rule.
"""

import math

import numpy as np
from scipy import integrate, special

from sosci.baselines import method_offsets
from sosci.bivariate import _GL_W, _GL_X, _QUINTIC, _panels, _sum_rows
from sosci.dist import _check_int, _check_mean_pair, draw_replicates, seeded_rng
from sosci.mc import _STREAM_REPS, _block_sizes, _count_misses
from sosci.select import abs_max_index


def series_normal_cdf(x: float) -> float:
    """Phi(x) = 1/2 + phi(x) * sum_{n>=0} x^(2n+1) / (1*3*...*(2n+1)).

    Converges quickly for |x| <= 10; good to ~1e-15 there.
    """
    if x < -12.0:
        return 0.0
    if x > 12.0:
        return 1.0
    term = x
    total = x
    n = 0
    while abs(term) > 1e-18 * max(abs(total), 1.0):
        n += 1
        term *= x * x / (2 * n + 1)
        total += term
        if n > 500:
            raise RuntimeError("series did not converge")
    dens = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 0.5 + dens * total


def bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if flo * f(hi) > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def bisect_normal_quantile(p: float) -> float:
    return bisect_root(lambda x: series_normal_cdf(x) - p, -12.0, 12.0)


def t_cdf_quad(x: float, df: int) -> float:
    """CDF by integrating the density from 0 (symmetry pins the constant).

    In the angle theta = atan(t / sqrt(df)) the density becomes
    C cos(theta)^(df - 1), C = Gamma((df + 1) / 2) / (sqrt(pi) Gamma(df / 2)):
    a bounded integrand on a finite range, so the rule converges even for
    df = 1 far in the tails, where the density itself decays too slowly.
    """
    const = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(math.pi)
    val, _ = integrate.quad(lambda theta: math.cos(theta) ** (df - 1),
                            0.0, math.atan(x / math.sqrt(df)), epsabs=1e-12)
    return 0.5 + const * val


def b_region_quad(mu, c: float) -> float:
    """Abs-max region probability Pr{|Y_sel - mu_sel| <= c}, Y ~ N(mu, I_2),
    by adaptive quadrature of each coordinate's term, conditioned on
    Y_i = mu_i + t, with the |t + mu_i| kink passed as a break point:
      integral_{-c}^{c} phi(t) [Phi(|t + mu_i| - mu_j) - Phi(-|t + mu_i| - mu_j)] dt
    """
    def dens(t: float) -> float:
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    total = 0.0
    for mu_i, mu_j in ((mu[0], mu[1]), (mu[1], mu[0])):
        def integrand(t: float) -> float:
            u = abs(t + mu_i)
            return dens(t) * (cdf(u - mu_j) - cdf(-u - mu_j))

        points = [-mu_i] if -c < -mu_i < c else None
        val, _ = integrate.quad(integrand, -c, c, points=points,
                                epsabs=1e-13, epsrel=1e-13, limit=400)
        total += val
    return total


def larger_of_two_miss_quad(g: float, c: float) -> float:
    """Miss probability of the interval [w - c, w + c] around the larger of
    Y ~ N((g, 0), I_2), by adaptive quadrature over math.erfc.  Conditioning
    on the selected coordinate's error t, it is
      integral_{|t| > c} phi(t) [Phi(t + g) + Phi(t - g)] dt,
    the first term selecting coordinate 0 and the second coordinate 1.
    """
    def dens(t: float) -> float:
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    def integrand(t: float) -> float:
        return dens(t) * (cdf(t + g) + cdf(t - g))

    return sum(integrate.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
               for lo, hi in ((-math.inf, -c), (c, math.inf)))


_SIGNS = np.array([1.0, -1.0])[:, None, None]  # the sign axis of the rule's (i, sign, element, t)


def general_miss_rule(mu_0: np.ndarray, mu_1: np.ndarray, c: np.ndarray,
                      mean_slopes: bool) -> np.ndarray:
    """The abs-max tail rule at any means (mu_0, mu_1), with its slopes: for
    each element, 1 - b_region_probability, its slope in mu_0 (when
    `mean_slopes` is set, else 0) and its slope in c, as the rows of a
    (3, n) array.  It takes the package's panels and row sums, but forms
    every coordinate's integrand, at both signs of |t + mu_i|, over all
    three panels of both coordinates and at both tail edges, where the
    package's mean-0 rule computes each distinct value once and mirrors the
    rest.  The c slope is the integrand at the two tail edges,
    -phi(c) [h(c) + h(-c)].
    """
    n, nodes = len(mu_0), 3 * len(_GL_X)
    # each array runs over (coordinate i, element, ...)
    means = np.stack([mu_0, mu_1])
    mu_i, mu_j = np.abs(means), means[::-1]
    c, c_2, bounds, panels, weight = _panels(mu_i, c)
    # each t + mu_i: its 3 panels of nodes, then the tail edges c and -c
    t = np.empty((2, n, nodes + 2))
    np.add(panels.reshape(2, n, nodes), mu_i[..., None], out=t[..., :nodes])
    np.add(bounds[..., 4:2:-1], mu_i[..., None], out=t[..., nodes:])
    # Phi(+/-|t + mu_i| - mu_j) at every node and edge, over (coordinate,
    # sign, element, node)
    z = np.abs(t)[:, None] * _SIGNS
    z -= mu_j[:, None, :, None]
    cdf = special.ndtr(z)
    h = cdf[:, 0] - cdf[:, 1]
    rows = np.empty((2, n, 1 + mean_slopes, nodes))
    rows[..., 0, :] = h[..., :nodes]
    if mean_slopes:
        # sqrt(2 pi) phi(|t + mu_i| - mu_j) and sqrt(2 pi) phi(-|t + mu_i| - mu_j);
        # each coordinate's slope in the mean the miss moves with:
        # coordinate 0's in its mu_i, coordinate 1's in its mu_j
        near = z ** 2
        near *= -0.5
        np.exp(near, out=near)
        near, away = near[:, 0, :, :nodes], near[:, 1, :, :nodes]
        np.multiply(np.sign(t[0])[:, :nodes], near[0] + away[0], out=rows[0, :, 1])
        np.subtract(away[1], near[1], out=rows[1, :, 1])
    rows *= weight.reshape(2, n, 1, nodes)
    return _sum_rows(rows, h[..., nodes] + h[..., nodes + 1], c_2, mu_0)


def curve_start(curve, w: float) -> np.ndarray:
    """c at the start of the abs-max endpoint solves (lower, upper) for
    w >= 0, read off a tabulated curve in a vectorized form that shares no
    table with the package's start: both endpoints at once, each one's 6
    knots gathered from the curve's grid and contracted with the quintic
    basis and its slope basis, and two Newton steps in the power basis.
    On a curve of under 6 knots the root of the linear reading is the
    start.  Past a_max the start is the quintic through the last 6 knots,
    read at that root and held between the unadjusted constant and the
    last knot's c."""
    grid_a, grid_c, step = curve.grid_a, curve.grid_c, curve.step
    basis = np.zeros((6, 6, 2))
    basis[:, :, 0] = _QUINTIC
    basis[:, :5, 1] = _QUINTIC[:, 1:] * np.arange(1.0, 6.0)
    last, c_end = len(grid_a) - 1, float(grid_c[-1])
    sign = 1.0 if w >= grid_c[0] else -1.0
    sigma, r = np.array([sign, -1.0]), np.array([sign * w, w])
    b = np.array([np.interp(sign * w, grid_a + sign * grid_c, grid_a, right=sign * (w - c_end)),
                  np.interp(w, grid_a - grid_c, grid_a, right=w + c_end)])
    if last >= 5:
        x = np.minimum(b, curve.a_max) / step
        j0 = np.minimum(np.floor(x) - 2.0, last - 5.0)
        knots = np.abs(j0[:, None] + np.arange(6.0)).astype(int)
        g = sigma[:, None, None] * np.einsum("ik,kjl->ijl", grid_c[knots], basis)
        center = j0 + 2.5
        g[:, 0, 0] += step * center - r
        g[:, 0, 1] += step
        g[:, 1, 0] += step
        v = x - center
        for _ in range(2):
            f, f_v = np.einsum("ij,ijl->li", v[:, None] ** np.arange(6.0), g)
            v -= f / f_v
        past = b > curve.a_max
        b = np.where(past, b, step * (v + center))
        v_end = b / step - (last - 2.5)  # v about the midpoint of the last 6 knots
        c_past = np.zeros(2)
        with np.errstate(over="ignore", invalid="ignore"):
            # Horner's rule; einsum sums over the knots as the curve's table does
            for coef in np.einsum("k,kj->j", grid_c[last - 5:], _QUINTIC)[::-1]:
                c_past = c_past * v_end + coef
        c_inf = method_offsets("unadjusted", 2, 1, curve.alpha)[0]
        c_past = np.where(np.isnan(c_past), c_end, np.clip(c_past, c_inf, c_end))
        return np.where(past, c_past, np.clip(sigma * (r - b), c_end, grid_c[0]))
    return np.clip(sigma * (r - b), c_end, grid_c[0])


def estimate_b_probability(mu, c: float, reps: int, seed: int) -> float:
    """Monte-Carlo check of `b_region_probability`: fraction of N(mu, I_2)
    draws whose abs-max coordinate lands within c of its own mean."""
    mu = _check_mean_pair(mu, c)
    _check_int(reps, "reps", 1)
    c_both = np.full(2, float(c))
    misses = 0
    for block, size in enumerate(_block_sizes(reps)):
        y = draw_replicates(seeded_rng(seed, _STREAM_REPS, block), mu, np.eye(2), size, None)
        cols = abs_max_index(y)[:, None]
        misses += _count_misses(np.take_along_axis(y, cols, axis=1), mu[cols], cols,
                                c_both, c_both)[0]
    return (reps - misses) / reps


def grid_argmin(f, lo: float, hi: float, n: int) -> tuple[float, float]:
    best_x, best_f = lo, f(lo)
    for i in range(1, n):
        x = lo + (hi - lo) * i / (n - 1)
        fx = f(x)
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f


def _shifted(p: np.ndarray) -> np.ndarray:
    # x p(x), truncated to p's degree; coefficients along the last axis
    out = np.zeros_like(p)
    out[..., 1:] = p[..., :-1]
    return out


def _leave_one_out_coefficient(f: np.ndarray, h: np.ndarray, d: np.ndarray, k: int):
    # For each kind, node and j, the x^k coefficient of
    #   prod_{i != j} (f_i + x (h_i + eps d_i)),   eps^2 = 0,
    # as its real and eps parts, each of shape (kinds, nodes, m).  f is
    # (nodes, m), h and d are (kinds, nodes, m).  Prefix and suffix products
    # give every j from 2 m products of degree-k polynomials.
    kinds, nodes, m = h.shape
    empty = np.zeros((kinds, nodes, k + 1))
    empty[..., 0] = 1.0

    def products(order):
        out = [(empty, np.zeros_like(empty))]
        for i in order:
            p, q = out[-1]
            fi, hi, di = f[:, i, None], h[:, :, i, None], d[:, :, i, None]
            out.append((fi * p + hi * _shifted(p), fi * q + hi * _shifted(q) + di * _shifted(p)))
        return out

    before = products(range(m))  # before[j]: the product over i < j
    after = products(reversed(range(m)))[::-1]  # after[j]: the product over i >= j
    real, dual = np.empty((2, kinds, nodes, m))
    for j in range(m):
        (bp, bq), (ap, aq) = before[j], after[j + 1]
        real[..., j] = np.sum(bp * ap[..., ::-1], axis=-1)
        dual[..., j] = np.sum(bp * aq[..., ::-1] + bq * ap[..., ::-1], axis=-1)
    return real, dual


def exact_sos_miss(theta, k: int, c_lo: float, c_up: float) -> dict:
    """Exact miss rates of the intervals [y_i - c_lo, y_i + c_up] around the
    k largest of independent estimates Y_i ~ N(theta_i, 1), under the names
    `CoverageReport` gives them: the SoS rate (some selected interval
    misses), the lower- and upper-miss rates (some selected interval lies
    above, or below, its parameter) and the FCR (the expected fraction of
    selected intervals that miss).

    Conditioning on the (k+1)-th largest estimate T = t and its index j,
    every other coordinate i lies below t with probability
    F_i(t) = Phi(t - theta_i), and lies above t with a covering interval with
    probability g_i(t) = [Phi(c_lo) - Phi(max(t - theta_i, -c_up))]_+, so the
    coverage is
      sum_j integral phi(t - theta_j) [x^k] prod_{i != j} (F_i(t) + x g_i(t)) dt.
    The lower and upper rates take the one-sided g_i.  The FCR's expected
    count of covering intervals is the eps part of the same coefficient with
    factors F_i + x (1 - F_i + eps g_i), eps^2 = 0.  The integral runs over
    the 28-node Gauss-Legendre rule on panels at most 2 wide, split at every
    kink theta_i - c_up and theta_i + c_lo, within 10 of the parameters.  At
    k = m every estimate is selected, and each rate is a product over the
    independent coordinates.  Rates come as 1 - coverage, so a tiny rate
    keeps only absolute accuracy.
    """
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    c_lo, c_up = float(c_lo), float(c_up)
    no_low, no_up = special.ndtr(c_lo), special.ndtr(c_up)
    cover = no_low - special.ndtr(-c_up)
    if k == m:
        return {"sos_rate": 1.0 - cover ** m, "lower_miss_rate": 1.0 - no_low ** m,
                "upper_miss_rate": 1.0 - no_up ** m, "fcr_rate": 1.0 - cover}
    lo, hi = theta.min() - 10.0, theta.max() + 10.0
    kinks = np.concatenate([theta - c_up, theta + c_lo, [lo, hi]])
    edges = np.unique(np.clip(kinks, lo, hi))
    edges = np.concatenate([np.linspace(a, b, int(np.ceil(0.5 * (b - a))) + 1)[:-1]
                            for a, b in zip(edges[:-1], edges[1:])] + [edges[-1:]])
    half = 0.5 * np.diff(edges)[:, None]
    t = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * _GL_X).ravel()
    z = t[:, None] - theta  # (nodes, m): each coordinate's error at T = t
    weight = (half * _GL_W).ravel()[:, None] * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    z_up = np.maximum(z, -c_up)
    h = np.stack([
        np.maximum(no_low - special.ndtr(z_up), 0.0),  # above t, covering
        np.maximum(no_low - special.ndtr(z), 0.0),  # above t, not missing low
        special.ndtr(-z_up),  # above t, not missing high
        special.ndtr(-z),  # above t
    ])
    d = np.zeros_like(h)
    d[3] = h[0]
    real, dual = _leave_one_out_coefficient(special.ndtr(z), h, d, k)
    # a rate near 0 can round a few eps below it
    sos, low, up, _ = np.maximum(1.0 - np.sum(weight * real, axis=(1, 2)), 0.0)
    covered = np.sum(weight * dual[3])
    return {"sos_rate": sos, "lower_miss_rate": low, "upper_miss_rate": up,
            "fcr_rate": max(1.0 - covered / k, 0.0)}
