"""Independent numerical oracles for the test suite.

These deliberately avoid the code paths used by the package: the normal CDF
is a Taylor series (no erf/erfc), quantiles come from plain bisection,
the Student-t CDF integrates the density directly, and the abs-max region
probability is adaptive quadrature over math.erfc (the package uses a fixed
Gauss-Legendre rule over scipy's ndtr).  Expected values frozen into tests
were produced by these functions.

The one exception is `estimate_b_probability`, a Monte-Carlo check of the
abs-max region probability.  It reuses the package's sampler, abs-max
selection and miss counter on purpose: what it checks is the quadrature, by
an independent route (simulation), and its frozen hit counts pin that
sampler's draw order and tie rule.
"""

import math

import numpy as np
from scipy import integrate

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
