"""Distribution kernels and seeded samplers.

Everything downstream (interval constructions, the coverage engine) funnels
through this module, so the contracts here are strict: CDFs and quantiles are
accurate far into the tails, and every sampler is a pure function of
(parameters, seed) with byte-identical replay.

The normal CDF and quantile need only the standard library: the quantile is
Wichura's AS241 with one Newton step on `math.erfc` in the tails.  scipy is
imported where it is used, so only a t family's quantile (`stdtrit`) loads
`scipy.special`; the abs-max quadrature in `bivariate` does the same for
`ndtr`.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from math import erfc
from statistics import _normal_dist_inv_cdf as _as241  # AS241, C where built
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "NotPositiveDefiniteError",
    "ShiftFamily",
    "CovarianceModel",
    "NORMAL",
    "student_t_family",
    "std_normal_cdf",
    "std_normal_quantile",
    "student_t_quantile",
    "cholesky",
    "draw_replicates",
    "sample_mvn",
    "seeded_rng",
]

_SQRT2 = math.sqrt(2.0)


class NotPositiveDefiniteError(Exception):
    """A matrix that must be symmetric positive definite is not."""


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; relative accuracy holds in both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, within 4 ulp of a 40-digit root for p in (0, 1).

    The start is Wichura's AS241 (Appl. Statist. 37 (1988) 477-484), called
    as the C routine behind `statistics.NormalDist.inv_cdf`.  AS241 alone
    errs by up to 6 ulp in its tail branches, so where p or 1 - p is below
    5/64 one Newton step on `math.erfc` follows.  The step takes the slope
    phi(x) as p (|x| + 0.4): for |x| >= 1.4 the tail hazard phi(x) / Phi(-|x|)
    lies within 4.2% of |x| + 0.4, so the step removes all but 4.2% of
    AS241's error, and it needs no exp(x^2 / 2), which overflows at
    subnormal p.  Below the least normal double the residual would be formed
    from subnormals, so AS241's value stands there.

    AS241 is odd in p - 1/2 to the bit, and the upper-tail step mirrors the
    lower one on 1 - p (exact for p >= 1/2), so q(p) == -q(1 - p) exactly.
    A real p in (0, 1) of any type is read as a float and a float comes back;
    anything else raises `_check_unit`'s ValueError.
    """
    if p.__class__ is not float:  # numpy scalars, ints, bools, strings
        _check_unit(p, "p")
        p = float(p)
    # the checks below are _check_unit's, written out for floats: every offset
    # calls this.  5/64 is a double whose complement 59/64 is one too, so the
    # upper tail is exactly the mirror image of the lower
    if p < 0.078125:
        if p >= 2.2250738585072014e-308:  # the least normal double
            x = _as241(p, 0.0, 1.0)
            # x - (Phi(x) - p) / (p (|x| + 0.4)), with Phi(x) = erfc(-x / sqrt 2) / 2
            return x + (p - 0.5 * erfc(x * -0.7071067811865476)) / (p * (0.4 - x))
        if p > 0.0:
            return _as241(p, 0.0, 1.0)
    elif p > 0.921875:
        if p < 1.0:
            x = _as241(p, 0.0, 1.0)
            s = 1.0 - p
            return x - (s - 0.5 * erfc(x * 0.7071067811865476)) / (s * (0.4 + x))
    elif p == p:  # not NaN
        return _as241(p, 0.0, 1.0)
    raise ValueError(f"p must lie in (0, 1), got {p!r}")


# Argument checks: public entry points check each argument once, before any work.

_MAX_GRID = 10**6  # the most points a grid argument may expand to, checked before allocating
# the largest simulated m: the covariance build peaks at about five m x m
# float arrays, 640 MiB at m = 4096
_MAX_DIM = 4096
_MAX_JOBS = 64  # the most worker threads a coverage run may start


def _check_int(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """`value` as an int in [`least`, `most`] (either bound may be None);
    bools and fractions raise ValueError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}, got {number}")
    if most is not None and number > most:
        raise ValueError(f"{name} must be at most {most}, got {number}")
    return number


def _check_real(value, name: str, test=math.isfinite, what: str = "be a finite number"):
    """`value` as a float if it is a number (not a bool) that passes `test`
    and converts to a float, else ValueError."""
    try:
        ok = not isinstance(value, bool) and test(value)
        number = float(value)  # an int past the float range passes most tests
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must {what}, got {value!r}")
    return number


def _check_real_array(values, name: str) -> np.ndarray:
    """`values` as a float array if its dtype is real (int or float), else
    ValueError: strings, bools and objects are not parsed.  Only the dtype is
    read, so an array argument costs nothing extra; shape and finiteness are
    the caller's to check."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def _check_unit(value, name: str) -> None:
    # written out, not through _check_real: every t quantile call runs it
    try:
        if 0.0 < value < 1.0:
            return
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _check_mk(m: int, k: int) -> None:
    m, k = _check_int(m, "m"), _check_int(k, "k")
    if m > sys.float_info.max:  # tail levels divide alpha by m as a float
        raise ValueError(f"m must be at most {sys.float_info.max!r}, "
                         f"got an integer of {m.bit_length()} bits")
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")


def _check_family(family) -> None:
    if not isinstance(family, ShiftFamily):
        raise ValueError(f"family must be a ShiftFamily, got {family!r}")


def _check_mean_pair(mu, c) -> np.ndarray:
    """`mu` as two finite means, after checking that c >= 0 (inf included)."""
    mu = _check_real_array(mu, "mu")
    if mu.shape != (2,) or not np.all(np.isfinite(mu)):
        raise ValueError("mu must be two finite means")
    _check_real(c, "c", lambda v: v >= 0.0, "be >= 0")
    return mu


def student_t_quantile(p: float, df: int) -> float:
    from scipy import special  # imported here: only t families load scipy

    df = _check_int(df, "df", 1)
    _check_unit(p, "p")
    return float(special.stdtrit(df, p))


@dataclass(frozen=True)
class ShiftFamily:
    """A symmetric location family: Y = theta + E with E ~ F0, F0(-x) = 1 - F0(x).

    An interval around a shift estimate needs only F0's `quantile`; replicate
    draws come from `draw_replicates`.
    """

    name: str
    quantile: Callable[[float], float]


def student_t_family(df: int) -> ShiftFamily:
    df = _check_int(df, "df", 1)
    return ShiftFamily(f"student_t({df})", lambda p: student_t_quantile(p, df))


NORMAL = ShiftFamily("normal", std_normal_quantile)

_COV_KINDS = ("ar", "time_decay", "block")


@dataclass(frozen=True)
class CovarianceModel:
    """Parametric covariance structure; realized by `mc.build_covariance`.

    kind "ar":         Sigma_ij = rho ** |i - j|, rho in (-1, 1)
    kind "time_decay": Sigma = D^{1/2} S D^{1/2} with S_ij = |i-j|^{-5} / 2
                       off-diagonal, unit diagonal, and D diagonal with
                       entries drawn Uniform(1, 3) from the model seed
    kind "block":      unit diagonal, rho within consecutive blocks of
                       `block_size` coordinates, zero across blocks

    A parameter that its kind does not read must keep its default: rho 0.0
    on time_decay, block_size 10 on ar and time_decay.
    """

    kind: str
    dimension: int
    rho: float = 0.0
    block_size: int = 10

    def __post_init__(self):
        if self.kind not in _COV_KINDS:
            raise ValueError(f"unknown covariance kind {self.kind!r}")
        _check_int(self.dimension, "dimension", 1)
        _check_int(self.block_size, "block_size", 1)
        _check_real(self.rho, "rho")
        if self.kind == "ar" and not -1.0 < self.rho < 1.0:
            raise ValueError(f"ar rho must lie in (-1, 1), got {self.rho!r}")
        if self.kind == "block" and not 0.0 <= self.rho < 1.0:
            raise ValueError(f"block rho must lie in [0, 1), got {self.rho!r}")
        if self.kind == "block" and self.dimension % self.block_size:
            raise ValueError("dimension must be a positive multiple of block_size")
        if self.kind == "time_decay" and self.rho != 0.0:
            raise ValueError(f"rho is not read by kind time_decay, so it must be 0.0, "
                             f"got {self.rho!r}")
        if self.kind != "block" and self.block_size != 10:
            raise ValueError(f"block_size is not read by kind {self.kind}, so it must be "
                             f"10, got {self.block_size!r}")


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream); seed is an integer >= 0.

    Distinct stream tags give statistically independent streams from one
    master seed, so parallel and sequential runs can draw identical numbers.
    """
    seq = np.random.SeedSequence(_check_int(seed, "seed", 0), spawn_key=stream)
    return np.random.Generator(np.random.Philox(seq))


def cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises NotPositiveDefiniteError on failure."""
    sigma = _check_real_array(sigma, "sigma")
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"sigma must be a square matrix, got shape {sigma.shape}")
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-10):
        raise ValueError("sigma must be symmetric")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def draw_replicates(rng: np.random.Generator, theta: np.ndarray, lower: np.ndarray,
                    size: int, df: int | None, *, out: np.ndarray | None = None,
                    normals: np.ndarray | None = None) -> np.ndarray:
    """size x m draws of theta + L z from `rng`, with L the lower Cholesky factor.

    With df None the rows are N(theta, L L^T).  With an integer df each row is
    divided by sqrt(W / df) for one chi-square(df) W per row, so marginals are
    t(df) scaled by the row norms of L.  Draw order (z block, then W) is fixed
    for replay stability.

    `out` (size x m, which may be a column slice of a wider block) receives
    the draws and `normals` (size x m, C-contiguous) holds z, in numpy's `out=`
    style; each is allocated when left out.  The bits do not depend on which
    buffers are passed.
    """
    if normals is None:
        normals = np.empty((size, theta.size))
    rng.standard_normal(out=normals)
    out = np.matmul(normals, lower.T, out=out)
    if df is not None:
        out /= np.sqrt(rng.chisquare(df, size) / df)[:, None]
    out += theta
    return out


def sample_mvn(theta: Sequence[float], sigma: np.ndarray, reps: int, seed) -> np.ndarray:
    """reps x m draws of N(theta, sigma); rows are independent replicates."""
    theta = _check_real_array(theta, "theta")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    lower = cholesky(sigma)
    if theta.shape != (lower.shape[0],):
        raise ValueError("theta and sigma dimensions disagree")
    _check_int(reps, "reps", 1)
    return draw_replicates(seeded_rng(seed), theta, lower, reps, None)
