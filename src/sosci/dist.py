"""Distribution kernels and seeded samplers.

Everything downstream (interval constructions, the coverage engine) funnels
through this module, so the contracts here are strict: CDFs and quantiles are
accurate far into the tails, and every sampler is a pure function of
(parameters, seed) with byte-identical replay.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

__all__ = [
    "NotPositiveDefiniteError",
    "ShiftFamily",
    "CovarianceModel",
    "NORMAL",
    "normal_family",
    "student_t_family",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "student_t_cdf",
    "student_t_quantile",
    "cholesky",
    "draw_replicates",
    "sample_mvn",
    "sample_mvt",
    "seeded_rng",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class NotPositiveDefiniteError(Exception):
    """A matrix that must be symmetric positive definite is not."""


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; relative accuracy holds in both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def std_normal_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (scipy's `ndtri`, accurate to a few ulp)."""
    _check_unit(p, "p")
    return float(special.ndtri(p))


# Argument checks: public entry points check each argument once, before any work.

def _check_int(value, name: str, least: int | None = None) -> int:
    """`value` as an int >= `least`; bools and fractions raise ValueError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}, got {number}")
    return number


def _check_real(value, name: str, test=math.isfinite, what: str = "be a finite number"):
    """`value` if it is a number (not a bool) that passes `test`, else ValueError."""
    try:
        ok = not isinstance(value, bool) and test(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must {what}, got {value!r}")
    return value


def _check_unit(value, name: str) -> None:
    # written out, not through _check_real: every quantile call runs it
    try:
        if 0.0 < value < 1.0:
            return
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _check_mk(m: int, k: int) -> None:
    m, k = _check_int(m, "m"), _check_int(k, "k")
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")


def _check_family(family) -> None:
    if not isinstance(family, ShiftFamily):
        raise ValueError(f"family must be a ShiftFamily, got {family!r}")


def _check_mean_pair(mu, c) -> np.ndarray:
    """`mu` as two finite means, after checking that c >= 0 (inf included)."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (2,) or not np.all(np.isfinite(mu)):
        raise ValueError("mu must be two finite means")
    _check_real(c, "c", lambda v: v >= 0.0, "be >= 0")
    return mu


def student_t_cdf(x: float, df: int) -> float:
    """Student-t CDF with integer df >= 1."""
    return float(special.stdtr(_check_int(df, "df", 1), x))


def student_t_quantile(p: float, df: int) -> float:
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


def normal_family() -> ShiftFamily:
    return ShiftFamily("normal", std_normal_quantile)


def student_t_family(df: int) -> ShiftFamily:
    df = _check_int(df, "df", 1)
    return ShiftFamily(f"student_t({df})", lambda p: student_t_quantile(p, df))


NORMAL = normal_family()

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


def seeded_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream); seed is an integer >= 0.

    Distinct stream tags give statistically independent streams from one
    master seed, so parallel and sequential runs can draw identical numbers.
    """
    seq = np.random.SeedSequence(_check_int(seed, "seed", 0), spawn_key=stream)
    return np.random.Generator(np.random.Philox(seq))


def cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises NotPositiveDefiniteError on failure."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"sigma must be a square matrix, got shape {sigma.shape}")
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-10):
        raise ValueError("sigma must be symmetric")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def draw_replicates(rng: np.random.Generator, theta: np.ndarray, lower: np.ndarray,
                    size: int, df: int | None) -> np.ndarray:
    """size x m draws of theta + L z from `rng`, with L the lower Cholesky factor.

    With df None the rows are N(theta, L L^T).  With an integer df each row is
    divided by sqrt(W / df) for one chi-square(df) W per row, so marginals are
    t(df) scaled by the row norms of L.  Draw order (z block, then W) is fixed
    for replay stability.
    """
    z = rng.standard_normal((size, theta.size))
    if df is None:
        return theta + z @ lower.T
    w = rng.chisquare(df, size)
    return theta + (z @ lower.T) / np.sqrt(w / df)[:, None]


def _sample(theta, sigma: np.ndarray, reps: int, seed, df: int | None) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    lower = cholesky(sigma)
    if theta.shape != (lower.shape[0],):
        raise ValueError("theta and sigma dimensions disagree")
    _check_int(reps, "reps", 1)
    return draw_replicates(seeded_rng(seed), theta, lower, reps, df)


def sample_mvn(theta: Sequence[float], sigma: np.ndarray, reps: int, seed) -> np.ndarray:
    """reps x m draws of N(theta, sigma); rows are independent replicates."""
    return _sample(theta, sigma, reps, seed, None)


def sample_mvt(theta: Sequence[float], sigma: np.ndarray, df: int, reps: int, seed) -> np.ndarray:
    """Multivariate-t draws: one chi-square mixing variable per replicate row
    (see `draw_replicates`)."""
    return _sample(theta, sigma, reps, seed, _check_int(df, "df", 1))
