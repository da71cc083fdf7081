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
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    return float(special.ndtri(p))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _check_int(value, name: str) -> int:
    """`value` as an int; bools and non-integral values raise ValueError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_mk(m: int, k: int) -> None:
    # plain ints skip the helper: this runs in optimize_delta's search loop
    if m.__class__ is not int or k.__class__ is not int:
        m, k = _check_int(m, "m"), _check_int(k, "k")
    if m < 1 or k < 1 or k > m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")


def _check_df(df) -> int:
    if not float(df).is_integer() or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    return int(df)


def student_t_cdf(x: float, df: int) -> float:
    """Student-t CDF with integer df >= 1."""
    return float(special.stdtr(_check_df(df), x))


def student_t_quantile(p: float, df: int) -> float:
    df = _check_df(df)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
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
    df = _check_df(df)
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
        _check_int(self.dimension, "dimension")
        _check_int(self.block_size, "block_size")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "ar" and not -1.0 < self.rho < 1.0:
            raise ValueError(f"ar rho must lie in (-1, 1), got {self.rho!r}")
        if self.kind == "block" and not 0.0 <= self.rho < 1.0:
            raise ValueError(f"block rho must lie in [0, 1), got {self.rho!r}")
        if self.kind == "block":
            if self.block_size < 1 or self.dimension % self.block_size:
                raise ValueError("dimension must be a positive multiple of block_size")


def seeded_rng(seed, *stream: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream).

    Distinct stream tags give statistically independent streams from one
    master seed, so parallel and sequential runs can draw identical numbers.
    A Generator passed as `seed` is returned unchanged (stream must be empty).
    """
    if isinstance(seed, np.random.Generator):
        if stream:
            raise ValueError("stream tags require an integer master seed")
        return seed
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(s) for s in stream))
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
    lower = cholesky(sigma)
    if theta.shape != (lower.shape[0],):
        raise ValueError("theta and sigma dimensions disagree")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    return draw_replicates(seeded_rng(seed), theta, lower, reps, df)


def sample_mvn(theta: Sequence[float], sigma: np.ndarray, reps: int, seed) -> np.ndarray:
    """reps x m draws of N(theta, sigma); rows are independent replicates."""
    return _sample(theta, sigma, reps, seed, None)


def sample_mvt(theta: Sequence[float], sigma: np.ndarray, df: int, reps: int, seed) -> np.ndarray:
    """Multivariate-t draws: one chi-square mixing variable per replicate row
    (see `draw_replicates`)."""
    return _sample(theta, sigma, reps, seed, _check_df(df))
