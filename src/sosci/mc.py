"""Monte-Carlo coverage engine.

Replicates are drawn in fixed-size blocks, and block b always comes from the
generator `seeded_rng(seed, _STREAM_REPS, b)`.  Counts are integers summed
over blocks, so results are byte-identical on replay and independent of
execution order: running blocks across a thread pool (`n_jobs > 1`) gives
exactly the sequential answer.

One pass serves every method asked for: each block is drawn once, each
selection rule is applied to it once and gathers the selected estimates and
parameters once, and each method counts its misses on those, so a
multi-method run reports the same counts as one run per method at the cost
of one.

Each thread draws its blocks into two float buffers that it keeps across
blocks and calls, so a block reuses memory that is already mapped.  A thread
keeps them after a call only while they hold at most 64 MiB together; the
counts never depend on them.

Three dedicated streams are derived from one scenario seed: the covariance
realization (for models with random parameters), the parameter draw, and the
replicate blocks.  Everything downstream is a pure function of the scenario.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .baselines import MethodLabel, method_offsets, method_tail_levels
from .baselines import fcw_constants  # noqa: F401  (bench/tracer.py wraps it by this name)
from .bivariate import _calibrate
from .bivariate import c_plus  # noqa: F401  (bench/tracer.py wraps it by this name)
from .dist import (
    _MAX_DIM,
    _MAX_GRID,
    _MAX_JOBS,
    NORMAL,
    CovarianceModel,
    _check_int,
    _check_mk,
    _check_real,
    _check_unit,
    cholesky,
    draw_replicates,
    seeded_rng,
    student_t_family,
)
from .select import selected_entries

__all__ = [
    "Scenario",
    "CoverageReport",
    "build_covariance",
    "resolve_theta",
    "run_coverage",
    "scenario_from_dict",
    "load_scenario",
]

_BLOCK = 4096
_MAX_REPS = _MAX_GRID * _BLOCK  # reps expand to a list of blocks, capped like a grid
_STREAM_COV, _STREAM_THETA, _STREAM_REPS = 1, 2, 3
_KEEP_BYTES = 64 << 20  # block buffers a thread keeps between calls: m <= 1024 at 4096 rows

_PANELS = ("all_normal", "half_normal_half_t5")
_T5_DF = 5  # the t half of the mixed panel, as its name states


@dataclass(frozen=True)
class Scenario:
    """One simulation cell: dimension, dependence, signal, and noise panel.

    A given `theta` is used as it is, and eta must then be 0; without one,
    theta ~ Uniform(-1, 1) * eta is drawn once per scenario from the dedicated
    parameter stream.  Panel "half_normal_half_t5" gives the first m/2
    coordinates normal errors and the last m/2 Student-t(5) errors, the two
    halves independent with covariance taken from the matching diagonal blocks.
    """

    m: int
    covariance: CovarianceModel
    reps: int
    seed: int
    eta: float = 0.0
    theta: tuple[float, ...] | None = None
    panel: str = "all_normal"

    def __post_init__(self):
        for name, least, most in (("m", 1, _MAX_DIM), ("reps", 1, _MAX_REPS),
                                  ("seed", 0, None)):
            _check_int(getattr(self, name), name, least, most)
        if not isinstance(self.covariance, CovarianceModel):
            raise ValueError(f"covariance must be a CovarianceModel, got {self.covariance!r}")
        if self.covariance.dimension != self.m:
            raise ValueError(
                f"covariance dimension {self.covariance.dimension} != m {self.m}")
        _check_real(self.eta, "eta", lambda v: 0.0 <= v < math.inf, "be finite and >= 0")
        if self.theta is not None:
            if np.ndim(self.theta) != 1 or len(self.theta) != self.m:
                raise ValueError(f"theta must be a sequence of length m={self.m}, "
                                 f"got {self.theta!r}")
            for t in self.theta:
                _check_real(t, "theta")
            if self.eta != 0.0:
                raise ValueError(f"eta scales a drawn theta, so it must be 0 beside a "
                                 f"given theta, got eta={self.eta!r}")
        if self.panel not in _PANELS:
            raise ValueError(f"unknown panel {self.panel!r}")
        if self.panel == "half_normal_half_t5" and self.m % 2:
            raise ValueError("the mixed panel needs an even m")


def build_covariance(model: CovarianceModel, seed) -> np.ndarray:
    """Realize a covariance matrix; random ingredients come from the model
    stream of `seed`, so the same seed always gives the same matrix."""
    return _covariance_and_factor(model, seed)[0]


def _covariance_and_factor(model: CovarianceModel, seed) -> tuple[np.ndarray, np.ndarray]:
    # build_covariance's matrix and its lower Cholesky factor, which also
    # fails fast on a non-PD construction
    m = _check_int(model.dimension, "dimension", 1, _MAX_DIM)
    idx = np.arange(m)
    dist_ij = np.abs(np.subtract.outer(idx, idx))
    if model.kind == "ar":
        # integer-valued float exponents keep negative rho exact (pow, not exp*log)
        sigma = model.rho ** dist_ij.astype(float) if model.rho != 0.0 else np.eye(m)
    elif model.kind == "time_decay":
        with np.errstate(divide="ignore"):
            base = 0.5 * dist_ij.astype(float) ** -5.0
        np.fill_diagonal(base, 1.0)
        scale = np.sqrt(seeded_rng(seed, _STREAM_COV).uniform(1.0, 3.0, m))
        sigma = base * np.outer(scale, scale)
    else:  # block
        blocks = m // model.block_size
        sigma = np.kron(np.eye(blocks), np.full((model.block_size,) * 2, model.rho))
        sigma += (1.0 - model.rho) * np.eye(m)
    return sigma, cholesky(sigma)


def resolve_theta(scenario: Scenario) -> np.ndarray:
    if scenario.theta is not None:
        return np.asarray(scenario.theta, dtype=float)
    rng = seeded_rng(scenario.seed, _STREAM_THETA)
    return rng.uniform(-1.0, 1.0, scenario.m) * scenario.eta


@dataclass(frozen=True)
class CoverageReport:
    """Counts and rates from one coverage run.

    sos_rate is the fraction of replicates in which at least one selected
    interval missed its parameter; fcr_rate is the fraction of selected
    intervals (k per replicate) that missed; the lower/upper rates split
    sos-misses by which side failed (a replicate can count toward both).
    """

    method: str
    k: int
    alpha: float
    reps: int
    seed: int
    sos_misses: int
    lower_events: int
    upper_events: int
    missed_intervals: int

    @property
    def sos_rate(self) -> float:
        return self.sos_misses / self.reps

    @property
    def fcr_rate(self) -> float:
        return self.missed_intervals / (self.k * self.reps)

    @property
    def lower_miss_rate(self) -> float:
        return self.lower_events / self.reps

    @property
    def upper_miss_rate(self) -> float:
        return self.upper_events / self.reps

    @property
    def se(self) -> float:
        p = self.sos_rate
        return math.sqrt(p * (1.0 - p) / self.reps)

    def to_dict(self) -> dict:
        rates = ("sos_rate", "fcr_rate", "lower_miss_rate", "upper_miss_rate", "se")
        return {**asdict(self), **{name: getattr(self, name) for name in rates}}


def _panel_parts(scenario: Scenario, sigma: np.ndarray, lower: np.ndarray,
                 theta: np.ndarray) -> list[tuple]:
    # (columns, theta, lower Cholesky factor, t df or None) for each
    # independent half; the all-normal panel is one part, factored as a whole
    if scenario.panel == "all_normal":
        return [(slice(None), theta, lower, None)]
    half = scenario.m // 2
    halves = [(slice(None, half), None), (slice(half, None), _T5_DF)]
    return [(cols, theta[cols], cholesky(sigma[cols, cols]), df) for cols, df in halves]


class _BlockBuffers(threading.local):
    """Each thread's flat float buffers for one replicate block: `y` for the
    draws and `z` for their normals, grown to the largest block asked for."""

    def __init__(self):
        self.y = self.z = np.empty(0)

    def get(self, size: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        # y as a size x m view; z flat, for each panel half to reshape
        n = size * m
        if self.y.size < n:
            self.y, self.z = np.empty(n), np.empty(n)
        return self.y[:n].reshape(size, m), self.z

    def trim(self) -> None:
        if self.y.nbytes + self.z.nbytes > _KEEP_BYTES:
            self.y = self.z = np.empty(0)


_BUFFERS = _BlockBuffers()


def _block_sizes(reps: int) -> list[int]:
    sizes = [_BLOCK] * (reps // _BLOCK)
    if reps % _BLOCK:
        sizes.append(reps % _BLOCK)
    return sizes


def _count_misses(y_sel: np.ndarray, th_sel: np.ndarray, cols: np.ndarray,
                  c_lo: np.ndarray, c_up: np.ndarray) -> tuple[int, int, int, int]:
    # row r of the (reps, k) arrays holds replicate r's selected estimates,
    # their parameters and their coordinates; interval i is
    # [y_i - c_lo[i], y_i + c_up[i]]
    low_miss = (y_sel - c_lo[cols]) > th_sel
    up_miss = (y_sel + c_up[cols]) < th_sel
    any_low = low_miss.any(axis=1)
    any_up = up_miss.any(axis=1)
    return (
        int((any_low | any_up).sum()),
        int(any_low.sum()),
        int(any_up.sum()),
        int((low_miss | up_miss).sum()),
    )


def _abs_max_offsets(scenario: Scenario, sigma: np.ndarray, theta: np.ndarray,
                     k: int, alpha: float) -> np.ndarray:
    # theta lies in the inverted region iff
    # |y_sel - theta_sel| <= scale * c_plus(|theta_sel| / scale);
    # both coordinates' c_plus are one batch, each solved as c_plus solves it
    if k != 1:
        raise ValueError(f"abs_max coverage selects one coordinate, so k must be 1, got {k}")
    if scenario.m != 2:
        raise ValueError("abs_max coverage needs m == 2")
    if scenario.panel != "all_normal":
        raise ValueError("abs_max coverage is defined for normal errors")
    s = float(np.sqrt(sigma[0, 0]))
    if not np.allclose(sigma, s * s * np.eye(2), atol=1e-12):
        raise ValueError("abs_max coverage needs covariance s^2 * I")
    return s * _calibrate(np.abs(theta) / s, alpha)


def run_coverage(scenario: Scenario, k: int, method: str | Sequence[str],
                 alpha: float = 0.05, n_jobs: int = 1) -> CoverageReport | list[CoverageReport]:
    """Estimate miss rates on one scenario for one method, or for each of a
    sequence of methods.

    A single label gives one CoverageReport; a sequence gives a list of them
    in its order.  All methods are scored in one pass over the replicates:
    each block is drawn once, each selection rule the methods use (top-k,
    abs-max) is applied to it once, and every method counts its misses on
    that selection, so each report equals the one a call for that method
    alone would give.  Every label is checked before the first draw.

    A label is a MethodLabel value or "abs_max" (the latter needs k == 1,
    m == 2 and covariance s^2 * I, the setting the abs-max construction is
    built for).  On the half_normal_half_t5 panel every coordinate shares the
    tail levels tuned on the normal family (so sos_shortest's one delta) and
    each half takes its own family's quantile at them; the FCW methods, which
    have no tail levels, are rejected there.
    """
    if not isinstance(scenario, Scenario):
        raise ValueError(f"scenario must be a Scenario, got {scenario!r}")
    labels = [method] if isinstance(method, str) else method
    if not isinstance(labels, Sequence) or not labels:
        raise ValueError(f"method must be a label or a non-empty sequence, got {method!r}")
    _check_mk(scenario.m, k)
    _check_unit(alpha, "alpha")
    _check_int(n_jobs, "n_jobs", 1, _MAX_JOBS)
    sigma, lower = _covariance_and_factor(scenario.covariance, scenario.seed)
    theta = resolve_theta(scenario)
    scales = np.sqrt(np.diag(sigma))
    parts = _panel_parts(scenario, sigma, lower, theta)

    scored = []  # (report label, rule name, c_lo, c_up) per requested method
    for label in labels:
        if label == "abs_max":
            c_at_theta = _abs_max_offsets(scenario, sigma, theta, k, alpha)
            scored.append(("abs_max", "abs_max", c_at_theta, c_at_theta))
        else:
            label = MethodLabel(label).value
            if scenario.panel == "all_normal":
                c_lo, c_up = method_offsets(label, scenario.m, k, alpha)
            else:
                # every coordinate takes the same tail levels (one delta, tuned
                # on the normal family): the union bound behind SoS control, m
                # lower and k upper tails summing to alpha, holds for any error
                # law per coordinate only while all m share one split
                halves = NORMAL, student_t_family(_T5_DF)
                c_lo, c_up = (np.repeat([-f.quantile(p) for f in halves], scenario.m // 2)
                              for p in method_tail_levels(label, scenario.m, k, alpha))
            scored.append((label, "top_k", scales * c_lo, scales * c_up))
    rules = dict.fromkeys(rule for _, rule, _, _ in scored)

    def run_block(args) -> list[tuple[int, int, int, int]]:
        block, size = args
        rng = seeded_rng(scenario.seed, _STREAM_REPS, block)
        y, z = _BUFFERS.get(size, scenario.m)
        for half, th, lower, df in parts:
            draw_replicates(rng, th, lower, size, df, out=y[:, half],
                            normals=z[:size * th.size].reshape(size, th.size))
        chosen = {}  # rule -> (y_sel, th_sel, cols), gathered once for every method
        for rule in rules:
            flat, cols = selected_entries(y, rule, k)
            chosen[rule] = y.ravel()[flat], theta[cols], cols
        return [_count_misses(*chosen[rule], c_lo, c_up) for _, rule, c_lo, c_up in scored]

    jobs = list(enumerate(_block_sizes(scenario.reps)))
    try:
        if n_jobs == 1:
            results = [run_block(j) for j in jobs]
        else:  # each worker's buffers go when its thread exits
            with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                results = list(pool.map(run_block, jobs))
    finally:
        _BUFFERS.trim()

    reports = []
    for (label, *_), per_block in zip(scored, zip(*results)):
        sos, low, up, missed = (sum(col) for col in zip(*per_block))
        reports.append(CoverageReport(method=label, k=k, alpha=alpha, reps=scenario.reps,
                                      seed=scenario.seed, sos_misses=sos, lower_events=low,
                                      upper_events=up, missed_intervals=missed))
    return reports[0] if isinstance(method, str) else reports


def _integer(value, key: str) -> int:
    # JSON numbers arrive as int or float; bools, strings and fractions are
    # rejected rather than truncated
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return _check_int(value, key)


def _reals(value, key: str):
    # a JSON list as a tuple of floats; anything else is left for the class to reject
    return tuple(_check_real(v, key) for v in value) if isinstance(value, list) else value


# a config value's converter, by its field's (postponed, so string) annotation;
# a real is a JSON number (int or float) as a float, and bools, strings and null raise
_CONVERTERS = {"int": _integer, "float": _check_real, "tuple[float, ...] | None": _reals}


def _config_fields(cls, cfg, what: str, **defaults) -> dict:
    # the keyword arguments of dataclass `cls` that `cfg` holds, over `defaults`,
    # converted; unknown keys are errors so that typos do not silently change a study
    if not isinstance(cfg, dict):
        raise ValueError(f"{what} config must be a JSON object")
    cfg = {**defaults, **cfg}
    known = {f.name: f for f in fields(cls)}
    unknown = set(cfg) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    missing = {name for name, f in known.items() if f.default is MISSING} - set(cfg)
    if missing:
        raise ValueError(f"missing {what} keys: {sorted(missing)}")
    return {key: _CONVERTERS.get(known[key].type, lambda v, _: v)(value, key)
            for key, value in cfg.items()}


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build a Scenario from a plain dict (the simulate config file format).

    The keys are the fields of Scenario, with `covariance` an object of
    CovarianceModel's fields whose `dimension` defaults to m; a field left
    out takes its dataclass default.  Integer fields take integral JSON
    numbers, real fields any JSON number, and `theta` a list of them.
    """
    values = _config_fields(Scenario, cfg, "scenario")
    values["covariance"] = CovarianceModel(**_config_fields(
        CovarianceModel, values["covariance"], "covariance", dimension=values["m"]))
    return Scenario(**values)


def load_scenario(path) -> Scenario:
    """The scenario in the JSON config file at `path`, a str or os.PathLike.

    Anything else is a ValueError: `open` would take an int (a bool too) as
    a file descriptor, and closing it would close the caller's stream.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"path must be a str or os.PathLike, got {path!r}")
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
