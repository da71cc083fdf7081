"""Benchmark workloads: inputs generated from a seed, and output checks.

Each workload turns a seed into the steps of one pass (CLI argv lists and,
for absmax_calibration, one batch of library calls) and checks the outputs
of a pass.  The program sees only the generated inputs.  Every command runs
with n_jobs=1, one at a time, in one process (a closed loop).

Checks use the standard library only, so they do not share code with the
program they check.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

ALPHA = 0.05
METHODS = ("sos_symmetric", "sos_shortest")


def sidak2_halfwidth(alpha: float) -> float:
    """Two-coordinate Sidak constant: c_plus(0) and half the Sidak box."""
    per_coord = 1.0 - (1.0 - alpha) ** 0.5
    return NormalDist().inv_cdf(1.0 - per_coord / 2.0)


@dataclass
class Workload:
    name: str
    seed: int
    # the child's reference computation (child._Clock) that slows down with
    # the host the way this workload's dominant code does
    reference: str
    steps: list = field(default_factory=list)
    # per op: ("cli", command name, argv) or ("absmax", w); ops are the unit
    # of attempted / failed
    ops: list = field(default_factory=list)

    def cli(self, argv: list[str]) -> None:
        self.steps.append({"kind": "cli", "argv": argv})
        self.ops.append(("cli", argv[0], argv))

    def absmax(self, alpha: float, ws: list[float]) -> None:
        self.steps.append({"kind": "absmax", "alpha": alpha, "w": ws})
        self.ops.extend(("absmax", "abs_max_interval", w) for w in ws)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


# -- coverage_grid ---------------------------------------------------------

COVERAGE_MODELS = (("ar", 0.3), ("ar", 0.7), ("time-decay", 0.0), ("block", 0.0),
                   ("block", 0.2), ("block", 0.5), ("block", 0.75), ("block", 0.9))
PANELS = ("all_normal", "half_normal_half_t5")
COVERAGE_REPS = 4096  # one replicate block per run_coverage call


def coverage_grid(seed: int, workdir: Path) -> Workload:
    """The c09 dependence grid: both panels x 8 covariance models, m=100,
    k=10, two methods per scenario, one eta per scenario."""
    rng = _rng("coverage_grid", seed)
    wl = Workload("coverage_grid", seed, "numpy")
    for panel in PANELS:
        for kind, rho in COVERAGE_MODELS:
            eta = round(rng.uniform(0.0, 40.0), 2)
            wl.cli(["simulate", "--sigma-model", kind, "--rho", repr(rho),
                    "--m", "100", "--k", "10", "--eta", repr(eta), "--panel", panel,
                    "--reps", str(COVERAGE_REPS), "--seed", str(rng.randrange(1, 2**31)),
                    "--methods", ",".join(METHODS), "--n-jobs", "1"])
    return wl


# -- absmax_calibration ----------------------------------------------------

ABSMAX_WIDTHS = 120  # w values per pass; a 25 s run pools 600+ latencies
ABSMAX_SIM_REPS = 20000


def absmax_calibration(seed: int, workdir: Path) -> Workload:
    """cplus-curve at defaults, the c04 width profile on that curve (w in
    [-6, 6], one stratified draw per cell), then a short m=2 simulate."""
    rng = _rng("absmax_calibration", seed)
    wl = Workload("absmax_calibration", seed, "interpreter")
    wl.cli(["cplus-curve"])
    ws = [round(rng.choice((1.0, -1.0)) * 6.0 * (i + rng.random()) / ABSMAX_WIDTHS, 6)
          for i in range(ABSMAX_WIDTHS)]
    wl.absmax(ALPHA, ws)
    eta = round(rng.uniform(1.0, 3.0), 3)
    wl.cli(["simulate", "--sigma-model", "ar", "--rho", "0", "--m", "2", "--k", "1",
            "--eta", repr(eta), "--reps", str(ABSMAX_SIM_REPS),
            "--seed", str(rng.randrange(1, 2**31)), "--methods", "abs_max,unadjusted",
            "--n-jobs", "1"])
    return wl


# -- offsets_sweep ---------------------------------------------------------

OFFSET_METHODS = ("unadjusted", "bonferroni", "sidak", "fcw-symmetric",
                  "fcw-shortest", "fcr-selection-aware")
COMPARE_TOTAL_M = 640  # sum of m over the compare commands; fixes the work


def _alpha(rng: random.Random) -> str:
    return repr(round(rng.uniform(0.01, 0.2), 4))


def _compare_ms(rng: random.Random) -> list[int]:
    # four distinct m in [60, 400] summing to COMPARE_TOTAL_M, so every seed
    # asks for the same number of (k, method) rows
    while True:
        ms = [rng.randint(60, 260) for _ in range(3)]
        ms.append(COMPARE_TOTAL_M - sum(ms))
        if 60 <= ms[-1] <= 400 and len(set(ms)) == 4:
            return ms


def offsets_sweep(seed: int, workdir: Path) -> Workload:
    """compare over all k for four (m, alpha) pairs, two delta-scans, and
    intervals --input for every offset method on two estimate files."""
    rng = _rng("offsets_sweep", seed)
    wl = Workload("offsets_sweep", seed, "interpreter")
    for m in _compare_ms(rng):
        wl.cli(["compare", "--m", str(m), "--k-range", f"1:{m}", "--alpha", _alpha(rng)])
    for _ in range(2):
        m = rng.randint(50, 1000)
        ks = sorted(rng.sample(range(1, m + 1), 3))
        wl.cli(["delta-scan", "--m", str(m), "--k", ",".join(map(str, ks)),
                "--alpha", _alpha(rng)])
    for j in range(2):
        m = rng.randint(50, 1000)
        path = workdir / f"offsets_sweep-seed{seed}-y{j}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("y\n")
            for _ in range(m):
                fh.write(f"{rng.gauss(0.0, 1.0) + rng.choice((0.0, 3.0)):.6f}\n")
        k = rng.randint(1, 20)
        alpha = _alpha(rng)
        for method in OFFSET_METHODS:
            wl.cli(["intervals", "--input", str(path), "--k", str(k),
                    "--method", method, "--alpha", alpha])
    return wl


WORKLOADS = {
    "coverage_grid": coverage_grid,
    "absmax_calibration": absmax_calibration,
    "offsets_sweep": offsets_sweep,
}


# -- checks ----------------------------------------------------------------

def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def flag(argv: list[str], name: str, default: str) -> str:
    """Value of CLI flag `name` in argv, or the CLI's default."""
    return argv[argv.index(name) + 1] if name in argv else default


def _check_simulate(argv: list[str], rows: list[dict]) -> str | None:
    methods = flag(argv, "--methods", ",".join(METHODS)).split(",")
    etas = flag(argv, "--eta", "0").split(",")
    alpha = float(flag(argv, "--alpha", "0.05"))
    reps = int(flag(argv, "--reps", "50000"))
    if len(rows) != len(etas) * len(methods):
        return f"expected {len(etas) * len(methods)} rows, got {len(rows)}"
    for row in rows:
        if row["method"] not in methods or int(row["reps"]) != reps:
            return f"unexpected row {row}"
        rate, se = float(row["sos_rate"]), float(row["se"])
        if not rate <= alpha + 3.0 * se:
            return f"sos_rate {rate} > alpha + 3 se = {alpha + 3.0 * se} in {row}"
    return None


def _check_cplus_curve(argv: list[str], rows: list[dict]) -> str | None:
    alpha = float(flag(argv, "--alpha", "0.05"))
    if not rows or float(rows[0]["a"]) != 0.0:
        return "curve does not start at a = 0"
    c0 = float(rows[0]["c_plus"])
    if abs(c0 - sidak2_halfwidth(alpha)) > 1e-3:
        return f"c_plus(0) = {c0} is not the two-coordinate Sidak constant"
    return None


def _check_compare(argv: list[str], rows: list[dict]) -> str | None:
    m = int(flag(argv, "--m", "100"))
    by_k: dict[int, set] = {}
    for row in rows:
        length = float(row["length"])
        if not (math.isfinite(length) and length > 0.0):
            return f"bad length in {row}"
        by_k.setdefault(int(row["k"]), set()).add(row["method"])
    if sorted(by_k) != list(range(1, m + 1)):
        return "compare did not cover every k in 1..m"
    if len({frozenset(v) for v in by_k.values()}) != 1:
        return "compare rows differ in their method set across k"
    return None


def _check_delta_scan(argv: list[str], rows: list[dict]) -> str | None:
    ks = [int(k) for k in flag(argv, "--k", "1,10,100").split(",")]
    grid = int(flag(argv, "--grid", "19"))
    if len(rows) != len(ks) * (grid + 1):
        return f"expected {len(ks) * (grid + 1)} rows, got {len(rows)}"
    for k in ks:
        scan = [float(r["length"]) for r in rows if int(r["k"]) == k and r["optimum"] == "0"]
        best = [float(r["length"]) for r in rows if int(r["k"]) == k and r["optimum"] == "1"]
        # rendered at 6 significant digits, hence the relative slack
        if len(best) != 1 or best[0] > min(scan) * (1.0 + 1e-5):
            return f"optimum at k={k} is not the shortest length"
    return None


def _check_intervals(argv: list[str], rows: list[dict]) -> str | None:
    k = int(flag(argv, "--k", "1"))
    if len(rows) != k:
        return f"expected {k} intervals, got {len(rows)}"
    for row in rows:
        # offsets are >= 0; fcw-shortest may put its upper offset at 0
        lo, est, hi = float(row["lo"]), float(row["estimate"]), float(row["hi"])
        if not (lo <= est <= hi and lo < hi):
            return f"interval does not contain its estimate: {row}"
    return None


CLI_CHECKS = {
    "simulate": _check_simulate,
    "cplus-curve": _check_cplus_curve,
    "compare": _check_compare,
    "delta-scan": _check_delta_scan,
    "intervals": _check_intervals,
}


def check_op(op, res: dict) -> str | None:
    """Why one operation's output is wrong, or None if it passes."""
    kind, what, arg = op
    if res.get("error"):
        return res["error"].strip().splitlines()[-1]
    if kind == "cli":
        if res["rc"] != 0:
            return f"exit code {res['rc']}"
        return CLI_CHECKS[what](arg, _rows(res["out"]))
    lo, hi, w = res["lo"], res["hi"], arg
    box = 2.0 * sidak2_halfwidth(ALPHA)
    if not lo <= w <= hi:
        return f"abs-max interval [{lo}, {hi}] misses w={w}"
    if not hi - lo <= box:
        return f"abs-max width {hi - lo} exceeds the Sidak box {box}"
    return None
