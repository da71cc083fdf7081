"""Command-line front end.

Every subcommand builds an OutputTable and serializes it as CSV (RFC 4180,
header row) or JSON ({"meta": ..., "rows": [...]}).  Numbers are rendered
with 6 significant digits in both formats, so a replayed run is
byte-identical.  Exit codes: 0 success, 2 usage or configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from . import __version__
from .baselines import MethodLabel, k_of_m_intervals, method_offsets
from .bivariate import abs_max_interval, cplus_curve, larger_of_two_interval
from .dist import _MAX_GRID, NotPositiveDefiniteError
from .mc import Scenario, load_scenario, run_coverage, scenario_from_dict
from .select import select_top_k  # noqa: F401  (bench/tracer.py wraps it by this name)
from .sos import (
    ConfidenceInterval,
    OptimizationError,
    _selected_intervals,
    interval_length,
    optimize_delta,
)

__all__ = ["OutputTable", "main", "cmd_intervals", "cmd_compare",
           "cmd_cplus_curve", "cmd_delta_scan", "cmd_simulate"]


@dataclasses.dataclass
class OutputTable:
    header: tuple[str, ...]
    rows: list[tuple]
    meta: dict

    def _format_cell(self, value) -> str:
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow([self._format_cell(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        def native(value):
            if isinstance(value, float):
                return float(f"{value:.6g}")  # same 6-digit rendering as CSV
            return value

        payload = {
            "meta": {**self.meta, "version": __version__},
            "rows": [dict(zip(self.header, map(native, row))) for row in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse {what} list {text!r}") from None
    if not values:
        raise ValueError(f"empty {what} list")
    return values


def _parse_ks(text: str, m: int) -> list[int]:
    # a start:stop[:step] range is checked against 1..m and _MAX_GRID before it is expanded
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad k range {text!r}; use start:stop[:step]")
        try:
            nums = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad k range {text!r}") from None
        start, stop = nums[0], nums[1]
        step = nums[2] if len(nums) == 3 else 1
        if step < 1 or not 1 <= start <= stop <= m:
            raise ValueError(f"bad k range {text!r}; need 1 <= start <= stop <= m={m}")
        ks = range(start, stop + 1, step)
        if len(ks) > _MAX_GRID:
            raise ValueError(f"k range {text!r} has {len(ks)} values, more than {_MAX_GRID}")
        return list(ks)
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"could not parse k list {text!r}") from None
    if not values:
        raise ValueError("empty k list")
    return values


def _read_estimates(path: str) -> list[float]:
    # single-column CSV with header "y"
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["y"]:
            raise ValueError(f"{path}: expected a single CSV column with header 'y'")
        values = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and row[0].strip() == ""):
                continue
            if len(row) != 1:
                raise ValueError(f"{path}:{lineno}: expected one value per row")
            try:
                values.append(float(row[0]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad number {row[0]!r}") from None
    if not values:
        raise ValueError(f"{path}: no estimates found")
    return values


def _interval_rows(intervals: list[ConfidenceInterval], y) -> list[tuple]:
    # CLI indices are 1-based; the library is 0-based
    return [(iv.index + 1, float(y[iv.index]), iv.lo, iv.hi, iv.method)
            for iv in intervals]


_OFFSET_METHODS = tuple(label.value.replace("_", "-") for label in MethodLabel
                        if not label.value.startswith("sos_"))
_INTERVAL_METHODS = _OFFSET_METHODS + ("sos", "larger-of-two", "abs-max")


def cmd_intervals(args) -> OutputTable:
    if args.y is not None and args.input is not None:
        raise ValueError("give either --y or --input, not both")
    if args.y is not None:
        y = _parse_float_list(args.y, "estimate")
    elif args.input is not None:
        y = _read_estimates(args.input)
    else:
        raise ValueError("one of --y or --input is required")
    m, k, alpha = len(y), args.k, args.alpha
    if args.method in ("larger-of-two", "abs-max") and k != 1:
        raise ValueError(f"--method {args.method} selects one estimate, so --k must be 1, got {k}")
    if args.method != "sos":
        for flag, value in (("--delta-policy", args.delta_policy), ("--delta", args.delta)):
            if value is not None:
                raise ValueError(f"{flag} applies only to --method sos, got --method {args.method}")

    if args.method == "sos":
        intervals = k_of_m_intervals(y, k, alpha, args.delta_policy or "symmetric",
                                     delta=args.delta)
        label = intervals[0].method
    elif args.method == "larger-of-two":
        intervals = [larger_of_two_interval(y, alpha)]
        label = "larger_of_two"
    elif args.method == "abs-max":
        intervals = [abs_max_interval(y, alpha)]
        label = "abs_max"
    else:
        label = args.method.replace("-", "_")
        intervals = _selected_intervals(y, k, *method_offsets(label, m, k, alpha), label)

    meta = {"command": "intervals", "m": int(m), "k": int(k),
            "alpha": alpha, "method": label}
    return OutputTable(("index", "estimate", "lo", "hi", "method"),
                       _interval_rows(intervals, y), meta)


def cmd_compare(args) -> OutputTable:
    m, alpha = args.m, args.alpha
    ks = _parse_ks(args.k_range, m)
    rows = []
    for k in ks:
        for label in MethodLabel:
            lower, upper = method_offsets(label, m, k, alpha)
            rows.append((k, label.value, lower + upper))
        if m == 2 and k == 1:
            lower, upper = method_offsets(MethodLabel.UNADJUSTED, m, k, alpha)
            rows.append((k, "larger_of_two", lower + upper))
    meta = {"command": "compare", "m": int(m), "alpha": alpha}
    return OutputTable(("k", "method", "length"), rows, meta)


def cmd_cplus_curve(args) -> OutputTable:
    curve = cplus_curve(args.alpha, args.a_max, args.step)
    rows = [(float(a), float(c)) for a, c in zip(curve.grid_a, curve.grid_c)]
    meta = {"command": "cplus-curve", "alpha": args.alpha,
            "a_max": curve.a_max, "step": curve.step}
    return OutputTable(("a", "c_plus"), rows, meta)


def cmd_delta_scan(args) -> OutputTable:
    m, alpha = args.m, args.alpha
    ks = _parse_ks(args.k, m)
    if args.deltas is not None:
        deltas = _parse_float_list(args.deltas, "delta")
    else:
        n = args.grid
        if not 1 <= n <= _MAX_GRID:
            raise ValueError(f"--grid must lie in 1..{_MAX_GRID}, got {n}")
        deltas = [j / (n + 1) for j in range(1, n + 1)]
    rows = []
    for k in ks:
        for delta in deltas:
            rows.append((m, k, delta, interval_length(m, k, alpha, delta), 0))
        d_star, l_star = optimize_delta(m, k, alpha)
        rows.append((m, k, d_star, l_star, 1))
    meta = {"command": "delta-scan", "m": int(m), "alpha": alpha}
    return OutputTable(("m", "k", "delta", "length", "optimum"), rows, meta)


def _scenarios_from_args(args) -> list[Scenario]:
    if args.config is not None:
        return [load_scenario(args.config)]
    covariance = {"kind": args.sigma_model.replace("-", "_"), "rho": args.rho,
                  "block_size": args.block_size}
    return [scenario_from_dict({"m": args.m, "covariance": covariance, "reps": args.reps,
                                "seed": args.seed, "eta": eta, "panel": args.panel})
            for eta in _parse_float_list(args.eta, "eta")]


def cmd_simulate(args) -> OutputTable:
    methods = [part.strip() for part in args.methods.split(",") if part.strip()]
    scenarios = _scenarios_from_args(args)
    rows = []
    for scenario in scenarios:
        for report in run_coverage(scenario, args.k, methods, args.alpha,
                                   n_jobs=args.n_jobs):
            rows.append((scenario.covariance.kind, scenario.covariance.rho,
                         scenario.eta, report.method, report.sos_rate,
                         report.se, report.reps, report.seed))
    meta = {"command": "simulate", "k": int(args.k), "alpha": args.alpha,
            "panel": scenarios[0].panel, "methods": methods,
            "scenarios": [dataclasses.asdict(scenario) for scenario in scenarios]}
    return OutputTable(
        ("sigma_model", "rho", "eta", "method", "sos_rate", "se", "reps", "seed"),
        rows, meta)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sosci",
        description="Confidence intervals with simultaneous coverage over "
                    "data-selected parameters.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("intervals", help="intervals for supplied estimates")
    p.add_argument("--y", default=None, help="comma-separated estimates")
    p.add_argument("--input", default=None, help="CSV file with one column 'y'")
    p.add_argument("--k", type=int, default=1, help="number of selected estimates")
    p.add_argument("--method", choices=_INTERVAL_METHODS, default="sos")
    p.add_argument("--delta-policy", choices=("symmetric", "shortest", "fixed"),
                   default=None, help="--method sos only; default symmetric")
    p.add_argument("--delta", type=float, default=None,
                   help="budget split for --delta-policy fixed")
    add_common(p)
    p.set_defaults(func=cmd_intervals)

    p = sub.add_parser("compare", help="interval lengths per method and k")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--k-range", default="1:100",
                   help="start:stop[:step] or comma list")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cplus-curve", help="abs-max calibration constant vs magnitude")
    p.add_argument("--a-max", type=float, default=8.0)
    p.add_argument("--step", type=float, default=0.01)
    add_common(p)
    p.set_defaults(func=cmd_cplus_curve)

    p = sub.add_parser("delta-scan", help="interval length as a function of delta")
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--k", default="1,10,100", help="comma list or start:stop[:step]")
    p.add_argument("--grid", type=int, default=19,
                   help="number of evenly spaced deltas in (0, 1)")
    p.add_argument("--deltas", default=None, help="explicit comma list of deltas")
    add_common(p)
    p.set_defaults(func=cmd_delta_scan)

    p = sub.add_parser("simulate", help="Monte-Carlo coverage of selected methods")
    p.add_argument("--config", default=None, help="scenario JSON file")
    p.add_argument("--sigma-model", choices=("ar", "time-decay", "block"),
                   default="ar")
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--block-size", type=int, default=10)
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--eta", default="0", help="comma list of signal scales")
    p.add_argument("--panel", choices=("all_normal", "half_normal_half_t5"),
                   default="all_normal")
    p.add_argument("--reps", type=int, default=50000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--methods", default="sos_symmetric,sos_shortest",
                   help="comma list of method labels (or abs_max)")
    p.add_argument("--n-jobs", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def _write(table: OutputTable, fmt: str, out: str | None) -> None:
    text = table.to_csv() if fmt == "csv" else table.to_json()
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        _write(args.func(args), args.format, args.out)  # an --out that cannot be opened is exit 2
    except (NotPositiveDefiniteError, OptimizationError) as exc:
        print(f"sosci: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"sosci: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
