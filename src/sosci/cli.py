"""Command-line front end.

Every subcommand builds an OutputTable and serializes it as CSV (RFC 4180,
header row) or JSON ({"meta": ..., "rows": [...]}).  CSV renders numbers
with 6 significant digits, so a replayed run is byte-identical; JSON
carries each float unrounded.  Exit codes: 0 success, 2 usage or
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys

from . import __version__
from .baselines import MethodLabel, k_of_m_intervals, method_offsets
from .bivariate import _GL_X, abs_max_interval, cplus_curve, larger_of_two_interval
from .dist import _COV_KINDS, _MAX_GRID, NotPositiveDefiniteError
from .mc import _PANELS, Scenario, load_scenario, run_coverage, scenario_from_dict
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
        import json  # imported here: only --format json needs it
        import numpy as np

        # the builds the numbers rest on: numpy, its BLAS, and scipy if the run loaded it
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        meta = {**self.meta, "version": __version__, "numpy": np.__version__,
                "blas": {"name": blas.get("name"), "version": blas.get("version")}}
        if "scipy" in sys.modules:
            meta["scipy"] = sys.modules["scipy"].__version__
        # json writes a float's repr, which reads back as the computed double
        payload = {"meta": meta, "rows": [dict(zip(self.header, row)) for row in self.rows]}
        return json.dumps(payload, indent=2) + "\n"


def _parse_list(text: str, what: str, kind=float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip() != ""]
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
    return _parse_list(text, "k", int)


def _read_estimates(path: str) -> list[float]:
    # single-column CSV with header "y"; a leading byte-order mark is dropped
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    # argparse takes exactly one of --y and --input
    y = _parse_list(args.y, "estimate") if args.input is None else _read_estimates(args.input)
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
    elif args.method == "larger-of-two":
        intervals = [larger_of_two_interval(y, alpha)]
    elif args.method == "abs-max":
        intervals = [abs_max_interval(y, alpha)]
    else:
        label = args.method.replace("-", "_")
        intervals = _selected_intervals(y, k, *method_offsets(label, m, k, alpha), label)

    meta = {"command": "intervals", "m": int(m), "k": int(k),
            "alpha": alpha, "method": intervals[0].method}
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
    rows = list(zip(curve.grid_a.tolist(), curve.grid_c.tolist()))
    meta = {"command": "cplus-curve", "alpha": args.alpha,
            "a_max": curve.a_max, "step": curve.step,
            "quadrature_nodes_per_panel": len(_GL_X)}
    return OutputTable(("a", "c_plus"), rows, meta)


def cmd_delta_scan(args) -> OutputTable:
    m, alpha = args.m, args.alpha
    ks = _parse_ks(args.k, m)
    if args.deltas is not None:  # argparse takes at most one of --deltas and --grid
        deltas = _parse_list(args.deltas, "delta")
    else:
        n = 19 if args.grid is None else args.grid
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


# simulate's scenario flags have no argparse default, so that --config can
# refuse them; an unset one other than m, reps, seed and kind is left out of
# the dict, and so takes the Scenario or CovarianceModel default
_SCENARIO_FLAGS = ("sigma_model", "rho", "block_size", "m", "eta", "panel", "reps", "seed")


def _scenarios_from_args(args) -> list[Scenario]:
    given = {name: getattr(args, name) for name in _SCENARIO_FLAGS if hasattr(args, name)}
    if args.config is not None:
        if given:
            flags = ", ".join("--" + name.replace("_", "-") for name in given)
            raise ValueError(f"--config takes no scenario flags, got {flags}")
        return [load_scenario(args.config)]
    covariance = {"kind": given.pop("sigma_model", "ar").replace("-", "_")}
    covariance.update((name, given.pop(name)) for name in ("rho", "block_size") if name in given)
    cfg = {"m": 100, "reps": 50000, "seed": 1, **given, "covariance": covariance}
    etas = [{"eta": eta} for eta in _parse_list(cfg.pop("eta"), "eta")] if "eta" in cfg else [{}]
    return [scenario_from_dict({**cfg, **eta}) for eta in etas]


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
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--y", help="comma-separated estimates")
    source.add_argument("--input", help="CSV file with one column 'y'")
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
    deltas = p.add_mutually_exclusive_group()
    # no argparse default: one equal to it would pass beside --deltas unseen
    deltas.add_argument("--grid", type=int, default=None,
                        help="number of evenly spaced deltas in (0, 1); default 19")
    deltas.add_argument("--deltas", default=None, help="explicit comma list of deltas")
    add_common(p)
    p.set_defaults(func=cmd_delta_scan)

    p = sub.add_parser("simulate", help="Monte-Carlo coverage of selected methods")
    p.add_argument("--config", default=None,
                   help="scenario JSON file; takes no scenario flag")
    scenario = p.add_argument_group("scenario flags", "unset: the Scenario default, or m 100, "
                                    "reps 50000, seed 1 and sigma-model ar")
    unset = argparse.SUPPRESS
    scenario.add_argument("--sigma-model", default=unset,
                          choices=[kind.replace("_", "-") for kind in _COV_KINDS])
    scenario.add_argument("--rho", type=float, default=unset)
    scenario.add_argument("--block-size", type=int, default=unset)
    scenario.add_argument("--m", type=int, default=unset)
    scenario.add_argument("--eta", default=unset, help="comma list of signal scales")
    scenario.add_argument("--panel", choices=_PANELS, default=unset)
    scenario.add_argument("--reps", type=int, default=unset)
    scenario.add_argument("--seed", type=int, default=unset)
    p.add_argument("--k", type=int, default=10)
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


# built by the first main call and reused by later ones; building it at
# import would slow `import sosci.cli` for callers that never parse
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
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
