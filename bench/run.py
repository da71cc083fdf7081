"""sosci benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload coverage_grid --seed 1 --seconds 25 --trace 0

Workloads (inputs are generated from --seed; see workloads.py):
  coverage_grid       simulate over the c09 dependence grid (mc + dist)
  absmax_calibration  cplus-curve, the c04 abs-max width profile, m=2 simulate
                      (bivariate quadrature and root solves)
  offsets_sweep       compare / delta-scan / intervals --input (sos,
                      baselines and cli formatting; no draws, no quadrature)

A pass runs every step of a workload once, in a fresh child interpreter
(bench/child.py), so no in-process cache such as the lru_cache'd c_plus
curve carries over.  Passes run one at a time until --seconds have gone by,
and every child gets BLAS/OpenMP pinned to one thread.  All passes of a run
use the same inputs, so their outputs must be byte-identical.

End-to-end metrics (--trace 0), each gated by its bound in BENCHMARK.json:
  wall_ref     time of one pass (first to last step, after imports) in units
               of a fixed reference computation timed between the steps
               (child._Clock: numpy work for coverage_grid, interpreter work
               for the others); the sum over steps of each step's median over
               the passes (see pass_time)
  setup_s      fresh interpreter to `import sosci, sosci.cli` done, in
               seconds at a nominal host speed: each sample is divided by
               the time a fresh interpreter takes to import only sosci's
               dependencies (timed just before it) and multiplied by
               NOMINAL_DEPS_IMPORT_S; median over at least five samples
  peak_rss_mb  max RSS of the child, median over passes
Both are read against a reference because the shared host's speed drifts
by up to ~1.6x over tens of seconds, which moves seconds and moves the
ratios much less.  The table above the result line adds setup_raw_s and
wall_s (the same times in plain seconds), reference_p50_s (so wall_ref
times reference_p50_s is about wall_s), error_rate (failed / attempted
operations), reps_per_s (replicate x method evaluations per second of
simulate time) and, on absmax_calibration, interval_p50_s / interval_p98_s
over every abs_max_interval call of the run.

Per-layer metrics (--trace 1) come from spans that bench/tracer.py records
around each layer's public functions; untraced passes alternate with traced
ones, and trace.overhead_s is the difference of their pass times.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics.  The full result, with provenance, is written to
bench/out/result-<workload>-seed<seed>-trace<t>.json.  `--record` stores
the output digests of the given seed in bench/expected.json; later runs at
that seed must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 150.0
MIN_SETUP_SAMPLES = 5
# set-up is read against a fresh interpreter importing only sosci's
# dependencies, timed just before; setup_s converts that ratio to seconds at
# the median of this import on the 2-vCPU VM where the benchmark was defined
DEPS_IMPORT = "import numpy, scipy.special, scipy.optimize, scipy.integrate"
NOMINAL_DEPS_IMPORT_S = 0.70
WIDTH_TOL = 1e-6  # recorded abs-max widths; root solves use xtol=1e-9

THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}

# metric names and units of the result line, in BENCHMARK.json's order
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _layer_unit(name: str) -> str:
    return "s" if "_s" in name.rsplit(".", 1)[-1] else "count"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _child_env() -> dict:
    # sosci comes from this checkout only; one BLAS/OpenMP thread per child
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def run_pass(wl: workloads.Workload, tag: str, trace: bool) -> dict:
    """One pass of `wl` in a fresh child; returns the child's result."""
    job_path = OUT / f"job-{tag}.json"
    result_path = OUT / f"pass-{tag}.json"
    spans_path = OUT / f"spans-{tag}.json"
    for stale in (result_path, spans_path):
        stale.unlink(missing_ok=True)
    job = {"src": str(SRC), "trace": trace, "steps": wl.steps, "reference": wl.reference,
           "result": str(result_path), "spans": str(spans_path)}
    job_path.write_text(json.dumps(job), encoding="utf-8")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), str(job_path)],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {tag} took longer than {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"pass {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    res["setup_s"] = res["ready"] - spawned
    if trace:
        res["trace"] = json.loads(spans_path.read_text(encoding="utf-8"))
    return res


def import_probe(imports: str) -> float:
    """Time from starting a fresh interpreter to `imports` done."""
    code = f"{imports}; import time; print(repr(time.monotonic()))"
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip()) - spawned


# -- correctness -------------------------------------------------------------

def output_key(op, res: dict):
    """What must replay identically: CLI bytes, or abs-max endpoints."""
    if op[0] == "cli":
        return (res.get("rc"), res.get("out"))
    return (res.get("lo"), res.get("hi"))


def check_passes(wl: workloads.Workload, passes: list[dict], expected: dict | None):
    """Count failed operations over all passes; return (failed, problems)."""
    first = passes[0]["ops"]
    if len(first) != len(wl.ops):
        raise BenchError(f"pass returned {len(first)} ops, expected {len(wl.ops)}")
    verdict = [workloads.check_op(op, res) for op, res in zip(wl.ops, first)]
    if expected is not None:
        verdict = [v or _against_record(op, res, i, expected)
                   for i, (op, res, v) in enumerate(zip(wl.ops, first, verdict))]
    failed, problems = 0, []
    for n, p in enumerate(passes):
        for i, (op, res) in enumerate(zip(wl.ops, p["ops"])):
            why = verdict[i]
            if why is None and output_key(op, res) != output_key(op, first[i]):
                why = "output differs from the first pass (traced or untraced)"
            if why is not None:
                failed += 1
                if len(problems) < 10:
                    problems.append(f"pass {n} op {i} {op[1]}: {why}")
    return failed, problems


def _against_record(op, res: dict, i: int, expected: dict) -> str | None:
    rec = expected["ops"][i]
    if op[0] == "cli":
        return None if _sha256(res["out"]) == rec else "stdout differs from the recorded digest"
    width = res["hi"] - res["lo"]
    return None if abs(width - rec) <= WIDTH_TOL else f"width {width} != recorded {rec}"


def record(wl: workloads.Workload, first: list[dict]) -> dict:
    return {"seed": wl.seed,
            "ops": [_sha256(r["out"]) if op[0] == "cli" else r["hi"] - r["lo"]
                    for op, r in zip(wl.ops, first)]}


# -- metrics -----------------------------------------------------------------

def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_time(passes: list[dict], key: str = "t") -> float:
    """Time of one pass: the sum over its operations of each operation's
    median time across the passes.  Every pass has the same inputs, so this
    is the pass time with short bursts of machine noise filtered out, even
    when a burst spoils a different operation in each pass.  key="t_ref"
    gives it in units of the reference timed next to each operation."""
    return sum(statistics.median(p["ops"][i][key] for p in passes)
               for i in range(len(passes[0]["ops"])))


def end_to_end(wl: workloads.Workload, passes: list[dict], setups: list[tuple]) -> dict:
    """`setups` holds (set-up time, dependency import time) pairs."""
    metrics = {
        "wall_ref": pass_time(passes, "t_ref"),
        "setup_s": statistics.median(s / d for s, d in setups) * NOMINAL_DEPS_IMPORT_S,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extra = {"setup_raw_s": (statistics.median(s for s, _ in setups), "s"),
             "deps_import_p50_s": (statistics.median(d for _, d in setups), "s"),
             "wall_s": (pass_time(passes), "s"),
             "reference_p50_s": (statistics.median(r for p in passes for r in p["refs"]), "s")}
    sim = [(op[2], res) for p in passes for op, res in zip(wl.ops, p["ops"])
           if op[1] == "simulate"]
    if sim:
        evals = sum(int(workloads.flag(a, "--reps", "50000"))
                    * len(workloads.flag(a, "--methods", "").split(","))
                    * len(workloads.flag(a, "--eta", "0").split(",")) for a, _ in sim)
        extra["reps_per_s"] = (evals / sum(r["t"] for _, r in sim), "evals/s")
    lat = [res["t"] for p in passes for op, res in zip(wl.ops, p["ops"]) if op[0] == "absmax"]
    if len(lat) >= 2:
        extra["interval_p50_s"] = (statistics.median(lat), "s")
        extra["interval_p98_s"] = (_percentile(lat, 98), "s")
        extra["interval_samples"] = (len(lat), "count")
    return metrics, extra


def layer_metrics(trace: dict) -> dict:
    """Per-layer counts and times of one traced pass, from its spans."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, list] = {}
    self_by_name: dict[str, float] = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(end - start)
        self_by_name[name] = self_by_name.get(name, 0.0) + (end - start - child_time[i])

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(by_name.get(name, ()))

    def pct(name, q):
        d = by_name.get(name, [])
        return _percentile(d, q) if len(d) >= 2 else (d[0] if d else 0.0)

    def under_interval(i):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == "bivariate.abs_max_interval":
                return True
            parent = spans[parent][3]
        return False

    in_intervals = sum(1 for i, s in enumerate(spans)
                       if s[0] == "bivariate.c_plus" and under_interval(i))
    intervals = calls("bivariate.abs_max_interval")
    blocks = trace["counts"].get("mc.blocks", 0)
    selects = ("select.select_top_k", "select.select_abs_max")
    return {
        "mc.run_coverage.calls": calls("mc.run_coverage"),
        "mc.run_coverage.p50_s": pct("mc.run_coverage", 50),
        "mc.run_coverage.p90_s": pct("mc.run_coverage", 90),
        "mc.self_s": self_by_name.get("mc.run_coverage", 0.0),
        "mc.blocks": blocks,
        "dist.seeded_rng_s": total("dist.seeded_rng"),
        "dist.cholesky.calls": calls("dist.cholesky"),
        "dist.cholesky_s": total("dist.cholesky"),
        "bivariate.c_plus.calls": calls("bivariate.c_plus"),
        "bivariate.c_plus_s": total("bivariate.c_plus"),
        "bivariate.c_plus.p50_s": pct("bivariate.c_plus", 50),
        "bivariate.b_region_probability.calls": calls("bivariate.b_region_probability"),
        "bivariate.cplus_curve_build_s": total("bivariate.cplus_curve_build"),
        "bivariate.abs_max_interval.calls": intervals,
        "bivariate.c_plus_per_interval": in_intervals / intervals if intervals else 0.0,
        "baselines.method_offsets.calls": calls("baselines.method_offsets"),
        "baselines.method_offsets_s": total("baselines.method_offsets"),
        "baselines.fcw_constants.calls": calls("baselines.fcw_constants"),
        "baselines.fcw_constants_s": total("baselines.fcw_constants"),
        "baselines.method_tail_levels.calls": calls("baselines.method_tail_levels"),
        "sos.optimize_delta.calls": calls("sos.optimize_delta"),
        "sos.optimize_delta_s": total("sos.optimize_delta"),
        "select.calls": sum(calls(n) for n in selects),
        "select_s": sum(total(n) for n in selects),
        "cli.self_s": self_by_name.get("cli.main", 0.0),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    per_pass = [layer_metrics(p["trace"]) for p in traced]
    # median_low keeps counts whole; they are equal in every traced pass
    metrics = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["cli.output_bytes"] = statistics.median_low(
        sum(len(r.get("out", "").encode("utf-8")) for r in p["ops"]) for p in traced)
    metrics["dist.draw_block_s"] = statistics.median(p["draw_block_s"] for p in traced)
    # derived: mc self time less the time its blocks would take to draw alone
    metrics["mc.count_s_derived"] = (metrics["mc.self_s"]
                                     - metrics["mc.blocks"] * metrics["dist.draw_block_s"])
    metrics["run.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
    # the host's speed drifts between passes, so the difference is taken in
    # reference units and converted back at the run's median reference time
    ref_s = statistics.median(r for p in untraced for r in p["refs"])
    metrics["trace.overhead_s"] = ref_s * (pass_time(traced, "t_ref")
                                           - pass_time(untraced, "t_ref"))
    return metrics


# -- provenance ----------------------------------------------------------------

def provenance(seed: int, child: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        **child["provenance"],
        "threads": {"n_jobs": 1, "child_env": THREAD_ENV,
                    "parent_env": {k: os.environ.get(k) for k in THREAD_ENV}},
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output digests in bench/expected.json")
    args = parser.parse_args(argv)

    if not (SRC / "sosci" / "__init__.py").is_file():
        raise BenchError(f"no sosci package under {SRC}")
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tag = f"{args.workload}-seed{args.seed}"

    untraced, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        deps = import_probe(DEPS_IMPORT)
        untraced.append(run_pass(wl, f"{tag}-u{len(untraced)}", trace=False))
        setups.append((untraced[-1]["setup_s"], deps))
        if args.trace:
            traced.append(run_pass(wl, f"{tag}-t{len(traced)}", trace=True))
        if time.monotonic() - start >= args.seconds or args.record:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        deps = import_probe(DEPS_IMPORT)
        setups.append((import_probe("import sosci, sosci.cli"), deps))

    recorded = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    expected = recorded.get(args.workload)
    if args.record or (expected is not None and expected["seed"] != args.seed):
        expected = None
    passes = untraced + traced
    failed, problems = check_passes(wl, passes, expected)
    attempted = len(wl.ops) * len(passes)
    if args.record:
        if failed:
            raise BenchError("outputs fail their checks; nothing recorded")
        recorded[args.workload] = record(wl, untraced[0]["ops"])
        EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")

    metrics, extra = end_to_end(wl, untraced, setups)
    shown = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    shown.update(extra)
    units, values = E2E_UNITS, metrics
    if args.trace:
        layers = per_layer(traced, untraced)
        shown.update({name: (value, LAYER_UNITS.get(name) or _layer_unit(name))
                      for name, value in layers.items()})
        units, values = LAYER_UNITS, layers
    shown["error_rate"] = (failed / attempted, "ratio")

    result = {
        "workload": args.workload, "trace": args.trace, "correct": failed == 0,
        "attempted": attempted, "failed": failed, "problems": problems,
        "passes": len(untraced), "traced_passes": len(traced),
        "checked_against_record": expected is not None,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
        "per_pass": [{k: p[k] for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
                     for p in passes],
        "provenance": provenance(args.seed, untraced[0]),
    }
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} passes={len(untraced)}"
          f" traced={len(traced)} attempted={attempted} failed={failed}")
    for problem in problems:
        print(f"# FAIL {problem}")
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
