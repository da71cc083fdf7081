"""Run one benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

The job file (written by run.py) lists the steps of one workload pass.  The
child imports sosci from the checkout's src/, runs every step in order,
one at a time, and writes timings, outputs and provenance to the job's
`result` path.  Import time is reported as a monotonic timestamp so that the
parent can measure set-up from just before it started this process.
"""

import time

import sosci
import sosci.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (everything below is outside the set-up time)
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _draw_block_probe(repeats: int = 7) -> float:
    # sample_mvn draws in the order mc uses for one all-normal replicate block
    import statistics

    import numpy as np

    from sosci.dist import sample_mvn

    m = 100
    idx = np.arange(m)
    sigma = 0.5 ** np.abs(np.subtract.outer(idx, idx)).astype(float)
    theta = np.zeros(m)
    times = []
    for rep in range(repeats):
        start = time.perf_counter()
        sample_mvn(theta, sigma, 4096, rep)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


REF_EVERY_S = 0.1  # op time between two reference timings
_SQRT2 = math.sqrt(2.0)


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _pdf(x: float) -> float:
    return 0.3989422804014327 * math.exp(-0.5 * x * x)


def _golden(f, a: float, b: float) -> float:
    g = 0.6180339887498949
    c, d = b - g * (b - a), a + g * (b - a)
    while b - a > 1e-10:
        if f(c) < f(d):
            b, d = d, c
            c = b - g * (b - a)
        else:
            a, c = c, d
            d = a + g * (b - a)
    return 0.5 * (a + b)


class _Clock:
    """Interleaves reference timings with the pass's operations.

    A reference is a fixed computation of about 8 ms that does not use
    sosci: "numpy" draws, multiplies and argsorts a 1024 x 100 block;
    "interpreter" runs golden-section searches and quadratures whose
    integrands are Python functions over math.erfc / math.exp.  On a shared
    2-vCPU VM the host's speed drifted by up to ~1.6x over tens of seconds,
    and each kind slowed by about as much as the workloads whose time it
    resembles, so each operation's time is read in units of the reference
    timed next to it (`t_ref`).
    """

    def __init__(self, kind: str):
        import numpy as np
        from scipy.integrate import quad

        self._np, self._quad = np, quad
        self._rng = np.random.Generator(np.random.Philox(12345))
        self._lower = np.tril(np.full((100, 100), 0.1))
        self._reference = {"numpy": self._numpy, "interpreter": self._interpreter}[kind]
        self.refs = [self._reference_s()]
        self.since_ref = 0.0

    def _numpy(self) -> None:
        z = self._rng.standard_normal((1024, 100))
        self._np.argsort(-(z @ self._lower.T), axis=1, kind="stable")

    def _interpreter(self) -> None:
        for j in range(90):
            _golden(lambda x: (_cdf(x) - 0.9 - j * 1e-3) ** 2, -5.0, 5.0)
        for j in range(18):
            mu = 0.3 + 0.05 * j
            self._quad(lambda t: _pdf(t) * (_cdf(abs(t + mu)) - _cdf(-abs(t + mu))),
                       -2.2, 2.2, points=[-mu], epsabs=1e-11, epsrel=1e-11, limit=200)

    def _reference_s(self) -> float:
        start = time.perf_counter()
        self._reference()
        return time.perf_counter() - start

    def record(self, res: dict) -> dict:
        res["ref"] = len(self.refs) - 1
        self.since_ref += res["t"]
        if self.since_ref >= REF_EVERY_S:
            self.refs.append(self._reference_s())
            self.since_ref = 0.0
        return res

    def close(self, ops: list[dict]) -> None:
        if self.since_ref > 0.0:
            self.refs.append(self._reference_s())
        for res in ops:  # mean of the references either side of the op
            j = res.pop("ref")
            res["t_ref"] = res["t"] / (0.5 * (self.refs[j] + self.refs[j + 1]))


def _run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    cpu, start = time.process_time(), time.perf_counter()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            rc = sosci.cli.main(argv)
    except Exception:  # a stray traceback is a failed command, not a crash
        rc, error = None, traceback.format_exc()
    return {"rc": rc, "t": time.perf_counter() - start, "cpu": time.process_time() - cpu,
            "out": buf.getvalue(), "error": error}


def _run_absmax(alpha: float, ws: list[float], clock: _Clock) -> list[dict]:
    # the curve was built by the preceding cplus-curve command of this pass
    curve = sosci.bivariate.cplus_curve(alpha)
    results = []
    for w in ws:
        cpu, start = time.process_time(), time.perf_counter()
        try:
            iv = sosci.bivariate.abs_max_interval([w, 0.0], alpha, curve=curve)
            res = {"lo": iv.lo, "hi": iv.hi}
        except Exception:
            res = {"error": traceback.format_exc()}
        res["t"] = time.perf_counter() - start
        res["cpu"] = time.process_time() - cpu
        results.append(clock.record(res))
    return results


def _provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "sosci_file": sosci.__file__,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(sosci.__file__).startswith(src + os.sep):
        print(f"child: sosci imported from {sosci.__file__}, not {src}", file=sys.stderr)
        return 2

    result = {"ready": READY}
    tracer = None
    if job["trace"]:
        import tracer as tracing

        result["draw_block_s"] = _draw_block_probe()
        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    clock = _Clock(job["reference"])
    for step in job["steps"]:
        if step["kind"] == "cli":
            ops.append(clock.record(_run_cli(step["argv"])))
        else:
            ops.extend(_run_absmax(step["alpha"], step["w"], clock))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB
    clock.close(ops)
    result["wall_s"] = sum(res["t"] for res in ops)
    result["cpu_s"] = sum(res["cpu"] for res in ops)
    result["refs"] = clock.refs

    if tracer is not None:
        tracer.dump(job["spans"])
    result["ops"] = ops
    result["provenance"] = _provenance()
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
