"""Span recorder for the traced benchmark pass.

`Tracer.wrap(owner, attr, name)` replaces `owner.attr` with a wrapper that
records one span per call: (name, start, end, parent, thread).  Wrapping
happens at the attribute the caller looks up at call time (for example
`sosci.cli.run_coverage`, not `sosci.mc.run_coverage`), so every call the
program makes through that name is seen without editing the program.
Spans stay in memory and are written once, by `dump`, when the pass ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace calls to `owner.attr` as spans called `name`.

        `count(args, kwargs)` may return a counter name to bump once per call.
        """
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[span_id] = (name, start, end, parent, threading.get_ident())
                key = count(args, kwargs) if count is not None else None
                if key is not None:
                    with tracer._lock:
                        tracer.counts[key] = tracer.counts.get(key, 0) + 1

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _replicate_block(args, kwargs) -> str | None:
    # mc draws block b from seeded_rng(seed, 3, b); the other streams
    # (covariance, theta) are set-up draws, not replicate blocks
    stream = args[1:]
    return "mc.blocks" if len(stream) == 2 and stream[0] == 3 else None


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of sosci that the benchmark workloads cross."""
    import sosci.baselines as baselines
    import sosci.bivariate as bivariate
    import sosci.cli as cli
    import sosci.mc as mc
    import sosci.sos as sos

    points = [
        (cli, "main", "cli.main"),
        (cli, "run_coverage", "mc.run_coverage"),
        (cli, "method_offsets", "baselines.method_offsets"),
        (cli, "optimize_delta", "sos.optimize_delta"),
        (cli, "select_top_k", "select.select_top_k"),
        (cli, "abs_max_interval", "bivariate.abs_max_interval"),
        (mc, "cholesky", "dist.cholesky"),
        (mc, "method_tail_levels", "baselines.method_tail_levels"),
        (mc, "fcw_constants", "baselines.fcw_constants"),
        (mc, "c_plus", "bivariate.c_plus"),
        (baselines, "method_tail_levels", "baselines.method_tail_levels"),
        (baselines, "fcw_constants", "baselines.fcw_constants"),
        (baselines, "optimize_delta", "sos.optimize_delta"),
        (baselines, "select_top_k", "select.select_top_k"),
        (sos, "optimize_delta", "sos.optimize_delta"),
        (sos, "select_top_k", "select.select_top_k"),
        (bivariate, "c_plus", "bivariate.c_plus"),
        (bivariate, "b_region_probability", "bivariate.b_region_probability"),
        (bivariate.CPlusCurve, "build", "bivariate.cplus_curve_build"),
        (bivariate, "abs_max_interval", "bivariate.abs_max_interval"),
        (bivariate, "select_top_k", "select.select_top_k"),
        (bivariate, "select_abs_max", "select.select_abs_max"),
    ]
    for owner, attr, name in points:
        tracer.wrap(owner, attr, name)
    tracer.wrap(mc, "seeded_rng", "dist.seeded_rng", count=_replicate_block)
