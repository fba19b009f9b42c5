"""In-memory span tracing of qcs layers, installed from outside the package.

Each traced function is replaced at the name its caller looks it up under,
so the package itself stays untouched.  A call records one span: name,
start, end, parent span id, run id, plus the work counts of that call.
Spans stay in memory until the process reports them.
"""

from __future__ import annotations

import functools
import inspect
import os
import time

import numpy as np


class Tracer:
    """Records nested spans for one process; ``run_id`` tags the current config."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._open = []

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recording a span per call; ``count(bound_args, result)``
        gives the span's work counts and runs after the span has closed."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id,
                "counts": {},
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = count(bound.arguments, result)
            return result

        return traced


def _dft_counts(args, result):
    freqs = np.atleast_1d(np.asarray(args["freqs"]))
    return {"evals": args["stream"].count * freqs.size}


def _coverage_times_counts(args, result):
    return {
        "trials": int(result.size),
        "censored": int(np.count_nonzero(result == args["m_max"] + 1)),
    }


def install(tracer: Tracer) -> None:
    """Patch every traced layer of the already imported ``qcs`` package.

    ``experiments`` imported ``sample_arrivals`` and ``apply_detector`` by
    name, so they are patched there; the other layers are reached through
    their module (``min_measurements`` and ``coverage_mc`` call
    ``coverage_times`` through the ``coverage`` globals, ``dft_estimate``
    calls ``dft_coefficients`` through ``reconstruction``).  ``harness``
    shares its ``RUNNERS`` dict with ``experiments``.
    """
    from qcs import coverage, experiments, harness, reconstruction, signals

    patches = [
        (experiments, "sample_arrivals", "frontend.sample_arrivals",
         lambda a, r: {"photons": r.count}),
        (experiments, "apply_detector", "frontend.apply_detector",
         lambda a, r: {"events": r.count}),
        (signals, "render_intensity", "signals.render_intensity", None),
        (reconstruction, "dft_coefficients", "reconstruction.dft_coefficients", _dft_counts),
        (coverage, "coverage_times", "coverage.coverage_times", _coverage_times_counts),
        (coverage, "min_measurements", "coverage.min_measurements", None),
        (coverage, "coverage_mc", "coverage.coverage_mc",
         lambda a, r: {"trials": r.trials}),
        (harness, "load_config", "harness.load_config", None),
        (harness, "emit_results", "harness.emit_results",
         lambda a, r: {"bytes": os.path.getsize(a["path"])}),
        (harness, "run_experiment", "harness.run_experiment", None),
    ]
    for module, attr, name, count in patches:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
    for experiment, runner in list(harness.RUNNERS.items()):
        harness.RUNNERS[experiment] = tracer.wrap(f"experiments.{runner.__name__}", runner)

