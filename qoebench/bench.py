"""Shared plumbing of the end-to-end benchmark.

* :class:`Runner` wraps every call into a layer of the program: it
  counts the call as an attempted operation, counts it (and the
  operations that depended on it) as failed when it raises, re-raises,
  and opens a ``bench.<layer>`` span around it when a tracer is
  installed, so the program's own spans nest underneath.
* Small statistics helpers (median, percentiles) and the peak-RSS
  reading.

Nothing here imports :mod:`repro` at module level: ``run.py`` pins the
environment first.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Sequence

SPEC_PATH = Path(__file__).with_name("spec.json")


def load_spec() -> dict[str, Any]:
    """The benchmark's fixed parameters (sizes, rates, limits, layers)."""
    return json.loads(SPEC_PATH.read_text())


class Runner:
    """Layer-call wrapper with failure accounting.

    ``attempted`` counts layer calls; ``failed`` counts calls that
    raised plus the ``dependents`` that could then not run.  An
    exception is never swallowed: it propagates after being counted.
    """

    def __init__(self) -> None:
        from repro import telemetry

        self._telemetry = telemetry
        self.attempted = 0
        self.failed = 0
        #: Wall seconds of the last call (measured around ``fn`` only).
        self.last_s = 0.0

    def call(
        self,
        layer: str,
        request: str,
        fn: Callable[..., Any],
        *args: Any,
        dependents: int = 0,
        **kwargs: Any,
    ) -> Any:
        self.attempted += 1
        with self._telemetry.span(f"bench.{layer}", request=request):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed += 1 + dependents
                self.attempted += dependents
                raise
            finally:
                self.last_s = time.perf_counter() - t0
        return result


class TimedModel:
    """A fitted model whose ``predict`` runs through the runner.

    Handed to :class:`repro.StreamDetector` in place of the model, so
    the stream's predict calls are timed (and traced) from outside like
    every other layer call.  ``rows`` counts the rows predicted.
    """

    def __init__(self, model: Any, runner: Runner, request: str):
        self.model = model
        self.runner = runner
        self.request = request
        self.rows = 0

    def predict(self, X):
        result = self.runner.call("ml.predict", self.request, self.model.predict, X)
        self.rows += len(X)
        return result


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank, 0 < q <= 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(n: int) -> int:
    """The highest of p99/p90/p75/p50 with at least ten samples beyond it.

    Returns 100 (the maximum) when even the median has fewer than ten
    samples beyond it.
    """
    for q in (99, 90, 75, 50):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return 100


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB.

    Call after :func:`repro.parallel.shutdown` so the pool workers have
    been reaped and count under ``RUSAGE_CHILDREN``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
