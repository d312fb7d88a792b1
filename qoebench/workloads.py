"""The three workloads: train-cold, rescore-warm and stream-live.

Each workload has a ``setup`` (repeated by ``run.py``; its median is
``setup_s``), a ``measure`` that runs the timed loop for a given number
of seconds, and output checks that run outside the timed regions and
raise ``AssertionError`` on any mismatch.  Every call into the program
goes through :class:`bench.Runner`, which times it from outside and
counts it as an operation.

``measure`` returns a :class:`Measurement`: the end-to-end values,
benchmark-side per-layer values, the counts the program's own
counters must reproduce exactly in a traced run, ``work_s``, the
timing the tracing overhead is computed from, and the output checks
that call into the program, which ``run.py`` runs after any tracing
has ended so they add nothing to the trace.
"""

from __future__ import annotations

import functools
import math
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bench import Runner, median, percentile, tail_percentile
from feed import build_feed, release_points, replay_open_loop


@dataclass
class Measurement:
    e2e: dict[str, float]
    layer: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    work_s: float = 0.0
    checks: list[Callable[[], None]] = field(default_factory=list)


def _cold_start(root: Path) -> None:
    """What every job pays first: a fresh interpreter importing the
    library, and the worker pool started."""
    from repro import parallel

    subprocess.run([sys.executable, "-c", "import repro.api"], cwd=root, check=True)
    parallel.shutdown()
    parallel.parallel_map(abs, [-1, -2])


def _room_for_another(began: float, durations: list[float], seconds: float) -> bool:
    """Whether one more iteration of the median length ends within
    ``seconds`` of ``began``: a run never overshoots by a whole
    iteration, so its length does not flip with small speed changes."""
    return time.perf_counter() - began + median(durations) <= seconds


def _latencies(samples_s: list[float]) -> tuple[float, float]:
    """(p50, tail) in ms; the tail is the highest percentile with at
    least ten samples beyond it (the maximum when there is none)."""
    tail = percentile(samples_s, tail_percentile(len(samples_s)))
    return median(samples_s) * 1e3, tail * 1e3


class _Workload:
    """What every workload is built from: its ``spec.json`` section, the
    seed, the checkout root and the run's temporary directory."""

    def __init__(self, spec: dict, seed: int, root: Path, tmp: Path, seconds: float):
        self.spec = spec
        self.seed = seed
        self.root = root
        self.tmp = tmp


class TrainCold(_Workload):
    """Build each service's detector from scratch, the paper's offline path."""

    name = "train-cold"


    def setup(self, runner: Runner) -> None:
        _cold_start(self.root)
        self.dir = Path(tempfile.mkdtemp(prefix="train-", dir=self.tmp))

    def measure(self, runner: Runner, seconds: float) -> Measurement:
        from repro import api

        services = self.spec["services"]
        folds = int(self.spec["cv_folds"])
        builds: list[float] = []
        accuracy: dict[str, float] = {}
        counts = {"collection.sessions": 0, "cv.folds": 0, "dataset.bytes_written": 0}
        fit_rows = 0
        checks: list[Callable[[], None]] = []
        began = time.perf_counter()
        while not builds or _room_for_another(began, builds, seconds):
            build_s = 0.0
            transactions = 0
            for i, (service, n) in enumerate(services.items()):
                t0 = time.perf_counter()
                dataset = runner.call(
                    "collection", service, api.collect_corpus, service,
                    n_sessions=n, seed=self.seed * 100 + i, dependents=5,
                )
                path = self.dir / f"{service}.json.gz"
                runner.call("store.write", service, dataset.save, path, dependents=4)
                loaded = runner.call("store.read", service, api.load_corpus, str(path), dependents=3)
                X, _ = runner.call("features", service, api.extract_features, loaded, dependents=2)
                y = loaded.labels("combined")
                report = runner.call(
                    "ml.cv", service, api.cross_validate, X, y, n_splits=folds, dependents=1
                )
                runner.call("ml.fit", service, api.train_model, X, y)
                build_s += time.perf_counter() - t0
                checks.append(functools.partial(_check_roundtrip, service, dataset, X, y))
                if report.accuracy < float(self.spec["min_cv_accuracy"]):
                    raise AssertionError(
                        f"{service}: CV accuracy {report.accuracy:.3f} below "
                        f"{self.spec['min_cv_accuracy']}"
                    )
                accuracy[service] = report.accuracy
                counts["collection.sessions"] += len(dataset)
                counts["cv.folds"] += folds
                counts["dataset.bytes_written"] += path.stat().st_size
                fit_rows += len(X)
                transactions += sum(len(r.tls_transactions) for r in dataset)
            builds.append(build_s)
        train_wall = median(builds)
        p50, tail = _latencies(builds)
        cv_accuracy = float(np.mean(list(accuracy.values())))
        return Measurement(
            e2e={
                "throughput_per_s": transactions / train_wall,
                "latency_p50_ms": p50,
                "latency_tail_ms": tail,
                "accuracy": cv_accuracy,
            },
            layer={
                "ml.cv_accuracy": cv_accuracy,
                "ml.fit_rows": fit_rows,
            },
            counts=counts,
            work_s=train_wall,
            checks=checks,
        )


def _check_roundtrip(service: str, dataset: Any, X: np.ndarray, y: np.ndarray) -> None:
    """The stored corpus must reproduce the in-memory one exactly."""
    from repro import api

    X_mem, _ = api.extract_features(dataset)
    if not np.array_equal(X_mem, X) or not np.array_equal(dataset.labels("combined"), y):
        raise AssertionError(f"{service}: loaded corpus differs from the collected one")


def _grouping(groups: list) -> tuple:
    """A comparable signature of a ``detect_sessions`` result."""
    return tuple((len(g), g[0].start, g[-1].start) for g in groups)


class RescoreWarm(_Workload):
    """Re-score stored corpora: load, featurize, predict, detect sessions."""

    name = "rescore-warm"


    def setup(self, runner: Runner) -> None:
        from repro import api
        from repro.stream.replay import dataset_streams

        _cold_start(self.root)
        directory = Path(tempfile.mkdtemp(prefix="rescore-", dir=self.tmp))
        per_timeline = int(self.spec["sessions_per_timeline"])
        self.corpora = {}
        for i, (service, n) in enumerate(self.spec["services"].items()):
            dataset = runner.call(
                "collection", service, api.collect_corpus, service,
                n_sessions=n, seed=self.seed * 100 + i,
            )
            path = directory / f"{service}.json.gz"
            runner.call("store.write", service, dataset.save, path)
            X, _ = runner.call("features", service, api.extract_features, dataset)
            y = dataset.labels("combined")
            model = runner.call("ml.fit", service, api.train_model, X, y)
            reference = runner.call("ml.predict", service, model.predict, X)
            timelines = list(
                dataset_streams(dataset, n_streams=math.ceil(n / per_timeline)).values()
            )
            groupings = [
                _grouping(runner.call("sessions", service, api.detect_sessions, t))
                for t in timelines
            ]
            self.corpora[service] = {
                "path": str(path),
                "transactions": sum(len(r.tls_transactions) for r in dataset),
                "labels": y,
                "model": model,
                "reference": reference,
                "timelines": timelines,
                "groupings": groupings,
            }

    def measure(self, runner: Runner, seconds: float) -> Measurement:
        from repro import api

        passes: list[float] = []
        accuracy: dict[str, float] = {}
        rows = merged = found = transactions = 0
        began = time.perf_counter()
        while not passes or _room_for_another(began, passes, seconds):
            pass_s = 0.0
            for service, c in self.corpora.items():
                n_timelines = len(c["timelines"])
                t0 = time.perf_counter()
                loaded = runner.call(
                    "store.read", service, api.load_corpus, c["path"], dependents=2 + n_timelines
                )
                X, _ = runner.call(
                    "features", service, api.extract_features, loaded, dependents=1 + n_timelines
                )
                predictions = runner.call("ml.predict", service, c["model"].predict, X)
                groups = [
                    runner.call("sessions", f"{service}/{j}", api.detect_sessions, t)
                    for j, t in enumerate(c["timelines"])
                ]
                pass_s += time.perf_counter() - t0
                if not np.array_equal(predictions, c["reference"]):
                    raise AssertionError(f"{service}: predictions differ from the reference")
                if [_grouping(g) for g in groups] != c["groupings"]:
                    raise AssertionError(f"{service}: session groupings differ from the reference")
                accuracy[service] = float(np.mean(predictions == c["labels"]))
                rows += len(X)
                merged += len(loaded)
                found += sum(len(g) for g in groups)
                transactions += sum(len(t) for t in c["timelines"])
            passes.append(pass_s)
        per_pass = sum(c["transactions"] for c in self.corpora.values())
        pass_median = median(passes)
        p50, tail = _latencies(passes)
        return Measurement(
            e2e={
                "throughput_per_s": per_pass / pass_median,
                "latency_p50_ms": p50,
                "latency_tail_ms": tail,
                "accuracy": float(np.mean(list(accuracy.values()))),
            },
            layer={
                "ml.predict_rows": rows,
                "sessions.transactions": transactions,
                "sessions.found_ratio": found / merged,
            },
            counts={"collection.sessions": 0, "cv.folds": 0, "dataset.bytes_written": 0},
            work_s=pass_median,
        )


class StreamLive(_Workload):
    """Open-loop replay of concurrent user streams into the stream detector."""

    name = "stream-live"

    def __init__(self, spec: dict, seed: int, root: Path, tmp: Path, seconds: float):
        super().__init__(spec, seed, root, tmp, seconds)
        # The feed grows with the run length, so the ladder fills it.
        self.n_streams = max(1, round(float(spec["streams_per_run_second"]) * seconds))

    def setup(self, runner: Runner) -> None:
        from repro import StreamConfig, api
        from repro.collection.harness import CollectionConfig

        _cold_start(self.root)
        spec = self.spec
        lo, hi = spec["watch_s"]
        watch = CollectionConfig(min_watch_s=float(lo), max_watch_s=float(hi))
        pools = {}
        for i, service in enumerate(spec["services"]):
            pools[service] = runner.call(
                "collection", service, api.collect_corpus, service,
                n_sessions=int(spec["pool_per_service"]), seed=self.seed * 100 + i,
                config=watch,
            )
        features = [
            runner.call("features", s, api.extract_features, d)[0] for s, d in pools.items()
        ]
        labels = [d.labels("combined") for d in pools.values()]
        self.model = runner.call(
            "ml.fit", "pool", api.train_model, np.vstack(features), np.concatenate(labels)
        )
        self.config = StreamConfig(idle_timeout_s=float(spec["idle_timeout_s"]))
        self.feed = build_feed(pools, spec, self.n_streams, seed=self.seed)
        self.release = runner.call(
            "stream.reference", "feed", release_points, self.feed.events, self.config
        )

    def measure(self, runner: Runner, seconds: float) -> Measurement:
        spec = self.spec
        batch = int(spec["micro_batch"])
        ratio = float(spec["sustain_ratio"])
        rungs = []
        for rate in spec["ladder_eps"]:
            rung = replay_open_loop(
                self.model, self.config, self.feed, self.release, float(rate), batch, runner,
                keep_verdicts=not rungs,
            )
            rungs.append(rung)
            # Past the first rate the detector cannot keep up with, every
            # higher rate falls behind too.
            if not rung.kept_up(ratio) and rate > spec["high_eps"]:
                break
        # The high reference rate is replayed again and its latency
        # percentiles are taken over the pooled samples of every replay.
        for _ in range(int(spec["high_repeats"]) - 1):
            rungs.append(
                replay_open_loop(
                    self.model, self.config, self.feed, self.release,
                    float(spec["high_eps"]), batch, runner,
                )
            )
        low = next(r for r in rungs if r.rate == float(spec["low_eps"]))
        highs = [r for r in rungs if r.rate == float(spec["high_eps"])]
        high = highs[0]
        limit = float(spec["latency_limit_ms"])
        passing = [r for r in rungs if r.sustainable(limit, ratio)]
        for r in sorted(rungs, key=lambda r: r.rate):
            print(
                f"rate {r.rate:>8.0f} eps: achieved {r.achieved_eps:>8.0f}, verdict p50 "
                f"{median(r.latency_s) * 1e3:7.1f} ms p99 {percentile(r.latency_s, 99) * 1e3:7.1f} ms "
                f"(n={len(r.latency_s)}), generator late p99 "
                f"{percentile(r.late_s, 99) * 1e3:7.1f} ms, busy {r.busy_s / r.wall_s:.2f}"
                f"{'' if r in passing else '  (not sustainable)'}",
                file=sys.stderr,
            )
        sustainable = max(passing, key=lambda r: r.rate).achieved_eps if passing else 0.0
        n_events = len(self.feed.events)
        # Events per second the detector spends ingesting, over every
        # rung: the capacity behind the sustainable rate, free of the
        # schedule noise that decides a rung near capacity.
        capacity = n_events * len(rungs) / sum(r.busy_s for r in rungs)
        p50, p99 = _latencies([s for r in highs for s in r.latency_s])
        low_p50, low_p99 = _latencies(low.latency_s)
        # Each verdict is judged against the placed session most of its
        # transactions came from; sessions the window cuts have no label.
        truth = [(self.feed.true_label(v), v.category) for v in rungs[0].verdicts]
        scored = [(label, category) for label, category in truth if label is not None]
        correct = sum(1 for label, category in scored if label == category)
        return Measurement(
            e2e={
                "throughput_per_s": capacity,
                "latency_p50_ms": p50,
                "latency_tail_ms": p99,
                "accuracy": correct / len(scored),
            },
            layer={
                "stream.sustainable_eps": sustainable,
                "stream.verdict_p50_ms.low": low_p50,
                "stream.verdict_p99_ms.low": low_p99,
                "stream.verdicts.high": len(high.latency_s),
                "stream.batch_p50_ms": median(high.batch_s) * 1e3,
                "stream.batch_p99_ms": percentile(high.batch_s, 99) * 1e3,
                "stream.busy_ratio": high.busy_s / high.wall_s,
                "stream.score_wait_p99_ms": percentile(high.score_wait_s, 99) * 1e3,
                "stream.flush_s": high.flush_s,
                "stream.flush_verdicts": high.flush_verdicts,
                "stream.active_max": high.active_max,
                "stream.evicted": high.stats["evicted"],
                "stream.late_dropped": high.stats["late_dropped"],
                "stream.generator_late_p99_ms": percentile(high.late_s, 99) * 1e3,
                "stream.backlog_max": high.backlog_max,
                "ml.predict_rows": sum(r.predict_rows for r in rungs),
            },
            counts={
                "stream.ingested": n_events * len(rungs),
                "stream.scored": sum(r.n_verdicts for r in rungs),
                "stream.evicted": sum(len(r.evicted_streams) for r in rungs),
                "stream.late_dropped": 0,
            },
            work_s=high.busy_s,
            checks=[functools.partial(self._check, rungs)],
        )

    def _check(self, rungs: list) -> None:
        """Stream == batch over the whole feed; every rung emits the same
        verdicts; the detector's counters reconcile exactly."""
        from repro.stream.replay import check_batch_equivalence

        check_batch_equivalence(
            self.feed.streams, rungs[0].verdicts, self.model, config=self.config
        )
        n_events = len(self.feed.events)
        for rung in rungs:
            if rung.digest != rungs[0].digest:
                raise AssertionError(f"rate {rung.rate}: verdicts differ from rate {rungs[0].rate}")
            stats = rung.stats
            if stats["ingested"] != n_events:
                raise AssertionError(f"rate {rung.rate}: ingested {stats['ingested']} of {n_events}")
            if not stats["scored"] == rung.n_verdicts == len(self.release):
                raise AssertionError(
                    f"rate {rung.rate}: scored {stats['scored']}, verdicts "
                    f"{rung.n_verdicts}, sessions {len(self.release)}"
                )
            if stats["late_dropped"] or stats["active"] or stats["pending"] or stats["queued"]:
                raise AssertionError(f"rate {rung.rate}: detector left state behind: {stats}")


WORKLOADS = {w.name: w for w in (TrainCold, RescoreWarm, StreamLive)}
