"""The stream-live feed: seeded generator, release reference, open-loop replay.

The feed is built from a pool of simulated sessions: each user stream
picks one service, arrives at a staggered time and carries
back-to-back sessions drawn from that service's pool.  Every
consecutive pair of start times within a stream stays far below the
detector's idle timeout, so no stream is evicted while it still has
events to come (mid-stream eviction is a documented divergence from
the batch pipeline).

The replay is open loop: micro-batch ``b`` is due when its last event
is due at the rung's fixed event rate, whether or not the detector has
kept up.  A verdict's latency runs from the due time of the event that
released its session (found once by :func:`release_points`) to the
return of the call that emitted it; the verdicts the final ``flush()``
emits are counted apart.
"""

from __future__ import annotations

import gc
import hashlib
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from bench import Runner, TimedModel, percentile


@dataclass
class Feed:
    """A replayable event feed and the ground truth it was built from."""

    streams: dict[str, list]
    events: list
    #: Per stream, the placed session each transaction (in stream
    #: order) came from.
    placed: dict[str, list[int]]
    #: Combined-QoE label of each placed session (``None`` for sessions
    #: the window cuts).
    labels: list[int | None]

    def true_label(self, verdict) -> int | None:
        """The label of the placed session most of a verdict's
        transactions came from (``None`` when that session is cut)."""
        starts = [t.start for t in self.streams[verdict.stream]]
        first = bisect_left(starts, verdict.session_start)
        ids = self.placed[verdict.stream][first : first + verdict.n_transactions]
        return self.labels[Counter(ids).most_common(1)[0][0]]


def build_feed(pools: dict[str, Any], spec: dict, n_streams: int, seed: int) -> Feed:
    """A ``window_s`` slice of a steady arrival process of user streams.

    Stream arrivals are uniform over ``[-lead_s, window_s]`` and only
    events starting inside ``[0, window_s]`` are kept, so the replay
    starts with streams already in progress and ends before they drain:
    concurrency stays level instead of ramping up and emptying out.
    Sessions cut by either window edge carry no ground-truth label.
    """
    from repro.sessions.boundary import transaction_sort_key

    timeout = float(spec["idle_timeout_s"])
    window = float(spec["window_s"])
    # Sessions whose own start gaps could approach the timeout never
    # enter the feed.
    candidates = {}
    for service, dataset in pools.items():
        keep = []
        for record in dataset:
            starts = np.sort([t.start for t in record.tls_transactions])
            if len(starts) and (len(starts) < 2 or np.diff(starts).max() < timeout / 2):
                keep.append(record)
        if not keep:
            raise ValueError(f"no usable pool session for {service}")
        candidates[service] = keep
    services = sorted(candidates)
    rng = np.random.default_rng(seed)
    streams: dict[str, list] = {}
    placed: dict[str, list[int]] = {}
    labels: list[int | None] = []
    gap = float(spec["browse_gap_s"])
    for user in range(n_streams):
        service = services[int(rng.integers(len(services)))]
        pool = candidates[service]
        key = f"user{user:05d}/{service}"
        cursor = float(rng.uniform(-float(spec["lead_s"]), window))
        tagged = []
        for _ in range(int(spec["sessions_per_stream"])):
            record = pool[int(rng.integers(len(pool)))]
            first = min(t.start for t in record.tls_transactions)
            shifted = [t.shifted(cursor - first) for t in record.tls_transactions]
            # The next session opens shortly after this one's last
            # request, while its connections may still be open.
            cursor = max(t.start for t in shifted) + gap
            kept = [t for t in shifted if 0.0 <= t.start <= window]
            if kept:
                whole = len(kept) == len(shifted)
                tagged.extend((t, len(labels)) for t in kept)
                labels.append(int(record.labels.combined) if whole else None)
        if not tagged:
            continue
        tagged.sort(key=lambda pair: transaction_sort_key(pair[0]))
        starts = np.array([t.start for t, _ in tagged])
        if len(starts) > 1 and np.diff(starts).max() >= timeout:
            raise AssertionError(f"{key}: start gap reaches the idle timeout")
        streams[key] = [t for t, _ in tagged]
        placed[key] = [sid for _, sid in tagged]
    events = [(key, txn) for key, txns in streams.items() for txn in txns]
    events.sort(key=lambda e: transaction_sort_key(e[1]))
    return Feed(streams=streams, events=events, placed=placed, labels=labels)


def release_points(events: list, config) -> dict[tuple[str, int], int | None]:
    """For each session, the index of the event that released it.

    One event at a time with ``score_batch=1`` and no model, so each
    verdict comes back from the ``ingest`` call of the event that made
    its session decidable; sessions only the final flush closes map to
    ``None``.
    """
    from repro import StreamDetector

    detector = StreamDetector(None, config=replace(config, score_batch=1))
    release: dict[tuple[str, int], int | None] = {}
    for i, (key, txn) in enumerate(events):
        for verdict in detector.ingest(key, txn):
            release[(verdict.stream, verdict.session_index)] = i
    for verdict in detector.flush():
        release[(verdict.stream, verdict.session_index)] = None
    return release


@dataclass
class RungResult:
    """What one open-loop replay at a fixed event rate measured."""

    rate: float
    latency_s: list[float] = field(default_factory=list)
    score_wait_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    backlog_max: int = 0
    active_max: int = 0
    busy_s: float = 0.0
    flush_s: float = 0.0
    flush_verdicts: int = 0
    predict_rows: int = 0
    wall_s: float = 0.0
    achieved_eps: float = 0.0
    n_verdicts: int = 0
    #: Streams that emitted a verdict on eviction.
    evicted_streams: set = field(default_factory=set)
    #: Digest of every verdict (stream, index, size, category, features).
    digest: str = ""
    #: The verdicts themselves, kept only when asked for: holding every
    #: rung's verdicts would slow the later rungs' garbage collection.
    verdicts: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def kept_up(self, sustain_ratio: float) -> bool:
        """Whether the replay kept to its schedule: a growing backlog
        shows as an achieved rate below ``sustain_ratio`` of the offered."""
        return self.achieved_eps >= sustain_ratio * self.rate

    def sustainable(self, latency_limit_ms: float, sustain_ratio: float) -> bool:
        """Kept up, with the verdict p99 within the latency limit."""
        return self.kept_up(sustain_ratio) and (
            percentile(self.latency_s, 99) * 1e3 <= latency_limit_ms
        )


def replay_open_loop(
    model: Any,
    config,
    feed: Feed,
    release: dict[tuple[str, int], int | None],
    rate: float,
    micro_batch: int,
    runner: Runner,
    keep_verdicts: bool = False,
) -> RungResult:
    """Offer the feed to a fresh detector at ``rate`` events/s, then flush."""
    from repro import StreamDetector

    timed = TimedModel(model, runner, request=f"rate{int(rate)}")
    detector = StreamDetector(timed, config=config)
    events = feed.events
    n = len(events)
    result = RungResult(rate=rate)
    returned: list[float] = []  # return time of each micro-batch call
    keys: list[tuple] = []
    gc.collect()
    t_start = time.perf_counter() + 0.005

    def record(verdicts: list, t_ret: float) -> None:
        for verdict in verdicts:
            index = release[(verdict.stream, verdict.session_index)]
            if index is None:
                raise AssertionError(
                    f"{verdict.stream}#{verdict.session_index} emitted "
                    "before the flush that alone can release it"
                )
            result.latency_s.append(t_ret - (t_start + index / rate))
            result.score_wait_s.append(t_ret - returned[index // micro_batch])
        collect(verdicts)

    def collect(verdicts: list) -> None:
        for v in verdicts:
            keys.append((v.stream, v.session_index, v.n_transactions, v.category, v.features.tobytes()))
            if v.reason == "eviction":
                result.evicted_streams.add(v.stream)
        if keep_verdicts:
            result.verdicts.extend(verdicts)

    for batch, lo in enumerate(range(0, n, micro_batch)):
        hi = min(lo + micro_batch, n)
        due = t_start + (hi - 1) / rate
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            now = time.perf_counter()
        result.late_s.append(now - due)
        due_events = min(n, int((now - t_start) * rate) + 1)
        result.backlog_max = max(result.backlog_max, due_events - lo)
        out = runner.call(
            "stream", f"rate{int(rate)}/batch{batch}", detector.ingest_many, events[lo:hi]
        )
        t_ret = time.perf_counter()
        returned.append(t_ret)
        result.batch_s.append(runner.last_s)
        result.busy_s += runner.last_s
        result.active_max = max(result.active_max, detector.active_streams)
        record(out, t_ret)
    t_end = returned[-1]
    out = runner.call("stream.flush", f"rate{int(rate)}", detector.flush)
    result.flush_s = runner.last_s
    # The final flush closes every open stream at once, so what it
    # emits is end-of-feed work, counted apart from the latency.
    result.flush_verdicts = len(out)
    collect(out)
    keys.sort()
    result.n_verdicts = len(keys)
    result.digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    result.wall_s = t_end - t_start
    result.achieved_eps = n / (t_end - t_start)
    result.predict_rows = timed.rows
    result.stats = detector.stats()
    return result
