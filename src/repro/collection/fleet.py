"""Coordinator/worker shard fleet: collect, extract, score at scale.

The out-of-core counterpart of :mod:`repro.collection.harness`: a
coordinator process hands *shards* (not sessions) to a worker pool and
workers stream their results straight to disk, so corpus size never
bounds peak memory — only ``shard_size`` does.  The queue shape is the
broadcaster/receiver pattern: one task per shard submitted to
:func:`repro.parallel.parallel_dispatch`, workers pulling the next
shard as they free up.

Three task kinds, one shard each:

* **collect** — :func:`collect_corpus_sharded`: the worker simulates
  its shard's sessions (per-session ``SeedSequence.spawn`` streams, so
  the corpus is bit-identical for any worker count or shard size),
  writes the shard file itself, and returns only the manifest entry —
  no session payload ever crosses the queue.  The coordinator writes
  ``manifest.json`` last, in shard order.
* **extract** — :func:`extract_tls_sharded`: the coordinator first
  *probes* the artifact store for every shard's feature block
  (:meth:`~repro.artifacts.ArtifactStore.lookup`, counting hits); only
  the absent shards go to workers, which are pure compute — they load
  the shard from disk and return its matrix; the coordinator commits
  the results (counting misses).  Workers never touch the store, so
  process-local config overrides (tests pinning ``cache_dir``) cannot
  desynchronize the cache, and per-stage counters reconcile exactly:
  ``hits + misses == n_shards``.
* **score** — :func:`score_sharded`: extract + predict one shard per
  task, predictions concatenated in manifest order.

Every result is concatenated in manifest order and every per-session
computation is independent, so all three are bit-identical to their
monolithic counterparts for ``REPRO_JOBS=1`` and any other count.
"""

from __future__ import annotations

import dataclasses
import pickle
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.artifacts import get_store
from repro.collection.dataset import Dataset
from repro.collection.harness import (
    CollectionConfig,
    collect_records,
    resolve_collection_scenario,
    resolve_collection_workload,
)
from repro.collection.shards import (
    ShardEntry,
    manifest_payload,
    read_shard,
    write_manifest,
    write_shard,
)
from repro.config import get_config
from repro.features.tls_features import (
    TEMPORAL_INTERVALS,
    extract_tls_table,
    feature_names,
)
from repro.has.services import ServiceProfile
from repro.parallel import parallel_dispatch, resolve_jobs

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "collect_corpus_sharded",
    "extract_tls_sharded",
    "score_sharded",
    "shard_bounds",
]

#: Sessions per shard when neither the caller nor ``REPRO_SHARD_SIZE``
#: says otherwise — large enough to amortize per-shard overhead, small
#: enough that a materialized shard is tens of megabytes.
DEFAULT_SHARD_SIZE = 512


def shard_bounds(n_sessions: int, shard_size: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` session ranges of each shard, in shard order."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (lo, min(lo + shard_size, n_sessions))
        for lo in range(0, n_sessions, shard_size)
    ]


def _resolve_shard_size(shard_size: int | None) -> int:
    if shard_size is None:
        shard_size = get_config().shard_size
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return int(shard_size)


def _picklable(value: object) -> bool:
    try:  # custom profiles/models may close over unpicklable state
        pickle.dumps(value)
        return True
    except Exception:
        return False


# ----------------------------------------------------------------------
# Collection


def _collect_shard(task) -> dict:
    """Worker: simulate one shard's sessions and write the shard file.

    Only the manifest entry returns over the queue; the sessions go
    straight to disk, which is what bounds coordinator memory.
    """
    profile, config, root, index, seeds = task
    records = collect_records(profile, config, seeds)
    entry = write_shard(root, index, profile.name, records)
    return entry.to_dict()


def collect_corpus_sharded(
    service: str | ServiceProfile,
    n_sessions: int,
    out,
    shard_size: int | None = None,
    seed: int = 0,
    config: CollectionConfig | None = None,
    n_jobs: int | None = None,
    workload=None,
) -> Dataset:
    """Collect a corpus directly into a format-4 shard directory.

    The randomness contract matches
    :func:`~repro.collection.harness.collect_corpus` exactly: session
    ``i`` draws from ``SeedSequence(seed).spawn(n_sessions)[i]``
    regardless of shard size or worker count, so the sessions are
    bit-identical to a monolithic collection with the same seed.
    ``shard_size`` defaults to ``REPRO_SHARD_SIZE`` and then to
    :data:`DEFAULT_SHARD_SIZE`.  Returns the corpus over ``out``, of
    which only the manifest has been read.
    """
    if n_sessions < 0:
        raise ValueError("n_sessions must be non-negative")
    config = config or CollectionConfig()
    if workload is None and not isinstance(service, str):
        workload = getattr(service, "workload", None)
    wl = resolve_collection_workload(config, workload)
    profile = wl.get_profile(service) if isinstance(service, str) else service
    # Pin the resolved scenario and workload before dispatch: fleet
    # workers re-parse their own environment, so a coordinator-side
    # override would otherwise silently degrade to the defaults (and
    # break bit-identity between worker counts).
    scenario = resolve_collection_scenario(config)
    config = dataclasses.replace(config, scenario=scenario, workload=wl)
    shard_size = _resolve_shard_size(shard_size)
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    manifest = root / "manifest.json"
    if manifest.exists():
        manifest.unlink()
    jobs = resolve_jobs(n_jobs)
    if jobs > 1 and not _picklable(profile):
        jobs = 1
    with telemetry.span(
        "fleet.collect",
        service=profile.name,
        n_sessions=n_sessions,
        shard_size=shard_size,
        jobs=jobs,
    ) as sp:
        seeds = np.random.SeedSequence(seed).spawn(n_sessions)
        tasks = [
            (profile, config, root, index, seeds[lo:hi])
            for index, (lo, hi) in enumerate(shard_bounds(n_sessions, shard_size))
        ]
        sp.set(shards=len(tasks))
        raw_entries = parallel_dispatch(_collect_shard, tasks, n_jobs=jobs)
        entries = [ShardEntry.from_dict(e) for e in raw_entries]
        write_manifest(
            root,
            manifest_payload(
                profile.name,
                shard_size,
                entries,
                scenario=scenario.name,
                workload=wl.name,
            ),
        )
    return Dataset.load(root)


# ----------------------------------------------------------------------
# Extraction

#: Artifact stage for per-shard TLS feature blocks.
TLS_SHARD_STAGE = "tls-features-shard"


def _extract_shard(task) -> np.ndarray:
    """Worker: pure compute — read one shard, return its feature block.

    The shard is read and checked like any corpus file, and only its
    TLS table is used: no session record is built.  Deliberately
    touches no artifact store: the coordinator owns all cache reads
    and writes, so hit/miss counters and on-disk state stay consistent
    no matter where workers inherited their config.
    """
    path, intervals = task
    return extract_tls_table(read_shard(path).tls_table(), intervals)


def extract_tls_sharded(
    dataset: Dataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
    n_jobs: int | None = None,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """TLS feature matrix of a sharded corpus, one artifact per shard.

    Probe-then-compute: every shard's block is first looked up in the
    artifact store under (stage, intervals, shard digest) — a warm run
    is all hits and touches nothing but the manifest and the cache.
    Missing blocks are computed by pool workers (one shard per task,
    loaded from disk inside the worker) and committed by the
    coordinator, counting one miss each.  Rows are stacked in manifest
    order, so the matrix is bit-identical to
    :func:`~repro.features.tls_features.extract_tls_matrix` on the
    monolithic corpus for any worker count.
    """
    names = feature_names(intervals)
    store = get_store()
    stage_config = {"intervals": list(intervals)}
    with telemetry.span(
        "fleet.extract", shards=dataset.n_shards, sessions=len(dataset)
    ) as sp:
        blocks: list[np.ndarray | None] = []
        missing: list[int] = []
        deps_of = [
            (f"shard:{entry.sha256}",) for entry in dataset.entries
        ]
        for i, deps in enumerate(deps_of):
            value, _ = store.lookup(TLS_SHARD_STAGE, stage_config, deps=deps)
            if value is None:
                blocks.append(None)
                missing.append(i)
            else:
                blocks.append(value["X"])
        sp.set(cached=dataset.n_shards - len(missing), computed=len(missing))
        if missing:
            tasks = [
                (str(dataset.root / dataset.entries[i].name), intervals)
                for i in missing
            ]
            computed = parallel_dispatch(_extract_shard, tasks, n_jobs=n_jobs)
            for i, X in zip(missing, computed):
                value, _ = store.get_or_compute(
                    TLS_SHARD_STAGE,
                    stage_config,
                    build=lambda X=X: {"X": X},
                    deps=deps_of[i],
                )
                blocks[i] = value["X"]
        matrix = (
            np.vstack([b for b in blocks if b is not None and b.shape[0]])
            if any(b is not None and b.shape[0] for b in blocks)
            else np.empty((0, len(names)))
        )
    return matrix, names


# ----------------------------------------------------------------------
# Scoring


def _score_shard(task) -> np.ndarray:
    """Worker: extract one shard's features and run the model on them."""
    model, path, intervals = task
    X = _extract_shard((path, intervals))
    return np.asarray(model.predict(X))


def score_sharded(
    model,
    dataset: Dataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
    n_jobs: int | None = None,
) -> np.ndarray:
    """Model predictions over a sharded corpus, one shard per task.

    Workers extract and predict; the coordinator concatenates in
    manifest order.  Models predict row-independently, so the result
    equals predicting on the monolithic feature matrix.
    """
    jobs = resolve_jobs(n_jobs)
    if jobs > 1 and not _picklable(model):
        jobs = 1
    with telemetry.span(
        "fleet.score", shards=dataset.n_shards, sessions=len(dataset)
    ):
        tasks = [
            (model, str(dataset.root / entry.name), intervals)
            for entry in dataset.entries
        ]
        parts = parallel_dispatch(_score_shard, tasks, n_jobs=jobs)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
