"""The 38 TLS-transaction features of the paper (§3, Table 1).

Three groups, all computable from nothing but (start, end, uplink
bytes, downlink bytes) of a session's TLS transactions:

* **Session-level (4)** — ``SDR_DL``, ``SDR_UL`` (session data rates),
  ``SES_DUR`` (duration), ``TRANS_PER_SEC``.
* **Transaction statistics (18)** — min/median/max of six
  per-transaction metrics: ``DL_SIZE``, ``UL_SIZE``, ``DUR``, ``TDR``
  (transaction data rate), ``D2U`` (downlink-to-uplink ratio), ``IAT``
  (inter-arrival time of transaction starts).
* **Temporal (16)** — cumulative downlink and uplink bytes inside the
  growing intervals ``[0, X]`` for X ∈ {30, 60, 120, 240, 480, 720,
  960, 1200} seconds from session start; transactions partially
  overlapping an interval contribute pro-rata to their overlap (the
  paper's footnote 6 approximation).

Rates are in bytes/second and sizes in bytes; tree models are
scale-invariant and the distance-based models standardize internally.

One kernel computes the features: :func:`extract_tls_table`, segment
reductions over a :class:`~repro.tlsproxy.table.TransactionTable`, with
no per-session loop.  Every other entry point is a call into it:

* :func:`extract_tls_features` — one session's transaction list, as a
  one-session table;
* :func:`extract_tls_matrix` — a whole corpus (or one shard at a time);
* the flow features (:mod:`repro.netflow.features`) and the stream
  detector (:mod:`repro.stream.engine`), on tables of their own rows.

Each session's features are reductions over that session's rows only,
so a session gets the same vector whichever sessions share its table.
The tests hold the kernel bit-identical to an independent scalar
per-session oracle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry
from repro.tlsproxy.records import TlsTransaction
from repro.tlsproxy.table import TransactionTable, segment_min_med_max

__all__ = [
    "TEMPORAL_INTERVALS",
    "TLS_FEATURE_NAMES",
    "agnostic_feature_names",
    "feature_groups",
    "extract_tls_features",
    "extract_tls_matrix",
    "extract_tls_table",
    "select_features",
]

#: Interval end-points (seconds) for the temporal features.  The paper
#: treats these as a tunable hyperparameter; these are its defaults,
#: finer near session start where an empty buffer makes QoE fragile.
TEMPORAL_INTERVALS: tuple[int, ...] = (30, 60, 120, 240, 480, 720, 960, 1200)

_SESSION_FEATURES = ("SDR_DL", "SDR_UL", "SES_DUR", "TRANS_PER_SEC")
_TXN_METRICS = ("DL_SIZE", "UL_SIZE", "DUR", "TDR", "D2U", "IAT")
_TXN_STATS = ("MIN", "MED", "MAX")
_TXN_FEATURES = tuple(f"{m}_{s}" for m in _TXN_METRICS for s in _TXN_STATS)
_TEMPORAL_FEATURES = tuple(
    f"CUM_{direction}_{x}s" for x in TEMPORAL_INTERVALS for direction in ("DL", "UL")
)

#: All 38 feature names, in extraction order.
TLS_FEATURE_NAMES: tuple[str, ...] = (
    _SESSION_FEATURES + _TXN_FEATURES + _TEMPORAL_FEATURES
)


def temporal_feature_names(
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> tuple[str, ...]:
    """Temporal feature names for a given interval grid."""
    return tuple(
        f"CUM_{direction}_{x}s" for x in intervals for direction in ("DL", "UL")
    )


def feature_names(intervals: tuple[int, ...] = TEMPORAL_INTERVALS) -> tuple[str, ...]:
    """Full feature schema for a given temporal-interval grid."""
    return _SESSION_FEATURES + _TXN_FEATURES + temporal_feature_names(intervals)


def feature_groups() -> dict[str, tuple[str, ...]]:
    """The paper's three feature groups (Table 1 / Table 3 ablation)."""
    return {
        "session_level": _SESSION_FEATURES,
        "transaction_stats": _TXN_FEATURES,
        "temporal": _TEMPORAL_FEATURES,
    }


def agnostic_feature_names() -> tuple[str, ...]:
    """The application-agnostic feature subset (Berger et al. style).

    The 22 session-level + transaction-statistic features: rates,
    sizes, durations, and ratios that make no assumption about the
    application's traffic shape.  What this drops is the temporal
    group, whose cumulative-byte interval grid is tuned to buffered
    HAS sessions (startup burst, then steady state out to 1200 s) —
    the assumption RTC calls and live streams violate.
    """
    return _SESSION_FEATURES + _TXN_FEATURES


def select_features(
    X: np.ndarray,
    names: Sequence[str],
    subset: Sequence[str],
) -> np.ndarray:
    """Column-project a feature matrix onto a named subset, in order.

    Raises ``ValueError`` naming any requested feature absent from
    ``names`` (e.g. asking for a temporal column of an interval grid
    the matrix was not extracted with).
    """
    index = {name: i for i, name in enumerate(names)}
    missing = [name for name in subset if name not in index]
    if missing:
        raise ValueError(f"features not in this matrix: {missing}")
    cols = np.fromiter((index[name] for name in subset), dtype=np.int64)
    return np.asarray(X)[:, cols]


def extract_tls_features(
    transactions: Sequence[TlsTransaction],
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> np.ndarray:
    """The feature vector of one session (38-dim for the paper's grid).

    ``transactions`` is everything the proxy exported for the session;
    order does not matter.  ``intervals`` is the temporal-interval
    hyperparameter (paper §3); the default is the paper's grid.  A
    one-session call into :func:`extract_tls_table`.
    """
    if not transactions:
        raise ValueError("a session needs at least one TLS transaction")
    return extract_tls_table(TransactionTable.from_transactions(transactions), intervals)[0]


def extract_tls_table(
    table: TransactionTable,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> np.ndarray:
    """The feature kernel: one row per table session, by segment reductions.

    The only code that computes the features: the per-session API, the
    corpus matrix, the flow features and the stream detector all call
    it.  No per-session Python loop — every feature is a reduction
    (``reduceat``/sorted-offset arithmetic) over the flat columns, and
    every sum runs within one session's contiguous rows, so a session's
    row is the same whichever other sessions share the table.
    """
    counts = table.counts
    if not counts.all():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(
            f"session {empty} has no TLS transactions; drop empty sessions "
            "before feature extraction (every session needs at least one "
            "transaction)"
        )
    starts, ends = table.start, table.end
    uplink, downlink = table.uplink, table.downlink
    offsets = table.offsets
    lo = offsets[:-1]
    segment_ids = table.session_ids

    session_start = np.minimum.reduceat(starts, lo)
    session_end = np.maximum.reduceat(ends, lo)
    ses_dur = np.maximum(session_end - session_start, 1e-9)

    # Every summed feature in one 2-D reduceat, one summand row each:
    # downlink, uplink, then each transaction's pro-rata share of every
    # [0, X] interval (downlink and uplink interleaved, in schema
    # order).  Reducing along the contiguous row axis sums each
    # session's rows in the order a 1-D reduceat would.  The
    # (interval, row) share matrix is updated in place: fresh
    # temporaries at each step double its cost on corpus-sized tables.
    rel_start = starts - session_start[segment_ids]
    rel_end = ends - session_start[segment_ids]
    span = np.maximum(rel_end - rel_start, 1e-9)
    share = np.minimum(rel_end, np.asarray(intervals, dtype=np.float64)[:, None])
    share -= rel_start
    np.clip(share, 0.0, None, out=share)
    share /= span
    np.minimum(share, 1.0, out=share)
    summands = np.empty((2 + 2 * len(intervals), table.n_rows), dtype=np.float64)
    summands[0] = downlink
    summands[1] = uplink
    np.multiply(downlink, share, out=summands[2::2])
    np.multiply(uplink, share, out=summands[3::2])
    sums = np.add.reduceat(summands, lo, axis=1)

    columns = [
        sums[0] / ses_dur,  # SDR_DL
        sums[1] / ses_dur,  # SDR_UL
        ses_dur,  # SES_DUR
        counts.astype(np.float64) / ses_dur,  # TRANS_PER_SEC
    ]

    durations = ends - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        tdr = np.where(durations > 0, downlink / np.maximum(durations, 1e-9), downlink)
        d2u = np.where(uplink > 0, downlink / np.maximum(uplink, 1e-9), downlink)

    # Min/median/max of the five per-row metrics: sorted by (session,
    # value), each metric's rows ascend within every session, so the
    # statistics sit at fixed positions from the offsets — gathered for
    # all five at once.  The median of an even count is the mean of the
    # two middle values, numpy's convention.
    ranked = np.stack(
        [m[np.lexsort((m, segment_ids))] for m in (downlink, uplink, durations, tdr, d2u)]
    )
    middle = (ranked[:, lo + (counts - 1) // 2] + ranked[:, lo + counts // 2]) / 2.0
    for low, mid, high in zip(ranked[:, lo], middle, ranked[:, offsets[1:] - 1]):
        columns.extend((low, mid, high))

    # IAT: diffs of within-session sorted start times.  Sorting the
    # flat column by (session, start) keeps sessions contiguous, so the
    # per-row diff is valid everywhere except the first row of each
    # session, which is dropped.  A one-row session has no IAT and gets
    # zeros.
    sorted_starts = starts[np.lexsort((starts, segment_ids))]
    diffs = sorted_starts[1:] - sorted_starts[:-1]
    keep = np.ones(max(table.n_rows - 1, 0), dtype=bool)
    keep[lo[1:] - 1] = False
    iat = diffs[keep]
    iat_counts = counts - 1
    iat_offsets = np.zeros(offsets.shape[0], dtype=np.int64)
    np.cumsum(iat_counts, out=iat_offsets[1:])
    iat_ids = np.repeat(np.arange(table.n_sessions, dtype=np.int64), iat_counts)
    columns.extend(segment_min_med_max(iat, iat_offsets, iat_ids))

    matrix = np.column_stack(columns + [sums[2:].T])
    if matrix.shape[1] != len(feature_names(intervals)):
        raise AssertionError("feature matrix width drifted from the schema")
    return matrix


def extract_tls_matrix(
    dataset,
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Feature matrix for a whole corpus — the columnar fast path.

    ``dataset`` is a :class:`~repro.collection.dataset.Dataset`, reduced
    *shard at a time* from each shard's TLS table (one shard
    materialized at once for a shard directory, rows stacked in shard
    order), or a :class:`~repro.tlsproxy.table.TransactionTable`
    directly.  No session record is built.  Returns ``(X, names)`` with
    one row per session; ``names`` equals :data:`TLS_FEATURE_NAMES`
    for the default interval grid.  Output equals stacking
    :func:`extract_tls_features` per session: every feature is a
    within-session reduction, so chunking cannot change any value.
    """
    names = feature_names(intervals)
    tables = [dataset] if isinstance(dataset, TransactionTable) else dataset.iter_tables()
    with telemetry.span("features.tls", sessions=len(dataset)) as sp:
        blocks = []
        transactions = 0
        for table in tables:
            if table.n_sessions:
                blocks.append(extract_tls_table(table, intervals))
                transactions += table.n_rows
        X = np.vstack(blocks) if blocks else np.empty((0, len(names)))
        sp.set(transactions=transactions, rows=int(X.shape[0]), cols=int(X.shape[1]))
    return X, names
