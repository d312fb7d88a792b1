"""Feature extraction from flow records.

Flow records carry the same information shape as TLS transactions —
(start, end, uplink bytes, downlink bytes) — so the paper's 38-feature
schema applies directly, computed over flow *slices* instead of TLS
connections.  Because the active timeout splits long flows, the
temporal features gain resolution the TLS view lacks; packet counters
additionally enable a mean-packet-size feature family.

Like the TLS pipeline, extraction has one kernel.  Both the
per-session :func:`extract_flow_features` and the corpus
:func:`extract_flow_matrix` pour flow records into one
:class:`~repro.tlsproxy.table.TransactionTable` and call the same
table-level function: the TLS kernel
(:func:`~repro.features.tls_features.extract_tls_table`) plus segment
reductions for the packet statistics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry
from repro.collection.dataset import Dataset
from repro.features.tls_features import TLS_FEATURE_NAMES, extract_tls_table
from repro.netflow.exporter import ExporterConfig, FlowRecord, export_flows
from repro.tlsproxy.table import TransactionTable, segment_min_med_max, segment_sum

__all__ = ["FLOW_FEATURE_NAMES", "extract_flow_features", "extract_flow_matrix"]

#: Flow features: the TLS schema over slices + packet-size statistics.
FLOW_FEATURE_NAMES: tuple[str, ...] = TLS_FEATURE_NAMES + (
    "PKT_SIZE_DOWN_MED",
    "PKT_SIZE_UP_MED",
    "PKTS_PER_SEC",
)


def extract_flow_features(flows: Sequence[FlowRecord]) -> np.ndarray:
    """Feature vector for one session's flow records (a one-session
    call into the kernel :func:`extract_flow_matrix` uses)."""
    if not flows:
        raise ValueError("a session needs at least one flow record")
    return _flow_kernel(*_flow_table([flows]))[0]


def _flow_table(
    per_session: Sequence[Sequence[FlowRecord]],
) -> tuple[TransactionTable, np.ndarray, np.ndarray]:
    """Columns for a corpus's flows: table + packet-count columns."""
    counts = np.fromiter(
        (len(flows) for flows in per_session), dtype=np.int64, count=len(per_session)
    )
    offsets = np.zeros(len(per_session) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    n = int(offsets[-1])
    start = np.empty(n, dtype=np.float64)
    end = np.empty(n, dtype=np.float64)
    bytes_up = np.empty(n, dtype=np.float64)
    bytes_down = np.empty(n, dtype=np.float64)
    pkts_up = np.empty(n, dtype=np.float64)
    pkts_down = np.empty(n, dtype=np.float64)
    i = 0
    for flows in per_session:
        for f in flows:
            start[i] = f.start
            end[i] = f.end
            bytes_up[i] = f.bytes_up
            bytes_down[i] = f.bytes_down
            pkts_up[i] = f.packets_up
            pkts_down[i] = f.packets_down
            i += 1
    table = TransactionTable(
        start=start, end=end, uplink=bytes_up, downlink=bytes_down, offsets=offsets
    )
    return table, pkts_up, pkts_down


def _flow_kernel(
    table: TransactionTable, pkts_up: np.ndarray, pkts_down: np.ndarray
) -> np.ndarray:
    """Flow features of every table session: the TLS kernel plus the
    packet statistics, by segment reductions."""
    base = extract_tls_table(table)
    with np.errstate(divide="ignore", invalid="ignore"):
        size_down = np.where(pkts_down > 0, table.downlink / np.maximum(pkts_down, 1), 0.0)
        size_up = np.where(pkts_up > 0, table.uplink / np.maximum(pkts_up, 1), 0.0)
    offsets = table.offsets
    segment_ids = table.session_ids
    _, med_down, _ = segment_min_med_max(size_down, offsets, segment_ids)
    _, med_up, _ = segment_min_med_max(size_up, offsets, segment_ids)
    lo = offsets[:-1]
    session_span = np.maximum.reduceat(table.end, lo) - np.minimum.reduceat(
        table.start, lo
    )
    pkts_per_sec = (
        segment_sum(pkts_down, offsets) + segment_sum(pkts_up, offsets)
    ) / np.maximum(session_span, 1e-9)
    return np.column_stack([base, med_down, med_up, pkts_per_sec])


def extract_flow_matrix(
    dataset: Dataset, config: ExporterConfig | None = None
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Flow-feature matrix for a whole corpus (exporting on the fly).

    Flow export runs per session (it is stateful by nature), but all
    featurization happens columnar: one table for every flow slice in
    a shard, one kernel call per shard, rows stacked in shard order.
    Every feature is a within-session reduction, so the chunking cannot
    change any value, and output equals stacking
    :func:`extract_flow_features`, which runs the same kernel.
    """
    if len(dataset) == 0:
        return np.empty((0, len(FLOW_FEATURE_NAMES))), FLOW_FEATURE_NAMES
    with telemetry.span("features.flow", sessions=len(dataset)) as sp:
        blocks = []
        n_flows = 0
        for shard in dataset.iter_shards():
            per_session = [export_flows(record, config) for record in shard.records()]
            if any(not flows for flows in per_session):
                raise ValueError("a session needs at least one flow record")
            table, pkts_up, pkts_down = _flow_table(per_session)
            n_flows += table.n_rows
            blocks.append(_flow_kernel(table, pkts_up, pkts_down))
        sp.set(flows=n_flows)
    return np.vstack(blocks), FLOW_FEATURE_NAMES
