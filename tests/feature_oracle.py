"""Scalar per-session reference for the TLS and flow features.

The library computes every feature through one columnar kernel,
:func:`repro.features.tls_features.extract_tls_table`.  This module is
the independent oracle the kernel is held bit-identical to: the former
per-session implementations, kept verbatim — one transaction list in,
one vector out, evaluated with plain numpy on that session's arrays.

Summation order is the one subtlety.  ``np.ndarray.sum`` and
``np.add.reduceat`` group partial sums differently, so the oracle sums
through :func:`ordered_sum`, a one-segment ``reduceat``: the exact
order the kernel applies to each session's rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.tls_features import TEMPORAL_INTERVALS, feature_names
from repro.netflow.exporter import FlowRecord
from repro.tlsproxy.records import TlsTransaction, transactions_to_columns

_ZERO_OFFSET = np.zeros(1, dtype=np.intp)


def ordered_sum(values: np.ndarray) -> float:
    """Sequential left-to-right sum of a 1-D array.

    This is the summation order :func:`np.add.reduceat` applies to each
    segment, so per-session reference code using ``ordered_sum`` is
    bit-identical to corpus-level code using :func:`segment_sum`.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.add.reduceat(values, _ZERO_OFFSET)[0])


def _stat_triple(values: np.ndarray) -> tuple[float, float, float]:
    """(min, median, max); zeros when there are no values."""
    if values.size == 0:
        return 0.0, 0.0, 0.0
    return float(values.min()), float(np.median(values)), float(values.max())


def extract_tls_features(
    transactions: Sequence[TlsTransaction],
    intervals: tuple[int, ...] = TEMPORAL_INTERVALS,
) -> np.ndarray:
    """The feature vector of one session (38-dim for the paper's grid).

    ``transactions`` is everything the proxy exported for the session;
    order does not matter.  ``intervals`` is the temporal-interval
    hyperparameter (paper §3); the default is the paper's grid.

    This is the reference implementation the columnar fast path
    (:func:`extract_tls_matrix`) is held bit-identical to.
    """
    if not transactions:
        raise ValueError("a session needs at least one TLS transaction")
    starts, ends, uplink, downlink, _ = transactions_to_columns(transactions)

    session_start = float(starts.min())
    session_end = float(ends.max())
    ses_dur = max(session_end - session_start, 1e-9)
    n = len(transactions)

    features = [
        ordered_sum(downlink) / ses_dur,  # SDR_DL
        ordered_sum(uplink) / ses_dur,  # SDR_UL
        ses_dur,  # SES_DUR
        n / ses_dur,  # TRANS_PER_SEC
    ]

    durations = ends - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        tdr = np.where(durations > 0, downlink / np.maximum(durations, 1e-9), downlink)
        d2u = np.where(uplink > 0, downlink / np.maximum(uplink, 1e-9), downlink)
    iat = np.diff(np.sort(starts))
    for metric in (downlink, uplink, durations, tdr, d2u, iat):
        features.extend(_stat_triple(np.asarray(metric, dtype=np.float64)))

    # Temporal: pro-rata share of each transaction inside [0, X].
    rel_start = starts - session_start
    rel_end = ends - session_start
    span = np.maximum(rel_end - rel_start, 1e-9)
    for x in intervals:
        overlap = np.clip(np.minimum(rel_end, x) - rel_start, 0.0, None)
        share = np.minimum(overlap / span, 1.0)
        features.append(ordered_sum(downlink * share))
        features.append(ordered_sum(uplink * share))

    vector = np.asarray(features, dtype=np.float64)
    if vector.shape[0] != len(feature_names(intervals)):
        raise AssertionError("feature vector length drifted from the schema")
    return vector


def extract_flow_features(flows: Sequence[FlowRecord]) -> np.ndarray:
    """Feature vector for one session's flow records (reference path)."""
    if not flows:
        raise ValueError("a session needs at least one flow record")
    as_transactions = [
        TlsTransaction(
            start=f.start,
            end=f.end,
            uplink_bytes=f.bytes_up,
            downlink_bytes=f.bytes_down,
            sni="flow",
        )
        for f in flows
    ]
    base = extract_tls_features(as_transactions)

    pkts_down = np.array([f.packets_down for f in flows], dtype=np.float64)
    pkts_up = np.array([f.packets_up for f in flows], dtype=np.float64)
    bytes_down = np.array([f.bytes_down for f in flows], dtype=np.float64)
    bytes_up = np.array([f.bytes_up for f in flows], dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        size_down = np.where(pkts_down > 0, bytes_down / np.maximum(pkts_down, 1), 0.0)
        size_up = np.where(pkts_up > 0, bytes_up / np.maximum(pkts_up, 1), 0.0)
    session_span = max(f.end for f in flows) - min(f.start for f in flows)
    extra = np.array(
        [
            float(np.median(size_down)),
            float(np.median(size_up)),
            (ordered_sum(pkts_down) + ordered_sum(pkts_up))
            / max(session_span, 1e-9),
        ]
    )
    return np.concatenate([base, extra])
