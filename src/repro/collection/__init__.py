"""Data-collection harness (paper §4.1).

Plays the role of the authors' browser-automation framework: streams
sessions under emulated network conditions drawn from the bandwidth
trace corpus, and collects — per session — the transparent proxy's TLS
transactions, the fine-grained HTTP/transfer records needed to
synthesize packet traces, and the player's ground-truth QoE, all packed
into a compact :class:`~repro.collection.dataset.SessionRecord`.
"""

from repro.collection.dataset import Dataset, DatasetFormatError, SessionRecord
from repro.collection.harness import (
    CollectionConfig,
    collect_session,
    default_tcp_params,
)

__all__ = [
    "SessionRecord",
    "Dataset",
    "DatasetFormatError",
    "CollectionConfig",
    "collect_session",
    "default_tcp_params",
]
