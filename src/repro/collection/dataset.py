"""Dataset containers.

A corpus of thousands of sessions cannot keep every simulated object
alive, so each session is reduced to a :class:`SessionRecord`: TLS
transactions (small — ~20 per session), HTTP transactions and transport
transfers as parallel numpy arrays (a few hundred rows), connection
metadata, and the ground-truth labels.  Packet traces are *not* stored;
they are synthesized on demand from the transfer arrays by
:func:`SessionRecord.packet_trace`.

A :class:`Dataset` is one service plus an ordered list of format-4
shards (:mod:`repro.collection.shards`).  A freshly collected corpus is
one in-memory shard of its records; a corpus file is exactly one shard,
read whole by :meth:`Dataset.load`; a shard directory is many shards
plus a manifest, read one shard at a time on demand.  Counting,
labelling and TLS featurization work from each shard's columns, so the
detector's path never builds a :class:`SessionRecord`; records are
decoded only for callers that iterate or index the sessions.  The JSON
corpus files of formats 1-3 are no longer read: loading one raises
:class:`DatasetFormatError` asking for a re-collection.
"""

from __future__ import annotations

import hashlib
import zipfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro import telemetry
from repro.artifacts import atomic_write_bytes, canonical_json
from repro.collection.shards import (
    MANIFEST_NAME,
    DatasetFormatError,
    Shard,
    ShardEntry,
    format_error,
    read_manifest,
    read_shard,
    save_sharded,
    shard_bytes,
)
from repro.has.player import SessionTrace
from repro.has.services import ServiceProfile
from repro.net.packets import PacketTrace, synthesize_packet_trace
from repro.net.tcp import Transfer
from repro.qoe.labels import TARGETS, SessionLabels, compute_labels
from repro.tlsproxy.records import ResourceType, TlsTransaction
from repro.tlsproxy.table import TransactionTable

__all__ = ["SessionRecord", "Dataset", "DatasetFormatError"]

_RESOURCE_CODES = {rt: i for i, rt in enumerate(ResourceType)}

#: Shards a shard-directory corpus keeps materialized: the one being
#: read plus one of lookahead.
_CACHED_SHARDS = 2


#: Columns of the transfer array, in order.
_TRANSFER_COLUMNS = (
    "connection_id",
    "start",
    "response_start",
    "end",
    "request_bytes",
    "response_bytes",
    "n_packets_down",
    "n_packets_up",
    "n_retransmits",
    "rtt_s",
)


@dataclass
class SessionRecord:
    """One collected session, compact enough to hold thousands of.

    Attributes
    ----------
    service:
        Service name (``svc1``/``svc2``/``svc3``).
    video_id:
        Title streamed.
    tls_transactions:
        The proxy's coarse-grained export — the estimator's input.
    http:
        HTTP transactions as parallel arrays: ``start``, ``end``,
        ``request_bytes``, ``response_bytes``, ``resource_code``,
        ``quality`` (dict of numpy arrays).
    transfers:
        Transport transfers as a ``(n, 10)`` float array with columns
        :data:`_TRANSFER_COLUMNS`; feeds packet-trace synthesis.
    connections:
        ``(connection_id, opened_at, rtt_s)`` rows, ``(m, 3)`` floats.
    labels:
        Ground-truth categorical QoE.
    """

    service: str
    video_id: str
    tls_transactions: list[TlsTransaction]
    http: dict[str, np.ndarray]
    transfers: np.ndarray
    connections: np.ndarray
    labels: SessionLabels
    watch_duration_s: float
    session_end: float
    play_time: float
    stall_time: float
    startup_delay: float
    link_mean_bps: float
    session_hosts: tuple[str, ...] = ()
    scenario: str = "identity"
    workload: str = "has"

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: SessionTrace,
        profile: ServiceProfile,
        workload: str = "has",
    ) -> "SessionRecord":
        """Reduce a full simulation trace to its stored record."""
        http = {
            "start": np.array([t.start for t in trace.http_transactions]),
            "end": np.array([t.end for t in trace.http_transactions]),
            "request_bytes": np.array(
                [t.request_bytes for t in trace.http_transactions], dtype=np.int64
            ),
            "response_bytes": np.array(
                [t.response_bytes for t in trace.http_transactions], dtype=np.int64
            ),
            "resource_code": np.array(
                [_RESOURCE_CODES[t.resource_type] for t in trace.http_transactions],
                dtype=np.int8,
            ),
            "quality": np.array(
                [t.quality_index for t in trace.http_transactions], dtype=np.int8
            ),
        }
        transfers = np.array(
            [
                (
                    t.connection_id,
                    t.start,
                    t.response_start,
                    t.end,
                    t.request_bytes,
                    t.response_bytes,
                    t.n_packets_down,
                    t.n_packets_up,
                    t.n_retransmits,
                    t.rtt_s,
                )
                for t in trace.transfers
            ],
            dtype=np.float64,
        ).reshape(-1, len(_TRANSFER_COLUMNS))
        connections = np.array(
            [(c.connection_id, c.opened_at, c.rtt_s) for c in trace.connections],
            dtype=np.float64,
        ).reshape(-1, 3)
        return cls(
            service=trace.service_name,
            video_id=trace.video_id,
            tls_transactions=list(trace.tls_transactions),
            http=http,
            transfers=transfers,
            connections=connections,
            labels=compute_labels(trace, profile),
            watch_duration_s=trace.watch_duration_s,
            session_end=trace.session_end,
            play_time=trace.play_time,
            stall_time=trace.stall_time,
            startup_delay=trace.startup_delay,
            link_mean_bps=trace.link_mean_bps,
            session_hosts=tuple(sorted(trace.hosts.all_hosts)),
            scenario=getattr(trace, "scenario", "identity"),
            workload=workload,
        )

    # ------------------------------------------------------------------
    @property
    def n_tls_transactions(self) -> int:
        """TLS transactions in the session (the paper's ~19.5 for Svc1)."""
        return len(self.tls_transactions)

    @property
    def n_http_transactions(self) -> int:
        """HTTP transactions in the session."""
        return int(self.http["start"].shape[0])

    @property
    def n_packets(self) -> int:
        """Packets the session's trace would contain (without synthesis)."""
        if self.transfers.shape[0] == 0:
            return 0
        data = int(self.transfers[:, 6].sum() + self.transfers[:, 7].sum())
        # Handshake packets: TCP(3) + ClientHello(1) + server flight(3).
        return data + 7 * int(self.connections.shape[0])

    def iter_transfers(self) -> Iterator[Transfer]:
        """Reconstruct :class:`~repro.net.tcp.Transfer` objects."""
        for row in self.transfers:
            yield Transfer(
                connection_id=int(row[0]),
                start=float(row[1]),
                response_start=float(row[2]),
                end=float(row[3]),
                request_bytes=int(row[4]),
                response_bytes=int(row[5]),
                n_packets_down=int(row[6]),
                n_packets_up=int(row[7]),
                n_retransmits=int(row[8]),
                rtt_s=float(row[9]),
            )

    def packet_trace(self, seed: int = 0, pacing: str = "uniform") -> PacketTrace:
        """Synthesize this session's packet trace on demand.

        ``pacing="burst"`` front-loads data packets within each
        transfer — the token-bucket policing wire signature.
        """
        connections = [
            (int(row[0]), float(row[1]), float(row[2])) for row in self.connections
        ]
        return synthesize_packet_trace(
            self.iter_transfers(),
            connections,
            rng=np.random.default_rng(seed),
            pacing=pacing,
        )

    def resource_mask(self, resource: ResourceType) -> np.ndarray:
        """Boolean mask over HTTP transactions of the given type."""
        return self.http["resource_code"] == _RESOURCE_CODES[resource]


class Dataset:
    """A corpus of sessions from one service: an ordered list of shards.

    ``Dataset(service, sessions)`` holds collected records as one
    in-memory shard; :meth:`load` reads a corpus file (one shard) or a
    shard directory.  A directory corpus reads only its manifest up
    front and materializes shards on demand through a two-shard LRU;
    ``counters`` tallies ``materialized``/``cache_hits`` (mirrored as
    ``shards.*`` telemetry counters).
    """

    def __init__(self, service: str, sessions: Sequence[SessionRecord] = ()):
        self.service = service
        #: The shard directory this corpus reads from (None when its
        #: shards are resident: collected, or loaded from a file).
        self.root: Path | None = None
        #: Manifest rows of a shard directory, in shard order.
        self.entries: list[ShardEntry] = []
        self.counters = {"materialized": 0, "cache_hits": 0}
        self._manifest: dict | None = None
        self._shards: list[Shard] = []
        self._cache: OrderedDict[int, Shard] = OrderedDict()
        self.extend(sessions)

    # -- corpus metadata -------------------------------------------------
    @property
    def profile(self) -> ServiceProfile:
        """The profile this corpus was collected on.

        Resolved through the workload registry (imported lazily to
        keep this module importable without :mod:`repro.workloads`), so
        RTC and live corpora return their own profile types.
        """
        from repro.workloads import get_workload

        return get_workload(self.workload).get_profile(self.service)

    @property
    def workload(self) -> str:
        """The workload the corpus was collected under (one per corpus)."""
        if self._manifest is not None:
            return str(self._manifest.get("workload", "has"))
        return self._shards[0].workload if self._shards else "has"

    @property
    def scenario(self) -> str:
        """The network scenario the corpus was collected under (one per corpus)."""
        if self._manifest is not None:
            return str(self._manifest.get("scenario", "identity"))
        return self._shards[0].scenario if self._shards else "identity"

    @property
    def shard_size(self) -> int | None:
        """Sessions per shard of a shard directory (None otherwise)."""
        return None if self._manifest is None else int(self._manifest["shard_size"])

    @property
    def manifest_digest(self) -> str | None:
        """Content address of a shard directory (SHA-256 of the
        canonical manifest, which itself contains every shard's
        digest); None for resident corpora.  This is what
        :mod:`repro.artifacts` fingerprints chain from."""
        if self._manifest is None:
            return None
        return hashlib.sha256(canonical_json(self._manifest).encode()).hexdigest()[:24]

    # -- shards ----------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.entries) if self.root is not None else len(self._shards)

    def shard(self, index: int) -> Shard:
        """One shard; a directory's shards are read through the LRU."""
        if not 0 <= index < self.n_shards:
            raise IndexError(f"shard index {index} out of range")
        if self.root is None:
            return self._shards[index]
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            self.counters["cache_hits"] += 1
            telemetry.count("shards.cache_hit")
            return cached
        entry = self.entries[index]
        with telemetry.span("shard.load", shard=entry.name) as sp:
            try:
                shard = read_shard(self.root / entry.name)
            except OSError as exc:
                raise format_error(
                    self.root, f"cannot read shard {entry.name}: {exc}"
                ) from exc
            if len(shard) != entry.n_sessions:
                raise format_error(
                    self.root,
                    f"shard {entry.name} holds {len(shard)} sessions, "
                    f"manifest says {entry.n_sessions}",
                )
            sp.set(sessions=len(shard))
        self.counters["materialized"] += 1
        telemetry.count("shards.materialized")
        self._cache[index] = shard
        while len(self._cache) > _CACHED_SHARDS:
            self._cache.popitem(last=False)
        return shard

    def iter_shards(self) -> Iterator[Shard]:
        """The shards in order, materialized one at a time."""
        for i in range(self.n_shards):
            yield self.shard(i)

    def iter_tables(self) -> Iterator[TransactionTable]:
        """Per-shard transaction tables, for shard-at-a-time reduction."""
        for shard in self.iter_shards():
            yield shard.tls_table()

    def drop_caches(self) -> None:
        """Forget materialized directory shards (benchmarks simulate cold reads)."""
        self._cache.clear()

    # -- sessions --------------------------------------------------------
    def _shard_sizes(self) -> list[int]:
        if self.root is not None:
            return [e.n_sessions for e in self.entries]
        return [len(s) for s in self._shards]

    def __len__(self) -> int:
        return sum(self._shard_sizes())

    def __iter__(self) -> Iterator[SessionRecord]:
        for shard in self.iter_shards():
            yield from shard.records()

    def __getitem__(self, index: int) -> SessionRecord:
        sizes = self._shard_sizes()
        if index < 0:
            index += sum(sizes)
        if not 0 <= index < sum(sizes):
            raise IndexError(f"session index {index} out of range")
        for i, size in enumerate(sizes):
            if index < size:
                return self.shard(i).records()[index]
            index -= size

    @property
    def sessions(self) -> list[SessionRecord]:
        """Every session as a record (decodes every shard)."""
        return list(self)

    def extend(self, records: Sequence[SessionRecord]) -> None:
        """Append collected records as a new in-memory shard.

        Records must come from this corpus's service; a shard directory
        is written once and cannot be extended.
        """
        records = list(records)
        for record in records:
            if record.service != self.service:
                raise ValueError(
                    f"record from {record.service!r} cannot join {self.service!r} dataset"
                )
        if not records:
            return
        if self.root is not None:
            raise ValueError("a shard-directory corpus cannot be extended")
        first = records[0]
        self._shards.append(
            Shard(self.service, first.scenario, first.workload, records=records)
        )

    # -- columns ---------------------------------------------------------
    def labels(self, target: str) -> np.ndarray:
        """Ground-truth categories for a target (``combined`` etc.).

        Read from the label columns.  A directory shard that is not
        materialized has only its ``label_<target>`` member read; the
        ``policed`` member is optional on disk (clean shards omit it),
        so its absence reads as all-zeros.
        """
        if target not in TARGETS and target != "policed":
            raise ValueError(
                f"unknown target {target!r}; expected one of "
                f"{TARGETS + ('policed',)}"
            )
        parts = [self._shard_labels(i, target) for i in range(self.n_shards)]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def _shard_labels(self, index: int, target: str) -> np.ndarray:
        if self.root is None or index in self._cache:
            return self.shard(index).labels(target)
        entry = self.entries[index]
        try:
            with np.load(self.root / entry.name, allow_pickle=False) as z:
                member = f"label_{target}"
                if target == "policed" and member not in z.files:
                    return np.zeros(entry.n_sessions, dtype=np.int64)
                return np.asarray(z[member], dtype=np.int64)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
            raise format_error(
                self.root, f"cannot read labels of {entry.name}: {exc}"
            ) from exc

    def label_distribution(self, target: str) -> np.ndarray:
        """Fraction of sessions per category, ``[low, medium, high]``."""
        counts = np.bincount(self.labels(target), minlength=3)
        if counts.sum() == 0:
            return np.zeros(3)
        return counts / counts.sum()

    def tls_table(self) -> TransactionTable:
        """The corpus's TLS transactions as one columnar table.

        Each shard builds its table once (a loaded shard arrives with
        it), so every vectorized consumer shares those instances.  A
        directory corpus materializes every shard here; out-of-core
        paths use :meth:`iter_tables`.
        """
        return TransactionTable.concat(list(self.iter_tables()))

    # -- storage ---------------------------------------------------------
    def save(self, path: str | Path, shard_size: int | None = None):
        """Write the corpus as one format-4 shard file at ``path``.

        The bytes are exactly those
        :func:`repro.collection.shards.write_shard` produces for the
        same sessions, under whatever name the caller gave.  The write
        is atomic (temp file + ``os.replace``), so a concurrent reader
        never sees a truncated corpus.

        With ``shard_size`` set, ``path`` becomes a format-4 *shard
        directory* instead (:func:`repro.collection.shards.save_sharded`
        — ``shard_size`` sessions per npz shard, manifest written
        last), and the corpus loaded back from it is returned.
        """
        path = Path(path)
        if shard_size is not None:
            return save_sharded(self, path, shard_size)
        records = self.sessions
        with telemetry.span("dataset.save", sessions=len(records)) as sp:
            raw = shard_bytes(self.service, records)
            sp.set(bytes=len(raw))
            telemetry.count("dataset.bytes_written", len(raw))
            atomic_write_bytes(path, raw)

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        """Read a corpus written by :meth:`save`.

        ``path`` may be a corpus *file*, read whole — every member is
        decompressed and checked — or a format-4 shard *directory* (or
        its ``manifest.json``), of which only the manifest is read up
        front.  The loader never dispatches on the file suffix.

        A malformed or truncated corpus, or a retired JSON one
        (formats 1-3), raises :class:`DatasetFormatError` naming the
        path.  A missing path keeps raising plain ``OSError``.
        """
        path = Path(path)
        if path.is_dir() or path.name == MANIFEST_NAME:
            root, payload, entries = read_manifest(path)
            dataset = cls(payload["service"])
            dataset.root = root
            dataset.entries = entries
            dataset._manifest = payload
            return dataset
        with telemetry.span("dataset.load", bytes=path.stat().st_size) as sp:
            shard = read_shard(path)
            sp.set(sessions=len(shard))
        dataset = cls(shard.service)
        dataset._shards.append(shard)
        return dataset

    def verify(self) -> dict:
        """Re-hash every shard file of a shard directory against its manifest.

        Returns ``{"shards": n, "bytes": total}`` on success; raises
        :class:`DatasetFormatError` naming every missing or corrupt
        shard otherwise.
        """
        problems = []
        total = 0
        for entry in self.entries:
            try:
                raw = (self.root / entry.name).read_bytes()
            except OSError:
                problems.append(f"{entry.name}: missing")
                continue
            total += len(raw)
            actual = hashlib.sha256(raw).hexdigest()
            if actual != entry.sha256:
                problems.append(
                    f"{entry.name}: digest mismatch "
                    f"(manifest {entry.sha256[:12]}..., file {actual[:12]}...)"
                )
        if problems:
            raise format_error(self.root, "; ".join(problems))
        return {"shards": len(self.entries), "bytes": total}
