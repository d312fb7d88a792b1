"""Format-4 storage: the shard codec, the shard reader, the manifest.

A corpus (:class:`~repro.collection.dataset.Dataset`) is an ordered
list of shards.  A corpus *file* is exactly one shard; a corpus that
must not be materialized whole is a *directory* of them::

    corpus.shards/
        manifest.json        # format, service, per-shard counts/digests
        shard-00000.npz      # chunked columnar block, npz-backed
        shard-00001.npz
        ...

Each shard packs a fixed run of sessions as plain numpy arrays — one
:class:`~repro.tlsproxy.table.TransactionTable` slab for the TLS
columns (the struct-of-arrays layout, SNI dictionary-encoded) plus
flat+offset encodings of the per-session HTTP/transfer/connection
arrays and scalar columns.  ``np.savez_compressed`` stores the raw
bytes, so the round-trip is exact to the bit.

:func:`read_shard` decompresses and checks every member, then keeps
the shard as columns (:class:`Shard`): the TLS table and the label
columns are all the detector reads, and
:class:`~repro.collection.dataset.SessionRecord` objects are decoded
from the other columns only when a caller asks for sessions.

The manifest carries per-shard session counts, per-target label
counts, and the SHA-256 digest of every shard file.  Its
canonical-JSON digest (:attr:`Dataset.manifest_digest
<repro.collection.dataset.Dataset.manifest_digest>`) is the corpus's
content address and is what downstream :mod:`repro.artifacts`
fingerprints hang off — a warm pipeline run reads nothing but the
manifest.

Write protocol (crash safety): shard files land first, each atomically
(temp + ``os.replace``); the manifest is written **last**.  A crash
mid-write therefore leaves a directory without a (current) manifest,
which :func:`read_manifest` reports as an incomplete corpus — never a
silently short one.
"""

from __future__ import annotations

import hashlib
import io
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence
import zipfile

import numpy as np

from repro import telemetry
from repro.artifacts import atomic_write_bytes
from repro.qoe.labels import TARGETS, SessionLabels
from repro.tlsproxy.table import TransactionTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.collection.dataset import Dataset, SessionRecord

__all__ = [
    "DatasetFormatError",
    "MANIFEST_NAME",
    "Shard",
    "ShardEntry",
    "read_manifest",
    "read_shard",
    "save_sharded",
    "shard_bytes",
    "shard_name",
    "write_shard",
]

#: The manifest file every format-4 corpus directory must contain.
MANIFEST_NAME = "manifest.json"

#: Shard file naming (index -> file name).
_SHARD_NAME_FMT = "shard-{:05d}.npz"


class DatasetFormatError(RuntimeError):
    """A corpus file is malformed, truncated, or of an unknown format."""


def shard_name(index: int) -> str:
    """Canonical shard file name for a shard index."""
    return _SHARD_NAME_FMT.format(index)


def format_error(root: Path, message: str) -> DatasetFormatError:
    """The error for a malformed shard directory."""
    return DatasetFormatError(f"corrupt sharded corpus {root}: {message}")


# ----------------------------------------------------------------------
# Shard block codec: list[SessionRecord] -> dict of arrays


def _str_array(values: Sequence[str]) -> np.ndarray:
    if not values:
        return np.empty(0, dtype="<U1")
    return np.asarray(list(values), dtype=np.str_)


def _offsets_of(counts: Iterable[int], n: int) -> np.ndarray:
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(counts, dtype=np.int64, count=n), out=offsets[1:])
    return offsets


_HTTP_DTYPES = {
    "start": np.float64,
    "end": np.float64,
    "request_bytes": np.int64,
    "response_bytes": np.int64,
    "resource_code": np.int8,
    "quality": np.int8,
}

_OFFSET_COLUMNS = (
    "session_hosts_offsets",
    "http_offsets",
    "transfer_offsets",
    "connection_offsets",
)

_SCALAR_COLUMNS = (
    "watch_duration_s",
    "session_end",
    "play_time",
    "stall_time",
    "startup_delay",
    "link_mean_bps",
)


def encode_shard(service: str, records: "Sequence[SessionRecord]") -> dict:
    """One shard's sessions as a flat dict of numpy arrays.

    Everything numeric keeps its exact dtype (float64 raw bytes, so the
    round-trip is bit-identical); strings become unicode arrays;
    variable-length per-session data is stored flat with an offset
    index, the same layout the transaction table uses.
    """
    n = len(records)
    table = TransactionTable.from_sessions([r.tls_transactions for r in records])
    arrays = {f"tls_{k}": v for k, v in table.to_arrays().items()}
    arrays["service"] = _str_array([service])
    arrays["video_id"] = _str_array([r.video_id for r in records])
    for column in _SCALAR_COLUMNS:
        arrays[column] = np.array(
            [getattr(r, column) for r in records], dtype=np.float64
        )
    arrays["label_rebuffering_ratio"] = np.array(
        [r.labels.rebuffering_ratio for r in records], dtype=np.float64
    )
    for target in TARGETS:
        arrays[f"label_{target}"] = np.array(
            [r.labels.get(target) for r in records], dtype=np.int64
        )
    # Scenario/workload metadata and the policed label appear only when
    # non-default: identity/has shards must serialize byte-for-byte as
    # before those registries existed (golden-digest contract).
    scenario = records[0].scenario if records else "identity"
    if scenario != "identity":
        arrays["scenario"] = _str_array([scenario])
    workload = records[0].workload if records else "has"
    if workload != "has":
        arrays["workload"] = _str_array([workload])
    policed = np.array([r.labels.policed for r in records], dtype=np.int64)
    if policed.any():
        arrays["label_policed"] = policed
    hosts = [h for r in records for h in r.session_hosts]
    arrays["session_hosts"] = _str_array(hosts)
    arrays["session_hosts_offsets"] = _offsets_of(
        (len(r.session_hosts) for r in records), n
    )
    arrays["http_offsets"] = _offsets_of(
        (r.http["start"].shape[0] for r in records), n
    )
    for column, dtype in _HTTP_DTYPES.items():
        parts = [np.asarray(r.http[column], dtype=dtype) for r in records]
        arrays[f"http_{column}"] = (
            np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
        )
    arrays["transfer_offsets"] = _offsets_of(
        (r.transfers.shape[0] for r in records), n
    )
    arrays["transfers"] = (
        np.concatenate([r.transfers for r in records], axis=0)
        if records
        else np.empty((0, 10))
    )
    arrays["connection_offsets"] = _offsets_of(
        (r.connections.shape[0] for r in records), n
    )
    arrays["connections"] = (
        np.concatenate([r.connections for r in records], axis=0)
        if records
        else np.empty((0, 3))
    )
    return arrays


def shard_bytes(service: str, records: "Sequence[SessionRecord]") -> bytes:
    """The npz file bytes of one shard (also a whole corpus file)."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **encode_shard(service, records))
    return buffer.getvalue()


# ----------------------------------------------------------------------
# The shard: columns, with records decoded on demand


class Shard:
    """One shard's sessions: TLS table and labels as columns.

    A shard read from disk (:func:`read_shard`) holds its checked
    columns and decodes :class:`~repro.collection.dataset.SessionRecord`
    objects from them on the first :meth:`records` call.  A shard of
    collected records keeps them and builds its table on first use.
    """

    def __init__(
        self,
        service: str,
        scenario: str,
        workload: str,
        records: "list[SessionRecord] | None" = None,
        columns: dict | None = None,
        table: TransactionTable | None = None,
    ):
        self.service = service
        self.scenario = scenario
        self.workload = workload
        self._records = records
        self._columns = columns
        self._table = table

    def __len__(self) -> int:
        if self._columns is None:
            return len(self._records)
        return self._table.n_sessions

    def tls_table(self) -> TransactionTable:
        """Every session's TLS transactions as one columnar table."""
        if self._table is None:
            self._table = TransactionTable.from_sessions(
                [r.tls_transactions for r in self._records]
            )
        return self._table

    def labels(self, target: str) -> np.ndarray:
        """One label column (``policed`` included), as a fresh array."""
        if self._columns is not None:
            return self._columns[f"label_{target}"].copy()
        return np.array([r.labels.get(target) for r in self._records], dtype=np.int64)

    def records(self) -> "list[SessionRecord]":
        """The shard's sessions as records, decoded once."""
        if self._records is None:
            self._records = self._decode()
        return self._records

    def _decode(self) -> "list[SessionRecord]":
        from repro.collection.dataset import SessionRecord

        c = self._columns
        table = self._table
        hosts = [str(h) for h in c["session_hosts"]]
        host_offsets = c["session_hosts_offsets"]
        http_offsets = c["http_offsets"]
        transfer_offsets = c["transfer_offsets"]
        connection_offsets = c["connection_offsets"]
        records = []
        for i in range(len(self)):
            lo, hi = int(http_offsets[i]), int(http_offsets[i + 1])
            records.append(
                SessionRecord(
                    service=self.service,
                    video_id=str(c["video_id"][i]),
                    tls_transactions=table.transactions(i),
                    http={
                        column: c[f"http_{column}"][lo:hi].copy()
                        for column in _HTTP_DTYPES
                    },
                    transfers=c["transfers"][
                        transfer_offsets[i]:transfer_offsets[i + 1]
                    ].copy(),
                    connections=c["connections"][
                        connection_offsets[i]:connection_offsets[i + 1]
                    ].copy(),
                    labels=SessionLabels(
                        rebuffering_ratio=float(c["label_rebuffering_ratio"][i]),
                        rebuffering=int(c["label_rebuffering"][i]),
                        quality=int(c["label_quality"][i]),
                        combined=int(c["label_combined"][i]),
                        policed=int(c["label_policed"][i]),
                    ),
                    **{column: float(c[column][i]) for column in _SCALAR_COLUMNS},
                    session_hosts=tuple(hosts[host_offsets[i]:host_offsets[i + 1]]),
                    scenario=self.scenario,
                    workload=self.workload,
                )
            )
        return records


def _validated_shard(arrays: dict) -> Shard:
    """Check every member of one shard and keep it as columns.

    Every check a decoded :class:`SessionRecord` would make runs here,
    once per column, so a shard that loads can always be decoded.
    """
    table = TransactionTable.from_arrays(
        {k[len("tls_"):]: arrays[k] for k in arrays if k.startswith("tls_")}
    )
    if np.any(table.end < table.start):
        raise ValueError("a TLS transaction ends before it starts")
    counts = np.concatenate([table.uplink, table.downlink])
    if np.any(counts < 0) or np.any(counts != np.floor(counts)):
        raise ValueError("TLS byte counts must be non-negative whole numbers")
    if "" in table.sni:
        raise ValueError("a TLS transaction has an empty SNI")
    n = table.n_sessions

    def column(name: str, dtype, rows, width: int | None = None) -> np.ndarray:
        values, expected = arrays[name], np.dtype(dtype)
        # Exact dtypes: a cast would truncate or wrap a corrupt value
        # silently.  Strings only need to be unicode, of any width.
        if values.dtype != expected and not values.dtype.kind == expected.kind == "U":
            raise ValueError(f"{name} has dtype {values.dtype}, expected {expected}")
        if values.shape != ((rows,) if width is None else (rows, width)):
            raise ValueError(f"{name} does not cover every session")
        return values

    columns = {}
    for name in _OFFSET_COLUMNS:
        offsets = columns[name] = column(name, np.int64, n + 1)
        if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ValueError(f"{name} must rise monotonically from 0")
    columns["video_id"] = column("video_id", np.str_, n)
    for name in _SCALAR_COLUMNS + ("label_rebuffering_ratio",):
        columns[name] = column(name, np.float64, n)
    arrays.setdefault("label_policed", np.zeros(n, dtype=np.int64))
    for target in TARGETS + ("policed",):
        top = 1 if target == "policed" else 2
        labels = columns[f"label_{target}"] = column(f"label_{target}", np.int64, n)
        if np.any((labels < 0) | (labels > top)):
            raise ValueError(f"label_{target} holds a category outside 0-{top}")
    columns["session_hosts"] = column(
        "session_hosts", np.str_, columns["session_hosts_offsets"][-1]
    )
    for name, dtype in _HTTP_DTYPES.items():
        columns[f"http_{name}"] = column(f"http_{name}", dtype, columns["http_offsets"][-1])
    columns["transfers"] = column(
        "transfers", np.float64, columns["transfer_offsets"][-1], 10
    )
    columns["connections"] = column(
        "connections", np.float64, columns["connection_offsets"][-1], 3
    )
    return Shard(
        str(arrays["service"][0]),
        str(arrays["scenario"][0]) if "scenario" in arrays else "identity",
        str(arrays["workload"][0]) if "workload" in arrays else "has",
        columns=columns,
        table=table,
    )


#: Leading bytes of the retired JSON corpus files (formats 1-3):
#: gzip's magic number, or the JSON text itself.
_JSON_CORPUS_HEADS = (b"\x1f\x8b", b"{", b"[")


def read_shard(path: str | Path) -> Shard:
    """Read one shard file — a corpus file or a directory's shard.

    Every member is decompressed (the zip CRC checks each) and
    validated before the shard is returned.  Any malformed, truncated
    or retired-format file raises a single :class:`DatasetFormatError`
    naming ``path``; decoding internals (``BadZipFile``, ``KeyError``,
    ...) never leak.  A missing path raises plain ``OSError``.
    """
    with open(path, "rb") as fh:
        if fh.read(64).lstrip().startswith(_JSON_CORPUS_HEADS):
            raise DatasetFormatError(
                f"{path} is a JSON corpus (format 1-3); those formats are "
                "no longer read — re-collect the corpus"
            )
        fh.seek(0)
        try:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ValueError("not an npz archive")
            with archive:
                return _validated_shard({name: archive[name] for name in archive.files})
        except (
            ValueError,
            KeyError,
            IndexError,
            EOFError,
            zlib.error,
            zipfile.BadZipFile,
        ) as exc:
            raise DatasetFormatError(f"corrupt corpus file {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Manifest entries


@dataclass(frozen=True)
class ShardEntry:
    """One shard's manifest row."""

    name: str
    n_sessions: int
    sha256: str
    #: ``target -> [low, medium, high]`` session counts.
    label_counts: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_sessions": self.n_sessions,
            "sha256": self.sha256,
            "label_counts": self.label_counts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardEntry":
        return cls(
            name=str(payload["name"]),
            n_sessions=int(payload["n_sessions"]),
            sha256=str(payload["sha256"]),
            label_counts={
                target: [int(c) for c in counts]
                for target, counts in payload["label_counts"].items()
            },
        )


def write_shard(
    root: str | Path,
    index: int,
    service: str,
    records: "Sequence[SessionRecord]",
) -> ShardEntry:
    """Serialize one shard atomically and return its manifest entry.

    The npz bytes are built in memory (one shard is small by
    construction), hashed, and committed with temp + ``os.replace`` —
    a reader never sees a torn shard file.
    """
    root = Path(root)
    name = shard_name(index)
    with telemetry.span("shard.write", shard=name, sessions=len(records)) as sp:
        raw = shard_bytes(service, records)
        sp.set(bytes=len(raw))
        atomic_write_bytes(root / name, raw)
    label_counts = {
        target: np.bincount(
            np.array([r.labels.get(target) for r in records], dtype=np.int64),
            minlength=3,
        ).tolist()
        for target in TARGETS
    }
    policed = np.array([r.labels.policed for r in records], dtype=np.int64)
    if policed.any():
        # Manifest rows stay unchanged for clean corpora (digest
        # contract); impaired ones additionally count [clean, policed].
        label_counts["policed"] = np.bincount(policed, minlength=2).tolist()
    return ShardEntry(
        name=name,
        n_sessions=len(records),
        sha256=hashlib.sha256(raw).hexdigest(),
        label_counts=label_counts,
    )


def manifest_payload(
    service: str,
    shard_size: int,
    entries: Sequence[ShardEntry],
    scenario: str = "identity",
    workload: str = "has",
) -> dict:
    """The manifest dict for a list of shard entries.

    The scenario and workload keys are emitted only when non-default,
    so identity/has manifests — and therefore their digests, the
    artifact-cache content addresses — are byte-identical to
    pre-registry ones.
    """
    payload = {
        "format": 4,
        "service": service,
        "shard_size": int(shard_size),
        "n_sessions": int(sum(e.n_sessions for e in entries)),
        "shards": [e.to_dict() for e in entries],
    }
    if scenario != "identity":
        payload["scenario"] = str(scenario)
    if workload != "has":
        payload["workload"] = str(workload)
    return payload


def write_manifest(root: str | Path, payload: dict) -> None:
    """Commit the manifest (the write that makes the corpus visible)."""
    atomic_write_bytes(
        Path(root) / MANIFEST_NAME,
        (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode(),
    )


def read_manifest(path: str | Path) -> tuple[Path, dict, list[ShardEntry]]:
    """``(root, payload, entries)`` of a shard directory (or its manifest).

    A directory without a manifest — an interrupted write, or simply
    not a corpus — raises :class:`DatasetFormatError` saying so; a
    malformed manifest likewise.
    """
    root = Path(path)
    if root.name == MANIFEST_NAME:
        root = root.parent
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise format_error(
            root,
            f"no {MANIFEST_NAME} (incomplete shard directory — "
            "interrupted write? — or not a corpus)",
        )
    try:
        payload = json.loads(manifest.read_text())
        if not isinstance(payload, dict):
            raise ValueError("manifest is not a JSON object")
        version = payload.get("format")
        if version != 4:
            raise ValueError(f"unknown shard-directory format {version!r}")
        if not isinstance(payload["service"], str):
            raise ValueError("manifest service is not a string")
        if int(payload["shard_size"]) < 1:
            raise ValueError("manifest shard_size must be >= 1")
        entries = [ShardEntry.from_dict(e) for e in payload["shards"]]
        claimed = int(payload["n_sessions"])
        held = sum(e.n_sessions for e in entries)
        if held != claimed:
            raise ValueError(
                f"manifest claims {claimed} sessions but shards hold {held}"
            )
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise format_error(root, str(exc)) from exc
    return root, payload, entries


def save_sharded(dataset: "Dataset", path: str | Path, shard_size: int) -> "Dataset":
    """Write any corpus as a format-4 shard directory.

    Sessions are consumed shard-at-a-time, so peak memory is bounded by
    ``shard_size`` even when re-sharding a corpus that does not fit in
    RAM.  Shard files are written first (each atomic), the manifest
    last; any stale manifest is removed up front so a crash mid-write
    leaves an explicitly incomplete directory, and stale shard files
    beyond the new manifest are cleaned up afterwards.  Returns the
    corpus loaded back from the directory.
    """
    from repro.collection.dataset import Dataset

    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = root / MANIFEST_NAME
    if manifest.exists():
        manifest.unlink()
    service = dataset.service
    with telemetry.span(
        "dataset.save_sharded", sessions=len(dataset), shard_size=shard_size
    ):
        entries: list[ShardEntry] = []
        pending: list = []
        for record in dataset:
            pending.append(record)
            if len(pending) == shard_size:
                entries.append(write_shard(root, len(entries), service, pending))
                pending = []
        if pending:
            entries.append(write_shard(root, len(entries), service, pending))
        keep = {e.name for e in entries}
        for stale in root.glob("shard-*.npz"):
            if stale.name not in keep:
                stale.unlink()
        write_manifest(
            root,
            manifest_payload(
                service,
                shard_size,
                entries,
                scenario=dataset.scenario,
                workload=dataset.workload,
            ),
        )
    return Dataset.load(root)
