"""Corpus file tests: a corpus file is exactly one format-4 shard.

Round-trips under any file name, the store telemetry, the checked-in
corpus fixture, and the :class:`DatasetFormatError` contract for
malformed, truncated and retired (JSON formats 1-3) files."""

import gzip
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.collection.dataset import Dataset, DatasetFormatError
from repro.collection.harness import collect_corpus
from repro.collection.shards import shard_bytes
from repro.features.tls_features import extract_tls_matrix

FIXTURE = Path(__file__).resolve().parent / "data" / "corpus-svc3-115-303.npz"

#: SHA-256 of the fixture's 38-feature matrix, computed from the
#: format-2 cache file it was converted from (svc3, 115 sessions,
#: seed 303) before the JSON formats were retired.
FIXTURE_FEATURES_SHA256 = (
    "96ab9801f48e0c067d3b9899342ef7e96df1273b8dd731880fe9600e8aae1e81"
)


@pytest.fixture(scope="module")
def corpus():
    return collect_corpus("svc2", 8, seed=7)


def assert_datasets_equal(a: Dataset, b: Dataset) -> None:
    assert a.service == b.service
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.tls_transactions == rb.tls_transactions
        assert ra.video_id == rb.video_id
        assert ra.session_hosts == rb.session_hosts
        assert ra.labels == rb.labels
        np.testing.assert_array_equal(ra.transfers, rb.transfers)
        np.testing.assert_array_equal(ra.connections, rb.connections)
        for key in ra.http:
            np.testing.assert_array_equal(ra.http[key], rb.http[key])


def rewrite_members(path: Path, edit) -> None:
    """Re-save a corpus file after ``edit`` mutated its member dict."""
    with np.load(path, allow_pickle=False) as z:
        arrays = {name: z[name] for name in z.files}
    edit(arrays)
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path.write_bytes(buffer.getvalue())


class TestFormat3Roundtrip:
    """A saved file is one shard under any name; the loader never
    dispatches on the suffix (format 3 was JSON until it was retired)."""

    def test_plain_json(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        corpus.save(path)
        assert path.read_bytes() == shard_bytes(corpus.service, corpus.sessions)
        assert_datasets_equal(Dataset.load(path), corpus)

    def test_gzipped(self, corpus, tmp_path):
        path = tmp_path / "corpus.json.gz"
        corpus.save(path)
        assert path.read_bytes()[:2] == b"PK"  # an npz (zip), not gzip
        assert_datasets_equal(Dataset.load(path), corpus)

    def test_load_prepopulates_table(self, corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        corpus.save(path)
        with telemetry.tracing() as tracer:
            loaded = Dataset.load(path)
            table = loaded.tls_table()
        assert "table.build" not in {e["name"] for e in tracer.events}
        np.testing.assert_array_equal(table.start, corpus.tls_table().start)
        assert table.sni == corpus.tls_table().sni

    def test_session_count_mismatch_rejected(self, corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        corpus.save(path)
        rewrite_members(
            path, lambda a: a.update(http_offsets=a["http_offsets"][:-1])
        )
        with pytest.raises(DatasetFormatError, match="cover every session"):
            Dataset.load(path)

    def test_empty_corpus_roundtrip(self, tmp_path):
        path = tmp_path / "empty.npz"
        Dataset(service="svc1").save(path)
        loaded = Dataset.load(path)
        assert loaded.service == "svc1"
        assert len(loaded) == 0
        assert loaded.labels("combined").shape == (0,)

    def test_bytes_written_equals_file_size(self, corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        with telemetry.tracing() as tracer:
            corpus.save(path)
            Dataset.load(path)
        assert tracer.counters["dataset.bytes_written"] == path.stat().st_size
        spans = {e["name"]: e["attrs"] for e in tracer.events}
        assert spans["dataset.save"]["bytes"] == path.stat().st_size
        assert spans["dataset.load"]["sessions"] == len(corpus)

    def test_overwrite_is_byte_identical(self, corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        corpus.save(path)
        first = path.read_bytes()
        Dataset.load(path).save(path)
        assert path.read_bytes() == first


class TestColumnarLoad:
    """The detector's path — load, TLS features, labels, length — reads
    the shard columns and builds no per-session object."""

    @pytest.fixture(params=["file", "directory"])
    def stored(self, request, corpus, tmp_path):
        if request.param == "file":
            path = tmp_path / "corpus.npz"
            corpus.save(path)
        else:
            path = tmp_path / "corpus.shards"
            corpus.save(path, shard_size=3)
            assert Dataset.load(path).n_shards == 3
        return path

    def test_no_records_built(self, corpus, stored, monkeypatch):
        from repro import api
        from repro.collection.dataset import SessionRecord
        from repro.tlsproxy.records import TlsTransaction
        from repro.tlsproxy.table import TransactionTable

        decoded = Dataset.load(stored)
        X_ref, _ = extract_tls_matrix(
            TransactionTable.from_sessions([r.tls_transactions for r in decoded])
        )
        y_ref = np.array([r.labels.combined for r in decoded], dtype=np.int64)
        np.testing.assert_array_equal(X_ref, extract_tls_matrix(corpus)[0])

        def forbidden(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the TLS path")

        monkeypatch.setattr(TlsTransaction, "__init__", forbidden)
        monkeypatch.setattr(SessionRecord, "__init__", forbidden)
        loaded = Dataset.load(stored)
        X, _ = api.extract_features(loaded)
        y = loaded.labels("combined")
        assert len(loaded) == len(corpus)
        assert X.tobytes() == X_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()
        with pytest.raises(AssertionError, match="built on the TLS path"):
            loaded[0]


class TestBackwardsCompatibility:
    @pytest.mark.skipif(not FIXTURE.exists(), reason="corpus fixture missing")
    def test_checked_in_format2_cache(self):
        """The checked-in fixture (converted from the format-2 cache
        file once, when the JSON formats were retired) keeps its feature
        digest and equals a fresh collection byte for byte."""
        old = Dataset.load(FIXTURE)
        X, _ = extract_tls_matrix(old)
        assert hashlib.sha256(X.tobytes()).hexdigest() == FIXTURE_FEATURES_SHA256
        fresh = collect_corpus("svc3", 115, seed=303)
        np.testing.assert_array_equal(fresh.labels("combined"), old.labels("combined"))
        assert FIXTURE.read_bytes() == shard_bytes(fresh.service, fresh.sessions)

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_json_corpus_asks_for_recollection(self, tmp_path, gzipped):
        raw = json.dumps({"format": 3, "service": "svc1", "sessions": []}).encode()
        path = tmp_path / "old.json"
        path.write_bytes(gzip.compress(raw) if gzipped else raw)
        with pytest.raises(DatasetFormatError, match="re-collect") as excinfo:
            Dataset.load(path)
        assert str(path) in str(excinfo.value)
        assert "1-3" in str(excinfo.value)


class TestDatasetFormatError:
    """Every corruption mode surfaces as DatasetFormatError naming the
    path — never a bare KeyError/BadZipFile/zlib internals."""

    @pytest.fixture()
    def saved(self, corpus, tmp_path):
        path = tmp_path / "corpus.npz"
        corpus.save(path)
        return path

    def _assert_raises_format_error(self, path):
        with pytest.raises(DatasetFormatError) as excinfo:
            Dataset.load(path)
        assert str(path) in str(excinfo.value)
        return excinfo.value

    def test_truncated_gzip(self, tmp_path):
        """A cut-off copy of a retired gzip corpus still fails friendly."""
        raw = gzip.compress(json.dumps({"format": 3, "sessions": []}).encode())
        path = tmp_path / "cut.json.gz"
        path.write_bytes(raw[: len(raw) // 2])
        self._assert_raises_format_error(path)

    def test_truncated_file(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[: len(raw) // 2])
        self._assert_raises_format_error(saved)

    def test_garbage_bytes(self, saved):
        raw = bytearray(saved.read_bytes())
        mid = len(raw) // 2
        raw[mid : mid + 64] = b"\xff" * 64
        saved.write_bytes(bytes(raw))
        self._assert_raises_format_error(saved)

    def test_not_a_corpus_at_all(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"garbage")
        self._assert_raises_format_error(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json at all")
        self._assert_raises_format_error(path)

    def test_missing_keys(self, saved):
        rewrite_members(saved, lambda a: a.pop("label_combined"))
        self._assert_raises_format_error(saved)

    def test_unknown_format_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": 99, "service": "svc1", "sessions": []}))
        err = self._assert_raises_format_error(path)
        assert "re-collect" in str(err)

    def test_non_dict_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        self._assert_raises_format_error(path)

    def test_single_array_is_not_a_corpus(self, tmp_path):
        path = tmp_path / "array.npy"
        np.save(path, np.arange(3))
        self._assert_raises_format_error(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tls_column(self, saved, bad):
        def poison(arrays):
            start = arrays["tls_start"].copy()
            start[1] = bad
            arrays["tls_start"] = start

        rewrite_members(saved, poison)
        err = self._assert_raises_format_error(saved)
        assert "non-finite" in str(err)

    @pytest.mark.parametrize(
        "member, value",
        [
            ("tls_uplink", -1.0),  # negative byte count
            ("tls_downlink", 2.5),  # fractional byte count
            ("tls_end", -1.0),  # ends before it starts
            ("tls_host_codes", -1),  # outside the SNI dictionary
            ("label_quality", 3),  # not a category
            ("http_request_bytes", 2.5),  # an int64 member stored as float
        ],
    )
    def test_member_value_a_record_could_not_hold(self, saved, member, value):
        """The columns are checked at load as a decoded record would
        check them, so the TLS path cannot read a value the records
        would refuse."""

        def poison(arrays):
            column = arrays[member].astype(type(value))
            column[0] = value
            arrays[member] = column

        rewrite_members(saved, poison)
        self._assert_raises_format_error(saved)

    def test_offsets_not_covering_rows(self, saved):
        def shorten(arrays):
            offsets = arrays["tls_offsets"].copy()
            offsets[-1] -= 1
            arrays["tls_offsets"] = offsets

        rewrite_members(saved, shorten)
        err = self._assert_raises_format_error(saved)
        assert "offsets" in str(err)

    def test_missing_file_still_oserror(self, tmp_path):
        """A missing file is an I/O problem, not a format problem."""
        with pytest.raises(OSError):
            Dataset.load(tmp_path / "nope.json")

