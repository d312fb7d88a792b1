"""``python -m repro corpus info|verify|shard`` and the sharded
``collect --shard-size`` path: exit codes, messages, and error
friendliness on corrupt or partial corpora."""

import json

import pytest

from repro.cli import main
from repro.collection.shards import MANIFEST_NAME


@pytest.fixture(scope="module")
def mono_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.npz"
    assert main(["collect", "--service", "svc3", "-n", "9", "--seed", "3",
                 "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus.shards"
    assert main(["-j", "1", "collect", "--service", "svc3", "-n", "9",
                 "--seed", "3", "-o", str(out), "--shard-size", "4"]) == 0
    return out


class TestCollectShardSize:
    def test_creates_format4_directory(self, shard_dir):
        assert (shard_dir / MANIFEST_NAME).exists()
        assert len(list(shard_dir.glob("shard-*.npz"))) == 3

    def test_message_names_the_shards(self, tmp_path, capsys):
        out = tmp_path / "c.shards"
        assert main(["-j", "1", "collect", "--service", "svc1", "-n", "5",
                     "--seed", "1", "-o", str(out), "--shard-size", "2"]) == 0
        assert "3 shards of <= 2" in capsys.readouterr().out

    def test_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            main(["collect", "--service", "svc1", "-n", "2",
                  "-o", "x.shards", "--shard-size", "0"])


class TestInfo:
    def test_monolithic(self, mono_path, capsys):
        assert main(["corpus", "info", str(mono_path)]) == 0
        out = capsys.readouterr().out
        assert "format 4 (single-shard file)" in out
        assert "sessions: 9" in out
        assert "combined:" in out

    def test_sharded(self, shard_dir, capsys):
        assert main(["corpus", "info", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "format 4 (sharded directory)" in out
        assert "9 in 3 shards" in out
        assert "manifest digest:" in out

    def test_missing_path(self, tmp_path, capsys):
        assert main(["corpus", "info", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_monolithic_ok(self, mono_path, capsys):
        assert main(["corpus", "verify", str(mono_path)]) == 0
        assert "OK (9 sessions parsed)" in capsys.readouterr().out

    def test_sharded_ok(self, shard_dir, capsys):
        assert main(["corpus", "verify", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "OK (3 shards" in out
        assert "all digests match" in out

    def test_corrupted_shard_fails(self, shard_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken.shards"
        shutil.copytree(shard_dir, broken)
        (broken / "shard-00001.npz").write_bytes(b"garbage")
        assert main(["corpus", "verify", str(broken)]) == 1
        assert "shard-00001.npz" in capsys.readouterr().err

    def test_partial_write_fails_friendly(self, shard_dir, tmp_path, capsys):
        import shutil

        partial = tmp_path / "partial.shards"
        shutil.copytree(shard_dir, partial)
        (partial / MANIFEST_NAME).unlink()
        assert main(["corpus", "verify", str(partial)]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_truncated_json_fails_friendly(self, tmp_path, capsys):
        path = tmp_path / "cut.json"
        path.write_text(json.dumps({"format": 3})[:-4])
        assert main(["corpus", "verify", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestShard:
    def test_reshard_monolithic(self, mono_path, tmp_path, capsys):
        out = tmp_path / "resharded.shards"
        assert main(["corpus", "shard", str(mono_path), "-o", str(out),
                     "--shard-size", "2"]) == 0
        assert "5 shards of <= 2" in capsys.readouterr().out
        assert main(["corpus", "verify", str(out)]) == 0

    def test_resharding_preserves_content(self, mono_path, shard_dir,
                                          tmp_path):
        from repro.collection.dataset import Dataset

        out = tmp_path / "resharded.shards"
        assert main(["corpus", "shard", str(mono_path), "-o", str(out),
                     "--shard-size", "4"]) == 0
        # Same sessions, same chunking — byte-identical shards, so the
        # manifest digest matches the directly-collected directory's.
        assert (
            Dataset.load(out).manifest_digest
            == Dataset.load(shard_dir).manifest_digest
        )

    def test_requires_output(self, mono_path, capsys):
        assert main(["corpus", "shard", str(mono_path)]) == 2
        assert "-o/--output" in capsys.readouterr().err


class TestRetiredFormats:
    @pytest.mark.parametrize("command", ["evaluate", "stream"])
    def test_json_corpus_fails_friendly(self, tmp_path, capsys, command):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": 3, "sessions": []}))
        assert main([command, "--corpus", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "re-collect" in err
