"""Golden-digest equivalence: the identity scenario is bit-identical
to the pre-refactor pipeline.

These digests were pinned on the commit *before* the impairment-
pipeline refactor (svc1, 10 sessions, seed=7).  They freeze the whole
stack below the serialization boundary — bandwidth traces, TCP model,
HAS player, QoE labels, corpus encoding — so any accidental
perturbation of the clean path (a reordered RNG draw, a new serialized
field, a changed default) fails here with a digest mismatch rather
than silently invalidating every cached corpus.

Format 4 pins the manifest digest, which itself covers every shard's
SHA-256.  A corpus file is exactly one shard, so a file holding the
first ``SHARD_SIZE`` sessions must hash to the pre-refactor shard-0
digest.  Both are checked at ``REPRO_JOBS=1`` and ``4``, extending the
worker-count-invariance contract to the golden bytes.
"""

import hashlib

import pytest

from repro.collection.dataset import Dataset
from repro.collection.harness import collect_corpus

SERVICE = "svc1"
N_SESSIONS = 10
SEED = 7
SHARD_SIZE = 4

#: Format-4 manifest digest (covers shard count, sizes, and shard
#: SHA-256s) and the per-shard digest prefixes, pre-refactor.
GOLDEN_MANIFEST_DIGEST = "5f72411e80a4d2175c11778f"
GOLDEN_SHARD_PREFIXES = (
    "b3eb34bbe9a12a28",
    "1ac41344b1e53656",
    "95e3207837c6cca8",
)


def _file_digest_prefix(dataset, path) -> str:
    """SHA-256 prefix of the first shard's sessions saved as one file."""
    Dataset(dataset.service, dataset.sessions[:SHARD_SIZE]).save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_format3_identity_bytes_match_golden(tmp_path, n_jobs):
    dataset = collect_corpus(SERVICE, N_SESSIONS, seed=SEED, n_jobs=n_jobs)
    digest = _file_digest_prefix(dataset, tmp_path / "golden.npz")
    assert digest == GOLDEN_SHARD_PREFIXES[0], (
        f"identity corpus bytes changed (jobs={n_jobs}): the refactor "
        "perturbed the clean pipeline"
    )


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_format4_identity_digests_match_golden(tmp_path, n_jobs):
    from repro.collection.fleet import collect_corpus_sharded

    sharded = collect_corpus_sharded(
        SERVICE,
        N_SESSIONS,
        tmp_path / "shards",
        shard_size=SHARD_SIZE,
        seed=SEED,
        n_jobs=n_jobs,
    )
    assert sharded.manifest_digest == GOLDEN_MANIFEST_DIGEST
    prefixes = tuple(entry.sha256[:16] for entry in sharded.entries)
    assert prefixes == GOLDEN_SHARD_PREFIXES


def test_explicit_identity_config_matches_default(tmp_path):
    # CollectionConfig(scenario="identity") and scenario=None must build
    # the very same corpus: resolution cannot perturb a byte.
    from repro.collection.harness import CollectionConfig

    default = collect_corpus(SERVICE, N_SESSIONS, seed=SEED)
    explicit = collect_corpus(
        SERVICE,
        N_SESSIONS,
        seed=SEED,
        config=CollectionConfig(scenario="identity"),
    )
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    default.save(a)
    explicit.save(b)
    assert a.read_bytes() == b.read_bytes()


def test_explicit_has_workload_matches_golden(tmp_path):
    # The workload registry's default ("has") path must reproduce the
    # pre-registry corpus byte for byte, whether resolved implicitly or
    # requested explicitly — same RNG draw order, no serialized
    # ``workload`` key.
    from repro.collection.harness import CollectionConfig

    explicit = collect_corpus(
        SERVICE,
        N_SESSIONS,
        seed=SEED,
        config=CollectionConfig(workload="has"),
    )
    digest = _file_digest_prefix(explicit, tmp_path / "explicit.npz")
    assert digest == GOLDEN_SHARD_PREFIXES[0], (
        "explicit workload='has' perturbed the golden corpus bytes"
    )
