"""Benchmarks: ML kernel floors — hist training and flattened prediction.

Unlike the experiment benchmarks (which regenerate paper tables), these
enforce *kernel-level* speedup floors on `repro.ml`'s two hot paths:

- histogram training (corpus-level binning + histogram split finding)
  must be ≥10x faster than the exact splitter kept as the oracle in
  ``tests/tree_oracle.py``, for both the forest and gradient boosting;
- flattened batched prediction (:class:`repro.ml.tree.FlatEnsemble`)
  must be ≥20x faster per row than the oracle's per-row Python walk —
  while gathering bit-identical leaf values.

The workload is the real table3 corpus bootstrap-resampled to
deployment scale (fixed shapes, like the stream benchmark — the
contract is "this speedup at this size", so the rows are not
``REPRO_SCALE``-scaled; only the underlying corpus is).  Floors sit
well under the measured speedups on a development container (forest fit
~14x, boosting fit ~11x, prediction ~23x) so they trip on algorithmic
regressions, not machine noise.
"""

import time

import numpy as np
import pytest

from repro.experiments.common import features_for
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from tests.tree_oracle import (
    ExactGradientBoostingClassifier,
    ExactRandomForestClassifier,
    leaf_values_reference,
)

MIN_FOREST_FIT_SPEEDUP = 10.0
MIN_BOOST_FIT_SPEEDUP = 10.0
MIN_PREDICT_SPEEDUP = 20.0

FIT_ROWS = 40_000
BOOST_ROWS = 20_000
PREDICT_TRAIN_ROWS = 8_000
PREDICT_ROWS = 20_000
PREDICT_REF_ROWS = 400


@pytest.fixture(scope="module")
def kernel_workload(svc1_corpus):
    """Table3 corpus features bootstrap-resampled to deployment scale."""
    X_c = features_for(svc1_corpus)[0]
    y_c = svc1_corpus.labels("combined")
    rng = np.random.default_rng(7)
    idx = rng.integers(0, X_c.shape[0], size=FIT_ROWS)
    return X_c[idx], y_c[idx]


def _best_of(n, fn):
    best = np.inf
    result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_bench_hist_forest_fit(benchmark, kernel_workload):
    X, y = kernel_workload
    kw = dict(
        n_estimators=3, max_depth=10, max_features=None, random_state=0, n_jobs=1
    )

    t0 = time.perf_counter()
    exact = ExactRandomForestClassifier(**kw).fit(X, y)
    t_exact = time.perf_counter() - t0

    t0 = time.perf_counter()
    hist = benchmark.pedantic(
        lambda: RandomForestClassifier(**kw).fit(X, y),
        rounds=1,
        iterations=1,
    )
    t_hist = time.perf_counter() - t0

    speedup = t_exact / t_hist
    benchmark.extra_info["rows"] = X.shape[0]
    benchmark.extra_info["exact_s"] = round(t_exact, 3)
    benchmark.extra_info["hist_s"] = round(t_hist, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)

    # Same accuracy envelope on the training distribution.
    sample = X[:4000]
    agree = np.mean(exact.predict(sample) == hist.predict(sample))
    benchmark.extra_info["exact_hist_agreement"] = round(float(agree), 3)
    assert agree > 0.9

    assert speedup >= MIN_FOREST_FIT_SPEEDUP, (
        f"hist forest fit speedup regressed: {speedup:.1f}x "
        f"< floor {MIN_FOREST_FIT_SPEEDUP}x ({t_exact:.2f}s exact, "
        f"{t_hist:.2f}s hist)"
    )


def test_bench_hist_boosting_fit(benchmark, kernel_workload):
    X, y = kernel_workload
    Xb, yb = X[:BOOST_ROWS], y[:BOOST_ROWS]
    kw = dict(n_estimators=12, max_depth=4, random_state=0, n_jobs=1)

    t0 = time.perf_counter()
    ExactGradientBoostingClassifier(**kw).fit(Xb, yb)
    t_exact = time.perf_counter() - t0

    t0 = time.perf_counter()
    benchmark.pedantic(
        lambda: GradientBoostingClassifier(**kw).fit(Xb, yb),
        rounds=1,
        iterations=1,
    )
    t_hist = time.perf_counter() - t0

    speedup = t_exact / t_hist
    benchmark.extra_info["rows"] = Xb.shape[0]
    benchmark.extra_info["exact_s"] = round(t_exact, 3)
    benchmark.extra_info["hist_s"] = round(t_hist, 3)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup >= MIN_BOOST_FIT_SPEEDUP, (
        f"hist boosting fit speedup regressed: {speedup:.1f}x "
        f"< floor {MIN_BOOST_FIT_SPEEDUP}x ({t_exact:.2f}s exact, "
        f"{t_hist:.2f}s hist)"
    )


def test_bench_flat_predict(benchmark, kernel_workload):
    X, y = kernel_workload
    forest = RandomForestClassifier(n_estimators=60, random_state=0).fit(X[:PREDICT_TRAIN_ROWS], y[:PREDICT_TRAIN_ROWS])
    Xq = X[-PREDICT_ROWS:]
    flat = forest._flat_ensemble()
    flat.leaf_values(Xq[:500])  # warm the traversal

    t_flat, leaf = _best_of(5, lambda: flat.leaf_values(Xq))
    benchmark.pedantic(lambda: forest.predict_proba(Xq), rounds=1, iterations=1)

    # Per-row Python walk: the oracle's golden reference — timed on a
    # slice, compared per row.
    Xr = Xq[:PREDICT_REF_ROWS]
    t_ref, ref = _best_of(
        3,
        lambda: np.stack(
            [
                forest._align(tree, leaf_values_reference(tree, Xr))
                for tree in forest.trees_
            ]
        ),
    )

    # The flattened traversal must gather the exact same leaf values.
    assert np.array_equal(ref, leaf[:, : PREDICT_REF_ROWS])

    speedup = (t_ref / PREDICT_REF_ROWS) / (t_flat / PREDICT_ROWS)
    benchmark.extra_info["trees"] = len(forest.trees_)
    benchmark.extra_info["rows"] = PREDICT_ROWS
    benchmark.extra_info["flat_ms"] = round(t_flat * 1e3, 1)
    benchmark.extra_info["ref_ms_per_row"] = round(t_ref / PREDICT_REF_ROWS * 1e3, 4)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup >= MIN_PREDICT_SPEEDUP, (
        f"flattened prediction speedup regressed: {speedup:.1f}x "
        f"< floor {MIN_PREDICT_SPEEDUP}x"
    )


def test_bench_hist_worker_count_identity(benchmark, kernel_workload):
    """Hist-mode results are bit-identical for any worker count."""
    X, y = kernel_workload
    Xf, yf = X[:4000], y[:4000]
    Xq = X[-2000:]
    results = {}

    def fit_both():
        for n_jobs in (1, 4):
            f = RandomForestClassifier(
                n_estimators=8,
                random_state=0,
                n_jobs=n_jobs,
            ).fit(Xf, yf)
            results[n_jobs] = (f.predict_proba(Xq), f.feature_importances_)
        return results

    benchmark.pedantic(fit_both, rounds=1, iterations=1)
    assert np.array_equal(results[1][0], results[4][0])
    assert np.array_equal(results[1][1], results[4][1])
