"""Per-tree row subsampling (``max_samples``): validation, determinism,
the ``1.0 == None`` equivalence, and no re-binning per tree.

The ``[exact]`` cases run the exact-splitter oracle forest
(:mod:`tests.tree_oracle`): it shares the production bootstrap draw, so
the identity tests against it hold only if it honours ``max_samples``
the same way."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from tests.tree_oracle import ExactRandomForestClassifier

FORESTS = {"exact": ExactRandomForestClassifier, "hist": RandomForestClassifier}


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(160, 6))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(scale=0.3, size=160) > 0).astype(int)
    return X, y


def fit(X, y, method="hist", **kwargs):
    params = dict(n_estimators=12, random_state=7, n_jobs=1)
    params.update(kwargs)
    return FORESTS[method](**params).fit(X, y)


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, 2])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="max_samples"):
            RandomForestClassifier(max_samples=bad)

    @pytest.mark.parametrize("ok", [0.1, 0.5, 1.0, None])
    def test_valid_values_accepted(self, ok):
        assert RandomForestClassifier(max_samples=ok).max_samples == ok


class TestDeterminism:
    def test_same_seed_same_model(self, data):
        X, y = data
        a = fit(X, y, max_samples=0.5)
        b = fit(X, y, max_samples=0.5)
        np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))
        np.testing.assert_array_equal(
            a.feature_importances_, b.feature_importances_
        )

    def test_jobs_invariance(self, data):
        X, y = data
        seq = fit(X, y, max_samples=0.5, n_jobs=1)
        par = fit(X, y, max_samples=0.5, n_jobs=4)
        np.testing.assert_array_equal(seq.predict_proba(X), par.predict_proba(X))

    @pytest.mark.parametrize("method", ["exact", "hist"])
    def test_full_sample_is_exactly_the_default(self, data, method):
        """max_samples=1.0 draws the same generator stream as None, so
        enabling the knob at 1.0 cannot perturb any existing result."""
        X, y = data
        on = fit(X, y, method, max_samples=1.0)
        off = fit(X, y, method, max_samples=None)
        np.testing.assert_array_equal(on.predict_proba(X), off.predict_proba(X))
        np.testing.assert_array_equal(
            on.feature_importances_, off.feature_importances_
        )


class TestSubsampling:
    def test_subsample_changes_the_forest(self, data):
        X, y = data
        full = fit(X, y)
        half = fit(X, y, max_samples=0.5)
        assert not np.array_equal(full.predict_proba(X), half.predict_proba(X))

    @pytest.mark.parametrize("method", ["exact", "hist"])
    def test_still_learns(self, data, method):
        X, y = data
        model = fit(X, y, method, max_samples=0.25)
        assert np.mean(model.predict(X) == y) > 0.8

    def test_hist_bins_fit_once_on_full_corpus(self, data):
        """Subsampled hist trees reuse the corpus-level bins: the fitted
        binner's thresholds are identical to the full-sample fit's."""
        X, y = data
        full = fit(X, y)
        sub = fit(X, y, max_samples=0.3)
        assert sub.binner_ is not None
        np.testing.assert_array_equal(full.binner_.n_bins_, sub.binner_.n_bins_)
        for a, b in zip(full.binner_.upper_bounds_, sub.binner_.upper_bounds_):
            np.testing.assert_array_equal(a, b)

    def test_tiny_fraction_floors_at_one_row(self, data):
        X, y = data
        model = fit(X, y, max_samples=1e-9, n_estimators=3)
        assert model.predict(X).shape == (X.shape[0],)

    def test_oob_score_with_subsample(self, data):
        """Smaller bootstraps leave more rows out-of-bag; the OOB score
        still computes and stays in range."""
        X, y = data
        model = fit(X, y, max_samples=0.3, oob_score=True)
        assert model.oob_score_ is not None
        assert 0.0 <= model.oob_score_ <= 1.0
