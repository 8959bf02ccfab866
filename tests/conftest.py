import os

# One BLAS thread, set before numpy is imported, as perfbench/run.py and CI set
# it: the DNN's float.hex guards in test_fit_guard.py depend on how BLAS splits
# its sums, which changes with the thread count.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np
import pytest

from costlab.cart import LEAF
from costlab.cbr import _attribute_similarities, case_similarity, retrieve_and_predict
from costlab.data import Dataset, FeatureVector, ProjectRecord, synthesize


def make_dataset(X, y, prefix="r") -> Dataset:
    """Dataset from raw arrays; the fourth column must be a plausible year."""
    records = []
    for i, (row, target) in enumerate(zip(np.asarray(X, dtype=float), y)):
        values = [None if np.isnan(v) else float(v) for v in row]
        records.append(ProjectRecord(f"{prefix}{i:03d}", FeatureVector(*values), float(target)))
    return Dataset(records)


def random_dataset(n, seed, target_fn=None, noise=0.0):
    """Random drivers in plausible ranges with an optional target function."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.uniform(20, 300, n),
            rng.uniform(200, 3000, n),
            rng.uniform(5, 60, n),
            rng.uniform(2010, 2015, n),
        ]
    )
    if target_fn is None:
        y = 1000.0 + 3.0 * X[:, 0] + 0.5 * X[:, 1] + 10.0 * X[:, 2]
    else:
        y = target_fn(X)
    if noise:
        y = y * (1.0 + rng.uniform(-noise, noise, n))
    return make_dataset(X, y)


def retrieve_one(case_base, x, k=1):
    """One ``FeatureVector`` query's cost, its best case, and that case's
    similarity and per-attribute similarities, read as ``CbrPredictor.explain``
    reads them: a batch of one, then the best case scored alone."""
    row = x.to_array()[None, :]
    costs, best = retrieve_and_predict(case_base, row, k)
    stored = case_base.cases.features_matrix[best]
    return (
        float(costs[0]),
        case_base.cases[int(best[0])],
        float(case_similarity(row, stored, case_base.attribute_weights)[0, 0]),
        tuple(_attribute_similarities(row[0], stored[0]).tolist()),
    )


def node_sizes(tree, X) -> np.ndarray:
    """How many rows of X reach each node of a one-root tree, each row walked
    alone: a missing value goes left only where its node's default is left,
    as the grower partitions a node's rows."""
    sizes = np.zeros(tree.feature.size, dtype=int)
    for x in np.asarray(X, dtype=float):
        node = 0
        sizes[node] += 1
        while tree.feature[node] != LEAF:
            value = x[tree.feature[node]]
            go_left = value <= tree.threshold[node] or (
                np.isnan(value) and tree.default_left[node] == 1
            )
            node = tree.right[node] - 1 if go_left else tree.right[node]
            sizes[node] += 1
    return sizes


@pytest.fixture(scope="session")
def synthetic_144():
    return synthesize(144, seed=42, noise_pct=5.0)


@pytest.fixture(scope="session")
def noise_free_144():
    return synthesize(144, seed=42, noise_pct=0.0)
