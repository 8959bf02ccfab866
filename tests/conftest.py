import os

# One BLAS thread, set before numpy is imported, as perfbench/run.py and CI set
# it: the DNN's float.hex guards in test_fit_guard.py depend on how BLAS splits
# its sums, which changes with the thread count.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np
import pytest

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


@pytest.fixture(scope="session")
def synthetic_144():
    return synthesize(144, seed=42, noise_pct=5.0)


@pytest.fixture(scope="session")
def noise_free_144():
    return synthesize(144, seed=42, noise_pct=0.0)
