"""Partition tests including the hypothesis conservation property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.perf.legacy import legacy_dirichlet_partition
from repro.datasets.core import ClassificationDataset
from repro.datasets.partition import (
    contiguous_partition,
    dirichlet_partition,
    iid_partition,
    label_distribution,
    partition_by_name,
    shard_partition,
)


def make_ds(n=200, classes=5, seed=0):
    rng = np.random.default_rng(seed)
    return ClassificationDataset(
        rng.normal(size=(n, 3)), rng.integers(0, classes, size=n), classes
    )


def assert_conservation(parts, n):
    """Disjoint index sets whose union is range(n)."""
    allidx = np.concatenate([p for p in parts])
    assert len(allidx) == n
    assert len(np.unique(allidx)) == n
    assert allidx.min() == 0 and allidx.max() == n - 1


class TestIIDPartition:
    def test_conservation(self):
        ds = make_ds()
        assert_conservation(iid_partition(ds, 7, seed=0), len(ds))

    def test_near_equal_sizes(self):
        parts = iid_partition(make_ds(n=100), 7, seed=0)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        ds = make_ds()
        a = iid_partition(ds, 5, seed=3)
        b = iid_partition(ds, 5, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_too_many_devices_raises(self):
        with pytest.raises(ValueError):
            iid_partition(make_ds(n=5), 6)

    def test_zero_devices_raises(self):
        with pytest.raises(ValueError):
            iid_partition(make_ds(), 0)


class TestDirichletPartition:
    def test_conservation(self):
        ds = make_ds()
        parts = dirichlet_partition(ds, 8, beta=0.3, seed=0)
        assert_conservation(parts, len(ds))

    def test_min_samples_respected(self):
        ds = make_ds(n=400)
        parts = dirichlet_partition(ds, 10, beta=0.3, seed=0, min_samples=5)
        assert min(p.size for p in parts) >= 5

    def test_smaller_beta_more_skew(self):
        """Lower beta concentrates labels: mean max-class share increases."""
        ds = make_ds(n=2000, classes=10, seed=1)

        def mean_max_share(beta):
            parts = dirichlet_partition(ds, 20, beta=beta, seed=2)
            hist = label_distribution(ds, parts).astype(float)
            return (hist.max(axis=1) / hist.sum(axis=1)).mean()

        assert mean_max_share(0.1) > mean_max_share(1.0) > mean_max_share(100.0)

    def test_beta_zero_raises(self):
        with pytest.raises(ValueError):
            dirichlet_partition(make_ds(), 4, beta=0.0)

    def test_impossible_min_samples_raises(self):
        with pytest.raises(ValueError):
            dirichlet_partition(make_ds(n=20), 10, beta=0.3, min_samples=5)

    def test_zero_retries_raises(self):
        with pytest.raises(ValueError, match="max_retries"):
            dirichlet_partition(make_ds(), 4, beta=0.3, max_retries=0)

    def test_negative_min_samples_raises(self):
        with pytest.raises(ValueError, match="min_samples"):
            dirichlet_partition(make_ds(), 4, beta=0.3, min_samples=-1)

    def test_deterministic(self):
        ds = make_ds()
        a = dirichlet_partition(ds, 6, beta=0.5, seed=9)
        b = dirichlet_partition(ds, 6, beta=0.5, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @given(
        num_devices=st.integers(min_value=2, max_value=12),
        beta=st.floats(min_value=0.05, max_value=10.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_conservation(self, num_devices, beta, seed):
        ds = make_ds(n=150, classes=4, seed=0)
        parts = dirichlet_partition(ds, num_devices, beta=beta, seed=seed)
        assert_conservation(parts, len(ds))


def assert_same_shards(got, want):
    """Bitwise-equal shard lists, dtype included."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


def make_ds_with_empty_class(n=200, classes=5, empty=2, seed=0):
    ds = make_ds(n=n, classes=classes, seed=seed)
    y = np.where(ds.y == empty, (empty + 1) % classes, ds.y)
    return ClassificationDataset(ds.x, y, classes)


class TestDirichletMatchesLegacy:
    """The vectorized split is the seed loop's output, bit for bit."""

    @given(
        num_devices=st.integers(min_value=2, max_value=60),
        beta=st.floats(min_value=0.05, max_value=10.0),
        min_samples=st.integers(min_value=0, max_value=3),
        max_retries=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        empty_class=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_oracle(
        self, num_devices, beta, min_samples, max_retries, seed, empty_class
    ):
        ds = make_ds_with_empty_class() if empty_class else make_ds()
        kwargs = dict(
            beta=beta, seed=seed, min_samples=min_samples, max_retries=max_retries
        )
        assert_same_shards(
            dirichlet_partition(ds, num_devices, **kwargs),
            legacy_dirichlet_partition(ds, num_devices, **kwargs),
        )

    @pytest.mark.parametrize("empty_class", [False, True])
    def test_exhausted_retries_repair(self, empty_class):
        """The only draw starves devices, so the repair loop decides."""
        ds = make_ds_with_empty_class() if empty_class else make_ds()
        kwargs = dict(beta=0.05, seed=4, max_retries=1)
        # min_samples=0 accepts the same draw untouched.
        raw = dirichlet_partition(ds, 60, min_samples=0, **kwargs)
        assert min(p.size for p in raw) < 3
        got = dirichlet_partition(ds, 60, min_samples=3, **kwargs)
        assert min(p.size for p in got) >= 3
        assert_conservation(got, len(ds))
        assert_same_shards(
            got, legacy_dirichlet_partition(ds, 60, min_samples=3, **kwargs)
        )

    def test_city_shape(self):
        """A thousand devices at beta 0.3: every retry fails, the repair runs."""
        ds = make_ds(n=8000, classes=10, seed=5)
        assert_same_shards(
            dirichlet_partition(ds, 1000, beta=0.3, seed=0, max_retries=5),
            legacy_dirichlet_partition(ds, 1000, beta=0.3, seed=0, max_retries=5),
        )


class TestShardPartition:
    def test_conservation(self):
        ds = make_ds(n=120)
        parts = shard_partition(ds, 6, shards_per_device=2, seed=0)
        assert_conservation(parts, len(ds))

    def test_pathological_label_concentration(self):
        """2 shards/device over sorted labels -> each device sees <= 3 classes."""
        ds = make_ds(n=500, classes=10, seed=3)
        parts = shard_partition(ds, 10, shards_per_device=2, seed=0)
        hist = label_distribution(ds, parts)
        classes_per_device = (hist > 0).sum(axis=1)
        assert classes_per_device.max() <= 4

    def test_more_shards_than_samples_raises(self):
        with pytest.raises(ValueError):
            shard_partition(make_ds(n=10), 6, shards_per_device=2)


class TestPartitionByName:
    def test_dispatch_iid(self):
        parts = partition_by_name("iid", make_ds(), 4, seed=0)
        assert len(parts) == 4

    def test_dispatch_dirichlet_beta(self):
        parts = partition_by_name("dirichlet", make_ds(), 4, seed=0, beta=0.5)
        assert len(parts) == 4

    def test_dispatch_shard(self):
        parts = partition_by_name("shard", make_ds(n=100), 4, seed=0)
        assert len(parts) == 4

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            partition_by_name("zipf", make_ds(), 4)

    def test_case_insensitive(self):
        assert len(partition_by_name("IID", make_ds(), 3, seed=0)) == 3


class TestLabelDistribution:
    def test_shape_and_totals(self):
        ds = make_ds(n=90, classes=3)
        parts = iid_partition(ds, 3, seed=0)
        hist = label_distribution(ds, parts)
        assert hist.shape == (3, 3)
        assert hist.sum() == 90

    def test_empty_part_is_zero_row(self):
        ds = make_ds(n=20, classes=2)
        hist = label_distribution(ds, [np.arange(20), np.empty(0, dtype=np.intp)])
        assert hist[1].sum() == 0


class TestContiguousPartition:
    def test_conservation_and_order(self):
        ds = make_ds(101)
        parts = contiguous_partition(ds, 7)
        assert_conservation(parts, 101)
        # Shards are consecutive runs in dataset order.
        assert all(np.array_equal(p, np.arange(p[0], p[-1] + 1)) for p in parts)
        assert np.array_equal(np.concatenate(parts), np.arange(101))

    def test_near_equal_sizes(self):
        ds = make_ds(100)
        sizes = [len(p) for p in contiguous_partition(ds, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_dispatch_by_name(self):
        ds = make_ds(60)
        parts = partition_by_name("contiguous", ds, 6, seed=5)
        assert_conservation(parts, 60)

    def test_validation(self):
        ds = make_ds(5)
        with pytest.raises(ValueError):
            contiguous_partition(ds, 6)
        with pytest.raises(ValueError):
            contiguous_partition(ds, 0)
