"""Partition a dataset across federated devices.

Implements the splits used in the paper:

* **IID** — a uniform random equal split.
* **Contiguous** — consecutive near-equal index runs, the zero-copy
  scheme for fleet-scale populations (no randomness).
* **Dirichlet(beta)** — for every class, the proportion assigned to each
  device is drawn from ``Dir(beta * 1)``; small beta = highly skewed label
  distributions (the paper uses beta in {0.3, 0.8}).
* **Shard** — the classic FedAvg pathological split (sort by label, deal
  out contiguous shards), provided for completeness.

All partitioners return a list of index arrays into the parent dataset and
satisfy the *conservation* invariant: indices are disjoint and their union
is every sample exactly once (property-tested).

The Dirichlet split redraws until every device holds ``min_samples``
samples, up to ``max_retries`` attempts.  An attempt only counts samples
per device; shards are built once, for the accepted draw or the last one.
With thousands of devices and a few samples each (the ``city`` and
``metro`` fleet profiles at beta 0.3) every retry is exhausted and the
last draw is *repaired*: while some shard is short, the first largest
shard gives its highest index to the first smallest shard.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.utils.rng import as_generator

__all__ = [
    "iid_partition",
    "contiguous_partition",
    "dirichlet_partition",
    "shard_partition",
    "partition_by_name",
    "label_distribution",
]


def _validate(dataset: ClassificationDataset, num_devices: int) -> None:
    if num_devices <= 0:
        raise ValueError(f"num_devices must be positive, got {num_devices}")
    if len(dataset) < num_devices:
        raise ValueError(
            f"cannot split {len(dataset)} samples across {num_devices} devices"
        )


def iid_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    seed: int | np.random.Generator | None = 0,
) -> list[np.ndarray]:
    """Uniform random split into ``num_devices`` near-equal shards."""
    _validate(dataset, num_devices)
    rng = as_generator(seed)
    perm = rng.permutation(len(dataset))
    return [np.sort(part) for part in np.array_split(perm, num_devices)]


def contiguous_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    seed: int | np.random.Generator | None = 0,
) -> list[np.ndarray]:
    """Deal consecutive index runs: device ``i`` gets the ``i``-th
    near-equal slice of ``[0, len(dataset))`` in order.

    The million-device scheme: every shard is a *view* of one shared
    ``arange`` (no per-device index copies), and because the shards are
    already in fleet order :class:`~repro.device.fleet.DeviceFleet` skips
    its gather and aliases the dataset block — building a fleet costs no
    second copy of the data.  Statistically equivalent to IID when the
    dataset's own order is unstructured (synthetic generators draw
    samples i.i.d.), which is what fleet-scale profiles use; ``seed`` is
    accepted for dispatch uniformity and never drawn from.
    """
    _validate(dataset, num_devices)
    return np.array_split(np.arange(len(dataset), dtype=np.intp), num_devices)


def dirichlet_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    beta: float,
    seed: int | np.random.Generator | None = 0,
    min_samples: int = 1,
    max_retries: int = 100,
) -> list[np.ndarray]:
    """Dirichlet(beta) label-skew split (the paper's Non-IID setting).

    For each class ``k`` draw device proportions ``p ~ Dir(beta, ..., beta)``
    and deal that class's samples out accordingly.  Retries (with fresh
    draws) until every device holds at least ``min_samples`` samples, the
    standard practice for this construction; if every retry fails, the
    last draw is repaired (see the module docstring).
    """
    _validate(dataset, num_devices)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if min_samples < 0:
        raise ValueError(f"min_samples must be non-negative, got {min_samples}")
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    if min_samples * num_devices > len(dataset):
        raise ValueError("min_samples * num_devices exceeds dataset size")
    rng = as_generator(seed)
    classes = [np.flatnonzero(dataset.y == k) for k in range(dataset.num_classes)]
    classes = [members for members in classes if members.size]
    alpha = np.full(num_devices, beta)

    # Attempts only count: a rejected draw never builds a shard.
    for _ in range(max_retries):
        shuffled, dealt = [], []
        for members in classes:
            members = rng.permutation(members)
            proportions = rng.dirichlet(alpha)
            # Cumulative cut points; the final bucket absorbs rounding.
            cuts = (np.cumsum(proportions)[:-1] * members.size).astype(np.intp)
            shuffled.append(members)
            dealt.append(np.diff(cuts, prepend=0, append=members.size))
        sizes = np.sum(dealt, axis=0)
        if sizes.min() >= min_samples:
            break

    # Materialize the accepted (or last) draw: label every dealt sample
    # with its device, order by (device, index), split at the size bounds.
    idx = np.concatenate(shuffled)
    dev = np.repeat(np.tile(np.arange(num_devices), len(dealt)), np.concatenate(dealt))
    parts = np.split(idx[np.lexsort((idx, dev))], np.cumsum(sizes)[:-1])

    # Extreme skew can starve some device in every draw.  Repair instead
    # of failing: it preserves conservation and barely perturbs the draw.
    while sizes.min() < min_samples:
        smallest = int(np.argmin(sizes))
        largest = int(np.argmax(sizes))
        if sizes[largest] <= min_samples:  # pragma: no cover - guarded by
            raise RuntimeError("cannot repair partition")  # the min_samples check
        moved, parts[largest] = parts[largest][-1], parts[largest][:-1]
        parts[smallest] = np.sort(np.append(parts[smallest], moved))
        sizes[largest] -= 1
        sizes[smallest] += 1
    return parts


def shard_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    shards_per_device: int = 2,
    seed: int | np.random.Generator | None = 0,
) -> list[np.ndarray]:
    """McMahan et al.'s pathological split: sort by label, deal out shards."""
    _validate(dataset, num_devices)
    if shards_per_device <= 0:
        raise ValueError("shards_per_device must be positive")
    rng = as_generator(seed)
    num_shards = num_devices * shards_per_device
    if num_shards > len(dataset):
        raise ValueError("more shards than samples")
    # Stable sort by label; ties keep dataset order.
    order = np.argsort(dataset.y, kind="stable")
    shards = np.array_split(order, num_shards)
    assignment = rng.permutation(num_shards)
    parts = []
    for dev in range(num_devices):
        mine = assignment[dev * shards_per_device : (dev + 1) * shards_per_device]
        parts.append(np.sort(np.concatenate([shards[s] for s in mine])))
    return parts


def partition_by_name(
    name: str,
    dataset: ClassificationDataset,
    num_devices: int,
    seed: int | np.random.Generator | None = 0,
    **kwargs,
) -> list[np.ndarray]:
    """Dispatch on the setting names: 'iid', 'contiguous', 'dirichlet',
    'shard'."""
    name = name.lower()
    if name == "iid":
        return iid_partition(dataset, num_devices, seed=seed)
    if name == "contiguous":
        return contiguous_partition(dataset, num_devices, seed=seed)
    if name == "dirichlet":
        beta = kwargs.pop("beta", 0.3)
        return dirichlet_partition(dataset, num_devices, beta=beta, seed=seed, **kwargs)
    if name == "shard":
        return shard_partition(dataset, num_devices, seed=seed, **kwargs)
    raise ValueError(f"unknown partition scheme {name!r}")


def label_distribution(
    dataset: ClassificationDataset, parts: list[np.ndarray]
) -> np.ndarray:
    """Per-device label histograms, shape (num_devices, num_classes).

    Feeds the Eq. (4) divergence metric in :mod:`repro.analysis.divergence`.
    """
    out = np.zeros((len(parts), dataset.num_classes), dtype=np.int64)
    for i, idx in enumerate(parts):
        if idx.size:
            out[i] = np.bincount(dataset.y[idx], minlength=dataset.num_classes)
    return out
