"""Faithful re-implementation of the pre-flat-buffer training path.

This mirrors the seed revision's per-parameter code, operation for
operation: per-layer Python loops for flatten/unflatten, per-parameter
``zero_grad``/update loops inside the train unit, separate ``loss.value``
and ``loss.grad`` passes.  It exists so the perf suite can measure the
"before" side of every before/after pair on current hardware, and so the
bitwise-equivalence tests can pin the fused engine to the seed semantics.

It intentionally does NOT import the fast paths: everything here goes
through ``model.parameters()`` and per-parameter arrays only.

:func:`legacy_dirichlet_partition` is the seed revision's per-device loop
for the Dirichlet split, the oracle the vectorized partitioner is pinned
to bitwise and the "before" side of the ``dirichlet_partition`` pair.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.datasets.partition import _validate
from repro.nn.layers import Dense, ReLU
from repro.nn.models import Sequential
from repro.utils.rng import SeedSequenceFactory, as_generator

__all__ = [
    "legacy_num_params",
    "legacy_get_flat_params",
    "legacy_set_flat_params",
    "legacy_zero_grad",
    "legacy_loss_and_grad",
    "legacy_paper_mlp",
    "legacy_dirichlet_partition",
    "LegacyLocalTrainer",
    "SeedDense",
]


class SeedDense(Dense):
    """The seed revision's ``Dense``: temp-allocating bias add, always
    accumulates gradients, always computes the input gradient.

    Being a *subclass*, it is excluded from ``Sequential``'s exact-type
    backward fast paths, so a model built from it runs the full seed
    backward pass even through modern entry points.
    """

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected input (N, {self.in_features}), got {x.shape}")
        self._x = x if train else None
        return x @ self.weight.data + self.bias.data

    def backward(self, grad_out: np.ndarray, **_ignored) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.weight.grad += self._x.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        grad_in = grad_out @ self.weight.data.T
        self._x = None
        return grad_in


def legacy_paper_mlp(
    in_features: int,
    num_classes: int,
    seed: int | np.random.Generator | None = 0,
    hidden: tuple[int, int] = (200, 100),
) -> Sequential:
    """``paper_mlp`` built from :class:`SeedDense` layers — identical
    initialization draw-for-draw, seed-path forward/backward cost."""
    rng = as_generator(seed)
    h1, h2 = hidden
    return Sequential(
        [
            SeedDense(in_features, h1, rng=rng, name="fc1"),
            ReLU(),
            SeedDense(h1, h2, rng=rng, name="fc2"),
            ReLU(),
            SeedDense(h2, num_classes, rng=rng, name="head"),
        ]
    )


def legacy_num_params(model) -> int:
    """Seed ``num_params``: recomputed sum on every call."""
    return sum(p.size for p in model.parameters())


def legacy_get_flat_params(model, out: np.ndarray | None = None) -> np.ndarray:
    """Seed ``get_flat_params``: one slice copy per parameter."""
    total = legacy_num_params(model)
    if out is None:
        out = np.empty(total, dtype=np.float64)
    offset = 0
    for p in model.parameters():
        out[offset : offset + p.size] = p.data.ravel()
        offset += p.size
    return out


def legacy_set_flat_params(model, flat: np.ndarray) -> None:
    """Seed ``set_flat_params``: one reshape+copy per parameter."""
    flat = np.asarray(flat, dtype=np.float64)
    offset = 0
    for p in model.parameters():
        p.data[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size


def legacy_zero_grad(model) -> None:
    """Seed ``Sequential.zero_grad``: one fill per parameter."""
    for p in model.parameters():
        p.zero_grad()


def legacy_loss_and_grad(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """Seed ``Sequential.loss_and_grad``: separate value and grad passes."""
    logits = model.forward(x, train=True)
    value = model.loss.value(logits, y)
    model.backward(model.loss.grad(logits, y))
    return value


class LegacyLocalTrainer:
    """The seed revision's ``LocalTrainer.train`` loop, per-parameter.

    Same constructor surface and stream-key discipline as
    :class:`repro.device.device.LocalTrainer`, so both can be driven with
    identical inputs and compared for time and for bitwise-equal output.
    """

    def __init__(
        self,
        model: Sequential,
        lr: float = 0.1,
        batch_size: int = 50,
        seed: int | None = 0,
        momentum: float = 0.0,
    ) -> None:
        self.model = model
        self.lr = lr
        self.batch_size = batch_size
        self.momentum = momentum
        self._seeds = SeedSequenceFactory(seed)
        self._slices: list[tuple[int, int, tuple[int, ...]]] = []
        offset = 0
        for p in model.parameters():
            self._slices.append((offset, offset + p.size, p.shape))
            offset += p.size
        self.dim = offset

    def train(
        self,
        weights: np.ndarray,
        shard: ClassificationDataset,
        epochs: int,
        stream_key: tuple[int, ...] = (0,),
        anchor: np.ndarray | None = None,
        mu: float = 0.0,
        correction: np.ndarray | None = None,
        lr: float | None = None,
    ) -> tuple[np.ndarray, int]:
        eta = self.lr if lr is None else lr
        model = self.model
        legacy_set_flat_params(model, weights)
        params = model.parameters()
        rng = self._seeds.generator(*stream_key)
        velocity = (
            [np.zeros_like(p.data) for p in params] if self.momentum > 0 else None
        )
        steps = 0
        n = len(shard)
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                legacy_zero_grad(model)
                legacy_loss_and_grad(model, shard.x[idx], shard.y[idx])
                if correction is not None:
                    for (lo, hi, shape), p in zip(self._slices, params):
                        p.grad += correction[lo:hi].reshape(shape)
                if anchor is not None and mu > 0.0:
                    for (lo, hi, shape), p in zip(self._slices, params):
                        p.grad += mu * (p.data - anchor[lo:hi].reshape(shape))
                if velocity is None:
                    for p in params:
                        p.data -= eta * p.grad
                else:
                    for v, p in zip(velocity, params):
                        v *= self.momentum
                        v += p.grad
                        p.data -= eta * v
                steps += 1
        return legacy_get_flat_params(model), steps


def legacy_dirichlet_partition(
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
    standard practice for this construction.

    The seed revision's loop implementation, kept as the oracle the
    vectorized :func:`repro.datasets.partition.dirichlet_partition` is
    pinned to bitwise: every attempt builds, concatenates and sorts one
    array per device, and the repair scans every shard per move.
    """
    _validate(dataset, num_devices)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if min_samples * num_devices > len(dataset):
        raise ValueError("min_samples * num_devices exceeds dataset size")
    rng = as_generator(seed)

    for _ in range(max_retries):
        buckets: list[list[np.ndarray]] = [[] for _ in range(num_devices)]
        for k in range(dataset.num_classes):
            members = np.flatnonzero(dataset.y == k)
            if members.size == 0:
                continue
            members = rng.permutation(members)
            proportions = rng.dirichlet(np.full(num_devices, beta))
            # Cumulative cut points; the final bucket absorbs rounding.
            cuts = (np.cumsum(proportions)[:-1] * members.size).astype(np.intp)
            for dev, part in enumerate(np.split(members, cuts)):
                if part.size:
                    buckets[dev].append(part)
        parts = [
            np.sort(np.concatenate(b)) if b else np.empty(0, dtype=np.intp)
            for b in buckets
        ]
        if min(p.size for p in parts) >= min_samples:
            return parts
    # Extreme skew (tiny beta) can starve some device in every draw.
    # Repair the last draw instead of failing: move samples one at a time
    # from the largest shard to each starved one.  This preserves
    # conservation and barely perturbs the drawn distribution.
    while min(p.size for p in parts) < min_samples:
        smallest = min(range(num_devices), key=lambda i: parts[i].size)
        largest = max(range(num_devices), key=lambda i: parts[i].size)
        if parts[largest].size <= min_samples:  # pragma: no cover - guarded by
            raise RuntimeError("cannot repair partition")  # the min_samples check
        moved, parts[largest] = parts[largest][-1], parts[largest][:-1]
        parts[smallest] = np.sort(np.append(parts[smallest], moved))
    return parts
