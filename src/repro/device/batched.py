"""Whole-round local SGD as matrix math over the participant axis.

:class:`BatchedTrainer` is the round-level counterpart of
:class:`~repro.device.device.LocalTrainer`: instead of training the round's
receivers one at a time through a shared :class:`~repro.nn.models.Sequential`,
it groups them into **cohorts** with identical ``(shard size, epochs)`` —
members of a cohort share batch boundaries and step counts — and trains each
cohort as stacked GEMMs over a ``(P, dim)`` theta arena via
:class:`~repro.nn.batched.BatchedSequential`.  The optimizer math (SGD step,
heavy-ball momentum, FedProx pull, SCAFFOLD correction) runs as whole-matrix
ops over the arena, mirroring ``LocalTrainer.train``'s fused scalar path
line for line.

Determinism contract: every row draws its epoch permutations from its own
``(device_id, round_idx, unit)`` stream — exactly the generator the
sequential path uses (``unit`` is 0 for a one-unit round, the ring unit
index for FedHiSyn) — so batched and sequential training see identical
shuffles.  Rows may start from one shared vector or each from its own.  The
per-replica float ops are the same as the sequential path's, so results are
bit-identical wherever the BLAS build computes stacked-GEMM slices exactly
like their 2-D equivalents (and within ~1e-12 otherwise; DESIGN.md §15).
"""

from __future__ import annotations

import numpy as np

from repro.device.device import LocalTrainer
from repro.device.fleet import DeviceFleet
from repro.nn.batched import BatchedSequential

__all__ = ["BatchedTrainer"]


class BatchedTrainer:
    """Trains a round's receivers in cohorts of stacked model replicas."""

    def __init__(self, trainer: LocalTrainer, fleet: DeviceFleet) -> None:
        self.trainer = trainer
        self.fleet = fleet
        self.model = BatchedSequential(trainer.model)
        self.dim = trainer.dim
        x2d = fleet.x.reshape(fleet.x.shape[0], -1)
        if x2d.shape[1] != self.model.in_features:
            raise ValueError(
                f"fleet features ({x2d.shape[1]}) do not match the model's "
                f"input width ({self.model.in_features})"
            )
        self._x2d = x2d
        self._feat = x2d.shape[1]
        # The sequential loss validates targets per batch; the data block is
        # immutable after the fleet is built, so validate it once here.
        y = fleet.y
        if y.size and (int(y.min()) < 0 or int(y.max()) >= self.model.num_classes):
            raise ValueError(
                f"targets must be in [0, {self.model.num_classes}), "
                f"got range [{int(y.min())}, {int(y.max())}]"
            )
        self._y = y
        # Grown (capacity, dim) arenas reused across cohorts and rounds.
        self._theta: np.ndarray | None = None
        self._grad: np.ndarray | None = None
        self._scratch: np.ndarray | None = None
        self._velocity: np.ndarray | None = None
        # Grown flat epoch-gather buffers (indices, features, targets).
        self._idx: np.ndarray | None = None
        self._xe: np.ndarray | None = None
        self._ye: np.ndarray | None = None

    @staticmethod
    def supports(model) -> bool:
        """True when ``model`` can run on the batched engine."""
        return BatchedSequential.supports(model)

    def _arenas(self, P: int):
        if self._theta is None or self._theta.shape[0] < P:
            self._theta = np.empty((P, self.dim))
            self._grad = np.empty((P, self.dim))
            self._scratch = np.empty((P, self.dim))
            if self.trainer.momentum > 0.0:
                self._velocity = np.empty((P, self.dim))
        vel = None if self._velocity is None else self._velocity[:P]
        return self._theta[:P], self._grad[:P], self._scratch[:P], vel

    def _epoch_views(self, P: int, n: int):
        need = P * n
        if self._idx is None or self._idx.size < need:
            self._idx = np.empty(need, dtype=np.intp)
            self._xe = np.empty(need * self._feat, dtype=self._x2d.dtype)
            self._ye = np.empty(need, dtype=self._y.dtype)
        return (
            self._idx[:need].reshape(P, n),
            self._xe[: need * self._feat].reshape(P, n, self._feat),
            self._ye[:need].reshape(P, n),
        )

    def train_round(
        self,
        ids: np.ndarray,
        epochs: np.ndarray,
        round_idx: int,
        weights: np.ndarray,
        out: np.ndarray,
        anchor: np.ndarray | None = None,
        mu: float = 0.0,
        corrections: np.ndarray | None = None,
        lr: float | None = None,
        units: np.ndarray | None = None,
    ) -> np.ndarray:
        """Train every receiver of a round; rows of ``out`` receive results.

        ``ids`` are fleet device ids, ``epochs`` the per-device epoch counts
        (both aligned with the rows of ``out``).  ``weights`` is either the
        broadcast round-start vector, shared by every row, or a
        ``(len(ids), dim)`` matrix of per-row start models (the ring
        engine's instant).  ``units`` keys each row's shuffle stream as
        ``(device_id, round_idx, unit)``; the default is unit 0 for every
        row.  ``out`` may be the ``weights`` matrix itself: each cohort
        reads its start rows before it writes its results, and cohorts own
        disjoint rows.  ``corrections``, when given, is a
        ``(len(ids), dim)`` matrix of per-device additive gradient
        corrections (SCAFFOLD).  Returns the per-device SGD step counts.
        """
        ids = np.asarray(ids, dtype=np.intp)
        weights = np.asarray(weights)
        if weights.shape not in ((self.dim,), (len(ids), self.dim)):
            raise ValueError(
                f"weights must have shape ({self.dim},) or "
                f"({len(ids)}, {self.dim}), got {weights.shape}"
            )
        if units is None:
            units = np.zeros(len(ids), dtype=np.intp)
        else:
            units = np.asarray(units, dtype=np.intp)
            if units.shape != ids.shape:
                raise ValueError(
                    f"units must have one entry per id ({len(ids)}), "
                    f"got shape {units.shape}"
                )
        ep = np.asarray(epochs)
        n_arr = self.fleet.num_samples[ids]
        steps_out = np.empty(len(ids), dtype=np.intp)
        cohorts: dict[tuple[int, int], list[int]] = {}
        for pos in range(len(ids)):
            cohorts.setdefault((int(n_arr[pos]), int(ep[pos])), []).append(pos)
        for (n, e), positions in cohorts.items():
            if e <= 0:
                raise ValueError(f"epochs must be positive, got {e}")
            if n <= 0:
                raise ValueError("cannot train on an empty shard")
            steps = self._train_cohort(
                ids, units, positions, n, e, round_idx, weights, out,
                anchor=anchor, mu=mu, corrections=corrections, lr=lr,
            )
            steps_out[positions] = steps
        return steps_out

    def _train_cohort(
        self,
        ids: np.ndarray,
        units: np.ndarray,
        positions: list[int],
        n: int,
        e: int,
        round_idx: int,
        weights: np.ndarray,
        out: np.ndarray,
        anchor: np.ndarray | None,
        mu: float,
        corrections: np.ndarray | None,
        lr: float | None,
    ) -> int:
        trainer = self.trainer
        eta = trainer.lr if lr is None else lr
        batch = trainer.batch_size
        prox = anchor is not None and mu > 0.0
        P = len(positions)
        pos_arr = np.asarray(positions, dtype=np.intp)
        dev_ids = ids[pos_arr]
        theta, grad, scratch, velocity = self._arenas(P)
        if weights.ndim == 1:
            theta[:] = weights
        else:
            np.take(weights, pos_arr, axis=0, out=theta)
        if velocity is not None:
            velocity.fill(0.0)
        self.model.bind(theta, grad)
        corr = None if corrections is None else corrections[pos_arr]
        # Each device's own batch-shuffle stream, kept live across epochs so
        # successive permutations continue the stream state exactly like the
        # sequential path does.
        gens = [
            trainer._seeds.generator(d, round_idx, u)
            for d, u in zip(dev_ids.tolist(), units[pos_arr].tolist())
        ]
        starts = self.fleet.shard_starts[dev_ids]
        idx, xe, ye = self._epoch_views(P, n)
        for _ in range(e):
            for p in range(P):
                row = idx[p]
                row[:] = gens[p].permutation(n)
                row += starts[p]
            flat = idx.reshape(-1)
            np.take(self._x2d, flat, axis=0, out=xe.reshape(P * n, self._feat))
            np.take(self._y, flat, axis=0, out=ye.reshape(-1))
            for lo in range(0, n, batch):
                hi = lo + batch
                self.model.loss_and_grad(xe[:, lo:hi], ye[:, lo:hi])
                if corr is not None:
                    grad += corr
                if prox:
                    np.subtract(theta, anchor, out=scratch)
                    scratch *= mu
                    grad += scratch
                if velocity is None:
                    np.multiply(grad, eta, out=scratch)
                else:
                    velocity *= trainer.momentum
                    velocity += grad
                    np.multiply(velocity, eta, out=scratch)
                theta -= scratch
        out[pos_arr] = theta
        return e * (-(-n // batch))
