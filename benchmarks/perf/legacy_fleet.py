"""Faithful re-implementation of the pre-fleet per-object device path.

The struct-of-arrays :class:`~repro.device.fleet.DeviceFleet` replaced a
device layer where every participant was a Python object holding its own
weight vector and shard copy, and where every round-level operation —
selection, availability, slowest-link charging, the result stack, sample
counts, round duration — looped over those objects.  This module preserves
that path, operation for operation, so the perf suite can measure the
"before" side on current hardware and pin the fleet engine to it bitwise:

* :func:`legacy_make_devices` — the seed ``make_devices``: one
  fancy-index shard copy and one ``Device`` object per entry.
* :class:`PerObjectFedAvgServer` — ``FedAvgServer`` over a device *list*
  with the pre-fleet round path: a Bernoulli draw over objects, object-side
  availability filtering, a per-link transfer-time loop, and the pre-fleet
  ``run_round`` body — a fresh result allocation per device
  (``theta.copy()``) plus a stack write, Python-loop sample counts and
  round duration.
* :class:`NullTrainer` — a weights-in/weights-out stub shared by both
  sides of the round-orchestration benchmark, so the measured difference
  is exactly the device-layer round execution, never the (bit-identical)
  local SGD.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fedavg import FedAvgServer
from repro.core.aggregation import sample_weighted_average
from repro.core.server import _AVAILABILITY_STREAM
from repro.datasets.core import ClassificationDataset
from repro.device.device import Device, LocalTrainer
from repro.env.network import SERVER

__all__ = ["NullTrainer", "PerObjectFedAvgServer", "legacy_make_devices"]


class NullTrainer(LocalTrainer):
    """Training stub: the result *materializes* but no SGD runs.

    Mirrors the real trainer's output contract — a fresh ``weights.copy()``
    on the legacy path (``out=None``), one ``copyto`` into the caller's
    row on the fleet path — so each side pays exactly the result-movement
    cost its device layer implies and nothing else.
    """

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
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, int]:
        if out is None:
            return weights.copy(), 1
        np.copyto(out, weights)
        return out, 1


def legacy_make_devices(
    dataset: ClassificationDataset,
    parts: list[np.ndarray],
    unit_times: np.ndarray,
    trainer: LocalTrainer,
) -> list[Device]:
    """The seed ``make_devices``: per-device subset copies + objects."""
    if len(parts) != len(unit_times):
        raise ValueError("parts and unit_times disagree")
    return [
        Device(
            device_id=i,
            shard=dataset.subset(idx, name=f"{dataset.name}/dev{i}"),
            unit_time=float(unit_times[i]),
            trainer=trainer,
        )
        for i, idx in enumerate(parts)
    ]


class _DeviceList(list):
    """A device list carrying the population attributes the base server
    reads at construction (shared trainer, unit times, storage mode)."""

    def __init__(self, devices: list[Device]) -> None:
        super().__init__(devices)
        self.trainer = self[0].trainer
        self.unit_times = np.array([d.unit_time for d in self], dtype=np.float64)
        self.retain_history = True


class PerObjectFedAvgServer(FedAvgServer):
    """FedAvg with the pre-fleet per-object round path, op for op.

    Draws the same rng streams as the fleet server (selection ``(round,
    1)``, availability ``(round, 3)``), so the two runs are bit-identical.
    """

    def __init__(self, devices: list[Device], *args, **kwargs) -> None:
        super().__init__(_DeviceList(devices), *args, **kwargs)

    def select_participants(self, round_idx: int) -> list[Device]:
        rng = self._seeds.generator(round_idx, 1)
        p = self._participation
        if p >= 1.0:
            chosen = list(self.devices)
        else:
            mask = rng.random(len(self.devices)) < p
            chosen = [d for d, m in zip(self.devices, mask) if m]
            if not chosen:
                chosen = [self.devices[rng.integers(len(self.devices))]]
        if not self.env.availability.always_on:
            arng = self._seeds.generator(round_idx, _AVAILABILITY_STREAM)
            mask = self.env.availability.available_mask_ids(
                round_idx,
                np.array([d.device_id for d in chosen], dtype=np.intp),
                np.array([d.unit_time for d in chosen], dtype=np.float64),
                arng,
            )
            online = [d for d, up in zip(chosen, mask) if up]
            if not online:
                online = [chosen[int(arng.integers(len(chosen)))]]
            self.unavailable_count += len(chosen) - len(online)
            chosen = online
        self._round_list = chosen
        self._round_ids = None
        return chosen

    def _charge_transfer(self, devices: list[Device], model_units: float) -> None:
        net = self.env.network
        if net.is_instant or not devices:
            return
        t = max(net.transfer_time(SERVER, d.device_id, model_units) for d in devices)
        if t > 0.0:
            self.clock.advance_by(t)

    def run_round(
        self,
        round_idx: int,
        participants: list[Device],
        global_weights: np.ndarray,
    ) -> np.ndarray:
        duration = max(d.unit_time for d in participants)
        receivers = self.broadcast(participants)
        stack = np.empty((len(receivers), self.trainer.dim))
        for i, dev in enumerate(receivers):
            stack[i] = dev.run_unit(
                global_weights,
                self.local_epochs_for(dev, duration),
                round_idx,
                0,
            )
        arrived = self.collect(receivers)
        self.clock.advance_by(duration)
        counts = np.array([d.num_samples for d in receivers])
        stack, counts = self.filter_arrived(arrived, stack, counts)
        return sample_weighted_average(stack, counts)
