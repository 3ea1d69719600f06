"""Ring-engine semantics tests.

A ``LineageTrainer`` replaces SGD with ``w += e_{device}`` so the final
weight vector literally counts which devices trained each model — making
Algorithm 1's choreography (rotation, budgets, delays, Eq. 7 fallback)
directly assertable.  The last section trains a real MLP: batched
completion instants against the sequential loop, round-end state, memory.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.core import ClassificationDataset
from repro.datasets.partition import iid_partition
from repro.device import LocalTrainer, unit_times_from_counts
from repro.device import make_fleet as make_sgd_fleet
from repro.device.batched import BatchedTrainer
from repro.device.fleet import DeviceFleet, FleetDevice
from repro.device.network import UniformDelay
from repro.nn.models import paper_mlp
from repro.nn.serialization import get_flat_params
from repro.simulation.engine import RingRoundEngine, async_upload_schedule


class LineageTrainer:
    """Fake LocalTrainer: training by device d adds one to coordinate d."""

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def train(self, weights, shard, epochs, stream_key=(0,), **kwargs):
        device_id = stream_key[0]
        out = np.asarray(weights, dtype=float).copy()
        out[device_id] += 1.0
        return out, epochs


def make_fleet(unit_times, dim=None):
    """A DeviceFleet of two-sample devices training with LineageTrainer."""
    n = len(unit_times)
    trainer = LineageTrainer(dim if dim is not None else n)
    data = ClassificationDataset(np.zeros((2 * n, 1)), np.zeros(2 * n, dtype=int), 1)
    parts = [np.arange(2 * i, 2 * i + 2) for i in range(n)]
    return DeviceFleet(data, parts, np.asarray(unit_times, dtype=float), trainer)


class TestRingRotation:
    def test_homogeneous_three_ring_full_rotation(self):
        """3 devices, t=1, duration=3: every final model was trained once by
        each device (the model walked the whole ring)."""
        devices = make_fleet([1.0, 1.0, 1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0, 1, 2]], np.zeros(3), duration=3.0)
        assert stats.units_completed == {0: 3, 1: 3, 2: 3}
        for d in devices:
            np.testing.assert_allclose(sorted(d.weights), [1.0, 1.0, 1.0])

    def test_two_units_partial_rotation(self):
        """Duration 2: each model saw its own device and its predecessor."""
        devices = make_fleet([1.0, 1.0, 1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        engine.run_round([[0, 1, 2]], np.zeros(3), duration=2.0)
        # device 1's model: trained by 0 (unit 1) then by 1 (unit 2).
        np.testing.assert_allclose(devices[1].weights, [1.0, 1.0, 0.0])
        np.testing.assert_allclose(devices[0].weights, [1.0, 0.0, 1.0])

    def test_singleton_ring_trains_alone(self):
        """Eq. (7): no incoming models -> keep training the own model."""
        devices = make_fleet([0.25])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0]], np.zeros(1), duration=1.0)
        assert stats.peer_sends == 0
        np.testing.assert_allclose(devices[0].weights, [4.0])

    def test_large_delay_isolates_devices(self):
        """Deliveries landing after the round end never get trained: every
        device keeps training its own line (Eq. 7 fallback)."""
        devices = make_fleet([1.0, 1.0])
        engine = RingRoundEngine(devices, delay_model=UniformDelay(100.0),
                                 epochs_per_unit=1)
        engine.run_round([[0, 1]], np.zeros(2), duration=3.0)
        np.testing.assert_allclose(devices[0].weights, [3.0, 0.0])
        np.testing.assert_allclose(devices[1].weights, [0.0, 3.0])


class TestUnitBudgets:
    def test_floor_of_duration_over_time(self):
        devices = make_fleet([1.0, 0.5, 0.25])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0], [1], [2]], np.zeros(3), duration=1.0)
        assert stats.units_completed == {0: 1, 1: 2, 2: 4}

    def test_minimum_one_unit_for_straggler(self):
        """A device slower than the round still completes one unit
        (Algorithm 1 line 11 always enters the loop)."""
        devices = make_fleet([5.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0]], np.zeros(1), duration=1.0)
        assert stats.units_completed == {0: 1}
        assert stats.end_time == 5.0

    def test_peer_sends_equals_units_in_multi_rings(self):
        devices = make_fleet([1.0, 1.0, 0.5, 0.5])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0, 1], [2, 3]], np.zeros(4), duration=1.0)
        # ring sizes > 1: every completed unit sends once.
        assert stats.peer_sends == sum(stats.units_completed.values())


class TestEngineValidation:
    def test_duplicate_device_raises(self):
        devices = make_fleet([1.0, 1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        with pytest.raises(ValueError):
            engine.run_round([[0, 1], [0]], np.zeros(2), duration=1.0)

    def test_nonpositive_duration_raises(self):
        devices = make_fleet([1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        with pytest.raises(ValueError):
            engine.run_round([[0]], np.zeros(1), duration=0.0)

    def test_bad_combine_raises(self):
        with pytest.raises(ValueError):
            RingRoundEngine(make_fleet([1.0]), combine="sum")

    def test_bad_epochs_raises(self):
        with pytest.raises(ValueError):
            RingRoundEngine(make_fleet([1.0]), epochs_per_unit=0)


class TestCombineModes:
    def test_average_mode_differs_from_direct(self):
        """Fig. 2 ablation: averaging the received model with the own model
        yields a different (blended) lineage."""
        for mode in ("direct", "average"):
            devices = make_fleet([1.0, 1.0])
            engine = RingRoundEngine(devices, epochs_per_unit=1, combine=mode)
            engine.run_round([[0, 1]], np.zeros(2), duration=2.0)
            if mode == "direct":
                direct = devices[0].weights.copy()
            else:
                averaged = devices[0].weights.copy()
        assert not np.allclose(direct, averaged)
        # direct: trained by 1 then 0 -> [1, 1]
        np.testing.assert_allclose(direct, [1.0, 1.0])
        # average: 0.5*(recv + own) + e_0 -> [1.5, 0.5]
        np.testing.assert_allclose(averaged, [1.5, 0.5])


class TestAsyncUploadSchedule:
    def test_counts_per_device(self):
        sched = async_upload_schedule({0: 1.0, 1: 0.5}, horizon=1.0)
        by_dev = {}
        for t, d in sched:
            by_dev.setdefault(d, []).append(t)
        assert by_dev[0] == [1.0]
        assert by_dev[1] == [0.5, 1.0]

    def test_sorted_by_time(self):
        sched = async_upload_schedule({0: 0.3, 1: 0.4, 2: 0.9}, horizon=1.0)
        times = [t for t, _ in sched]
        assert times == sorted(times)

    def test_straggler_gets_one_upload(self):
        sched = async_upload_schedule({0: 5.0}, horizon=1.0)
        assert sched == [(5.0, 0)]

    def test_sequence_input(self):
        sched = async_upload_schedule([1.0, 1.0], horizon=1.0)
        assert {d for _, d in sched} == {0, 1}

    def test_empty(self):
        assert async_upload_schedule({}, horizon=1.0) == []

    def test_bad_horizon_raises(self):
        with pytest.raises(ValueError):
            async_upload_schedule({0: 1.0}, horizon=0.0)

    def test_bad_unit_time_raises(self):
        with pytest.raises(ValueError):
            async_upload_schedule({0: 0.0}, horizon=1.0)


# --------------------------------------------------------------------------
# Real local SGD: batched instants, round-end state and memory.


def _sgd_fleet(tiny_split, counts, hidden=(16, 8)):
    """A fleet training a real MLP with LocalTrainer on the tiny dataset."""
    train_set, _ = tiny_split
    model = paper_mlp(
        train_set.flat_features, train_set.num_classes, seed=3, hidden=hidden
    )
    trainer = LocalTrainer(model, lr=0.1, batch_size=16, seed=4)
    parts = iid_partition(train_set, len(counts), seed=6)
    fleet = make_sgd_fleet(
        train_set, parts, unit_times_from_counts(np.asarray(counts)), trainer
    )
    return fleet, get_flat_params(model)


class CountingBatchedTrainer:
    """Delegates to a real BatchedTrainer and records each call's rows."""

    def __init__(self, fleet):
        self.inner = BatchedTrainer(fleet.trainer, fleet)
        self.calls: list[int] = []

    def train_round(self, ids, epochs, round_idx, weights, out, **kwargs):
        self.calls.append(len(ids))
        return self.inner.train_round(ids, epochs, round_idx, weights, out, **kwargs)


COUNTS = [1, 2, 4, 1, 2, 4, 1, 2]  # exact binary unit times 1, 1/2, 1/4
RINGS = [[0, 3, 6], [1, 4, 7], [2, 5]]


class TestBatchedInstants:
    def test_one_train_round_call_per_completion_instant(self, tiny_split):
        fleet, w0 = _sgd_fleet(tiny_split, COUNTS)
        spy = CountingBatchedTrainer(fleet)
        stats = RingRoundEngine(fleet, epochs_per_unit=1).run_round(
            RINGS, w0, duration=1.0, batched_trainer=spy
        )
        # Completions land on t = 0.25, 0.5, 0.75, 1.0.
        assert len(spy.calls) == 4
        assert sum(spy.calls) == sum(stats.units_completed.values()) == 17

    @pytest.mark.parametrize("combine", ["direct", "average"])
    @pytest.mark.parametrize("delay", [0.0, 0.1])
    def test_batched_matches_sequential(
        self, tiny_split, stacked_gemm_bitwise, combine, delay
    ):
        """Per-device dict starts, both combine rules, delayed hops:
        the batched instants reproduce the per-row LocalTrainer loop."""
        finals, all_stats = [], []
        for batched in (True, False):
            fleet, w0 = _sgd_fleet(tiny_split, COUNTS)
            starts = {i: w0 + 0.01 * i for i in range(len(COUNTS))}
            engine = RingRoundEngine(
                fleet, delay_model=UniformDelay(delay), epochs_per_unit=2,
                combine=combine,
            )
            trainer = CountingBatchedTrainer(fleet) if batched else None
            for r in range(2):
                stats = engine.run_round(
                    RINGS, starts, duration=1.0, round_idx=r,
                    batched_trainer=trainer,
                )
                starts = {i: fleet.weights_row(i).copy() for i in starts}
            finals.append(np.stack([starts[i] for i in sorted(starts)]))
            all_stats.append(stats)
        np.testing.assert_allclose(finals[0], finals[1], rtol=1e-12, atol=1e-12)
        if stacked_gemm_bitwise:
            np.testing.assert_array_equal(finals[0], finals[1])
        assert all_stats[0] == all_stats[1]


class TestRoundEndState:
    def test_every_buffer_empty_after_round(self):
        """Device 0 ends its only unit at t=1 while its fast predecessor
        keeps forwarding; those late arrivals must not stay pinned in the
        cached facade after the round."""
        devices = make_fleet([1.0, 0.25])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        engine.run_round([[0, 1]], np.zeros(2), duration=1.0)
        assert [len(devices[i].buffer) for i in range(2)] == [0, 0]

    def test_forwarded_models_own_their_memory(self, tiny_split, monkeypatch):
        """Each trained row handed to a successor is its own vector, never a
        view that would pin a whole instant's training block."""
        fleet, w0 = _sgd_fleet(tiny_split, COUNTS)
        received: list[np.ndarray] = []
        original = FleetDevice.receive

        def spy(self, weights):
            received.append(weights)
            original(self, weights)

        monkeypatch.setattr(FleetDevice, "receive", spy)
        RingRoundEngine(fleet, epochs_per_unit=1).run_round(
            RINGS, w0, duration=1.0, batched_trainer=CountingBatchedTrainer(fleet)
        )
        assert received
        assert all(w.base is None and w.shape == (fleet.dim,) for w in received)

    def test_retained_memory_independent_of_instants(self, tiny_split):
        """After a warm-up round, a round keeps nothing new alive, and its
        peak stays flat when the round spans four times the instants (the
        first round-length is the steady state: every ring is full)."""
        fleet, w0 = _sgd_fleet(tiny_split, COUNTS, hidden=(512, 16))
        vector = fleet.dim * 8
        engine = RingRoundEngine(fleet, epochs_per_unit=1)
        trainer = CountingBatchedTrainer(fleet)
        engine.run_round(RINGS, w0, duration=1.0, batched_trainer=trainer)
        measured = {}
        for duration in (2.0, 8.0):
            tracemalloc.start()
            before = tracemalloc.get_traced_memory()[0]
            engine.run_round(
                RINGS, w0, duration=duration, batched_trainer=trainer
            )
            after, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            measured[duration] = (after - before, peak - before)
        (kept_short, peak_short), (kept_long, peak_long) = measured.values()
        assert kept_short < vector and kept_long < vector
        assert peak_long < peak_short + vector
