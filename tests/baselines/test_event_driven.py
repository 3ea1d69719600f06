"""Tests for the event-driven async methods (FedAsync, FedBuff)."""

import numpy as np
import pytest

from repro.baselines.fedasync import FedAsyncConfig, FedAsyncServer
from repro.baselines.fedbuff import FedBuffConfig, FedBuffServer
from repro.core.async_server import STALENESS_DECAYS, staleness_weight
from repro.env.registry import make_environment


class TestStalenessWeight:
    def test_constant_ignores_staleness(self):
        assert staleness_weight(0, "constant") == 1.0
        assert staleness_weight(50, "constant") == 1.0

    def test_polynomial_decays(self):
        fresh = staleness_weight(0, "polynomial", exponent=0.5)
        stale = staleness_weight(8, "polynomial", exponent=0.5)
        assert fresh == 1.0
        assert stale == pytest.approx((1.0 + 8) ** -0.5)
        assert stale < fresh

    def test_hinge_grace_then_decay(self):
        assert staleness_weight(4, "hinge", exponent=1.0, hinge_delay=4) == 1.0
        assert staleness_weight(6, "hinge", exponent=1.0, hinge_delay=4) == (
            pytest.approx(1.0 / 3.0)
        )

    def test_monotone_in_staleness(self):
        for decay in STALENESS_DECAYS:
            ws = [staleness_weight(s, decay) for s in range(10)]
            assert all(a >= b for a, b in zip(ws, ws[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            staleness_weight(-1, "constant")
        with pytest.raises(ValueError):
            staleness_weight(0, "exponential")


class TestConfigs:
    def test_decay_validation(self):
        with pytest.raises(ValueError):
            FedAsyncConfig(staleness_decay="bogus")
        with pytest.raises(ValueError):
            FedAsyncConfig(staleness_exponent=-1.0)
        with pytest.raises(ValueError):
            FedAsyncConfig(hinge_delay=-1)
        with pytest.raises(ValueError):
            FedAsyncConfig(churn_period=0.0)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            FedAsyncConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FedAsyncConfig(alpha=1.5)

    def test_buffer_validation(self):
        with pytest.raises(ValueError):
            FedBuffConfig(buffer_goal=0)
        with pytest.raises(ValueError):
            FedBuffConfig(global_lr=0.0)


class TestFedAsync:
    def test_learns(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=24, local_epochs=1, alpha=0.5, seed=0),
        ).fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes

    def test_one_version_per_upload(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=10, local_epochs=1, seed=0),
        )
        srv.fit()
        # Exactly rounds aggregations happened; the meter counts *sent*
        # uploads, so in-flight ones at stop time may exceed the versions.
        assert srv._version == 10
        assert srv.meter.server_up >= 10

    def test_history_records_versions(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=6, local_epochs=1, eval_every=2, seed=0),
        ).fit()
        assert result.history.rounds == [2, 4, 6]

    def test_virtual_time_tracks_unit_rates(self, tiny_devices, tiny_split):
        """With n devices cycling continuously under an instant network,
        k aggregations arrive no later than k full cohort sweeps."""
        _, test_set = tiny_split
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=8, local_epochs=1, seed=0),
        )
        result = srv.fit()
        slowest = max(d.unit_time for d in tiny_devices)
        assert 0.0 < result.history.times[-1] <= 8 * slowest

    def test_staleness_decay_changes_result(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        finals = {}
        start = {}
        for decay in ("constant", "polynomial"):
            srv = FedAsyncServer(
                tiny_devices, test_set,
                FedAsyncConfig(rounds=10, local_epochs=1, alpha=0.4,
                               staleness_decay=decay, seed=0),
            )
            w0 = start.setdefault("w0", srv.global_weights.copy())
            finals[decay] = srv.fit(initial_weights=w0).final_weights
        assert not np.allclose(finals["constant"], finals["polynomial"])

    def test_uploads_arrive_after_uplink_latency(self, tiny_devices, tiny_split):
        """A latency-only network shifts every arrival by the link time —
        the run must still aggregate, and virtual time must grow."""
        _, test_set = tiny_split
        env = make_environment("lan")
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=6, local_epochs=1, seed=0),
            env=env,
        )
        ideal = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=6, local_epochs=1, seed=0),
        )
        w0 = srv.global_weights.copy()
        t_env = srv.fit(initial_weights=w0).history.times[-1]
        t_ideal = ideal.fit(initial_weights=w0).history.times[-1]
        assert t_env > t_ideal

    def test_churn_parks_and_revives_devices(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=12, local_epochs=1, seed=2),
            env=make_environment("churn"),
        )
        result = srv.fit()
        assert srv.unavailable_count > 0  # churn actually bit
        assert len(result.history.rounds) > 0  # and progress continued

    def test_drops_lose_messages_but_not_liveness(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedAsyncServer(
            tiny_devices, test_set,
            FedAsyncConfig(rounds=8, local_epochs=1, seed=3),
            env=make_environment("ideal", drop_prob=0.3),
        )
        srv.fit()
        assert srv.dropped_messages > 0
        assert srv._version == 8


class TestFedBuff:
    def test_learns(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=8, local_epochs=1, buffer_goal=4, seed=0),
        ).fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes

    def test_buffer_goal_gates_aggregation(self, tiny_devices, tiny_split):
        """K arrived uploads per version (ideal env: nothing is dropped,
        so at least K x versions uploads were sent)."""
        _, test_set = tiny_split
        srv = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=5, local_epochs=1, buffer_goal=3, seed=0),
        )
        srv.fit()
        assert srv._version == 5
        assert srv.meter.server_up >= 5 * 3

    def test_buffer_smaller_than_goal_never_flushes_alone(
        self, tiny_devices, tiny_split
    ):
        _, test_set = tiny_split
        srv = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=2, local_epochs=1, buffer_goal=4, seed=0),
        )
        w0 = srv.global_weights.copy()
        srv.fit(initial_weights=w0)
        # Leftover buffer entries below the goal stay unapplied.
        assert len(srv._buffer) < 4

    def test_staleness_leak_weights_buffer_entries(
        self, tiny_devices, tiny_split
    ):
        _, test_set = tiny_split
        finals = {}
        start = {}
        for decay in ("constant", "polynomial"):
            srv = FedBuffServer(
                tiny_devices, test_set,
                FedBuffConfig(rounds=6, local_epochs=1, buffer_goal=4,
                              staleness_decay=decay,
                              staleness_exponent=1.0, seed=0),
            )
            w0 = start.setdefault("w0", srv.global_weights.copy())
            finals[decay] = srv.fit(initial_weights=w0).final_weights
        assert not np.allclose(finals["constant"], finals["polynomial"])

    def test_runs_on_fleet(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=4, local_epochs=1, buffer_goal=3, seed=0),
            env=make_environment("churn"),
        ).fit()
        assert len(result.history.rounds) > 0

    def test_partial_participation_cohort(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = FedBuffServer(
            tiny_devices, test_set,
            FedBuffConfig(rounds=3, local_epochs=1, buffer_goal=2,
                          participation=0.5, seed=0),
        )
        srv.fit()
        assert 1 <= len(srv.cohort) <= len(tiny_devices)


class TestSpecIntegration:
    def test_run_experiment_roundtrip(self):
        from repro.experiments import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            method="fedbuff", num_samples=300, num_devices=6, rounds=4,
            local_epochs=1, seed=0, buffer_goal=2,
            staleness_decay="hinge", eval_time_every=0.05,
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored == spec
        result = run_experiment(spec)
        assert result.config["buffer_goal"] == 2
        assert result.config["staleness_decay"] == "hinge"
        assert len(result.history.checkpoint_times) > 0

    def test_async_fields_ignored_by_sync_methods(self):
        from repro.experiments import ExperimentSpec, run_experiment

        spec = ExperimentSpec(
            method="fedavg", num_samples=300, num_devices=5, rounds=2,
            local_epochs=1, seed=0, buffer_goal=7, staleness_decay="constant",
        )
        result = run_experiment(spec)  # must not raise
        assert result.final_accuracy >= 0.0

    def test_spec_validates_async_fields(self):
        from repro.experiments import ExperimentSpec

        with pytest.raises(ValueError):
            ExperimentSpec(staleness_decay="bogus")
        with pytest.raises(ValueError):
            ExperimentSpec(buffer_goal=0)
        with pytest.raises(ValueError):
            ExperimentSpec(eval_time_every=-1.0)

    def test_sweepable_in_campaign_grid(self):
        from repro.campaign import sweep
        from repro.experiments import ExperimentSpec

        specs = sweep(
            ExperimentSpec(method="fedbuff", rounds=2),
            {"buffer_goal": [2, 4], "staleness_decay": ["constant", "hinge"]},
        )
        assert len(specs) == 4
        assert {s.buffer_goal for s in specs} == {2, 4}
