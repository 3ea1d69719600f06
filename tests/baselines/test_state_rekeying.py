"""Per-device state under fleet rekeying (SCAFFOLD variates, FedAT tiers).

The fleet recycles participant weight rows every round, so *cross-round*
method state must be keyed by stable device id and survive rounds where a
device is deselected and later reselected — the generalization of the
PR 3 ``device_tier`` fix to every stateful method.  These tests drive
deselection deterministically through ``TraceAvailability`` and pin the
fleet server to runs recorded with the per-object server, bit for bit.
"""

import numpy as np
import pytest

from repro.baselines.fedat import FedATConfig, FedATServer
from repro.baselines.scaffold import ScaffoldConfig, ScaffoldServer
from repro.datasets.partition import dirichlet_partition
from repro.device import make_fleet, unit_times_from_counts
from repro.env.availability import TraceAvailability
from repro.env.environment import Environment
from repro.env.network import IdealNetwork, UniformNetwork
from repro.experiments import METHODS, ExperimentSpec, run_experiment


def _population(tiny_split, tiny_trainer):
    train_set, test_set = tiny_split
    parts = dirichlet_partition(train_set, 8, beta=0.5, seed=5, min_samples=2)
    times = unit_times_from_counts(np.array([1, 2, 4, 1, 2, 4, 1, 2]))
    return make_fleet(train_set, parts, times, tiny_trainer), test_set


def _churn_env():
    """Device 0 offline in round 2 only; everyone else always on."""
    return Environment(
        IdealNetwork(),
        TraceAvailability({0: [True, False, True]}),
        name="churn-trace",
    )


class TestScaffoldRekeying:
    def test_variate_survives_deselection(self, tiny_split, tiny_trainer):
        fleet, test_set = _population(tiny_split, tiny_trainer)
        srv = ScaffoldServer(
            fleet, test_set, ScaffoldConfig(rounds=3, local_epochs=1),
            env=_churn_env(),
        )
        assert not fleet.retain_history  # lossless env -> recycled rows

        w = srv.global_weights
        w = srv.run_round(1, srv.select_participants(1), w)
        after_round1 = srv.device_variates[0].copy()
        assert np.abs(after_round1).sum() > 0

        participants = srv.select_participants(2)
        assert 0 not in {d.device_id for d in participants}
        w = srv.run_round(2, participants, w)
        # Deselected: the variate is untouched even though the fleet
        # recycled every weight row in between.
        np.testing.assert_array_equal(srv.device_variates[0], after_round1)

        participants = srv.select_participants(3)
        assert 0 in {d.device_id for d in participants}
        srv.run_round(3, participants, w)
        assert not np.array_equal(srv.device_variates[0], after_round1)

    def test_variates_materialize_only_for_participants(
        self, tiny_split, tiny_trainer
    ):
        fleet, test_set = _population(tiny_split, tiny_trainer)
        srv = ScaffoldServer(
            fleet, test_set,
            ScaffoldConfig(rounds=1, local_epochs=1, participation=0.5, seed=3),
        )
        srv.fit()
        participated = srv.device_variates.materialized
        assert 0 < participated < len(fleet)


class TestFedATRekeying:
    def test_tier_state_keyed_by_stable_tier(self, tiny_split, tiny_trainer):
        fleet, test_set = _population(tiny_split, tiny_trainer)
        srv = FedATServer(
            fleet, test_set, FedATConfig(rounds=3, local_epochs=1, num_tiers=3),
            env=_churn_env(),
        )
        srv.fit()
        global_tiers = set(srv.device_tier.values())
        assert set(srv._tier_models) <= global_tiers
        # The dense array view agrees with the id-keyed dict.
        for dev_id, tier in srv.device_tier.items():
            assert srv.tier_of[dev_id] == tier


class TestFleetMatchesPerObject:
    """The fleet server reproduces, bit for bit, the stateful methods' runs
    under partial participation + churn (and under drops) as recorded with
    the per-object device-list server it replaced."""

    #: Final-weights sum and per-round losses of the per-object runs.
    PINNED = {
        "ScaffoldServer": (
            3.47302134039096,
            [1.1796538297281522, 0.8475478229989802,
             0.48891626851130326, 0.3386108244209932],
        ),
        "FedATServer": (
            3.4350569325863765,
            [0.914845919613561, 0.6419007434294508,
             0.46710613479435703, 0.3789492232789339],
        ),
    }

    @pytest.mark.parametrize("server_cls,config_cls", [
        (ScaffoldServer, ScaffoldConfig),
        (FedATServer, FedATConfig),
    ])
    def test_bitwise_equal_histories(
        self, tiny_split, tiny_trainer, server_cls, config_cls
    ):
        from repro.nn.serialization import get_flat_params

        w0 = get_flat_params(tiny_trainer.model)
        pop, test_set = _population(tiny_split, tiny_trainer)
        cfg = config_cls(rounds=4, local_epochs=1, participation=0.6, seed=9)
        srv = server_cls(pop, test_set, cfg, env=_churn_env())
        res = srv.fit(initial_weights=w0)
        weights_sum, losses = self.PINNED[server_cls.__name__]
        assert float(res.final_weights.sum()) == weights_sum
        assert res.history.losses == losses
        assert res.history.times == [1.0, 2.0, 3.0, 4.0]

    def test_bitwise_equal_under_drops(self, tiny_split, tiny_trainer):
        """Lossy channels force row retention; still bit-identical."""
        from repro.nn.serialization import get_flat_params

        w0 = get_flat_params(tiny_trainer.model)
        pop, test_set = _population(tiny_split, tiny_trainer)
        cfg = ScaffoldConfig(rounds=3, local_epochs=1, seed=9)
        env = Environment(UniformNetwork(drop_prob=0.3), name="lossy")
        srv = ScaffoldServer(pop, test_set, cfg, env=env)
        assert pop.retain_history  # drops -> per-device rows kept
        res = srv.fit(initial_weights=w0)
        assert float(res.final_weights.sum()) == 3.009261523828828
        assert res.history.losses == [
            1.1796538297281522, 0.758783127601019, 0.5023015790447617
        ]
        assert srv.dropped_messages == 15


class TestEveryMethodFleetEquivalence:
    """End-to-end: every registered method replays an identical metric
    history from the same spec under partial participation in a non-ideal
    (lossless) environment — the whole build-and-run stack is
    deterministic."""

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_partial_participation_history(self, method):
        spec = ExperimentSpec(
            method=method,
            dataset="mnist_like",
            num_samples=400,
            num_devices=6,
            rounds=3,
            local_epochs=1,
            participation=0.7,
            env="lan",
            seed=1,
            method_kwargs={"num_classes": 2} if method == "fedhisyn" else {},
        )
        first = run_experiment(spec)
        second = run_experiment(spec)  # determinism of the fleet path
        np.testing.assert_array_equal(first.final_weights, second.final_weights)
        assert first.history.to_dict() == second.history.to_dict()
