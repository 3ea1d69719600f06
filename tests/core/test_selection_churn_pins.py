"""Selection policies under churn: pinned bit-identical run histories.

A selection policy's picks are filtered through the environment's
availability model before the round runs, and the async servers draw
their cohort through the same policy.  These runs pin that path for
``fedavg`` and ``fedasync`` under the ``fastest`` and ``datasize``
policies in the ``churn`` and ``flaky_mobile`` environments: the metric
history, the final weights, and how many device-rounds were lost to
churn and messages to drops must all match exactly.  The env="ideal"
goldens cover neither selection policies nor churn.

The numbers were recorded with the device-list selection path that
preceded the id-array one; any diff means the rerouting changed which
devices train, not just how they are looked up.
"""

import pytest

from repro.experiments import ExperimentSpec, build_experiment

BASE = dict(
    dataset="mnist_like",
    num_samples=400,
    num_devices=8,
    partition="dirichlet",
    beta=0.3,
    local_epochs=1,
    model_preset="small",
    seed=0,
    selection_fraction=0.5,
    # Pinned sequential: the batched engine is exact only to 1e-12.
    device_batching="off",
)
#: fedasync counts aggregations; 24 of them span several churn epochs.
ROUNDS = {
    "fedavg": dict(rounds=4, eval_every=1),
    "fedasync": dict(rounds=24, eval_every=6),
}

PINNED = {'fedavg-fastest-churn': {'history': {'rounds': [1, 2, 3, 4],
                                      'times': [0.1,
                                                0.43333333333333335,
                                                0.5444444444444445,
                                                0.8777777777777778],
                                      'server_transfers': [2.0, 8.0, 14.0, 20.0],
                                      'accuracies': [0.15, 0.25, 0.275, 0.35],
                                      'losses': [3.6685723964340795,
                                                 2.2318296282342374,
                                                 2.1535866407748454,
                                                 1.9055792331643175]},
                          'final_weights_sum': -2.601704124480756,
                          'unavailable': 6,
                          'dropped': 0},
 'fedavg-fastest-flaky_mobile': {'history': {'rounds': [1, 2, 3, 4],
                                             'times': [0.8577997394808794,
                                                       2.8366149165344425,
                                                       4.593207871365783,
                                                       6.572023048419346],
                                             'server_transfers': [3.0,
                                                                  10.0,
                                                                  16.0,
                                                                  24.0],
                                             'accuracies': [0.15, 0.25, 0.275, 0.3625],
                                             'losses': [3.6685723964340795,
                                                        2.2318296282342374,
                                                        2.1535866407748454,
                                                        1.9372973097974036]},
                                 'final_weights_sum': -1.7828547852875252,
                                 'unavailable': 3,
                                 'dropped': 2},
 'fedavg-datasize-churn': {'history': {'rounds': [1, 2, 3, 4],
                                       'times': [0.1, 1.1, 1.6, 2.6],
                                       'server_transfers': [2.0, 8.0, 14.0, 20.0],
                                       'accuracies': [0.15, 0.25, 0.4375, 0.5],
                                       'losses': [3.6685723964340795,
                                                  2.006870315830708,
                                                  1.7481433176452292,
                                                  1.3338343777636295]},
                           'final_weights_sum': -1.8231114684116925,
                           'unavailable': 6,
                           'dropped': 0},
 'fedavg-datasize-flaky_mobile': {'history': {'rounds': [1, 2, 3, 4],
                                              'times': [0.8466886283697682,
                                                        2.5933772567395366,
                                                        4.738859100459766,
                                                        7.384340944179996],
                                              'server_transfers': [2.0,
                                                                   9.0,
                                                                   15.0,
                                                                   21.0],
                                              'accuracies': [0.15, 0.3, 0.425, 0.5125],
                                              'losses': [3.6685723964340795,
                                                         2.068534810955222,
                                                         1.8275330461092743,
                                                         1.3121356927261094]},
                                  'final_weights_sum': 0.5699643390176803,
                                  'unavailable': 5,
                                  'dropped': 1},
 'fedasync-fastest-churn': {'history': {'rounds': [6, 12, 18, 24],
                                        'times': [0.2222222222222222,
                                                  0.7777777777777777,
                                                  1.1,
                                                  1.3000000000000003],
                                        'server_transfers': [15.0, 27.0, 39.0, 51.0],
                                        'accuracies': [0.1625, 0.2125, 0.2375, 0.275],
                                        'losses': [2.7363490409109783,
                                                   2.5628378165566765,
                                                   2.4357716974354644,
                                                   2.386003586139521]},
                            'final_weights_sum': 1.332825461480808,
                            'unavailable': 5,
                            'dropped': 0},
 'fedasync-fastest-flaky_mobile': {'history': {'rounds': [6, 12, 18, 24],
                                               'times': [1.016697157791328,
                                                         1.3066776475182174,
                                                         1.6005186996378926,
                                                         1.8066776475182178],
                                               'server_transfers': [26.0,
                                                                    39.0,
                                                                    54.0,
                                                                    67.0],
                                               'accuracies': [0.2125,
                                                              0.2125,
                                                              0.225,
                                                              0.275],
                                               'losses': [2.7278682257793947,
                                                          2.497809546665255,
                                                          2.471039575424503,
                                                          2.3926633917906455]},
                                   'final_weights_sum': 2.4365819343632014,
                                   'unavailable': 4,
                                   'dropped': 2},
 'fedasync-datasize-churn': {'history': {'rounds': [6, 12, 18, 24],
                                         'times': [0.3333333333333333,
                                                   0.6,
                                                   0.8888888888888891,
                                                   1.4000000000000001],
                                         'server_transfers': [16.0, 27.0, 39.0, 51.0],
                                         'accuracies': [0.1875, 0.25, 0.275, 0.2625],
                                         'losses': [2.709325630476806,
                                                    2.542940369881097,
                                                    2.424630225551882,
                                                    2.433101149828947]},
                             'final_weights_sum': 2.143312208051242,
                             'unavailable': 3,
                             'dropped': 0},
 'fedasync-datasize-flaky_mobile': {'history': {'rounds': [6, 12, 18, 24],
                                                'times': [1.016697157791328,
                                                          1.346688628369768,
                                                          1.8466886283697685,
                                                          2.246688628369769],
                                                'server_transfers': [23.0,
                                                                     33.0,
                                                                     45.0,
                                                                     58.0],
                                                'accuracies': [0.2,
                                                               0.25,
                                                               0.275,
                                                               0.2625],
                                                'losses': [2.641516275236892,
                                                           2.4269487803896608,
                                                           2.3832141315851225,
                                                           2.336634440895963]},
                                    'final_weights_sum': 1.142423819618033,
                                    'unavailable': 2,
                                    'dropped': 2}}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_selection_under_churn_is_pinned(key):
    method, selection, env = key.split("-")
    spec = ExperimentSpec(
        method=method, selection=selection, env=env, **ROUNDS[method], **BASE
    )
    server = build_experiment(spec)
    result = server.fit()
    want = PINNED[key]
    history = result.history.to_dict()
    for series, values in want["history"].items():
        assert history[series] == values, f"{key}: '{series}' diverged"
    assert float(result.final_weights.sum()) == want["final_weights_sum"]
    assert server.unavailable_count == want["unavailable"]
    assert server.dropped_messages == want["dropped"]
