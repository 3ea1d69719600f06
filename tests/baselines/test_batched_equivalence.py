"""Batched vs sequential training at the experiment level.

``device_batching`` is an execution strategy, not a semantic knob: for every
FedAvg-family method and FedHiSyn's ring engine, under every environment and
codec combination, ``"auto"`` must reproduce ``"off"``'s run to 1e-12
(bitwise on BLAS builds whose stacked-GEMM slices are exact — the common
case, probed by the ``stacked_gemm_bitwise`` fixture).  Callers the engine
does not batch (FedAT, TAFedAvg, per-event async) and CNN models silently
keep the sequential path.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, build_experiment, run_experiment

BASE = dict(
    dataset="mnist_like",
    num_devices=10,
    num_samples=500,
    rounds=2,
    participation=0.5,
    seed=1,
)


def _pair(**overrides):
    """(auto result, off result) for one spec point."""
    auto = run_experiment(
        ExperimentSpec(**BASE, **overrides, device_batching="auto")
    )
    off = run_experiment(
        ExperimentSpec(**BASE, **overrides, device_batching="off")
    )
    return auto, off


def _assert_equivalent(auto, off):
    np.testing.assert_allclose(
        auto.final_weights, off.final_weights, rtol=1e-12, atol=1e-12
    )
    # Everything that is not weight float ops must be *identical*: the
    # engine may not perturb selection, clocks, byte metering or epochs.
    assert auto.history.times == off.history.times
    assert auto.per_round_unit == off.per_round_unit
    assert auto.transport == off.transport


@pytest.mark.parametrize("method", ["fedavg", "fedprox", "tfedavg", "scaffold"])
@pytest.mark.parametrize("env", ["ideal", "wan"])
def test_methods_and_envs(method, env):
    auto, off = _pair(method=method, env=env)
    _assert_equivalent(auto, off)


@pytest.mark.parametrize("method", ["fedavg", "scaffold"])
def test_topk_codec(method):
    # Error feedback makes the codec stateful: equal wire bytes and 1e-12
    # weights over two rounds mean the batched path fed it identical
    # updates in identical order.
    auto, off = _pair(
        method=method, env="wan", codec="topk", codec_kwargs={"fraction": 0.2}
    )
    _assert_equivalent(auto, off)


def _fedhisyn_pair(**overrides):
    """(auto, off) as ``(server, result)`` for one FedHiSyn spec point."""
    runs = []
    for mode in ("auto", "off"):
        spec = ExperimentSpec(
            **{**BASE, "method": "fedhisyn", **overrides}, device_batching=mode
        )
        server = build_experiment(spec)
        runs.append((server, server.fit()))
    return runs


@pytest.mark.parametrize("combine", ["direct", "average"])
@pytest.mark.parametrize(
    "env",
    [
        dict(env="ideal"),
        dict(env="wan"),
        # Lossy enough that broadcasts and ring hops drop: per-device dict
        # start models, retained fleet storage, engine drop draws.
        dict(env="wan", env_kwargs={"drop_prob": 0.3}),
    ],
    ids=["ideal", "wan", "peer_drop"],
)
def test_fedhisyn_ring_engine(combine, env, stacked_gemm_bitwise):
    (auto_srv, auto), (off_srv, off) = _fedhisyn_pair(
        **env, method_kwargs={"num_classes": 2, "combine": combine}
    )
    assert auto_srv.batched_trainer is not None
    assert off_srv.batched_trainer is None
    _assert_equivalent(auto, off)
    if stacked_gemm_bitwise:
        np.testing.assert_array_equal(auto.final_weights, off.final_weights)
    assert auto_srv.last_round_stats == off_srv.last_round_stats
    assert auto_srv.engine.dropped_sends == off_srv.engine.dropped_sends
    if env.get("env_kwargs"):
        assert auto_srv.fleet.retain_history
        assert auto_srv.engine.dropped_sends > 0


@pytest.mark.parametrize(
    "overrides",
    [
        dict(
            env="wan", codec="topk", codec_kwargs={"fraction": 0.2},
            method_kwargs={"num_classes": 2},
        ),
        dict(method_kwargs={"num_classes": 3, "aggregation": "class_time"}),
    ],
    ids=["topk", "class_time"],
)
def test_fedhisyn_codec_and_aggregation(overrides, stacked_gemm_bitwise):
    (auto_srv, auto), (off_srv, off) = _fedhisyn_pair(**overrides)
    _assert_equivalent(auto, off)
    if stacked_gemm_bitwise:
        np.testing.assert_array_equal(auto.final_weights, off.final_weights)
    assert auto_srv.last_round_stats == off_srv.last_round_stats


def test_fedprox_anchor_is_exercised():
    # Guard against the fast path silently dropping the proximal term.
    fedavg, _ = _pair(method="fedavg")
    fedprox, _ = _pair(method="fedprox", method_kwargs={"mu": 0.5})
    assert not np.array_equal(fedavg.final_weights, fedprox.final_weights)


def test_auto_installs_engine_on_batchable_spec():
    server = build_experiment(ExperimentSpec(method="fedavg", **BASE))
    assert server.batched_trainer is not None


def test_off_keeps_sequential_path():
    server = build_experiment(
        ExperimentSpec(method="fedavg", **BASE, device_batching="off")
    )
    assert server.batched_trainer is None


def test_cnn_falls_back_to_sequential():
    spec = ExperimentSpec(
        method="fedavg",
        dataset="cifar10_like",
        model_family="cnn",
        num_devices=4,
        num_samples=120,
        rounds=1,
        seed=1,
    )
    server = build_experiment(spec)
    assert server.batched_trainer is None  # silently sequential, not an error


def test_mlp_on_image_data_batches():
    # build_model fronts the MLP with Flatten on (C, H, W) data; the engine
    # must accept that stack and match the sequential run.
    image = dict(
        dataset="cifar10_like", num_devices=6, num_samples=240, rounds=1, seed=1
    )
    auto = run_experiment(ExperimentSpec(method="fedavg", **image))
    off = run_experiment(
        ExperimentSpec(method="fedavg", **image, device_batching="off")
    )
    np.testing.assert_allclose(
        auto.final_weights, off.final_weights, rtol=1e-12, atol=1e-12
    )


def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError, match="device_batching"):
        ExperimentSpec(method="fedavg", **BASE, device_batching="sometimes")


def test_config_records_non_default_mode_only():
    auto, off = _pair(method="fedavg")
    assert "device_batching" not in auto.config
    assert off.config["device_batching"] == "off"


def test_sweepable_axis():
    from repro.campaign import sweep

    specs = sweep(
        ExperimentSpec(method="fedavg", **BASE),
        grid={"device_batching": ["auto", "off"]},
    )
    assert [s.device_batching for s in specs] == ["auto", "off"]
    accs = [run_experiment(s).final_accuracy for s in specs]
    assert accs[0] == accs[1]


GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


def test_golden_fedavg_within_tolerance_under_auto():
    """Goldens are pinned on the sequential path; ``"auto"`` must stay
    within the documented 1e-12 of them (equal on bitwise platforms)."""
    gold = json.loads((GOLDEN_DIR / "fedavg.json").read_text())
    result = run_experiment(
        ExperimentSpec(**{**gold["spec"], "device_batching": "auto"})
    )
    assert math.isclose(
        float(result.final_weights.sum()),
        gold["final_weights_sum"],
        rel_tol=1e-9,
    )
