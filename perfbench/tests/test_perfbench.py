"""The benchmark's own tests: its metric table matches ``BENCHMARK.json``, a
run with NaN weights counts as failed, and the tracer leaves no wrapper
behind.  Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

from perfbench import run
from perfbench.child import run_specs
from perfbench.tracer import PER_LAYER, Tracer, layer_targets
from perfbench.workloads import END_TO_END, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: A few seconds of work touching every traced layer: the ring engine and
#: Dirichlet partition (fedhisyn), batched training (fedavg), the event
#: engine with churn (fedbuff).
TINY = [
    dict(method="fedhisyn", num_samples=300, num_devices=6, rounds=2,
         method_kwargs={"num_classes": 2}, seed=0),
    dict(method="fedavg", num_samples=300, num_devices=6, rounds=2, seed=0),
    dict(method="fedbuff", num_samples=300, num_devices=12, participation=0.5,
         env="churn", partition="contiguous", rounds=6, seed=0),
]


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_runs() -> tuple[dict, dict]:
    """One traced and one untraced run of ``TINY``."""
    return run_specs(TINY, Tracer()), run_specs(TINY)


def test_metric_names_and_units_match_benchmark_json(benchmark_json, tiny_runs):
    declared_e2e = {m["name"]: m["unit"] for m in benchmark_json["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in benchmark_json["per_layer"]}
    assert declared_e2e == END_TO_END
    assert declared_layer == PER_LAYER
    assert {w["name"]: w["why"] for w in benchmark_json["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    # The metrics a run actually derives are exactly the declared ones.
    traced, untraced = tiny_runs
    m = {"traced": traced, "untraced": [untraced]}
    assert set(run.end_to_end(m)) == set(declared_e2e)
    assert set(run.per_layer(m)) == set(declared_layer)


def test_traced_run_counts_exactly_and_matches_untraced(tiny_runs):
    traced, untraced = tiny_runs
    assert traced["problems"] == [] and untraced["problems"] == []
    assert run.compare_facts(untraced["runs"], traced["runs"], run.EXACT + run.CLOSE) == []
    layers = traced["layers"]
    assert layers["engine.units"] > 0 and layers["device.batched_rows"] > 0
    assert layers["async.aggregations"] == 6
    assert layers["device.train_samples"] == sum(
        f["device.train_samples"] for f in traced["runs"]
    )


def test_nan_weights_count_as_failed():
    with np.errstate(all="ignore"):
        out = run_specs([dict(method="fedavg", num_samples=200, num_devices=4,
                              rounds=2, lr=1e6, seed=0)])
    assert any("not finite" in p for p in out["problems"])
    good, failures = run.tally([("untraced", out, None)], traced=None, ref=None)
    assert good == [] and len(failures) == 1


def _bindings() -> dict[tuple[int, str], object]:
    """Every attribute of a ``repro`` module or traced class, by owner id."""
    owners = [m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")]
    for target in layer_targets():
        owners.extend(cls for cls, _ in target.methods)
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_wrapped_function():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    wrapped = [k for k, v in _bindings().items() if hasattr(v, "__perfbench_original__")]
    assert len(wrapped) >= 20
    tracer.uninstall()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    assert not any(hasattr(v, "__perfbench_original__") for v in after.values())


def test_tracer_restores_after_a_failing_run():
    before = _bindings()
    # The unknown config field fails inside build_experiment, mid-trace.
    with pytest.raises(TypeError):
        run_specs([dict(method="fedavg", num_samples=200, num_devices=4,
                        rounds=1, seed=0, method_kwargs={"no_such_field": 1})], Tracer())
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
