"""One benchmark run in a fresh process: build and fit every spec of a
workload, check the outputs, print one JSON line.

Run by ``perfbench/run.py``; by hand::

    PYTHONPATH=src python3 -m perfbench.child --workload fedhisyn_city --seed 0 --trace 1

Timings cover ``build_experiment`` (``setup_s``) and ``server.fit``
(``fit_s``).  Output checks run after the last fit, outside the timed
region.  With ``--trace 1`` the layers run wrapped by :class:`Tracer`, and
``--trace-out`` receives the spans as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

import numpy as np

from perfbench.tracer import Tracer, call_stats, layer_metrics
from perfbench.workloads import WORKLOADS

__all__ = ["check_partitions", "environment", "run_specs"]


def environment() -> dict:
    """nproc, BLAS library and thread cap, Python and NumPy versions."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def check_partitions(partitions: list[tuple[int, list]]) -> list[str]:
    """Each captured partition's shards are disjoint and cover ``range(n)``."""
    problems = []
    for n, parts in partitions:
        order = np.sort(np.concatenate([np.asarray(p, dtype=np.int64) for p in parts]))
        if len(order) != n or not np.array_equal(order, np.arange(n)):
            problems.append(
                f"partition of {n} samples into {len(parts)} shards is not "
                f"disjoint and covering ({len(order)} indices)"
            )
    return problems


def run_specs(spec_dicts: list[dict], tracer: Tracer | None = None) -> dict:
    """Build and fit each spec in order; the run's timings, facts and checks.

    ``runs`` holds one fact dict per spec (the values the driver compares
    across runs and against references); ``problems`` lists every failed
    output check.  A traced run adds per-layer metrics, per-spec span
    breakdowns and the exact counters.
    """
    from repro.experiments import ExperimentSpec, build_experiment

    specs = [ExperimentSpec(**kw) for kw in spec_dicts]
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    facts: list[dict] = []
    weights: list[np.ndarray] = []
    roots: list[int] = []
    setup_s = fit_s = 0.0
    if tracer is not None:
        tracer.install()
    try:
        first = time.perf_counter()
        for spec in specs:
            if tracer is not None:
                roots.append(len(tracer.spans))
                before = dict(tracer.counters)
            with span("bench.run"):
                t0 = time.perf_counter()
                with span("bench.build"):
                    server = build_experiment(spec)
                t1 = time.perf_counter()
                with span("bench.fit"):
                    result = server.fit()
                t2 = time.perf_counter()
            setup_s += t1 - t0
            fit_s += t2 - t1
            fact = {
                "method": spec.method,
                "setup_s": t1 - t0,
                "fit_s": t2 - t1,
                "accuracy": result.final_accuracy,
                "loss": result.history.losses[-1],
                "loss_peak": max(result.history.losses),
                "clock": server.clock.now,
                "transfers": server.meter.server_total,
                "events": server.scheduler.events_processed,
                # Sample conservation: shards plus the test split are the
                # whole dataset.
                "samples_held": int(server.fleet.num_samples.sum())
                + len(server.test_set),
                "samples_made": spec.num_samples,
            }
            if tracer is not None:
                for key in ("engine.units", "device.train_samples"):
                    fact[key] = tracer.counters[key] - before.get(key, 0)
            facts.append(fact)
            weights.append(result.final_weights)
            del server, result
        wall_s = time.perf_counter() - first
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = []
    for fact, w in zip(facts, weights):
        if not np.all(np.isfinite(w)):
            problems.append(f"{fact['method']}: final weights are not finite")
        if fact["samples_held"] != fact["samples_made"]:
            problems.append(
                f"{fact['method']}: shards and test split hold "
                f"{fact['samples_held']} of {fact['samples_made']} samples"
            )
    out = {
        "setup_s": setup_s,
        "fit_s": fit_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": facts,
        "problems": problems,
    }
    if tracer is not None:
        problems.extend(check_partitions(tracer.partitions))
        layers = layer_metrics(tracer)
        layers["scheduler.events"] = sum(f["events"] for f in facts)
        out["layers"] = layers
        out["calls"] = call_stats(tracer)
        out["breakdown"] = [_breakdown(tracer, root) for root in roots]
    return out


def _breakdown(tracer: Tracer, root: int) -> dict:
    """One spec's build and fit spans, and its largest spans by self time."""
    spans = tracer.spans
    selves = tracer.self_times()
    build = next(i for i in range(root, len(spans)) if spans[i][0] == "bench.build")
    fit = next(i for i in range(root, len(spans)) if spans[i][0] == "bench.fit")
    by_self: dict[str, float] = {}
    for i in range(fit + 1, len(spans)):
        if spans[i][4] != root:
            break
        by_self[spans[i][0]] = by_self.get(spans[i][0], 0.0) + selves[i]
    return {
        "setup_s": spans[build][2] - spans[build][1],
        "fit_s": spans[fit][2] - spans[fit][1],
        "layers": layer_metrics(tracer, root=root),
        "fit_self_top": sorted(by_self.items(), key=lambda kv: -kv[1])[:4],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    out = run_specs(WORKLOADS[args.workload].runs(args.seed), tracer)
    out["env"] = environment()
    if tracer is not None and args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(
                tracer.chrome_trace({"workload": args.workload, "seed": args.seed}), fh
            )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
