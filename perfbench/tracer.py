"""In-memory span tracer wrapped around the public entry point of each layer.

:meth:`Tracer.install` replaces every target in :func:`layer_targets` with a
wrapper that records a span ``(name, start, end, parent, root)`` and, for
some targets, bumps exact counters from the call's arguments and result.
:meth:`Tracer.uninstall` puts every original back, so an untraced run
executes unwrapped code.  Module-level functions are patched wherever a
``repro`` module binds them (``partition_by_name`` is looked up through
``repro.experiments``), methods on every class that defines them, since
subclasses override ``run_round``, ``apply_upload`` and friends.

Spans stay in memory; :meth:`Tracer.chrome_trace` writes them as Chrome
trace-event JSON and :func:`layer_metrics` folds them into the per-layer
metrics of ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["PER_LAYER", "Target", "Tracer", "call_stats", "layer_metrics", "layer_targets"]

#: Per-layer metrics (name -> unit) reported by a traced run.  ``_s`` names
#: are span totals over the whole workload; ``self`` means minus child spans.
PER_LAYER: dict[str, str] = {
    "datasets.make_s": "s",
    "datasets.split_s": "s",
    "datasets.partition_s": "s",
    "device.fleet_build_s": "s",
    "device.train_s": "s",
    "device.train_calls": "count",
    "device.batched_s": "s",
    "device.batched_calls": "count",
    "device.batched_rows": "count",
    "device.train_samples": "count",
    "device.batched_frac": "ratio",
    "server.select_s": "s",
    "server.broadcast_s": "s",
    "server.collect_s": "s",
    "server.train_s": "s",
    "server.eval_s": "s",
    "server.eval_calls": "count",
    "server.round_self_s": "s",
    "core.aggregate_s": "s",
    "core.cluster_s": "s",
    "core.ring_build_s": "s",
    "async.apply_s": "s",
    "async.aggregations": "count",
    "engine.ring_round_s": "s",
    "engine.ring_self_s": "s",
    "engine.units": "count",
    "engine.peer_sends": "count",
    "scheduler.events": "count",
    "scheduler.dispatches": "count",
    "scheduler.members_per_dispatch": "ratio",
    "scheduler.self_s": "s",
    "env.availability_s": "s",
    "trace.overhead": "ratio",
}

#: Span name -> the ``_s`` metric that reports its total time.
_TOTALS = {
    "datasets.make": "datasets.make_s",
    "datasets.split": "datasets.split_s",
    "datasets.partition": "datasets.partition_s",
    "device.fleet_build": "device.fleet_build_s",
    "device.train": "device.train_s",
    "device.batched": "device.batched_s",
    "server.select": "server.select_s",
    "server.broadcast": "server.broadcast_s",
    "server.collect": "server.collect_s",
    "server.train": "server.train_s",
    "server.eval": "server.eval_s",
    "core.aggregate": "core.aggregate_s",
    "core.cluster": "core.cluster_s",
    "core.ring_build": "core.ring_build_s",
    "async.apply": "async.apply_s",
    "engine.ring_round": "engine.ring_round_s",
    "env.availability": "env.availability_s",
}

#: Span name -> the metric that reports its self time.
_SELVES = {
    "server.round": "server.round_self_s",
    "engine.ring_round": "engine.ring_self_s",
    "scheduler.run": "scheduler.self_s",
}

Hook = Callable[["Tracer", tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    """Argument ``name`` of a call, passed at position ``pos`` or by keyword."""
    return args[pos] if len(args) > pos else kwargs[name]


def _count_train(tr: "Tracer", args, kwargs, out) -> None:
    # LocalTrainer.train(self, weights, shard, epochs, ...)
    c = tr.counters
    c["device.train_calls"] += 1
    c["device.train_samples"] += int(_arg(args, kwargs, 3, "epochs")) * len(
        _arg(args, kwargs, 2, "shard")
    )


def _count_batched(tr: "Tracer", args, kwargs, out) -> None:
    # BatchedTrainer.train_round(self, ids, epochs, ...)
    import numpy as np

    ids = np.asarray(_arg(args, kwargs, 1, "ids"), dtype=np.intp)
    epochs = np.asarray(_arg(args, kwargs, 2, "epochs"), dtype=np.int64)
    c = tr.counters
    c["device.batched_calls"] += 1
    c["device.batched_rows"] += len(ids)
    c["device.train_samples"] += int(np.dot(epochs, args[0].fleet.num_samples[ids]))


def _count_eval(tr: "Tracer", args, kwargs, out) -> None:
    tr.counters["server.eval_calls"] += 1


def _count_apply(tr: "Tracer", args, kwargs, out) -> None:
    tr.counters["async.aggregations"] += bool(out)


def _count_ring(tr: "Tracer", args, kwargs, out) -> None:
    c = tr.counters
    c["engine.units"] += sum(out.units_completed.values())
    c["engine.peer_sends"] += out.peer_sends


def _count_dispatch(tr: "Tracer", args, kwargs, out) -> None:
    if out is not None:
        c = tr.counters
        c["scheduler.dispatches"] += 1
        c["scheduler.members"] += out.members


def _capture_partition(tr: "Tracer", args, kwargs, out) -> None:
    # partition_by_name(name, dataset, num_devices, ...): kept for the
    # disjoint-and-covering check made after the run.
    tr.partitions.append((len(_arg(args, kwargs, 1, "dataset")), out))


@dataclass
class Target:
    """One layer entry point: a span name, the callables it covers, and an
    optional counter hook.  ``span=False`` keeps only the hook (used for
    ``Scheduler.step``, whose time belongs to the ``scheduler.run`` span)."""

    name: str
    functions: list[Callable] = field(default_factory=list)
    methods: list[tuple[type, str]] = field(default_factory=list)
    hook: Hook | None = None
    span: bool = True


def _definers(base: type, attr: str) -> list[tuple[type, str]]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    seen: list[type] = []
    stack = [base]
    while stack:
        cls = stack.pop()
        if cls not in seen:
            seen.append(cls)
            stack.extend(cls.__subclasses__())
    return [(cls, attr) for cls in seen if attr in cls.__dict__]


def layer_targets() -> list[Target]:
    """The public entry point of each layer, resolved against ``repro``."""
    import repro.experiments  # noqa: F401  (registers every method class)
    from repro.core import aggregation, clustering, ring
    from repro.core.async_server import AsyncFederatedServer
    from repro.core.server import FederatedServer
    from repro.datasets import core, partition, registry
    from repro.device import fleet
    from repro.device.batched import BatchedTrainer
    from repro.device.device import LocalTrainer
    from repro.env.environment import Environment
    from repro.simulation.engine import RingRoundEngine
    from repro.simulation.scheduler import Scheduler

    def server(attr: str) -> list[tuple[type, str]]:
        return _definers(FederatedServer, attr)

    return [
        Target("datasets.make", functions=[registry.make_dataset]),
        Target("datasets.split", functions=[core.train_test_split]),
        Target(
            "datasets.partition",
            functions=[partition.partition_by_name],
            hook=_capture_partition,
        ),
        Target("device.fleet_build", functions=[fleet.make_fleet]),
        Target("device.train", methods=[(LocalTrainer, "train")], hook=_count_train),
        Target(
            "device.batched",
            methods=[(BatchedTrainer, "train_round")],
            hook=_count_batched,
        ),
        Target("server.select", methods=server("select_participants")),
        Target("server.broadcast", methods=server("broadcast_model")),
        Target("server.collect", methods=server("collect_models")),
        Target("server.train", methods=server("train_round")),
        Target("server.eval", methods=server("evaluate"), hook=_count_eval),
        Target(
            "server.round",
            methods=[
                m for m in server("run_round") if m[0] is not FederatedServer
            ],
        ),
        Target(
            "core.aggregate",
            functions=[
                aggregation.uniform_average,
                aggregation.sample_weighted_average,
                aggregation.class_time_weighted_average,
            ],
        ),
        Target("core.cluster", functions=[clustering.cluster_by_capacity]),
        Target("core.ring_build", functions=[ring.build_rings]),
        Target(
            "async.apply",
            methods=_definers(AsyncFederatedServer, "apply_upload"),
            hook=_count_apply,
        ),
        Target(
            "engine.ring_round",
            methods=[(RingRoundEngine, "run_round")],
            hook=_count_ring,
        ),
        Target("scheduler.run", methods=[(Scheduler, "run")]),
        Target(
            "scheduler.step",
            methods=[(Scheduler, "step")],
            hook=_count_dispatch,
            span=False,
        ),
        Target(
            "env.availability",
            methods=[
                (Environment, "online_mask_ids"),
                (Environment, "available_ids"),
            ],
        ),
    ]


class Tracer:
    """Span recorder plus the patch ledger that undoes its wrappers.

    ``spans`` holds ``[name, start, end, parent, root]`` lists (indices into
    ``spans``, ``-1`` for none); a span whose innermost open span has the
    same name is not recorded, so a ``super()`` chain through two wrapped
    overrides counts once.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter[str] = Counter()
        self.partitions: list[tuple[int, list]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _open(self, name: str) -> int:
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        root = stack[0] if stack else idx
        spans.append([name, time.perf_counter(), 0.0, parent, root])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span named ``name``."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` behind a span (and the target's counter hook)."""
        name, hook = target.name, target.hook
        spans, stack = self.spans, self._stack

        if not target.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                hook(self, args, kwargs, out)
                return out

            counted.__perfbench_original__ = fn
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        traced.__perfbench_original__ = fn
        return traced

    # ------------------------------------------------------------- patching

    def install(self, targets: list[Target] | None = None) -> None:
        """Wrap every target.  A target that resolves to nothing raises, so
        a renamed entry point cannot silently zero its metric."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = layer_targets() if targets is None else targets
        try:
            for target in targets:
                patched = len(self._patches)
                for cls, attr in target.methods:
                    original = cls.__dict__[attr]
                    if not inspect.isfunction(original):
                        raise TypeError(f"cannot trace {cls.__name__}.{attr}")
                    self._patch(cls, attr, self.wrap(original, target))
                for fn in target.functions:
                    wrapper = self.wrap(fn, target)
                    for module in _repro_modules():
                        for attr, value in list(vars(module).items()):
                            if value is fn:
                                self._patch(module, attr, wrapper)
                if len(self._patches) == patched:
                    raise LookupError(f"{target.name}: nothing to wrap")
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- output

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(spans, child)]

    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """The spans as Chrome trace-event JSON (complete ``X`` events in
        microseconds; ``args.run`` is the top-level span a span belongs to)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        events: list[dict] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "perfbench"}},
        ]
        for i, (name, start, end, parent, root) in enumerate(self.spans):
            events.append({
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": parent, "run": root},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}),
        }


def _repro_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def layer_metrics(tracer: Tracer, root: int | None = None) -> dict[str, float]:
    """Span totals, self times and counters as ``PER_LAYER`` metrics.

    With ``root`` set, only spans under that top-level span count (the
    counters are workload-wide and are left out).  ``scheduler.events`` and
    ``trace.overhead`` are facts of the run, filled in by the caller.
    """
    totals: dict[str, float] = {}
    selves: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, span_root = span
        if root is not None and span_root != root:
            continue
        totals[name] = totals.get(name, 0.0) + (end - start)
        selves[name] = selves.get(name, 0.0) + self_s
    out = {metric: totals.get(name, 0.0) for name, metric in _TOTALS.items()}
    out.update({metric: selves.get(name, 0.0) for name, metric in _SELVES.items()})
    if root is not None:
        return out
    c = tracer.counters
    for key in (
        "device.train_calls", "device.batched_calls", "device.batched_rows",
        "device.train_samples", "server.eval_calls", "async.aggregations",
        "engine.units", "engine.peer_sends", "scheduler.dispatches",
    ):
        out[key] = c.get(key, 0)
    units = out["device.train_calls"] + out["device.batched_rows"]
    out["device.batched_frac"] = out["device.batched_rows"] / units if units else 0.0
    dispatches = out["scheduler.dispatches"]
    out["scheduler.members_per_dispatch"] = (
        c.get("scheduler.members", 0) / dispatches if dispatches else 0.0
    )
    return out


def call_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, total, median and p-high duration.

    p-high is the highest of p90/p99/p99.9 with at least ten calls beyond
    it (None below a hundred calls); percentiles are nearest-rank.
    """
    durations: dict[str, list[float]] = {}
    for name, start, end, _, _ in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    out = {}
    for name, ds in durations.items():
        ds.sort()
        n = len(ds)
        p_high = next((p for p in (99.9, 99.0, 90.0) if n * (100.0 - p) / 100.0 >= 10), None)
        out[name] = {
            "n": n,
            "total_s": sum(ds),
            "median_s": ds[(n - 1) // 2] if n % 2 else 0.5 * (ds[n // 2 - 1] + ds[n // 2]),
            "p_high": p_high,
            "p_high_s": None if p_high is None else ds[min(n - 1, math.ceil(p_high / 100.0 * n) - 1)],
        }
    return out
