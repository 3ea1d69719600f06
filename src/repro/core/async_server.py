"""Event-driven asynchronous federated server.

Where the synchronous :class:`~repro.core.server.FederatedServer` runs
rounds as degenerate barrier events, :class:`AsyncFederatedServer` runs a
*real* schedule on the same :class:`~repro.simulation.scheduler.Scheduler`:
devices train continuously at their fleet unit-time rates, every message
crosses the environment's per-link latency (not the round's slowest link),
message drops hit individual transfers, and availability churn fires as
``availability_change`` events instead of per-round masks.

The device lifecycle (one state machine per cohort member):

1. ``broadcast_arrival`` — a server push lands; a *parked* (idle) device
   wakes and starts a unit, a training device banks the newest model for
   its next unit (models arriving mid-unit never interrupt — the same
   rule as the FedHiSyn ring engine).
2. ``unit_complete`` — the unit's training actually executes (one
   ``run_unit`` call), the result is uploaded through the env channel,
   and the next unit begins immediately from the freshest model on hand:
   the newest server push if one arrived, else the device's own result.
   Devices never idle waiting for the server — a lost reply just means
   more local continuation, exactly the failure mode staleness decay
   exists to damp.
3. ``upload_arrival`` — the upload lands after its uplink latency; the
   subclass hook :meth:`apply_upload` mixes it (FedAsync) or buffers it
   (FedBuff).  The server replies with the current global model, which
   feeds step 1.

**Batched events** (the million-device path): with no fault model armed,
the server packs same-timestamp work into single scheduler entries — one
``unit_complete`` carrying an int32 id array for a whole completion wave,
one ``upload_arrival``/``broadcast_arrival`` per distinct link latency —
instead of one event per device.  The quantized unit-time schedule
(``unit_times_from_counts`` yields ``round_length / k`` for small integer
``k``) makes devices that start together complete together, so waves are
large and the event engine's per-device overhead amortizes away.  Handlers
consume the id arrays **in array order**, which makes a batch
observationally identical to the per-device events it replaces: the same
rng draws in the same order (training streams, the shared drop stream),
the same metering, the same aggregation sequence.  Packing follows the
scheduler's tie-break contract — members of a batch were scheduled
consecutively at one moment, so no foreign event's sequence number can
fall between them.  Arming a fault model disables batching (per-member
``unit_complete`` cancellation and crash/heartbeat tie ordering need
per-device handles); ``event_batching = False`` forces the per-device
path for A/B equivalence tests.

**Staleness** is version-counted: the server increments a global version
per aggregation, every dispatched model is stamped with it, and an upload
computed against version ``v`` arriving at version ``V`` has staleness
``V - v``.  :func:`staleness_weight` maps that to a mixing multiplier via
the ``constant`` / ``polynomial`` / ``hinge`` decay families of Xie et
al.'s FedAsync — shared by both async methods (FedBuff leaks stale buffer
entries through the same hook).

``config.rounds`` means *server aggregations* (global model versions), so
``eval_every`` and campaign comparisons keep their shape across the
sync/async divide; time-to-accuracy comparisons use virtual time and the
``eval_time_every`` checkpoint process.

Determinism: the cohort draw uses seed stream ``(0, 1)`` (synchronous
rounds draw ``(round >= 1, 1)``, so the streams are disjoint), training
streams are ``(device, 0, unit_idx)`` (sync units use round >= 1),
churn epochs draw ``(epoch, 3)`` and message drops the persistent
``(0, 101)`` stream — two identically-seeded runs replay the exact same
event trace.

**Fault tolerance** (armed only when a non-null :mod:`repro.faults` model
is installed; the clean path runs zero extra draws or events): every unit
start draws a straggler slowdown and a crash point from the persistent
``(0, 202)`` fault stream.  A crash cancels the pending ``unit_complete``
(the partial unit is lost), takes the device down for its downtime, and a
``device_restart`` rejoins it.  Uploads arm an ``upload_timeout``
retransmission timer — a drop (or a timeout beaten by a slow link) backs
off exponentially through ``retry_upload`` events up to
``config.max_retries``, at-least-once semantics: a retry racing its own
late delivery can double-deliver, exactly like a real retransmission
protocol.  Devices emit ``heartbeat`` beacons every
``config.heartbeat_period``; the ``suspect`` sweep marks devices silent
past ``config.suspicion_timeout`` as suspected — detected crashes for the
resilience accounting, and the count the buffered methods subtract from
their flush goal (:meth:`AsyncFederatedServer.live_target`) so an
aggregation never waits on a parked device.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.server import (
    _AVAILABILITY_STREAM,
    _FAULT_ASYNC_STREAM_KEY,
    FederatedServer,
    ServerConfig,
)
from repro.device.device import Device
from repro.env.network import SERVER
from repro.simulation.results import RunResult
from repro.simulation.scheduler import (
    AVAILABILITY_CHANGE,
    BROADCAST_ARRIVAL,
    DEVICE_CRASH,
    DEVICE_RESTART,
    EVAL_CHECKPOINT,
    HEARTBEAT,
    RETRY_UPLOAD,
    SUSPECT,
    UNIT_COMPLETE,
    UPLOAD_ARRIVAL,
    UPLOAD_TIMEOUT,
    Scheduler,
)
from repro.utils.config import validate_positive

__all__ = [
    "STALENESS_DECAYS",
    "staleness_weight",
    "AsyncServerConfig",
    "AsyncFederatedServer",
]


def _wave_groups(
    times: np.ndarray, ids: np.ndarray
) -> list[tuple[float, np.ndarray]]:
    """Split ``ids`` into maturity groups: one ``(time, ids_at_time)`` pair
    per distinct value of ``times``, in increasing time, preserving the
    input order of ids inside each group (stable sort) — the batched
    analogue of scheduling ``len(ids)`` consecutive per-device events."""
    if len(ids) == 1:
        return [(float(times[0]), ids)]
    order = np.argsort(times, kind="stable")
    st = times[order]
    sids = ids[order]
    cuts = np.flatnonzero(st[1:] != st[:-1]) + 1
    if not cuts.size:
        return [(float(st[0]), sids)]
    bounds = [0, *cuts.tolist(), len(sids)]
    return [
        (float(st[a]), sids[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    ]

#: The staleness-decay families (FedAsync Section 5.2, adopted by FedBuff):
#: ``constant`` ignores staleness, ``polynomial`` damps as
#: ``(1 + s) ** -a``, ``hinge`` is flat up to a grace of ``b`` versions
#: then decays as ``1 / (a * (s - b) + 1)``.
STALENESS_DECAYS = ("constant", "polynomial", "hinge")


def staleness_weight(
    staleness: int,
    decay: str,
    exponent: float = 0.5,
    hinge_delay: int = 4,
) -> float:
    """Mixing multiplier in (0, 1] for an upload ``staleness`` versions old."""
    if staleness < 0:
        raise ValueError(f"staleness must be non-negative, got {staleness}")
    if decay == "constant":
        return 1.0
    if decay == "polynomial":
        return float((1.0 + staleness) ** -exponent)
    if decay == "hinge":
        if staleness <= hinge_delay:
            return 1.0
        return float(1.0 / (exponent * (staleness - hinge_delay) + 1.0))
    raise ValueError(f"decay must be one of {STALENESS_DECAYS}, got {decay!r}")


@dataclass
class AsyncServerConfig(ServerConfig):
    """Shared knobs of the asynchronous method family.

    ``rounds`` (inherited) counts server aggregations.  ``churn_period``
    is the virtual-time spacing of availability re-draws; None uses the
    cohort's slowest unit time (the async analogue of a round).
    """

    staleness_decay: str = "polynomial"
    staleness_exponent: float = 0.5
    hinge_delay: int = 4
    churn_period: float | None = None
    # Fault tolerance (active only with a non-null fault model installed):
    # an upload unacknowledged after ``upload_timeout`` retries with
    # exponential backoff (``retry_backoff * 2**attempt``) up to
    # ``max_retries`` retransmissions; devices heartbeat every
    # ``heartbeat_period`` and fall suspected after ``suspicion_timeout``
    # of silence.  Times are virtual-time units (a median unit is ~0.5).
    max_retries: int = 3
    retry_backoff: float = 0.25
    upload_timeout: float = 1.0
    heartbeat_period: float = 0.5
    suspicion_timeout: float = 1.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        validate_positive(self.retry_backoff, "retry_backoff")
        validate_positive(self.upload_timeout, "upload_timeout")
        validate_positive(self.heartbeat_period, "heartbeat_period")
        validate_positive(self.suspicion_timeout, "suspicion_timeout")
        if self.staleness_decay not in STALENESS_DECAYS:
            raise ValueError(
                f"staleness_decay must be one of {STALENESS_DECAYS}, "
                f"got {self.staleness_decay!r}"
            )
        if self.staleness_exponent < 0:
            raise ValueError(
                f"staleness_exponent must be >= 0, got {self.staleness_exponent}"
            )
        if self.hinge_delay < 0:
            raise ValueError(
                f"hinge_delay must be >= 0, got {self.hinge_delay}"
            )
        if self.churn_period is not None:
            validate_positive(self.churn_period, "churn_period")


class AsyncFederatedServer(FederatedServer):
    """Base class of the asynchronous methods; subclasses implement one
    hook, :meth:`apply_upload`, and inherit the whole event loop."""

    method = "async-base"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Set True (e.g. by tests) before fit() to record the event trace.
        self.record_trace = False
        # Batched event kinds (id-array payloads) on the clean path; set
        # False before fit() to force one event per device — the per-device
        # path the equivalence tests compare against.  Arming a fault model
        # disables batching regardless (per-member timer cancellation).
        self.event_batching = True
        # Server aggregation counter — the staleness reference frame.
        self._version = 0
        self._finished = False
        # Off until fit() arms it with a non-null fault model; here so
        # live_target() works when hooks are driven outside the loop.
        self._fault_machinery = False
        self._suspected: set[int] = set()

    # ---------------------------------------------------------------- hook

    def apply_upload(
        self, dev_id: int, trained: np.ndarray, base: np.ndarray, staleness: int
    ) -> bool:
        """Absorb one arrived upload; return True when it produced a new
        global model version (the server must have bumped ``_version`` and
        *replaced* — never mutated — ``global_weights``, which in-flight
        broadcast payloads alias)."""
        raise NotImplementedError

    # -------------------------------------------------------------- helpers

    def mix_weight(self, staleness: int) -> float:
        """The configured staleness decay evaluated at ``staleness``."""
        cfg: AsyncServerConfig = self.config  # type: ignore[assignment]
        return staleness_weight(
            staleness, cfg.staleness_decay, cfg.staleness_exponent, cfg.hinge_delay
        )

    def _select_cohort(self) -> list[Device]:
        """The devices participating in this run — the server's shared
        Bernoulli(participation) sampling core, drawn once on stream
        ``(0, 1)`` (sync rounds use ``(round >= 1, 1)``).  Availability is
        *not* filtered here: churn is event-driven over the run's span."""
        rng = self._seeds.generator(0, 1)
        if self.selection_policy is not None:
            return list(self.selection_policy.select(0, self.devices, rng))
        return list(map(self.fleet.device, self._bernoulli_ids(rng).tolist()))

    def _send_down(self, dev: Device) -> tuple[float | None, np.ndarray | None]:
        """Meter one server→device push of the current global model.

        Returns ``(latency, payload)`` — ``(None, None)`` when the message
        is lost.  ``payload`` is the model the device will receive:
        ``global_weights`` itself under the identity codec, the decoded
        (lossy) reconstruction otherwise.  Each device has its own
        downlink reference chain (async pushes are per-link, not
        population-wide), advanced only on delivery — a dropped push
        leaves the receiver on its old reference.
        """
        codec = self.codec
        if codec.is_identity:
            self.meter.record_download(1)
            if self._drop_one():
                return None, None
            return (
                self.env.network.transfer_time(SERVER, dev.device_id, 1.0),
                self.global_weights,
            )
        dev_id = dev.device_id
        enc = codec.encode(
            self.global_weights,
            key=("down", dev_id),
            reference=self._down_refs.get(dev_id),
        )
        self.meter.record_download(1, enc.model_units, raw_units=1.0)
        if self._drop_one():
            return None, None
        view = codec.decode(enc)
        self._down_refs[dev_id] = view
        return (
            self.env.network.transfer_time(SERVER, dev_id, enc.model_units),
            view,
        )

    def _send_up(
        self, dev: Device, trained: np.ndarray, start: np.ndarray
    ) -> tuple[float | None, np.ndarray | None]:
        """Meter one device→server upload of ``trained`` (encoded against
        ``start``, the model the unit ran from — both endpoints hold it).
        Returns ``(latency, payload)``; ``(None, None)`` when lost."""
        codec = self.codec
        if codec.is_identity:
            self.meter.record_upload(1)
            if self._drop_one():
                return None, None
            return (
                self.env.network.transfer_time(dev.device_id, SERVER, 1.0),
                trained,
            )
        enc = codec.encode(trained, key=int(dev.device_id), reference=start)
        self.meter.record_upload(1, enc.model_units, raw_units=1.0)
        if self._drop_one():
            return None, None
        return (
            self.env.network.transfer_time(dev.device_id, SERVER, enc.model_units),
            codec.decode(enc),
        )

    def _dispatch_global(self, dev_id: int) -> None:
        """Reply to a device with the current global model (stamped with
        the current version) through the downlink."""
        lat, payload = self._send_down(self._by_id[dev_id])
        if lat is not None:
            self.scheduler.at(
                self.scheduler.now + lat,
                BROADCAST_ARRIVAL,
                (dev_id, payload, self._version),
            )

    def live_target(self, goal: int) -> int:
        """``goal`` capped at the unsuspected cohort size — how many
        distinct contributors an aggregation can still hope for.  The
        failure detector's *parking* output: a buffered method that waits
        for K uploads must not count devices the detector has written off.
        Exactly ``goal`` while nothing is suspected (the clean-path
        bit-identity guarantee)."""
        if not self._fault_machinery or not self._suspected:
            return goal
        return max(1, min(goal, len(self._all_ids) - len(self._suspected)))

    # ------------------------------------------------------------- handlers

    def _begin_unit(self, dev_id: int) -> None:
        """Start the device's next unit from the freshest model on hand:
        the newest arrived server push, else its own latest result.

        With the fault machinery armed the unit's duration picks up the
        model's straggler slowdown and its crash draw may schedule a
        ``device_crash`` strictly inside the unit — which will cancel the
        pending ``unit_complete`` handle kept in ``_unit_events``.
        """
        arrival = self._inbox.pop(dev_id, None)
        if arrival is not None:
            self._start_model[dev_id], self._base_version[dev_id] = arrival
        else:
            self._start_model[dev_id] = self._own_model[dev_id]
        unit_time = float(self._unit_times[dev_id])
        if not self._fault_machinery:
            self.scheduler.at(self.scheduler.now + unit_time, UNIT_COMPLETE, dev_id)
            return
        slow = self.faults.unit_slowdown(dev_id, self._fault_rng)
        if slow != 1.0:
            self.resilience.injected_slowdowns += 1
            unit_time *= slow
        crash = self.faults.unit_crash(dev_id, self._fault_rng)
        self._unit_events[dev_id] = self.scheduler.at(
            self.scheduler.now + unit_time, UNIT_COMPLETE, dev_id
        )
        if crash is not None:
            frac, downtime = crash
            lost = frac * unit_time
            self.scheduler.at(
                self.scheduler.now + lost, DEVICE_CRASH, (dev_id, lost, downtime)
            )

    def _begin_units(self, ids: np.ndarray) -> None:
        """Batched :meth:`_begin_unit` (clean path only): pop inboxes in id
        order, then schedule one ``unit_complete`` per distinct maturity
        time — the wave grouping the quantized unit-time schedule makes
        large."""
        inbox = self._inbox
        start = self._start_model
        basev = self._base_version
        own = self._own_model
        for dev_id in ids.tolist():
            arrival = inbox.pop(dev_id, None)
            if arrival is not None:
                start[dev_id], basev[dev_id] = arrival
            else:
                start[dev_id] = own[dev_id]
        times = self.scheduler.now + self._unit_times[ids]
        for t, group in _wave_groups(times, ids):
            if len(group) == 1:
                self.scheduler.at(t, UNIT_COMPLETE, int(group[0]))
            else:
                self.scheduler.at_many(t, UNIT_COMPLETE, group)

    def _on_broadcast_arrival(self, ev) -> None:
        dev_id, weights, version = ev.payload
        if isinstance(dev_id, np.ndarray):
            self._on_broadcast_batch(dev_id, weights, version)
            return
        banked = self._inbox.get(dev_id)
        # Newest version wins; an older in-flight reply never clobbers it.
        if banked is None or version >= banked[1]:
            self._inbox[dev_id] = (weights, version)
        if (
            self._parked_mask[dev_id]
            and not self._offline_mask[dev_id]
            and dev_id not in self._crashed
        ):
            self._parked_mask[dev_id] = False
            self._begin_unit(dev_id)

    def _on_broadcast_batch(self, ids, weights, version) -> None:
        """A broadcast wave lands (clean path): ``weights``/``version`` are
        either one shared payload (provisioning) or lists aligned with
        ``ids`` (grouped replies stamped at different server versions)."""
        inbox = self._inbox
        if isinstance(weights, np.ndarray):
            for dev_id in ids.tolist():
                banked = inbox.get(dev_id)
                if banked is None or version >= banked[1]:
                    inbox[dev_id] = (weights, version)
        else:
            for k, dev_id in enumerate(ids.tolist()):
                banked = inbox.get(dev_id)
                if banked is None or version[k] >= banked[1]:
                    inbox[dev_id] = (weights[k], version[k])
        wake = ids[self._parked_mask[ids] & ~self._offline_mask[ids]]
        if wake.size:
            self._parked_mask[wake] = False
            self._begin_units(wake)

    def _on_unit_complete(self, ev) -> None:
        dev_id = ev.payload
        if isinstance(dev_id, np.ndarray):
            self._on_unit_batch(dev_id)
            return
        self._unit_events.pop(dev_id, None)
        dev = self._by_id[dev_id]
        start = self._start_model[dev_id]
        trained = dev.run_unit(
            start, self.config.local_epochs, 0, self._unit_idx[dev_id], sync=False
        )
        self._unit_idx[dev_id] += 1
        self._own_model[dev_id] = trained
        if self._offline_mask[dev_id]:
            # Went offline mid-unit: the result stays local, the device
            # parks until a later availability epoch brings it back.
            self._parked_mask[dev_id] = True
            return
        payload = trained
        if self._fault_machinery and self.faults.is_byzantine(dev_id):
            # The device trains honestly (its own state is `trained`) but
            # lies on the wire.
            payload = self.faults.corrupt(trained, dev_id, self._fault_rng)
            self.resilience.injected_corruptions += 1
        self._send_attempt(dev, payload, start, self._base_version[dev_id], 0)
        self._begin_unit(dev_id)

    def _on_unit_batch(self, ids) -> None:
        """A completion wave (clean path).  Members are processed in array
        order — run_unit calls, the shared drop-stream draws and upload
        metering happen exactly as ``len(ids)`` consecutive per-device
        events would — then the follow-up uploads and next units are
        regrouped by maturity time into batched events of their own."""
        epochs = self.config.local_epochs
        offline = self._offline_mask
        up: list[tuple] = []  # (lat, dev_id, delivered, start, base_version)
        next_ids: list[int] = []
        for dev_id in ids.tolist():
            dev = self._by_id[dev_id]
            start = self._start_model[dev_id]
            trained = dev.run_unit(
                start, epochs, 0, self._unit_idx[dev_id], sync=False
            )
            self._unit_idx[dev_id] += 1
            self._own_model[dev_id] = trained
            if offline[dev_id]:
                self._parked_mask[dev_id] = True
                continue
            lat, delivered = self._send_up(dev, trained, start)
            if lat is not None:
                up.append((lat, dev_id, delivered, start, self._base_version[dev_id]))
            next_ids.append(dev_id)
        if up:
            now = self.scheduler.now
            lats = np.asarray([u[0] for u in up])
            for t, gidx in _wave_groups(lats, np.arange(len(up))):
                if len(gidx) == 1:
                    _, d, delivered, start, basev = up[int(gidx[0])]
                    self.scheduler.at(
                        now + t, UPLOAD_ARRIVAL, (d, delivered, start, basev, None)
                    )
                else:
                    members = [up[int(k)] for k in gidx.tolist()]
                    mids = np.asarray([m[1] for m in members], dtype=np.int32)
                    self.scheduler.at_many(
                        now + t,
                        UPLOAD_ARRIVAL,
                        mids,
                        payload=(
                            mids,
                            [m[2] for m in members],
                            [m[3] for m in members],
                            [m[4] for m in members],
                        ),
                    )
        if next_ids:
            self._begin_units(np.asarray(next_ids, dtype=np.intp))

    def _send_attempt(
        self,
        dev: Device,
        payload: np.ndarray,
        start: np.ndarray,
        base_version: int,
        attempt: int,
    ) -> None:
        """One upload transmission (original or retry).  With the fault
        machinery armed every attempt arms an ``upload_timeout``
        retransmission timer, cancelled when the delivery is processed."""
        dev_id = dev.device_id
        lat, delivered = self._send_up(dev, payload, start)
        if not self._fault_machinery:
            if lat is not None:
                self.scheduler.at(
                    self.scheduler.now + lat,
                    UPLOAD_ARRIVAL,
                    (dev_id, delivered, start, base_version, None),
                )
            return
        self.resilience.uploads_sent += 1
        token = self._upload_seq
        self._upload_seq += 1
        timer = self.scheduler.at(
            self.scheduler.now + self.config.upload_timeout, UPLOAD_TIMEOUT, token
        )
        self._upload_timers[token] = (
            timer, dev_id, payload, start, base_version, attempt,
        )
        if lat is not None:
            self.scheduler.at(
                self.scheduler.now + lat,
                UPLOAD_ARRIVAL,
                (dev_id, delivered, start, base_version, token),
            )

    def _on_upload_timeout(self, ev) -> None:
        """The retransmission timer matured unacknowledged: the upload was
        dropped (or its link is slower than the timeout).  Back off
        exponentially and retry, up to ``config.max_retries``."""
        token = ev.payload
        record = self._upload_timers.pop(token, None)
        if record is None:
            return  # acknowledged before the timer fired
        _, dev_id, payload, start, base_version, attempt = record
        res = self.resilience
        res.upload_timeouts += 1
        if attempt >= self.config.max_retries or self._finished:
            res.dropped_updates += 1
            return
        res.retries += 1
        backoff = self.config.retry_backoff * (2.0 ** attempt)
        self.scheduler.at(
            self.scheduler.now + backoff,
            RETRY_UPLOAD,
            (dev_id, payload, start, base_version, attempt + 1),
        )

    def _on_retry_upload(self, ev) -> None:
        dev_id, payload, start, base_version, attempt = ev.payload
        if dev_id in self._crashed:
            # The retransmission queue dies with its device.
            self.resilience.dropped_updates += 1
            return
        self._send_attempt(self._by_id[dev_id], payload, start, base_version, attempt)

    def _on_device_crash(self, ev) -> None:
        """Fail-stop mid-unit: the pending ``unit_complete`` is cancelled
        (the cancellable-timer path), the partial work is lost, and the
        heartbeat chain goes silent until restart."""
        dev_id, lost, downtime = ev.payload
        pending = self._unit_events.pop(dev_id, None)
        if pending is not None:
            self.scheduler.cancel(pending)
        beat = self._beat_events.pop(dev_id, None)
        if beat is not None:
            self.scheduler.cancel(beat)
        self._crashed.add(dev_id)
        self._crash_detected[dev_id] = False
        self._parked_mask[dev_id] = False
        res = self.resilience
        res.injected_crashes += 1
        res.wasted_time += lost
        self.scheduler.at(self.scheduler.now + downtime, DEVICE_RESTART, dev_id)

    def _on_device_restart(self, ev) -> None:
        dev_id = ev.payload
        self._crashed.discard(dev_id)
        # Immediate rejoin announcement: the beat un-suspects the device
        # and restarts its heartbeat chain.
        self._schedule_beat(dev_id, self.scheduler.now)
        if self._offline_mask[dev_id]:
            self._parked_mask[dev_id] = True
        else:
            self._begin_unit(dev_id)

    def _schedule_beat(self, dev_id: int, time: float) -> None:
        self._beat_events[dev_id] = self.scheduler.at(time, HEARTBEAT, dev_id)

    def _on_heartbeat(self, ev) -> None:
        dev_id = ev.payload
        self._last_heard[dev_id] = ev.time
        # A beat from a suspected device is a rejoin: forgive it.
        self._suspected.discard(dev_id)
        self._schedule_beat(dev_id, ev.time + self.config.heartbeat_period)

    def _on_suspect(self, ev) -> None:
        """Failure-detector sweep: park devices silent past the suspicion
        timeout.  A suspicion of a genuinely crashed device is a
        *detection* (counted once per crash); of a live one, a false
        suspicion its next beat will clear."""
        cfg: AsyncServerConfig = self.config  # type: ignore[assignment]
        now = ev.time
        res = self.resilience
        for dev_id in sorted(self._all_ids):
            if dev_id in self._suspected:
                continue
            if now - self._last_heard[dev_id] > cfg.suspicion_timeout:
                self._suspected.add(dev_id)
                if dev_id in self._crashed:
                    if not self._crash_detected.get(dev_id, False):
                        self._crash_detected[dev_id] = True
                        res.detected_crashes += 1
                else:
                    res.false_suspicions += 1
        self.scheduler.at(now + cfg.heartbeat_period, SUSPECT)

    def _on_upload_arrival(self, ev) -> None:
        payload = ev.payload
        if isinstance(payload[0], np.ndarray):
            self._on_upload_batch(*payload)
            return
        dev_id, trained, base, base_version, token = payload
        if token is not None:
            record = self._upload_timers.pop(token, None)
            if record is not None:
                self.scheduler.cancel(record[0])
        staleness = self._version - base_version
        aggregated = self.apply_upload(dev_id, trained, base, staleness)
        if aggregated:
            self._deployed_weights = self.global_weights
            self._after_aggregate()
        if not self._finished:
            self._dispatch_global(dev_id)

    def _on_upload_batch(self, ids, payloads, starts, versions) -> None:
        """An upload wave lands (clean path).  Members aggregate in array
        order — staleness is read against the version as it stands when
        each member's turn comes, exactly as consecutive per-device events
        would — and the replies are regrouped by downlink latency, each
        stamped with the version current at its member's reply moment."""
        down: list[tuple] = []  # (lat, dev_id, reply_payload, version)
        for k, dev_id in enumerate(ids.tolist()):
            staleness = self._version - versions[k]
            aggregated = self.apply_upload(dev_id, payloads[k], starts[k], staleness)
            if aggregated:
                self._deployed_weights = self.global_weights
                self._after_aggregate()
            if self._finished:
                # Per-device semantics: stop() keeps the rest of the wave
                # from ever dispatching, and the finisher gets no reply.
                break
            lat, reply = self._send_down(self._by_id[dev_id])
            if lat is not None:
                down.append((lat, dev_id, reply, self._version))
        if down:
            now = self.scheduler.now
            lats = np.asarray([d[0] for d in down])
            for t, gidx in _wave_groups(lats, np.arange(len(down))):
                if len(gidx) == 1:
                    _, d, reply, ver = down[int(gidx[0])]
                    self.scheduler.at(now + t, BROADCAST_ARRIVAL, (d, reply, ver))
                else:
                    members = [down[int(k)] for k in gidx.tolist()]
                    mids = np.asarray([m[1] for m in members], dtype=np.int32)
                    self.scheduler.at_many(
                        now + t,
                        BROADCAST_ARRIVAL,
                        mids,
                        payload=(
                            mids,
                            [m[2] for m in members],
                            [m[3] for m in members],
                        ),
                    )

    def _on_availability_change(self, ev) -> None:
        """Churn epoch boundary: re-draw who is online (same rng stream
        family as the synchronous per-round masks, keyed by epoch), park
        departures at their next unit end, wake returners now.

        O(active) churn: the draw is one vectorized mask over the cohort
        id array, the offline set is a population-sized boolean mask
        rebuilt by one scatter, and the only devices *touched* are the
        wakers — parked devices whose state actually flips online."""
        epoch = ev.payload
        rng = self._seeds.generator(epoch, _AVAILABILITY_STREAM)
        cohort_ids = self._cohort_ids
        online_mask = self.env.online_mask_ids(
            epoch, cohort_ids, self._unit_times[cohort_ids], rng
        )
        new_off = np.zeros(self._id_bound, dtype=bool)
        new_off[cohort_ids[~online_mask]] = True
        self.unavailable_count += int(len(cohort_ids) - online_mask.sum())
        wake = np.flatnonzero(self._parked_mask & ~new_off)
        self._offline_mask = new_off
        if wake.size:
            self._parked_mask[wake] = False
            if self._batch:
                self._begin_units(wake)
            else:
                for dev_id in wake.tolist():
                    self._begin_unit(dev_id)
        self.scheduler.at(
            (epoch + 1) * self._churn_period, AVAILABILITY_CHANGE, epoch + 1
        )

    def _after_aggregate(self) -> None:
        """Bookkeeping after a new global version: periodic round-indexed
        eval (version plays the round's role) and termination."""
        v = self._version
        cfg = self.config
        if v % cfg.eval_every == 0 or v >= cfg.rounds:
            acc, loss = self.evaluate(self.global_weights)
            self.history.record(
                v, self.clock.now, self.meter.server_total, acc, loss
            )
            self.logger.log(
                round=v,
                accuracy=round(acc, 4),
                loss=round(loss, 4),
                transfers=self.meter.server_total,
                vtime=round(self.clock.now, 3),
            )
        if v >= cfg.rounds:
            self._finished = True
            self.scheduler.stop()

    # --------------------------------------------------------------- driver

    def fit(self, initial_weights: np.ndarray | None = None) -> RunResult:
        """Run the event loop until ``config.rounds`` aggregations land."""
        if initial_weights is not None:
            self.global_weights = np.asarray(initial_weights, dtype=np.float64).copy()
        cfg: AsyncServerConfig = self.config  # type: ignore[assignment]
        sched = Scheduler(
            clock=self.clock,
            record_trace=self.record_trace,
            engine=self.scheduler_engine,
        )
        self.scheduler = sched
        self._version = 0
        self._finished = False
        self._deployed_weights = self.global_weights
        self._checkpoint_eval = None

        self.cohort = self._select_cohort()
        ids = [d.device_id for d in self.cohort]
        self._cohort_ids = np.asarray(ids, dtype=np.intp)
        self._all_ids = set(ids)
        self._by_id = {d.device_id: d for d in self.cohort}
        self._start_model: dict[int, np.ndarray] = {}
        self._base_version = {i: 0 for i in ids}
        self._own_model = {i: self.global_weights for i in ids}
        self._inbox: dict[int, tuple[np.ndarray, int]] = {}
        self._unit_idx = {i: 0 for i in ids}
        # Park/offline state lives in population-sized boolean masks (ids
        # index them directly), so churn epochs and wake-ups are array ops
        # over the cohort instead of per-device set churn.
        self._id_bound = int(self._cohort_ids.max()) + 1 if ids else 1
        self._offline_mask = np.zeros(self._id_bound, dtype=bool)
        self._parked_mask = np.zeros(self._id_bound, dtype=bool)
        self._parked_mask[self._cohort_ids] = True
        self._churn_period = (
            cfg.churn_period
            if cfg.churn_period is not None
            else float(self._unit_times[self._cohort_ids].max())
        )

        # Fault-tolerance state.  The containers exist unconditionally (so
        # handlers can consult them cheaply) but nothing populates them —
        # and no fault event is ever scheduled — unless the machinery is
        # armed by a non-null fault model.
        self._fault_machinery = not self.faults.is_null
        self._crashed: set[int] = set()
        self._suspected: set[int] = set()
        self._crash_detected: dict[int, bool] = {}
        self._unit_events: dict[int, object] = {}
        self._beat_events: dict[int, object] = {}
        self._upload_timers: dict[int, tuple] = {}
        self._upload_seq = 0
        self._last_heard = {i: 0.0 for i in ids}

        sched.on(BROADCAST_ARRIVAL, self._on_broadcast_arrival)
        sched.on(UNIT_COMPLETE, self._on_unit_complete)
        sched.on(UPLOAD_ARRIVAL, self._on_upload_arrival)
        sched.on(AVAILABILITY_CHANGE, self._on_availability_change)
        sched.on(EVAL_CHECKPOINT, self._on_eval_checkpoint)
        if self._fault_machinery:
            self._fault_rng = self._seeds.generator(*_FAULT_ASYNC_STREAM_KEY)
            sched.on(UPLOAD_TIMEOUT, self._on_upload_timeout)
            sched.on(RETRY_UPLOAD, self._on_retry_upload)
            sched.on(DEVICE_CRASH, self._on_device_crash)
            sched.on(DEVICE_RESTART, self._on_device_restart)
            sched.on(HEARTBEAT, self._on_heartbeat)
            sched.on(SUSPECT, self._on_suspect)
            for dev_id in sorted(ids):
                self._schedule_beat(dev_id, cfg.heartbeat_period)
            sched.at(cfg.suspicion_timeout, SUSPECT)
        if not self.env.availability.always_on:
            sched.at(self._churn_period, AVAILABILITY_CHANGE, 1)
        if cfg.eval_time_every is not None:
            sched.at(cfg.eval_time_every, EVAL_CHECKPOINT)

        # Per-device downlink codec references; seeded by provisioning.
        self._down_refs: dict[int, np.ndarray] = {}

        # Batched events need per-member timer-free dispatch: arming the
        # fault machinery (per-member unit cancellation, crash/heartbeat
        # tie ordering) falls back to one event per device.
        self._batch = bool(self.event_batching) and not self._fault_machinery

        # t=0 provisioning: the server pushes the initial model to the
        # whole cohort.  Metered per link but lossless and dense — a fleet
        # is provisioned with the initial model out of band, and a "lost"
        # provisioning push would just re-deliver the identical vector.
        # The dense push establishes every device's downlink reference.
        if self._batch and len(ids) > 1:
            self.meter.record_download(len(ids))
            net = self.env.network
            if net.is_instant:
                lats = np.zeros(len(ids))
            else:
                lats = net.server_transfer_times(self._cohort_ids, 1.0)
            if not self.codec.is_identity:
                for i in ids:
                    self._down_refs[i] = self.global_weights
            for t, group in _wave_groups(lats, self._cohort_ids):
                if len(group) == 1:
                    sched.at(
                        t, BROADCAST_ARRIVAL, (int(group[0]), self.global_weights, 0)
                    )
                else:
                    g32 = np.ascontiguousarray(group, dtype=np.int32)
                    sched.at_many(
                        t,
                        BROADCAST_ARRIVAL,
                        g32,
                        payload=(g32, self.global_weights, 0),
                    )
        else:
            for dev in self.cohort:
                self.meter.record_download(1)
                lat = self.env.network.transfer_time(SERVER, dev.device_id, 1.0)
                sched.at(
                    lat, BROADCAST_ARRIVAL, (dev.device_id, self.global_weights, 0)
                )
                if not self.codec.is_identity:
                    self._down_refs[dev.device_id] = self.global_weights

        sched.run()
        return self._assemble_result()

    def run_round(self, round_idx, participants, global_weights):
        raise NotImplementedError(
            "async servers run on the event loop, not per-round hooks"
        )
