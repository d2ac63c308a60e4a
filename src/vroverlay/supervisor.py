"""Watchdog supervision of reflectors.

One supervisor probes every registered reflector on a fixed interval and
drives a per-reflector state machine:

    Up --(k_miss consecutive missed probes)--> Restarting(1) + restart
    Restarting(n) --probe ok--> Up
    Restarting(1) --probe missed--> Restarting(2) + restart
    Restarting(2) --probe missed--> Failed + one notification

Failed reflectors stop being probed and stay excluded from optimizer
graphs until an operator clears them. A Failed episode produces exactly one
notification no matter how long it lasts.

The supervisor never probes, restarts or notifies by itself: the caller
passes each round's probe results to ``supervise_tick`` and carries out the
restart commands and notifications it returns, so the same machine runs
against the simulator and against real daemons.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import NotFailed
from .model import ReflectorId

DEFAULT_K_MISS = 2
MAX_RESTART_ATTEMPTS = 2


class ProbeResult(enum.Enum):
    OK = "ok"
    NO_ANSWER = "no_answer"


class HealthState(enum.Enum):
    UP = "up"
    UNRESPONSIVE = "unresponsive"
    RESTARTING = "restarting"
    FAILED = "failed"


@dataclass
class HealthRecord:
    """Supervision state for one reflector."""

    reflector: ReflectorId
    state: HealthState = HealthState.UP
    missed: int = 0             # consecutive missed probes while Up/Unresponsive
    restart_attempts: int = 0   # attempts since the reflector was last Up


@dataclass(frozen=True)
class RestartCommand:
    reflector: ReflectorId
    attempt: int


@dataclass(frozen=True)
class NotificationEvent:
    reflector: ReflectorId
    reason: str
    at: float
    recipients: tuple


class Supervisor:
    """Folds probe outcomes into health records and issues actions."""

    def __init__(
        self,
        k_miss: int = DEFAULT_K_MISS,
        recipients: Iterable[str] = (),
    ):
        if k_miss < 1:
            raise ValueError("k_miss must be >= 1")
        self.k_miss = k_miss
        self.recipients = tuple(recipients)
        self.records: dict = {}  # ReflectorId -> HealthRecord
        self.unreachable: dict = {}  # ReflectorId -> failed control deliveries

    def watch(self, reflector: ReflectorId) -> HealthRecord:
        record = self.records.get(reflector)
        if record is None:
            record = HealthRecord(reflector=reflector)
            self.records[reflector] = record
        return record

    def unwatch(self, reflector: ReflectorId) -> None:
        self.records.pop(reflector, None)
        self.unreachable.pop(reflector, None)

    def probe_targets(self) -> list:
        """Reflectors to probe this tick: everything watched except Failed."""
        return sorted(
            rid for rid, r in self.records.items() if r.state is not HealthState.FAILED
        )

    def failed(self) -> frozenset:
        return frozenset(
            rid for rid, r in self.records.items() if r.state is HealthState.FAILED
        )

    def note_unreachable(self, reflector: ReflectorId) -> None:
        """Count a control-plane delivery failure; probing remains the authority."""
        self.unreachable[reflector] = self.unreachable.get(reflector, 0) + 1

    def supervise_tick(self, results: Mapping[ReflectorId, ProbeResult], now: float = 0.0) -> list:
        """Fold one round of probe results; returns actions in reflector-id order."""
        actions: list = []
        for rid in sorted(results):
            record = self.records.get(rid)
            if record is None or record.state is HealthState.FAILED:
                continue
            ok = results[rid] is ProbeResult.OK
            if ok:
                record.state = HealthState.UP
                record.missed = 0
                record.restart_attempts = 0
                continue
            if record.state in (HealthState.UP, HealthState.UNRESPONSIVE):
                record.missed += 1
                if record.missed < self.k_miss:
                    record.state = HealthState.UNRESPONSIVE
                else:
                    record.state = HealthState.RESTARTING
                    record.missed = 0
                    record.restart_attempts = 1
                    actions.append(RestartCommand(rid, attempt=1))
            elif record.state is HealthState.RESTARTING:
                if record.restart_attempts < MAX_RESTART_ATTEMPTS:
                    record.restart_attempts += 1
                    actions.append(RestartCommand(rid, attempt=record.restart_attempts))
                else:
                    record.state = HealthState.FAILED
                    actions.append(NotificationEvent(
                        reflector=rid,
                        reason="reflector failed to restart %d times" % MAX_RESTART_ATTEMPTS,
                        at=now,
                        recipients=self.recipients,
                    ))
        return actions

    def clear_failed(self, reflector: ReflectorId) -> HealthRecord:
        """Operator acknowledgment: resume probing a Failed reflector."""
        record = self.records.get(reflector)
        if record is None or record.state is not HealthState.FAILED:
            state = record.state.value if record else "unwatched"
            raise NotFailed("reflector %d is %s, not failed" % (reflector, state))
        record.state = HealthState.UNRESPONSIVE
        record.missed = 0
        record.restart_attempts = 0
        return record
