"""Supervisor: restart state machine, escalation, reference-machine fuzzing."""
import random

import pytest

from vroverlay.errors import NotFailed
from vroverlay.supervisor import (
    HealthState,
    NotificationEvent,
    ProbeResult,
    RestartCommand,
    Supervisor,
)

RID = 3


def make_supervisor(k_miss=2):
    sup = Supervisor(k_miss=k_miss, recipients=("ops@example.net",))
    sup.watch(RID)
    return sup


def tick(sup, result, now=0.0):
    return sup.supervise_tick({RID: result}, now)


def notifications(actions):
    return [a for a in actions if isinstance(a, NotificationEvent)]


def test_healthy_reflector_quiescent_over_1000_ticks():
    sup = make_supervisor()
    for i in range(1000):
        actions = tick(sup, ProbeResult.OK, now=float(i))
        assert actions == []
    assert sup.records[RID].state is HealthState.UP


def test_kill_then_successful_restart_path():
    sup = make_supervisor()
    assert tick(sup, ProbeResult.NO_ANSWER) == []
    assert sup.records[RID].state is HealthState.UNRESPONSIVE
    actions = tick(sup, ProbeResult.NO_ANSWER)
    assert actions == [RestartCommand(RID, attempt=1)]
    assert sup.records[RID].state is HealthState.RESTARTING
    assert tick(sup, ProbeResult.OK) == []
    assert sup.records[RID].state is HealthState.UP
    assert sup.records[RID].restart_attempts == 0


def test_two_failed_restarts_escalate_exactly_once():
    sup = make_supervisor()
    tick(sup, ProbeResult.NO_ANSWER)
    assert tick(sup, ProbeResult.NO_ANSWER) == [RestartCommand(RID, attempt=1)]
    assert tick(sup, ProbeResult.NO_ANSWER) == [RestartCommand(RID, attempt=2)]
    actions = tick(sup, ProbeResult.NO_ANSWER, now=40.0)
    assert actions == [NotificationEvent(
        reflector=RID, reason="reflector failed to restart 2 times", at=40.0,
        recipients=("ops@example.net",),
    )]
    assert sup.records[RID].state is HealthState.FAILED
    # Failed reflectors are no longer probed and never re-notify.
    assert sup.probe_targets() == []
    for _ in range(10):
        assert tick(sup, ProbeResult.NO_ANSWER) == []


def test_recovery_during_miss_window_resets_counter():
    sup = make_supervisor(k_miss=3)
    tick(sup, ProbeResult.NO_ANSWER)
    tick(sup, ProbeResult.NO_ANSWER)
    tick(sup, ProbeResult.OK)
    assert sup.records[RID].state is HealthState.UP
    tick(sup, ProbeResult.NO_ANSWER)
    tick(sup, ProbeResult.NO_ANSWER)
    assert sup.records[RID].state is HealthState.UNRESPONSIVE  # not yet k_miss


def test_second_restart_success_recovers():
    sup = make_supervisor()
    actions = []
    for _ in range(3):  # unresponsive, restart 1, restart 2
        actions += tick(sup, ProbeResult.NO_ANSWER)
    assert tick(sup, ProbeResult.OK) == []
    assert sup.records[RID].state is HealthState.UP
    assert notifications(actions) == []


def test_clear_failed_resumes_probing():
    sup = make_supervisor()
    for _ in range(4):
        tick(sup, ProbeResult.NO_ANSWER)
    assert sup.records[RID].state is HealthState.FAILED
    record = sup.clear_failed(RID)
    assert record.state is HealthState.UNRESPONSIVE
    assert record.missed == 0
    assert sup.probe_targets() == [RID]
    tick(sup, ProbeResult.OK)
    assert sup.records[RID].state is HealthState.UP
    assert sup.records[RID].restart_attempts == 0


def test_clear_failed_rejects_non_failed():
    sup = make_supervisor()
    with pytest.raises(NotFailed):
        sup.clear_failed(RID)
    with pytest.raises(NotFailed):
        sup.clear_failed(999)


def test_failed_set_feeds_optimizer_exclusion():
    sup = make_supervisor()
    for _ in range(4):
        tick(sup, ProbeResult.NO_ANSWER)
    assert sup.failed() == frozenset({RID})


# --- reference state machine fuzzing ---

class ReferenceMachine:
    """Independent transcription of the supervision rules for cross-checking."""

    def __init__(self, k_miss):
        self.k_miss = k_miss
        self.state = "up"
        self.misses = 0
        self.attempts = 0
        self.notifications = 0
        self.restarts = 0

    def step(self, ok):
        if self.state == "failed":
            return
        if ok:
            self.state = "up"
            self.misses = 0
            self.attempts = 0
            return
        if self.state in ("up", "unresponsive"):
            self.misses += 1
            if self.misses >= self.k_miss:
                self.state = "restarting"
                self.attempts = 1
                self.restarts += 1
            else:
                self.state = "unresponsive"
        elif self.state == "restarting":
            if self.attempts == 1:
                self.attempts = 2
                self.restarts += 1
            else:
                self.state = "failed"
                self.notifications += 1


def test_randomized_sequences_match_reference_machine():
    rng = random.Random(20260811)
    for case in range(500):
        k_miss = rng.choice((1, 2, 3))
        sup = Supervisor(k_miss=k_miss)
        sup.watch(RID)
        ref = ReferenceMachine(k_miss)
        restarts = notified = 0
        for step in range(rng.randrange(1, 60)):
            ok = rng.random() < 0.55
            result = ProbeResult.OK if ok else ProbeResult.NO_ANSWER
            if sup.records[RID].state is HealthState.FAILED:
                actions = sup.supervise_tick({}, float(step))
            else:
                actions = sup.supervise_tick({RID: result}, float(step))
            restarts += sum(1 for a in actions if isinstance(a, RestartCommand))
            notified += len(notifications(actions))
            ref.step(ok)
        record = sup.records[RID]
        assert record.state.value == ref.state, "case %d" % case
        assert notified == ref.notifications, "case %d" % case
        assert restarts == ref.restarts, "case %d" % case
        # Notification iff exactly two consecutive failed restart attempts.
        if ref.notifications:
            assert record.state is HealthState.FAILED


def test_no_restart_of_healthy_nodes_property():
    rng = random.Random(5)
    for _ in range(100):
        sup = Supervisor(k_miss=rng.choice((1, 2, 3)))
        sup.watch(RID)
        commands = []
        for step in range(50):
            commands += [
                a
                for a in sup.supervise_tick({RID: ProbeResult.OK}, float(step))
                if isinstance(a, RestartCommand)
            ]
        assert commands == []
