"""The Registry's control loop, the one the simulator and the registry daemon share."""
import socket

import pytest

from vroverlay.config import OverlayConfig, load_config
from vroverlay.daemon import RegistryDaemon
from vroverlay.errors import DuplicateId, RegistryUnreachable
from vroverlay.model import LinkStats, link_key
from vroverlay.protocol import decode_message, encode_message, make_snapshot_request
from vroverlay.registry import Registry
from vroverlay.supervisor import HealthState, ProbeResult

from test_daemon import FAST, reflector, wait_for


def triangle(transport):
    """Reflectors 1-3 in a triangle; (1, 2) is the cheapest link."""
    registry = Registry(OverlayConfig(), transport)
    for rid in (1, 2, 3):
        registry.register(rid, "fake://%d" % rid, "", 0.0)
    for i, (a, b) in enumerate([(1, 2), (2, 3), (1, 3)]):
        registry.observe_link(
            LinkStats(link=link_key(a, b), rtt_ms=10.0 * (i + 1), loss_fraction=0.0,
                      capacity_kbps=1000.0, sampled_at=0.0)
        )
    return registry


def test_failed_reflector_left_out_of_installed_tree():
    pushed = []
    registry = triangle(lambda rid, table: pushed.append(rid))
    while registry.supervisor.records[3].state is not HealthState.FAILED:
        registry.supervisor.supervise_tick({3: ProbeResult.NO_ANSWER})
    assert registry.cycle(0.0) is not None
    assert registry.tree.covers == {1, 2}
    assert registry.tree.edges == {(1, 2)}
    assert pushed == [1, 2]
    assert set(registry.tables) == {1, 2}


def test_registering_again_clears_failed():
    registry = triangle(lambda rid, table: None)
    assert set(registry.supervisor.records) == {1, 2, 3}
    while registry.supervisor.records[3].state is not HealthState.FAILED:
        registry.supervisor.supervise_tick({3: ProbeResult.NO_ANSWER})
    with pytest.raises(DuplicateId):
        registry.register(3, "fake://3", "", 0.0)
    assert registry.supervisor.records[3].state is HealthState.FAILED
    registry.expire(registry.liveness_timeout_ms + 1.0)  # its lease ran out
    registry.register(3, "fake://3", "", 0.0)
    assert registry.is_live(3)
    assert registry.supervisor.records[3].state is HealthState.UNRESPONSIVE
    assert 3 in registry.supervisor.probe_targets()


def test_installs_number_epochs_and_push_tables_in_id_order():
    pushed = []
    registry = triangle(lambda rid, table: pushed.append((rid, table.epoch)))
    assert registry.epoch == 0
    report = registry.cycle(0.0)
    assert (report.epoch, report.acks, report.failures) == (1, [1, 2, 3], {})
    assert registry.cycle(1.0) is None  # same tree: no install, no epoch
    registry.deregister(3)
    report = registry.cycle(2.0)
    assert (report.epoch, report.acks, report.failures) == (2, [1, 2], {})
    assert registry.epoch == 2
    assert pushed == [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]


def test_raising_transport_counts_failure_and_unreachable():
    def transport(rid, table):
        if rid == 2:
            raise RegistryUnreachable("no control connection for reflector 2")

    registry = triangle(transport)
    report = registry.cycle(0.0)
    assert report.acks == [1, 3]
    assert list(report.failures) == [2]
    assert "RegistryUnreachable" in report.failures[2]
    assert registry.supervisor.unreachable == {2: 1}
    registry.supervisor.unwatch(2)
    assert registry.supervisor.unreachable == {}


def test_daemon_snapshot_carries_gateway_flow():
    daemon = RegistryDaemon(load_config(None, {**FAST, "gateway_pair": "1,2"}),
                            listen="127.0.0.1:0")
    daemon.start()
    ref1 = reflector(daemon, 1)
    ref2 = reflector(daemon, 2, peers={1: "127.0.0.1:%d" % ref1.port})
    try:
        def flow():
            with socket.create_connection(("127.0.0.1", daemon.port), timeout=5) as sock:
                sock.sendall(encode_message(make_snapshot_request()).encode())
                line = sock.makefile("r").readline()
            return decode_message(line)["snapshot"]["flow"]

        assert wait_for(lambda: flow() is not None and [1, 2] in flow()["edges"])
        doc = flow()
        assert (doc["source"], doc["sink"]) == (1, 2)
        assert doc["value"] > 0.0
    finally:
        ref1.shutdown()
        ref2.shutdown()
        daemon.stop()


def test_changed_room_set_under_a_keep_gate_reinstalls_the_current_tree():
    pushed = []
    registry = triangle(lambda rid, table: pushed.append(table))
    registry.advertise_membership(1, {5})
    registry.advertise_membership(3, {5})
    first = registry.cycle(0.0)
    edges = registry.tree.edges
    assert edges == {(1, 2), (2, 3)}
    # (1, 3) gets cheaper than (2, 3), but by less than delta: the gate keeps the tree.
    for at, rtt in ((1.0, 1.0), (2.0, 10.0)):
        registry.observe_link(LinkStats(link=link_key(1, 3), rtt_ms=rtt, loss_fraction=0.0,
                                        capacity_kbps=1000.0, sampled_at=at))
    assert registry.cycle(2.0) is None
    registry.advertise_membership(2, {7})
    registry.advertise_membership(3, {5, 7})
    report = registry.cycle(3.0)
    assert report.epoch == first.epoch + 1 == registry.epoch
    assert registry.tree.edges == edges  # the candidate's (1, 3) stays out
    egress = {rid: table.room_egress.get(7) for rid, table in registry.tables.items()}
    assert egress == {1: None, 2: {3}, 3: {2}}
    assert [table.epoch for table in pushed[-3:]] == [report.epoch] * 3
    assert registry.cycle(4.0) is None  # installed once per change


def test_registration_room_change_and_first_link_sample_mark_inputs_changed():
    registry = Registry(OverlayConfig(), lambda rid, table: None)
    assert not registry.inputs_changed
    registry.register(1, "fake://1", "", 0.0)
    assert registry.inputs_changed
    registry.register(2, "fake://2", "", 0.0)
    registry.cycle(0.0)
    assert not registry.inputs_changed
    registry.advertise_membership(1, {5})
    assert registry.inputs_changed
    registry.cycle(1.0)
    registry.observe_link(LinkStats(link=link_key(1, 2), rtt_ms=10.0, loss_fraction=0.0,
                                    capacity_kbps=1000.0, sampled_at=1.0))
    assert registry.inputs_changed


def test_identical_advertise_and_repeat_link_sample_leave_inputs_unchanged():
    registry = triangle(lambda rid, table: None)
    registry.advertise_membership(1, {5})
    registry.advertise_membership(2, set())  # no rooms held before, none now
    registry.cycle(0.0)
    registry.advertise_membership(1, [5])
    registry.advertise_membership(2, ())
    registry.observe_link(LinkStats(link=link_key(1, 2), rtt_ms=12.0, loss_fraction=0.0,
                                    capacity_kbps=1000.0, sampled_at=1.0))
    assert not registry.inputs_changed
    assert registry.cycle(1.0) is None
