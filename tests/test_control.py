"""ControlPlane: the one control loop the simulator and the registry daemon share."""
import socket

import pytest

from vroverlay.config import OverlayConfig, load_config
from vroverlay.control import ControlPlane
from vroverlay.daemon import RegistryDaemon
from vroverlay.errors import DuplicateId, RegistryUnreachable
from vroverlay.model import LinkStats, link_key
from vroverlay.protocol import decode_message, encode_message, make_snapshot_request
from vroverlay.registry import RegistryEntry
from vroverlay.supervisor import HealthState, ProbeResult

from test_daemon import FAST, reflector, wait_for


def control_plane(transport):
    """Reflectors 1-3 in a triangle; (1, 2) is the cheapest link."""
    control = ControlPlane(OverlayConfig(), transport)
    for rid in (1, 2, 3):
        control.register(RegistryEntry(reflector=rid, control_address="fake://%d" % rid))
    for i, (a, b) in enumerate([(1, 2), (2, 3), (1, 3)]):
        control.observe_link(
            LinkStats(link=link_key(a, b), rtt_ms=10.0 * (i + 1), loss_fraction=0.0,
                      capacity_kbps=1000.0, sampled_at=0.0)
        )
    return control


def test_failed_reflector_left_out_of_installed_tree():
    pushed = []
    control = control_plane(lambda rid, table: pushed.append(rid))
    while control.supervisor.records[3].state is not HealthState.FAILED:
        control.supervisor.supervise_tick({3: ProbeResult.NO_ANSWER})
    assert control.cycle(0.0) is not None
    assert control.tree.covers == {1, 2}
    assert control.tree.edges == {(1, 2)}
    assert pushed == [1, 2]
    assert set(control.tables) == {1, 2}


def test_registering_again_clears_failed():
    control = control_plane(lambda rid, table: None)
    assert set(control.supervisor.records) == {1, 2, 3}
    while control.supervisor.records[3].state is not HealthState.FAILED:
        control.supervisor.supervise_tick({3: ProbeResult.NO_ANSWER})
    with pytest.raises(DuplicateId):
        control.register(RegistryEntry(reflector=3, control_address="fake://3"))
    assert control.supervisor.records[3].state is HealthState.FAILED
    control.registry.expire(control.registry.liveness_timeout_ms + 1.0)  # its lease ran out
    control.register(RegistryEntry(reflector=3, control_address="fake://3"))
    assert control.registry.is_live(3)
    assert control.supervisor.records[3].state is HealthState.UNRESPONSIVE
    assert 3 in control.supervisor.probe_targets()


def test_installs_number_epochs_and_push_tables_in_id_order():
    pushed = []
    control = control_plane(lambda rid, table: pushed.append((rid, table.epoch)))
    assert control.epoch == 0
    report = control.cycle(0.0)
    assert (report.epoch, report.acks, report.failures) == (1, [1, 2, 3], {})
    assert control.cycle(1.0) is None  # same tree: no install, no epoch
    control.deregister(3)
    report = control.cycle(2.0)
    assert (report.epoch, report.acks, report.failures) == (2, [1, 2], {})
    assert control.epoch == 2
    assert pushed == [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)]


def test_raising_transport_counts_failure_and_unreachable():
    def transport(rid, table):
        if rid == 2:
            raise RegistryUnreachable("no control connection for reflector 2")

    control = control_plane(transport)
    report = control.cycle(0.0)
    assert report.acks == [1, 3]
    assert list(report.failures) == [2]
    assert "RegistryUnreachable" in report.failures[2]
    assert control.supervisor.unreachable == {2: 1}
    control.supervisor.unwatch(2)
    assert control.supervisor.unreachable == {}


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
