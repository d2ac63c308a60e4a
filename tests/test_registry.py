"""Registry: leasing, advertisement, link records, snapshots."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vroverlay.config import OverlayConfig
from vroverlay.errors import DuplicateId, UnknownReflector
from vroverlay.model import LinkStats, link_key
from vroverlay.monitor import MetricSample
from vroverlay.registry import Registry


def entry(rid, at=0.0, region="EU"):
    """The arguments of `Registry.register` for reflector `rid`, registered at `at`."""
    return rid, "tcp://10.0.0.%d:7000" % rid, region, at


def live_ids(snap):
    return frozenset(e.reflector for e in snap.reflectors)


def link_stats(a, b, at=0.0):
    return LinkStats(link=(a, b), rtt_ms=20.0, loss_fraction=0.0,
                     capacity_kbps=1000.0, sampled_at=at)


def make_registry(**config):
    return Registry(OverlayConfig(**config), lambda rid, table: None)


def test_register_into_empty_registry():
    reg = make_registry()
    reg.register(*entry(1))
    snap = reg.publish_snapshot(0.0)
    assert [e.reflector for e in snap.reflectors] == [1]
    assert snap.links == ()
    assert snap.epoch == 1


def test_register_duplicate_rejected_while_live():
    reg = make_registry()
    reg.register(*entry(1))
    with pytest.raises(DuplicateId):
        reg.register(*entry(1))


def test_reregistration_allowed_after_expiry():
    reg = make_registry(heartbeat_interval_ms=10.0, liveness_intervals=3)
    reg.register(*entry(1, at=0.0))
    reg.expire(31.0)
    reg.register(*entry(1, at=40.0))  # no DuplicateId: old lease expired
    assert reg.is_live(1)


def test_heartbeat_keeps_entry_live_and_silence_expires_it():
    reg = make_registry(heartbeat_interval_ms=10.0, liveness_intervals=3)
    reg.register(*entry(1, at=0.0))
    reg.register(*entry(2, at=0.0))
    for t in (10.0, 20.0, 30.0, 40.0):
        reg.heartbeat(1, t)
    snap = reg.publish_snapshot(40.5)  # reflector 2 silent for > 30 ms
    assert [e.reflector for e in snap.reflectors] == [1]
    assert not reg.is_live(2)
    assert reg.entry(1).last_heartbeat == 40.0
    assert reg.entry(2) is None


def test_heartbeat_unknown_reflector():
    reg = make_registry()
    with pytest.raises(UnknownReflector):
        reg.heartbeat(9, 1.0)


def test_heartbeat_exactly_at_timeout_survives():
    reg = make_registry(heartbeat_interval_ms=10.0, liveness_intervals=3)
    reg.register(*entry(1, at=0.0))
    assert reg.expire(30.0) == []     # strict >: exactly 3 intervals is alive
    assert reg.expire(30.1) == [1]


def test_advertise_membership_and_room_members_view():
    reg = make_registry()
    reg.register(*entry(1))
    reg.register(*entry(2))
    reg.advertise_membership(2, {7})
    assert reg.room_members() == {7: {2}}
    reg.advertise_membership(1, {7, 9})
    assert reg.room_members() == {7: {1, 2}, 9: {1}}
    reg.advertise_membership(2, set())  # inverse: drops 2 from room 7
    assert reg.room_members() == {7: {1}, 9: {1}}


def test_advertise_unknown_reflector():
    reg = make_registry()
    with pytest.raises(UnknownReflector):
        reg.advertise_membership(5, {1})


def test_snapshot_prunes_dead_reflectors_everywhere():
    reg = make_registry(heartbeat_interval_ms=10.0, liveness_intervals=3)
    reg.register(*entry(1, at=0.0))
    reg.register(*entry(2, at=0.0))
    reg.advertise_membership(2, {7})
    reg.observe_link(link_stats(1, 2))
    assert reg.cycle(0.0).epoch == 1
    reg.heartbeat(1, 40.0)
    snap = reg.publish_snapshot(40.0)  # 2 expired
    assert live_ids(snap) == frozenset({1})
    assert snap.links == ()
    assert snap.tree_edges == frozenset()
    assert snap.room_members == {}


def test_snapshot_internal_consistency_with_links():
    reg = make_registry()
    reg.register(*entry(1))
    reg.register(*entry(2))
    reg.observe_link(link_stats(1, 2))
    assert reg.cycle(0.0).epoch == 1
    reg.advertise_membership(1, {4})
    snap = reg.publish_snapshot(1.0)
    live = live_ids(snap)
    for record in snap.links:
        assert record.stats.link[0] in live and record.stats.link[1] in live
    for a, b in snap.tree_edges:
        assert a in live and b in live
    for members in snap.room_members.values():
        assert members <= live


def test_snapshot_epochs_strictly_increase():
    reg = make_registry()
    reg.register(*entry(1))
    epochs = [reg.publish_snapshot(float(t)).epoch for t in range(5)]
    assert epochs == [1, 2, 3, 4, 5]


def test_subscriber_sees_new_reflector_within_one_publish():
    reg = make_registry()
    reg.register(*entry(1))
    assert live_ids(reg.publish_snapshot(0.0)) == {1}
    reg.register(*entry(4))
    assert live_ids(reg.publish_snapshot(10.0)) == {1, 4}  # next interval: 4 appears
    assert live_ids(reg.latest_snapshot) == {1, 4}


def test_deregister_removes_entry():
    reg = make_registry()
    reg.register(*entry(1))
    reg.deregister(1)
    assert not reg.is_live(1)
    with pytest.raises(UnknownReflector):
        reg.deregister(1)


def test_returning_reflector_is_back_in_the_snapshot_tree_before_the_next_install():
    reg = make_registry(heartbeat_interval_ms=10.0, liveness_intervals=3)
    reg.register(*entry(1))
    reg.register(*entry(2))
    reg.observe_link(link_stats(1, 2))
    assert reg.cycle(0.0).epoch == 1
    reg.heartbeat(1, 40.0)
    assert reg.expire(40.0) == [2]
    assert reg.build_snapshot().tree_edges == frozenset()
    # 2 comes back before the next cycle: the snapshots show the installed
    # tree again, and the gate keeps it.
    reg.register(*entry(2, at=40.0))
    reg.observe_link(link_stats(1, 2, at=40.0))
    assert reg.publish_snapshot(40.0).tree_edges == {(1, 2)} == reg.tree.edges
    assert reg.cycle(40.0) is None
    reg.register(*entry(3, at=40.0))
    reg.observe_link(link_stats(2, 3, at=40.0))
    assert reg.cycle(41.0).epoch == 2
    assert reg.publish_snapshot(41.0).tree_edges == {(1, 2), (2, 3)}


def uplink_registry():
    """Reflectors 3, 5 and 7, with the inputs of their registration taken by a cycle."""
    reg = make_registry()
    for rid in (3, 5, 7):
        reg.register(*entry(rid))
    reg.cycle(0.0)
    assert not reg.inputs_changed
    return reg


@pytest.mark.parametrize("rtt, recorded", [(12.0, 12.0), (-4.0, 0.0)])
def test_uplinked_peer_rtt_defines_a_link_and_its_quality_sample(rtt, recorded):
    reg = uplink_registry()
    sample = MetricSample(3, "peer.7.rtt_ms", rtt, 5.0)
    out = reg.observe_uplink(sample)
    [record] = reg.links()
    assert record.stats == LinkStats(link=(3, 7), rtt_ms=recorded, loss_fraction=0.0,
                                     capacity_kbps=10_000.0, sampled_at=5.0)
    assert out == [sample, MetricSample(3, "peer.7.quality", record.quality.q, 5.0)]
    assert out[0] is sample
    assert reg.inputs_changed


@pytest.mark.parametrize("name, sender", [
    ("peer.x.rtt_ms", 3),
    ("peer.5.loss", 3),
    ("peer.5.rtt_ms.extra", 3),
    ("vrvs.clients", 3),
    ("peer.3.rtt_ms", 3),  # the sender names itself
    ("peer.0.rtt_ms", 3),
    ("peer.-5.rtt_ms", 3),
    ("peer.4294967296.rtt_ms", 3),
])
def test_other_uplinked_samples_leave_the_links_alone(name, sender):
    reg = uplink_registry()
    sample = MetricSample(sender, name, 12.0, 5.0)
    assert reg.observe_uplink(sample) == [sample]
    assert reg.links() == [] and reg.filters == {}
    assert not reg.inputs_changed


def test_uplinks_from_unregistered_senders_derive_no_link():
    reg = uplink_registry()
    senders = range(100_001, 101_001)
    for sender in senders:
        sample = MetricSample(sender, "peer.7.rtt_ms", 12.0, 5.0)
        assert reg.observe_uplink(sample) == [sample]
    assert reg.filters == {}
    assert not reg.inputs_changed
    for sender in senders:  # a record kept for a sender would show once it is live
        reg.register(*entry(sender))
    assert reg.links() == []


IDS = st.integers(1, 5)
OPS = st.one_of(
    st.tuples(st.sampled_from(["register", "deregister", "heartbeat"]), IDS),
    st.tuples(st.just("observe_link"), IDS, IDS, st.floats(1.0, 400.0)),
    st.tuples(st.just("drop_link"), IDS, IDS),
    st.tuples(st.just("advertise"), IDS, st.frozensets(st.integers(1, 3), max_size=3)),
    st.tuples(st.sampled_from(["tick", "lapse", "cycle", "publish"])),
)
# Reflector 2 drops and registers again before the next cycle: the
# snapshot shows its installed edge again.
RETURN_BEFORE_CYCLE = [("register", 1), ("register", 2), ("observe_link", 1, 2, 20.0),
                       ("cycle",),
                       ("deregister", 2), ("register", 2), ("observe_link", 1, 2, 20.0),
                       ("publish",)]


@settings(max_examples=150, deadline=None)
@given(st.lists(OPS, max_size=40))
@example(RETURN_BEFORE_CYCLE)
def test_snapshots_and_installs_follow_the_installed_tree(ops):
    reg = make_registry(heartbeat_interval_ms=10.0, liveness_intervals=3)
    now, snapshot_epoch = 0.0, 0
    for op, *args in ops:
        if op in ("register", "deregister", "heartbeat", "advertise"):
            rid = args[0]
            call = {
                "register": lambda: reg.register(*entry(rid, at=now)),
                "deregister": lambda: reg.deregister(rid),
                "heartbeat": lambda: reg.heartbeat(rid, now),
                "advertise": lambda: reg.advertise_membership(rid, args[1]),
            }[op]
            if reg.is_live(rid) == (op == "register"):
                with pytest.raises(DuplicateId if op == "register" else UnknownReflector):
                    call()
            else:
                call()
        elif op in ("observe_link", "drop_link") and args[0] != args[1]:
            if op == "drop_link":
                reg.drop_link(*args)
            else:
                reg.observe_link(LinkStats(link=link_key(args[0], args[1]), rtt_ms=args[2],
                                           loss_fraction=0.0, capacity_kbps=1000.0,
                                           sampled_at=now))
        elif op in ("tick", "lapse"):
            now += 5.0 if op == "tick" else reg.liveness_timeout_ms + 1.0
        elif op == "cycle":
            before = reg.epoch
            report = reg.cycle(now)
            if report is None:
                assert reg.epoch == before
            else:
                assert report.epoch == reg.epoch == before + 1
                assert set(reg.tables) == reg.tree.covers
                assert all(t.epoch == reg.epoch for t in reg.tables.values())
        elif op == "publish":
            snap = reg.publish_snapshot(now)
            live = live_ids(snap)
            installed = reg.tree.edges if reg.tree is not None else frozenset()
            assert snap.tree_edges == {e for e in installed if set(e) <= live}
            assert all(reg.is_live(rid) for rid in live)
            assert all(set(record.stats.link) <= live for record in snap.links)
            assert all(members <= live for members in snap.room_members.values())
            assert snap.epoch > snapshot_epoch
            snapshot_epoch = snap.epoch
