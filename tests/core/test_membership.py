"""Unit tests for the membership view: who is notified, and when."""

from repro.core.membership import Membership


def _subscribed(membership, node_ids):
    """Subscribe each node (in the given order); return the shared log
    of ``(subscriber, crashed node)`` notifications."""
    log = []
    for node_id in node_ids:
        membership.subscribe(
            node_id, lambda crashed, me=node_id: log.append((me, crashed)))
    return log


def test_a_crash_notifies_each_subscriber_once_in_node_id_order():
    membership = Membership(range(4))
    log = _subscribed(membership, [2, 0, 3, 1])
    membership.mark_crashed(1)
    assert log == [(0, 1), (1, 1), (2, 1), (3, 1)]
    assert membership.live == {0, 2, 3}
    assert (membership.epoch, membership.crashes) == (1, 1)


def test_a_repeated_crash_notifies_nobody():
    membership = Membership(range(3))
    log = _subscribed(membership, range(3))
    membership.mark_crashed(2)
    log.clear()
    membership.mark_crashed(2)
    assert log == []
    assert (membership.epoch, membership.crashes) == (1, 1)


def test_a_join_notifies_nobody():
    membership = Membership(range(3))
    log = _subscribed(membership, range(3))
    membership.mark_crashed(0)
    log.clear()
    membership.mark_joined(0)
    assert log == []
    assert membership.live == {0, 1, 2}
    assert (membership.epoch, membership.joins) == (2, 1)
