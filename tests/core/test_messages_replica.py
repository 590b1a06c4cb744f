"""Tests for the message vocabulary and per-key replica state."""

import pytest

from repro.core.context import ClientContext
from repro.core.messages import (CAUHIST_ENTRY_BYTES, HEADER_BYTES, Message,
                                 MsgType, VALUE_BYTES)
from repro.core.replica import KeyReplica, ReplicaTable, ZERO_VERSION
from repro.sim.engine import Simulator


class TestMessages:
    def test_table3_vocabulary(self):
        names = {t.value for t in MsgType}
        assert names == {"INV", "ACK", "ACK_c", "ACK_p", "VAL", "VAL_c",
                         "VAL_p", "UPD", "INITX", "ENDX", "PERSIST"}

    def test_data_carrying_types(self):
        assert MsgType.INV.carries_data
        assert MsgType.UPD.carries_data
        assert not MsgType.ACK.carries_data

    def test_ack_and_val_classification(self):
        assert MsgType.ACK_C.is_ack and MsgType.ACK_P.is_ack
        assert MsgType.VAL_C.is_val and MsgType.VAL_P.is_val
        assert not MsgType.INV.is_ack

    def test_size_includes_payloads(self):
        bare_ack = Message(MsgType.ACK, src=0, op_id=1)
        assert bare_ack.size_bytes == HEADER_BYTES
        inv = Message(MsgType.INV, src=0, op_id=1, key=5, version=(1, 0),
                      value="x")
        assert inv.size_bytes == HEADER_BYTES + 8 + VALUE_BYTES

    def test_cauhist_adds_bytes(self):
        small = Message(MsgType.UPD, src=0, op_id=1, key=5, version=(1, 0),
                        value="x")
        big = Message(MsgType.UPD, src=0, op_id=1, key=5, version=(1, 0),
                      value="x", cauhist=(((1, (1, 0))), ((2, (2, 0)))))
        assert big.size_bytes > small.size_bytes

    @pytest.mark.parametrize("msg_type", list(MsgType))
    def test_size_is_the_wire_format_formula_for_every_type(self, msg_type):
        """``size_bytes`` reads a per-type base size; it must equal the
        field-by-field sum it replaced, whatever the message carries."""
        pairs = ((1, (1, 0)), (2, (2, 0)), (3, (1, 1)))
        for key in (None, 5):
            for cauhist in ((), pairs[:2]):
                for payload in ((), pairs):
                    message = Message(msg_type, src=0, op_id=1, key=key,
                                      cauhist=cauhist, payload=payload)
                    expected = HEADER_BYTES
                    if key is not None:
                        expected += 8
                    if msg_type in (MsgType.INV, MsgType.UPD):
                        expected += VALUE_BYTES
                    expected += len(cauhist) * CAUHIST_ENTRY_BYTES
                    expected += len(payload) * CAUHIST_ENTRY_BYTES
                    assert message.size_bytes == expected

    def test_fields_cannot_be_assigned(self):
        """One object is shared by every destination of a broadcast, by
        watchdog resends and by the causal buffer."""
        message = Message(MsgType.INV, src=0, op_id=1, key=5, value="x")
        for field, value in (("key", 6), ("value", "y"), ("abort", True),
                             ("msg_type", MsgType.UPD)):
            with pytest.raises(AttributeError):
                setattr(message, field, value)
        with pytest.raises(AttributeError):
            message.extra = 1
        assert (message.key, message.value, message.abort) == (5, "x", False)

    def test_scope_tagging(self):
        message = Message(MsgType.INV, src=0, op_id=1, key=5, scope_id=3)
        assert message.tagged() == "[INV]3"
        plain = Message(MsgType.INV, src=0, op_id=1, key=5)
        assert plain.tagged() == "INV"


class TestKeyReplica:
    @pytest.fixture
    def replica(self):
        return KeyReplica(Simulator(), key=7)

    def test_initial_state(self, replica):
        assert replica.applied_version == ZERO_VERSION
        assert replica.persisted_version == ZERO_VERSION
        assert not replica.transient

    def test_apply_advances(self, replica):
        assert replica.apply((1, 0), "a")
        assert replica.applied_value == "a"
        assert not replica.apply((1, 0), "dup")
        assert replica.applied_value == "a"

    def test_stale_apply_ignored(self, replica):
        replica.apply((5, 0), "new")
        assert not replica.apply((3, 0), "old")
        assert replica.applied_value == "new"

    def test_version_tiebreak_by_node(self, replica):
        replica.apply((1, 0), "from-node-0")
        assert replica.apply((1, 1), "from-node-1")
        assert replica.applied_value == "from-node-1"

    def test_next_version_increments(self, replica):
        v1 = replica.next_version(node_id=2)
        assert v1 == (1, 2)
        replica.apply(v1, "x")
        assert replica.next_version(node_id=2) == (2, 2)

    def test_persisted_tracking(self, replica):
        replica.apply((1, 0), "a")
        assert replica.mark_persisted((1, 0), "a")
        assert replica.persisted_value == "a"
        assert not replica.mark_persisted((1, 0), "a")

    def test_transient_lifecycle(self, replica):
        replica.begin_inv(11)
        replica.begin_inv(12)
        assert replica.transient
        replica.end_inv(11)
        assert replica.transient
        replica.end_inv(12)
        assert not replica.transient

    def test_end_inv_idempotent(self, replica):
        replica.begin_inv(1)
        replica.end_inv(1)
        replica.end_inv(1)  # no error
        assert not replica.transient

    def test_cluster_persisted(self, replica):
        assert replica.mark_cluster_persisted((2, 0))
        assert not replica.mark_cluster_persisted((1, 0))

    def test_repr_prints_the_fields_that_exist(self, replica):
        """``__slots__`` makes a stale attribute name in ``__repr__`` an
        AttributeError, not a blank — repr a fresh and a used replica."""
        assert repr(replica) == (
            "KeyReplica(key=7, applied=(0, -1), persisted=(0, -1), "
            "cluster_persisted=(0, -1), transient=False)")
        replica.begin_inv(3)
        replica.apply((2, 1), "v")
        replica.mark_persisted((2, 1), "v")
        assert repr(replica) == (
            "KeyReplica(key=7, applied=(2, 1), persisted=(2, 1), "
            "cluster_persisted=(0, -1), transient=True)")

    def test_condition_wakes_on_apply(self, replica):
        sim = replica.sim
        woken = []

        def waiter():
            yield replica.wait_for(
                lambda: replica.applied_version >= (1, 0))
            woken.append(True)

        sim.process(waiter())
        sim.run()
        assert not woken
        replica.apply((1, 0), "x")
        sim.run()
        assert woken == [True]


class TestReplicaTable:
    def test_lazy_creation(self):
        table = ReplicaTable(Simulator(), node_id=0)
        assert 5 not in table
        replica = table.get(5)
        assert 5 in table
        assert table.get(5) is replica
        assert len(table) == 1


class TestClientContext:
    def test_observe_tracks_max_version(self):
        ctx = ClientContext(client_id=1, node_id=0)
        ctx.observe(5, (3, 0))
        ctx.observe(5, (2, 0))  # older, ignored
        deps = ctx.take_dependencies(9, (1, 1))
        assert (5, (3, 0)) in deps

    def test_zero_version_not_observed(self):
        ctx = ClientContext(1, 0)
        ctx.observe(5, ZERO_VERSION)
        assert ctx.dependency_count == 0

    def test_take_dependencies_resets_to_own_write(self):
        ctx = ClientContext(1, 0)
        ctx.observe(5, (1, 0))
        ctx.take_dependencies(9, (1, 1))
        deps = ctx.take_dependencies(10, (1, 2))
        assert deps == ((9, (1, 1)),)

    def test_scope_lifecycle(self):
        ctx = ClientContext(client_id=2, node_id=0)
        first_scope = ctx.current_scope_id
        ctx.record_scope_write(1, (1, 0))
        ctx.record_scope_write(2, (1, 0))
        scope_id, writes = ctx.close_scope()
        assert scope_id == first_scope
        assert len(writes) == 2
        assert ctx.current_scope_id != first_scope
        assert ctx.scope_writes == []

    def test_scope_ids_unique_across_clients(self):
        a = ClientContext(1, 0)
        b = ClientContext(2, 0)
        assert a.current_scope_id != b.current_scope_id
