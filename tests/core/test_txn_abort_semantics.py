"""Abort semantics: "if the Xaction fails, none of the updates are
performed" — squashed transactions must leave no trace in the volatile
replicas, including under racy last-writer-wins interleavings."""

import pytest

from repro.core.context import ClientContext
from repro.core.model import Consistency as C, DdpModel, Persistency as P
from repro.core.replica import KeyReplica
from repro.sim.engine import Simulator
from repro.txn.manager import TxnConflict
from tests.harness import idle, run_op


def make_cluster(persistency=P.SYNCHRONOUS):
    return idle(DdpModel(C.TRANSACTIONAL, persistency))


class TestAbortRevert:
    def test_aborted_write_reverted_everywhere(self):
        cluster = make_cluster()
        engine = cluster.engines[0]
        setup = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(setup))
        run_op(cluster, engine.client_write(setup, 5, "committed"))
        run_op(cluster, engine.client_end_txn(setup))

        ctx = ClientContext(1, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        run_op(cluster, engine.client_write(ctx, 5, "doomed"))
        cluster.sim.run(until=cluster.sim.now + 5_000)  # INVs propagate
        cluster.txn_table.abort(ctx.txn)
        run_op(cluster, engine.client_abort_txn(ctx))
        cluster.sim.run(until=cluster.sim.now + 100_000)
        for e in cluster.engines:
            assert e.replicas.get(5).applied_value == "committed"

    def test_commit_clears_undo_state(self):
        cluster = make_cluster()
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        run_op(cluster, engine.client_write(ctx, 1, "a"))
        run_op(cluster, engine.client_end_txn(ctx))
        cluster.sim.run(until=cluster.sim.now + 100_000)
        for e in cluster.engines:
            assert e.replicas.get(1).txn_undo == {}

    def test_conflicting_committer_not_blocked_by_abort(self):
        """The livelock regression: writer A's update is superseded by
        writer B's (later aborted) update; A's commit must not hang
        waiting for its version to be 'applied'."""
        cluster = make_cluster()
        sim = cluster.sim
        e0, e1 = cluster.engines[0], cluster.engines[1]
        ctx_a = ClientContext(0, 0)   # older txn, node 0
        ctx_b = ClientContext(1, 1)   # younger txn, node 1
        run_op(cluster, e0.client_begin_txn(ctx_a))
        run_op(cluster, e1.client_begin_txn(ctx_b))
        # B writes key 9 first (gets the higher node-id tiebreak), then
        # A writes the same key: A's access squashes the younger B.
        run_op(cluster, e1.client_write(ctx_b, 9, "from-b"))
        run_op(cluster, e0.client_write(ctx_a, 9, "from-a"))
        assert ctx_b.txn.aborted
        run_op(cluster, e1.client_abort_txn(ctx_b))
        # A must be able to commit despite B's write racing hers.
        run_op(cluster, e0.client_end_txn(ctx_a))
        cluster.sim.run(until=cluster.sim.now + 200_000)
        finals = {e.replicas.get(9).applied_value for e in cluster.engines}
        assert finals == {"from-a"}

    def test_abort_scope_writes_purged(self):
        """<Transactional, Scope>: a squashed transaction's writes leave
        the client's scope list, so the Persist call cannot hang."""
        cluster = make_cluster(P.SCOPE)
        engine = cluster.engines[0]
        ctx = ClientContext(0, 0)
        run_op(cluster, engine.client_begin_txn(ctx))
        run_op(cluster, engine.client_write(ctx, 3, "doomed"))
        cluster.txn_table.abort(ctx.txn)
        run_op(cluster, engine.client_abort_txn(ctx))
        assert ctx.scope_writes == []
        run_op(cluster, engine.client_persist_scope(ctx))  # no-op, no hang


class TestAbsorbSuperseded:
    def test_pre_image_absorbs_newer_loser(self):
        replica = KeyReplica(Simulator(), key=1)
        replica.apply((1, 0), "base")
        # Transactional write (3, 1) applies over base.
        replica.record_undo((3, 1))
        replica.apply((3, 1), "txn-write")
        # A concurrent write (2, 0) loses LWW; absorbed into pre-image.
        replica.absorb_superseded((2, 0), "superseded")
        assert replica.revert((3, 1))
        assert replica.applied_version == (2, 0)
        assert replica.applied_value == "superseded"

    def test_absorb_ignores_older_than_pre_image(self):
        replica = KeyReplica(Simulator(), key=1)
        replica.apply((2, 0), "base")
        replica.record_undo((3, 1))
        replica.apply((3, 1), "txn-write")
        replica.absorb_superseded((1, 0), "ancient")
        replica.revert((3, 1))
        assert replica.applied_value == "base"

    def test_revert_skipped_if_overwritten(self):
        replica = KeyReplica(Simulator(), key=1)
        replica.record_undo((1, 0))
        replica.apply((1, 0), "txn-write")
        replica.apply((2, 0), "newer-committed")
        assert not replica.revert((1, 0))
        assert replica.applied_value == "newer-committed"
