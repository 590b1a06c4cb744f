#!/usr/bin/env python3
"""Transactional consistency: concurrent bank transfers with conflicts.

Two tellers at different servers move money between overlapping sets of
accounts inside transactions (<Transactional, Synchronous>), running
*concurrently* in simulated time.  The conflict detector squashes the
younger transaction when their read/write sets collide; the squashed
teller backs off and retries.  At the end, the total balance is
conserved and every committed transfer is durable at every node
(completed transactions are never lost — Table 4 row 3).
"""

from repro import Cluster, ClusterConfig, Consistency, DdpModel, Persistency
from repro.core.context import ClientContext
from repro.txn.manager import TxnConflict

INITIAL_BALANCE = 1000
ACCOUNTS = [0, 1, 2, 3]


class Teller:
    """A concurrent client issuing transactional transfers."""

    def __init__(self, cluster, node, client_id, transfers):
        self.cluster = cluster
        self.engine = cluster.engines[node]
        self.ctx = ClientContext(client_id, node)
        self.transfers = transfers
        self.retries = 0
        self.completed = 0

    def run(self):
        """Process: perform every transfer, retrying squashed ones."""
        sim = self.cluster.sim
        for src, dst, amount in self.transfers:
            while True:
                try:
                    yield from self.engine.client_begin_txn(self.ctx)
                    from_balance = yield from self.engine.client_read(
                        self.ctx, src)
                    to_balance = yield from self.engine.client_read(
                        self.ctx, dst)
                    yield from self.engine.client_write(
                        self.ctx, src, from_balance - amount)
                    yield from self.engine.client_write(
                        self.ctx, dst, to_balance + amount)
                    yield from self.engine.client_end_txn(self.ctx)
                except TxnConflict:
                    self.retries += 1
                    yield from self.engine.client_abort_txn(self.ctx)
                    yield sim.timeout(4_000.0 * self.retries)
                    continue
                self.completed += 1
                break


def main():
    model = DdpModel(Consistency.TRANSACTIONAL, Persistency.SYNCHRONOUS)
    cluster = Cluster(model, config=ClusterConfig(servers=3,
                                                  clients_per_server=0,
                                                  store_type=None))
    cluster.start()
    sim = cluster.sim

    # Seed the accounts through one setup transaction.
    setup = Teller(cluster, 0, 99, [])
    sim.run_until_complete(sim.process(setup.engine.client_begin_txn(setup.ctx)))
    for account in ACCOUNTS:
        sim.run_until_complete(sim.process(
            setup.engine.client_write(setup.ctx, account, INITIAL_BALANCE)))
    sim.run_until_complete(sim.process(setup.engine.client_end_txn(setup.ctx)))

    # Two tellers with deliberately overlapping accounts, started together.
    alice = Teller(cluster, 0, 1,
                   [(0, 1, 100), (1, 2, 50), (0, 2, 10), (2, 3, 25)])
    bob = Teller(cluster, 1, 2,
                 [(1, 0, 60), (2, 1, 40), (3, 0, 75), (2, 0, 30)])
    alice_proc = sim.process(alice.run(), name="alice")
    bob_proc = sim.process(bob.run(), name="bob")
    sim.run_until_complete(alice_proc)
    sim.run_until_complete(bob_proc)
    sim.run(until=sim.now + 200_000)  # drain all protocol rounds

    print("Final balances (replica agreement across all 3 nodes):")
    total = 0
    for account in ACCOUNTS:
        values = {engine.replicas.peek(account).applied_value
                  for engine in cluster.engines}
        persisted = {engine.replicas.peek(account).persisted_value
                     for engine in cluster.engines}
        assert len(values) == 1, f"replicas disagree on account {account}"
        balance = values.pop()
        total += balance
        print(f"  account {account}: {balance:>5}  "
              f"(durable everywhere: {persisted == {balance}})")
    conserved = total == INITIAL_BALANCE * len(ACCOUNTS)
    print(f"  total: {total} (conserved: {conserved})")
    print(f"\ncompleted transfers    : {alice.completed + bob.completed}")
    print(f"committed transactions : {cluster.txn_table.committed}")
    print(f"conflicts detected     : {cluster.txn_table.conflicts}")
    print(f"squash/retry events    : {alice.retries + bob.retries}")


if __name__ == "__main__":
    main()
