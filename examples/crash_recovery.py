#!/usr/bin/env python3
"""Crash and recover under different persistency models.

A client writes a stream of bank-style records, the whole cluster then
loses its volatile state ("a failure of the entire system can cause the
permanent loss of in-memory state" — paper Section 1), and every node
restarts from its NVM image and catches up from the others.

The script contrasts three persistency models bound to Causal
consistency and reports how many of the completed writes survived —
illustrating Table 4's durability column with live data — and how many
keys the nodes had to fetch from each other before serving again.
"""

from repro import Cluster, ClusterConfig, Consistency, DdpModel, Persistency
from repro.core.context import ClientContext
from repro.recovery.recovery import recover_latest

PERSISTENCY_MODELS = [Persistency.STRICT, Persistency.SYNCHRONOUS,
                      Persistency.EVENTUAL]
NUM_WRITES = 40


def run_and_crash(persistency):
    model = DdpModel(Consistency.CAUSAL, persistency)
    cluster = Cluster(model, config=ClusterConfig(servers=3,
                                                  clients_per_server=0,
                                                  store_type=None))
    cluster.start()
    sim = cluster.sim
    engine = cluster.engines[0]
    ctx = ClientContext(0, 0)

    completed = []
    for i in range(NUM_WRITES):
        sim.run_until_complete(
            sim.process(engine.client_write(ctx, i % 10, f"balance-{i}")))
        completed.append((i % 10, engine.replicas.peek(i % 10).applied_version))

    cluster.crash_all()  # volatile state gone, NVM survives
    recovered = recover_latest(cluster.nvm_log, range(3))

    survived = sum(1 for key, version in completed
                   if recovered.version_of(key) >= version)
    sim.run_until_complete(sim.all_of(
        [cluster.restart_node(node.node_id) for node in cluster.nodes]))
    fetched = sum(engine.time_to_serve.fetched for engine in cluster.engines)
    return survived, len(completed), fetched


def main():
    print(f"Writing {NUM_WRITES} records, then crashing the whole cluster.\n")
    print(f"{'persistency':<14} {'completed writes recovered':>28} "
          f"{'keys fetched on restart':>24}")
    print("-" * 68)
    for persistency in PERSISTENCY_MODELS:
        survived, total, fetched = run_and_crash(persistency)
        print(f"{persistency.value:<14} {survived:>14}/{total:<13} "
              f"{fetched:>24}")
    print(
        "\nStrict persists before writes complete (nothing lost, all nodes\n"
        "agree, nothing to fetch); Synchronous persists at each visibility\n"
        "point (recent writes can be lost, nodes can disagree until they\n"
        "catch up); Eventual persists lazily (an arbitrary number of\n"
        "updates may be lost)."
    )


if __name__ == "__main__":
    main()
