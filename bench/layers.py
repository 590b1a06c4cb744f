"""The isolated layer ladder: what each layer costs alone.

Every rung drives a fixed operation count through one layer's public
constructor and methods — no cluster, no protocol — and reports its host
time beside its exact kernel event count, so a rung compares exactly
between commits even where its time is noisy.  The gap between a rung
and the same layer's in-cluster cost (``traced.py``) is interaction:
heap depth, allocation, GC.

Run alone with ``python bench/layers.py [--seed N]``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import worker
from traced import optional

#: Host times are the minimum over this many back-to-back repeats.
REPEATS = 3
STORE_TYPES = ("hashtable", "sortedmap", "btree", "bplustree", "memcached")


def _run_sim(populate: Callable[[Any], None]) -> Tuple[float, Optional[int]]:
    """Host seconds of ``sim.run()`` on a fresh simulator that
    ``populate`` filled (min of ``REPEATS``), and the exact number of
    kernel events one such run processes (a separate, profiled run)."""
    simulator = optional("repro.sim.engine", "Simulator")
    best = float("inf")
    for _ in range(REPEATS):
        sim = simulator()
        populate(sim)
        t0 = time.perf_counter()
        sim.run()
        best = min(best, time.perf_counter() - t0)
    events = None
    profile_cls = optional("repro.obs", "KernelProfile")
    if profile_cls is not None:
        profile = profile_cls()
        sim = simulator()
        profile.attach(sim)
        populate(sim)
        sim.run()
        events = profile.events_processed
    return best, events


def rung_timeout() -> Dict[str, Any]:
    """Generator ping-pong on ``Simulator.timeout``."""
    procs, hops = 100, 1000

    def populate(sim):
        def ping():
            for _ in range(hops):
                yield sim.timeout(1.0)
        for _ in range(procs):
            sim.process(ping())

    host_s, events = _run_sim(populate)
    return {"ops": procs * hops, "events": events, "host_s": host_s,
            "metrics": {"sim.bare_timeout_ns_per_event":
                        host_s / (events or procs * hops) * 1e9}}


def rung_call_at() -> Dict[str, Any]:
    """``call_at`` storm: self-rescheduling callback chains over a
    thousand-deep heap."""
    chains, hops = 1000, 100

    def populate(sim):
        def tick(left):
            if left:
                sim.call_at(sim.now + 1.0, functools.partial(tick, left - 1))
        for chain in range(chains):
            sim.call_at(float(chain % 7), functools.partial(tick, hops))

    host_s, events = _run_sim(populate)
    ops = chains * (hops + 1)
    return {"ops": ops, "events": events, "host_s": host_s,
            "metrics": {"sim.bare_call_at_ns_per_event":
                        host_s / (events or ops) * 1e9}}


def rung_resource() -> Dict[str, Any]:
    """Contended ``Resource.use``: 64 processes on 4 units."""
    resource_cls = optional("repro.sim.sync", "Resource")
    procs, rounds = 64, 250

    def populate(sim):
        resource = resource_cls(sim, capacity=4)

        def user():
            for _ in range(rounds):
                yield from resource.use(10.0)
        for _ in range(procs):
            sim.process(user())

    host_s, events = _run_sim(populate)
    ops = procs * rounds
    return {"ops": ops, "events": events, "host_s": host_s,
            "metrics": {"sim.resource_ns_per_acquire": host_s / ops * 1e9}}


def rung_sync_store() -> Dict[str, Any]:
    """``sync.Store`` hand-off between producer/consumer pairs."""
    store_cls = optional("repro.sim.sync", "Store")
    pairs, items = 16, 2000

    def populate(sim):
        def producer(channel):
            for item in range(items):
                channel.put(item)
                yield sim.timeout(1.0)

        def consumer(channel):
            for _ in range(items):
                yield channel.get()
        for _ in range(pairs):
            channel = store_cls(sim)
            sim.process(consumer(channel))
            sim.process(producer(channel))

    host_s, events = _run_sim(populate)
    ops = pairs * items
    return {"ops": ops, "events": events, "host_s": host_s,
            "metrics": {"sim.store_ns_per_put_get": host_s / ops * 1e9}}


def rung_network() -> Dict[str, Any]:
    """Bare ``Network`` + ``Nic``s: sink processes on ``Nic.receive``,
    no protocol."""
    network_cls = optional("repro.net.network", "Network")
    nodes, per_node, size_bytes = 5, 2000, 88

    def populate(sim):
        network = network_cls(sim)
        nics = [network.attach(node) for node in range(nodes)]

        def sink(nic):
            while True:
                yield nic.receive()

        def sender(src):
            for index in range(per_node):
                dst = (src + 1 + index % (nodes - 1)) % nodes
                network.send(src, dst, index, size_bytes)
                yield sim.timeout(50.0)
        for node, nic in enumerate(nics):
            sim.process(sink(nic))
            sim.process(sender(node))

    host_s, events = _run_sim(populate)
    msgs = nodes * per_node
    return {"ops": msgs, "events": events, "host_s": host_s,
            "metrics": {
                "net.bare_host_us_per_msg": host_s / msgs * 1e6,
                "net.bare_events_per_msg":
                    None if events is None else events / msgs}}


def rung_nvm() -> Dict[str, Any]:
    """``NvmDevice.persist`` storm over the 16 banks."""
    nvm_cls = optional("repro.memory.devices", "NvmDevice")
    procs, rounds = 64, 200

    def populate(sim):
        nvm = nvm_cls(sim)

        def writer(offset):
            for index in range(rounds):
                yield from nvm.persist(offset * 7 + index)
        for offset in range(procs):
            sim.process(writer(offset))

    host_s, events = _run_sim(populate)
    ops = procs * rounds
    return {"ops": ops, "events": events, "host_s": host_s,
            "metrics": {
                "memory.bare_host_us_per_persist": host_s / ops * 1e6,
                "memory.bare_events_per_persist":
                    None if events is None else events / ops}}


@functools.lru_cache(maxsize=1)
def _key_stream(seed: int, count: int) -> List[tuple]:
    """The same requests for all five stores, drawn once."""
    stream_cls = optional("repro.workload.ycsb", "RequestStream")
    rng_cls = optional("repro.sim.rng", "SeededStream")
    stream = stream_cls(worker.YCSB["A"], rng_cls(seed, "ladder"))
    return [stream.next_request() for _ in range(count)]


def rung_kv_store(store_type: str, seed: int) -> Dict[str, Any]:
    """One KV store on the YCSB-A key stream, starting empty: a read is
    ``get`` + ``read_cost``, a write ``write_cost`` + ``put``."""
    make_store = optional("repro.store", "make_store")
    requests = _key_stream(seed, 20_000)
    best = float("inf")
    for _ in range(REPEATS):
        store = make_store(store_type)
        t0 = time.perf_counter()
        for op, key, value in requests:
            if op == "read":
                store.get(key)
                store.read_cost(key)
            else:
                store.write_cost(key, value)
                store.put(key, value)
        best = min(best, time.perf_counter() - t0)
    return {"ops": len(requests), "events": 0, "host_s": best,
            "metrics": {"store.bare_ns_per_op." + store_type:
                        best / len(requests) * 1e9}}


def rung_stream_build(seed: int) -> Dict[str, Any]:
    """One ``RequestStream`` at 10 000 keys (the zipf zeta sum): a
    cluster builds one per client."""
    stream_cls = optional("repro.workload.ycsb", "RequestStream")
    rng_cls = optional("repro.sim.rng", "SeededStream")
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        stream_cls(worker.YCSB["A"], rng_cls(seed, "ladder"))
        best = min(best, time.perf_counter() - t0)
    return {"ops": 1, "events": 0, "host_s": best,
            "metrics": {"workload.stream_build_ms": best * 1e3}}


#: rung name -> (function taking the seed, the metrics it yields).
RUNGS: Dict[str, Tuple[Callable[[int], Dict[str, Any]], Tuple[str, ...]]] = {
    "sim.timeout": (lambda seed: rung_timeout(),
                    ("sim.bare_timeout_ns_per_event",)),
    "sim.call_at": (lambda seed: rung_call_at(),
                    ("sim.bare_call_at_ns_per_event",)),
    "sim.resource": (lambda seed: rung_resource(),
                     ("sim.resource_ns_per_acquire",)),
    "sim.store": (lambda seed: rung_sync_store(),
                  ("sim.store_ns_per_put_get",)),
    "net.network": (lambda seed: rung_network(),
                    ("net.bare_host_us_per_msg", "net.bare_events_per_msg")),
    "memory.nvm": (lambda seed: rung_nvm(),
                   ("memory.bare_host_us_per_persist",
                    "memory.bare_events_per_persist")),
    **{"store." + store_type: (
        functools.partial(rung_kv_store, store_type),
        ("store.bare_ns_per_op." + store_type,))
       for store_type in STORE_TYPES},
    "workload.stream": (rung_stream_build, ("workload.stream_build_ms",)),
}


def run_ladder(seed: int) -> Dict[str, Any]:
    """Every rung.  A rung whose layer a refactor removed or reshaped
    reports ``None`` for its metrics instead of stopping the ladder."""
    per_layer: Dict[str, Optional[float]] = {}
    rungs: Dict[str, Any] = {}
    for name, (rung, metric_names) in RUNGS.items():
        try:
            outcome = rung(seed)
        except Exception:
            traceback.print_exc()
            per_layer.update(dict.fromkeys(metric_names))
            continue
        per_layer.update(outcome.pop("metrics"))
        rungs[name] = outcome
    return {"per_layer": per_layer, "rungs": rungs,
            "table": format_ladder(rungs)}


def format_ladder(rungs: Dict[str, Any]) -> str:
    lines = [f"  {'ladder rung':<18} {'ops':>8} {'events':>8} {'host ms':>9}"]
    for name, rung in rungs.items():
        events = "-" if rung["events"] is None else rung["events"]
        lines.append(f"  {name:<18} {rung['ops']:>8} {events:>8} "
                     f"{rung['host_s'] * 1e3:>9.2f}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2021)
    args = parser.parse_args(argv)
    ladder = run_ladder(args.seed)
    print(ladder["table"])
    for name, value in ladder["per_layer"].items():
        print(f"  {name:<40} " + ("null" if value is None else f"{value:.6g}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
