"""repro — a reproduction of *Distributed Data Persistency* (MICRO 2021).

The package implements the paper's Distributed Data Persistency (DDP)
framework — the binding of memory persistency models with data
consistency models in a distributed system — together with every
substrate its evaluation needs: a discrete-event simulator, an
RDMA-style network, banked NVM/DRAM devices, key-value stores, YCSB
workloads, transactions, and crash recovery.

Quickstart::

    from repro import Consistency, Persistency, DdpModel, WORKLOADS
    from repro import run_simulation

    model = DdpModel(Consistency.CAUSAL, Persistency.SYNCHRONOUS)
    summary = run_simulation(model, WORKLOADS["A"])
    print(f"{model}: {summary.throughput_ops_per_s / 1e6:.2f} Mops/s")

The public names below are resolved on first use (PEP 562), so
``import repro.cluster`` — or ``import repro`` itself — loads only the
modules that are actually used.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS = {
    "Cluster": "repro.cluster.cluster",
    "ClusterConfig": "repro.cluster.config",
    "ClientContext": "repro.core.context",
    "Consistency": "repro.core.model",
    "DdpModel": "repro.core.model",
    "HybridCluster": "repro.hybrid.cluster",
    "Metrics": "repro.analysis.metrics",
    "Persistency": "repro.core.model",
    "ProtocolConfig": "repro.core.engine",
    "ProtocolNode": "repro.core.engine",
    "Summary": "repro.analysis.metrics",
    "TABLE4_MODELS": "repro.core.tradeoffs",
    "WORKLOADS": "repro.workload.ycsb",
    "WorkloadSpec": "repro.workload.ycsb",
    "all_ddp_models": "repro.core.model",
    "analyze": "repro.core.tradeoffs",
    "analyze_all": "repro.core.tradeoffs",
    "format_figure6_table": "repro.analysis.report",
    "format_summary_table": "repro.analysis.report",
    "recover_latest": "repro.recovery.recovery",
    "run_simulation": "repro.cluster.cluster",
}

__all__ = [*_EXPORTS, "__version__"]


def _lazy(namespace: dict, exports: dict):
    """The PEP 562 ``__getattr__`` and ``__dir__`` of the package whose
    globals are ``namespace``: each public name in ``exports`` (name ->
    the module that defines it) is imported on first use, then cached
    in the package so later lookups skip the hook."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__():
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
