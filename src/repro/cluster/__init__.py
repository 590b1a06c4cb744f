"""Cluster substrate: server nodes, cluster assembly, experiment harness.

The public names below are resolved on first use (PEP 562), so
importing one module of the package loads only that module.
"""

from repro import _lazy

#: Public name -> the module that defines it.
_EXPORTS = {
    "Cluster": "repro.cluster.cluster",
    "run_simulation": "repro.cluster.cluster",
    "ClusterConfig": "repro.cluster.config",
    "Node": "repro.cluster.node",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
