"""The paper's core contribution: DDP models and their protocols.

* :mod:`repro.core.model` — consistency/persistency model definitions
  and their Visibility/Durability Point semantics (Table 2).
* :mod:`repro.core.messages` — protocol message vocabulary (Table 3).
* :mod:`repro.core.policies` — per-model behavioral policies.
* :mod:`repro.core.contracts` — what each of the 25 cells owes, stated
  once (durability, session, history checker, online probes).
* :mod:`repro.core.replica` — per-key replica state machines.
* :mod:`repro.core.context` — per-client causal/scope/txn session state.
* :mod:`repro.core.engine` — the leaderless coordinator/follower
  protocol engine (Figures 2-5).
* :mod:`repro.core.tradeoffs` — the Table 4 trade-off derivation.
"""

from repro.core.context import ClientContext
from repro.core.engine import ProtocolConfig, ProtocolNode
from repro.core.messages import Message, MsgType
from repro.core.model import Consistency, DdpModel, Persistency, all_ddp_models
from repro.core.policies import (
    CONSISTENCY_POLICIES,
    PERSISTENCY_POLICIES,
    ConsistencyPolicy,
    PersistencyPolicy,
    policy_for,
)
from repro.core.replica import KeyReplica, ReplicaTable, Version, ZERO_VERSION
from repro.core.tradeoffs import TABLE4_MODELS, Level, TradeoffProfile, analyze, analyze_all

__all__ = [
    "CONSISTENCY_POLICIES",
    "ClientContext",
    "Consistency",
    "ConsistencyPolicy",
    "DdpModel",
    "KeyReplica",
    "Level",
    "Message",
    "MsgType",
    "PERSISTENCY_POLICIES",
    "Persistency",
    "PersistencyPolicy",
    "ProtocolConfig",
    "ProtocolNode",
    "ReplicaTable",
    "TABLE4_MODELS",
    "TradeoffProfile",
    "Version",
    "ZERO_VERSION",
    "all_ddp_models",
    "analyze",
    "analyze_all",
    "policy_for",
]
