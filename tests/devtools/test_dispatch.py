"""Dispatch completeness: every engine's ``_DISPATCH`` table maps every
``MsgType`` member to a callable handler, checked by introspection."""

import importlib
import pkgutil

import pytest

import repro
from repro.core.engine import ProtocolNode
from repro.core.messages import MsgType

ENGINES = (("repro.core.engine", "ProtocolNode"),
           ("repro.hybrid.engine", "HybridProtocolNode"),
           ("repro.variants.leader", "LeaderProtocolNode"))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestRealEngines:
    @pytest.mark.parametrize("module,cls", ENGINES)
    def test_every_engine_handles_every_msgtype(self, module, cls):
        engine = getattr(importlib.import_module(module), cls)
        assert set(engine._DISPATCH) == set(MsgType)
        for msg_type, name in engine._DISPATCH.items():
            assert callable(getattr(engine, name, None)), (msg_type, name)

    def test_specs_cover_all_engines_with_dispatch_paths(self):
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        found = {(c.__module__, c.__qualname__)
                 for c in (ProtocolNode, *_subclasses(ProtocolNode))}
        assert found == set(ENGINES)

    def test_all_msgtypes_enumerated(self):
        # Table 3: the protocol message vocabulary the tables must cover.
        assert {m.name for m in MsgType} == {
            "INV", "ACK", "ACK_C", "ACK_P", "VAL", "VAL_C", "VAL_P",
            "UPD", "INITX", "ENDX", "PERSIST"}
