"""Failing fixture: an engine whose handlers do not commute.

This is the injected non-commuting mutation the ordering rules must
catch: a last-write-wins store put keyed by message payload (raw
write), the same put one scheduler hop away (reached only through a
bare bound-method reference), a send guarded by that racy state, and a
collaborator call the effect model cannot resolve.
"""


class RacyEngine:
    _DISPATCH = {
        MsgType.INV: "_on_inv",
        MsgType.ACK: "_on_ack",
        MsgType.VAL: "_on_val",
        MsgType.UPD: "_on_upd",
    }

    def __init__(self, sim, store, network, gizmo):
        self.sim = sim
        self.store = store
        self.network = network
        self.gizmo = gizmo

    def _on_inv(self, message):
        # Raw write: whichever same-timestamp INV pops last wins.
        self.store.put(message.key, message.value)

    def _on_ack(self, message):
        # Send guarded by raw-written state: whether the reply fires
        # depends on tie order.
        if self.store.get(message.key) is None:
            self.network.send(message.src, message)

    def _on_val(self, message):
        # Escapes the effect model entirely.
        self.gizmo.refresh(message.key)

    def _on_upd(self, message):
        # The raw write again, behind a callback: the method is only
        # referenced here, but it runs on this handler's behalf.
        self.sim.call_at(self.sim.now, self._later, message)

    def _later(self, message):
        self.store.put(message.key, message.value)
