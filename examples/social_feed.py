#!/usr/bin/env python3
"""Causal consistency in action: a photo-sharing feed (paper Section 9).

The classic anomaly: Alice uploads a photo, then posts a comment about
it.  Under Causal consistency, no observer can ever see the comment
without the photo — the comment's causal history names the photo, so
replicas buffer the comment until the photo is visible.

The script delivers the two updates to a follower *out of order* (as a
congested network might) and shows the buffering; it then contrasts
Eventual consistency, where the anomaly is visible.
"""

from repro import Cluster, ClusterConfig, Consistency, DdpModel, Persistency
from repro.core.context import ClientContext
from repro.core.messages import Message, MsgType

PHOTO_KEY = 1001
COMMENT_KEY = 2001


def drive(consistency):
    model = DdpModel(consistency, Persistency.SYNCHRONOUS)
    cluster = Cluster(model, config=ClusterConfig(servers=3,
                                                  clients_per_server=0,
                                                  store_type=None))
    cluster.start()
    sim = cluster.sim
    follower = cluster.engines[1]

    # Alice's two updates, as the wire messages a coordinator would send.
    photo = Message(MsgType.UPD, src=0, op_id=1, key=PHOTO_KEY,
                    version=(1, 0), value="photo.jpg")
    comment_cauhist = ((PHOTO_KEY, (1, 0)),) if consistency is Consistency.CAUSAL else ()
    comment = Message(MsgType.UPD, src=0, op_id=2, key=COMMENT_KEY,
                      version=(1, 0), value="look at my photo!",
                      cauhist=comment_cauhist)

    # The network delivers the comment FIRST.
    follower.nic.sink(comment)
    sim.run(until=sim.now + 5_000)
    reader = ClientContext(9, 1)
    seen_comment = sim.run_until_complete(
        sim.process(follower.client_read(reader, COMMENT_KEY)))
    seen_photo = sim.run_until_complete(
        sim.process(follower.client_read(reader, PHOTO_KEY)))
    early = (seen_photo, seen_comment)

    # Now the photo arrives; everything becomes visible.
    follower.nic.sink(photo)
    sim.run(until=sim.now + 20_000)
    seen_comment = sim.run_until_complete(
        sim.process(follower.client_read(reader, COMMENT_KEY)))
    seen_photo = sim.run_until_complete(
        sim.process(follower.client_read(reader, PHOTO_KEY)))
    return early, (seen_photo, seen_comment)


def describe(label, early, late):
    photo, comment = early
    print(f"{label}:")
    print(f"  before the photo's update arrives: "
          f"photo={photo!r}, comment={comment!r}")
    if comment is not None and photo is None:
        print("  -> ANOMALY: the comment is visible without its photo")
    else:
        print("  -> no anomaly: the comment waits for its causal history")
    photo, comment = late
    print(f"  after both updates arrive:          "
          f"photo={photo!r}, comment={comment!r}\n")


def main():
    print("A follower receives Alice's comment BEFORE the photo it "
          "refers to.\n")
    early, late = drive(Consistency.CAUSAL)
    describe("<Causal, Synchronous>", early, late)
    early, late = drive(Consistency.EVENTUAL)
    describe("<Eventual, Synchronous>", early, late)
    print("Causal consistency buffers the out-of-order comment "
          "(implementability cost: tracking cauhists — Table 4 row 4); "
          "Eventual applies updates in arrival order and exposes the "
          "anomaly.")


if __name__ == "__main__":
    main()
