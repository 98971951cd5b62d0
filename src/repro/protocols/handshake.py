"""Handshake-K — a tunable strawman for the induction's depth.

Like FastClaim it claims fast read-only transactions **and**
multi-object write transactions.  Unlike FastClaim it does not make a
multi-object write visible immediately: the involved servers first
bounce a token back and forth ``2·K`` times (configurable ``sync_hops``
parameter), and only at the end of the chain do the halves become
visible and the client get its acks.

For the impossibility engine this is the ideal specimen: each induction
round cuts one server-to-server hop (``ms_k``), the written values stay
invisible through ``2·K`` rounds (the troublesome execution growing),
and the round in which visibility finally lands at one server lets the
δ splice catch the protocol returning a mixed read — Theorem 1 says
*some* round must, because no amount of handshaking makes all four
properties compatible.
"""

from __future__ import annotations

from typing import Dict, Sequence, Set, Tuple

from repro.sim.codec import const, mapf, value
from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    ReadReply,
    ReadRequest,
    ServerBase,
    ServerMsg,
    Timestamp,
    ValueEntry,
    Version,
    WriteReply,
    WriteRequest,
)
from repro.protocols.fastclaim import FastClaimClient
from repro.txn.client import ActiveTxn
from repro.txn.types import ObjectId


class HandshakeServer(ServerBase):
    codec_schema = (const("sync_hops"), value("lamport"), mapf("pending"))

    def __init__(self, pid, objects, peers, placement, sync_hops: int = 2):
        super().__init__(pid, objects, peers, placement)
        self.sync_hops = sync_hops
        self.lamport = 0
        #: txid -> ((obj, ts) keys of the versions installed here,
        #: client, ring).  Keys, not the Version objects: those live in
        #: ``store``, and a second reference from another schema field
        #: would decode to a separate copy after a snapshot restore.
        self.pending: Dict[
            str, Tuple[Tuple[Tuple[ObjectId, Timestamp], ...], ProcessId, Tuple]
        ] = {}

    # -- reads: FastClaim-style, newest *visible* version ---------------------

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        entries = tuple(self.latest(obj).entry() for obj in req.keys)
        self.queue_send(ctx, msg.src, ReadReply(txid=req.txid, values=entries))

    # -- writes: install invisible, run the token exchange ----------------------

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        self.lamport = max(self.lamport, int(req.meta.get("ts", 0))) + 1
        versions = []
        for item in req.items:
            v = Version(
                obj=item.obj,
                value=item.value,
                ts=(self.lamport, self.pid),
                txid=req.txid,
                visible=False,
            )
            self.install(v)
            versions.append(v)
        ring = tuple(
            sorted(
                {
                    self.placement[obj][0]
                    for obj, _ in req.meta.get("all_writes", ())
                }
            )
        )
        if len(ring) <= 1 or self.sync_hops == 0:
            for v in versions:
                v.visible = True
            self.queue_send(
                ctx,
                msg.src,
                WriteReply(txid=req.txid, kind="ack", meta={"ts": self.lamport}),
            )
            return
        self.pending[req.txid] = (
            tuple((v.obj, v.ts) for v in versions),
            msg.src,
            ring,
        )
        if self.pid == ring[0]:
            # lowest-id participant launches the token around the ring
            self.queue_send(
                ctx,
                ring[1],
                ServerMsg(
                    kind="hs", data={"txid": req.txid, "hop": 1, "ring": ring}
                ),
            )

    def _finish(self, ctx: StepContext, txid: str) -> None:
        keys, client, _ring = self.pending.pop(txid)
        for obj, ts in keys:
            self.find_version(obj, ts).visible = True
        self.queue_send(
            ctx, client, WriteReply(txid=txid, kind="ack", meta={"ts": self.lamport})
        )

    def handle_server(self, ctx: StepContext, msg: Message, sm: ServerMsg) -> None:
        if sm.kind == "hs":
            txid, hop, ring = sm.data["txid"], sm.data["hop"], tuple(sm.data["ring"])
            total = 2 * self.sync_hops * (len(ring) - 1)
            if hop < total:
                succ = ring[(ring.index(self.pid) + 1) % len(ring)]
                self.queue_send(
                    ctx,
                    succ,
                    ServerMsg(
                        kind="hs",
                        data={"txid": txid, "hop": hop + 1, "ring": ring},
                    ),
                )
            else:
                # chain complete: reveal here, tell the ring to reveal
                if txid in self.pending:
                    self._finish(ctx, txid)
                for peer in ring:
                    if peer != self.pid:
                        self.queue_send(
                            ctx, peer, ServerMsg(kind="hs_done", data={"txid": txid})
                        )
        elif sm.kind == "hs_done":
            if sm.data["txid"] in self.pending:
                self._finish(ctx, sm.data["txid"])
        else:  # pragma: no cover - defensive
            raise NotImplementedError(f"{self.pid}: server message {sm.kind}")


class HandshakeClient(FastClaimClient):
    """FastClaim's client, with the full write-set advertised to servers."""

    def _send_writes(self, ctx: StepContext, active: ActiveTxn) -> None:
        groups: Dict[ProcessId, list] = {}
        for obj, val in active.txn.writes:
            for server in self.replicas(obj):
                groups.setdefault(server, []).append(ValueEntry(obj, val))
        active.state["phase"] = "write"
        active.awaiting = set(groups)
        for server, items in groups.items():
            ctx.send(
                server,
                WriteRequest(
                    txid=active.txn.txid,
                    kind="write",
                    items=tuple(items),
                    meta={
                        "ts": self.lamport,
                        "all_writes": tuple(
                            (o, None) for o, _ in active.txn.writes
                        ),
                    },
                ),
            )
