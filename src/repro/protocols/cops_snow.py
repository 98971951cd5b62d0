"""COPS-SNOW — fast read-only transactions, no multi-object writes.

Table 1 row: R = 1, V = 1, non-blocking, **no multi-object write
transactions**, causal consistency.  This is the N+R+V corner of
Section 3.4: the only published design that achieves fast ROTs in the
paper's system model, paying for it with single-object writes and a
write path that performs cross-server *readers checks*.

Mechanism (Lu et al., OSDI'16, adapted to the paper's model):

* every ROT has a globally unique id; when a server serves version ``v``
  of object ``X`` to ROT ``R`` it records ``R`` in ``v``'s readers set,
  and additionally in the per-object *old-readers* set if ``v`` is not
  the newest visible version;
* a write of ``x₁`` with causal dependencies ``D`` is installed
  *invisible*; the server asks each server storing a dependency for the
  ids of ROTs that read an older version of the dependency (its
  old-readers plus the readers of all versions older than the dependency);
* the union of the answers becomes ``x₁``'s ``invisible_to`` set, those
  ROT ids are added to the local old-readers set (they are now destined
  to read old versions here — the transitivity rule), and only then does
  ``x₁`` become visible and the write get acknowledged;
* a ROT ``R`` reading ``X`` receives the newest visible version whose
  ``invisible_to`` set does not contain ``R`` — always answerable
  immediately from local state: one round, one value, non-blocking.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Set, Tuple

from repro.sim.codec import mapf, value
from repro.sim.messages import Message, ProcessId
from repro.sim.process import StepContext
from repro.protocols.base import (
    INITIAL_TS,
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
from repro.txn.client import ActiveTxn, ClientBase, UnsupportedTransaction
from repro.txn.types import ObjectId, Transaction


class PendingWrite:
    """A write whose readers check is in flight.

    Holds the version's ``(obj, ts)`` key, not the :class:`Version`: the
    version lives in the server's ``store``, and a second reference from
    another schema field would decode to a separate copy after a
    snapshot restore.
    """

    def __init__(
        self,
        key: Tuple[ObjectId, Timestamp],
        client: ProcessId,
        waiting: Set[ProcessId],
    ):
        self.key = key
        self.client = client
        self.waiting = waiting
        self.old_readers: Set[str] = set()


class CopsSnowServer(ServerBase):
    codec_schema = (value("lamport"), mapf("old_readers"), mapf("pending"))

    def __init__(self, pid, objects, peers, placement):
        super().__init__(pid, objects, peers, placement)
        self.lamport = 0
        #: ROT ids destined to read old versions, per object
        self.old_readers: Dict[ObjectId, Set[str]] = {o: set() for o in objects}
        #: readers-check state per writing txid
        self.pending: Dict[str, PendingWrite] = {}

    # -- reads --------------------------------------------------------------------

    def _serve_version(self, obj: ObjectId, rot: str) -> Version:
        chain = self.store[obj]
        newest_visible = None
        for v in reversed(chain):
            if not v.visible:
                continue
            if newest_visible is None:
                newest_visible = v
            if rot not in v.invisible_to:
                if v is not newest_visible:
                    self.old_readers[obj].add(rot)
                v.meta.setdefault("readers", set()).add(rot)
                return v
        raise AssertionError(f"{self.pid}: no servable version of {obj}")

    def handle_read(self, ctx: StepContext, msg: Message, req: ReadRequest) -> None:
        rot = req.txid
        entries = tuple(self._serve_version(obj, rot).entry() for obj in req.keys)
        self.queue_send(ctx, msg.src, ReadReply(txid=req.txid, values=entries))

    # -- writes -------------------------------------------------------------------

    def handle_write(self, ctx: StepContext, msg: Message, req: WriteRequest) -> None:
        assert req.kind == "write" and len(req.items) == 1
        item = req.items[0]
        deps: Tuple[Tuple[ObjectId, Timestamp], ...] = tuple(req.meta.get("deps", ()))
        dep_ticks = [ts[0] for _, ts in deps if ts != INITIAL_TS]
        self.lamport = max([self.lamport] + dep_ticks) + 1
        version = Version(
            obj=item.obj,
            value=item.value,
            ts=(self.lamport, self.pid),
            txid=req.txid,
            deps=deps,
            visible=False,
        )
        self.install(version)
        remote: Dict[ProcessId, List[Tuple[ObjectId, Timestamp]]] = {}
        for dep_obj, dep_ts in deps:
            owner = self.placement[dep_obj][0]
            if owner != self.pid:
                remote.setdefault(owner, []).append((dep_obj, dep_ts))
        if not remote:
            self._make_visible(ctx, version, msg.src, set())
            return
        self.pending[req.txid] = PendingWrite(
            (version.obj, version.ts), msg.src, set(remote)
        )
        for owner, dep_list in remote.items():
            self.queue_send(ctx, 
                owner,
                ServerMsg(
                    kind="snow_check",
                    data={"txid": req.txid, "deps": tuple(dep_list)},
                ),
            )

    def _collect_old_readers(self, deps: Sequence[Tuple[ObjectId, Timestamp]]) -> Set[str]:
        rots: Set[str] = set()
        for dep_obj, dep_ts in deps:
            if dep_obj not in self.store:
                continue
            rots |= self.old_readers[dep_obj]
            for v in self.store[dep_obj]:
                if v.ts < dep_ts:
                    rots |= v.meta.get("readers", set())
        return rots

    def _make_visible(
        self, ctx: StepContext, version: Version, client: ProcessId, rots: Set[str]
    ) -> None:
        version.invisible_to = set(rots)
        version.visible = True
        if rots:
            # transitivity: these ROTs are now destined to read old here
            self.old_readers[version.obj] |= rots
        self.queue_send(ctx, 
            client, WriteReply(txid=version.txid, kind="ack", meta={"ts": version.ts})
        )

    # -- server messages -------------------------------------------------------------

    def handle_server(self, ctx: StepContext, msg: Message, sm: ServerMsg) -> None:
        if sm.kind == "snow_check":
            rots = self._collect_old_readers(sm.data["deps"])
            self.queue_send(ctx, 
                msg.src,
                ServerMsg(
                    kind="snow_resp",
                    data={"txid": sm.data["txid"], "readers": tuple(sorted(rots))},
                ),
            )
        elif sm.kind == "snow_resp":
            txid = sm.data["txid"]
            pw = self.pending.get(txid)
            if pw is None:
                return
            pw.old_readers |= set(sm.data["readers"])
            pw.waiting.discard(msg.src)
            if not pw.waiting:
                del self.pending[txid]
                self._make_visible(
                    ctx, self.find_version(*pw.key), pw.client, pw.old_readers
                )
        else:
            raise NotImplementedError(f"{self.pid}: server message {sm.kind}")


class CopsSnowClient(ClientBase):
    """Single-round ROTs; single-object writes with nearest deps."""

    codec_schema = (mapf("deps"),)

    def __init__(self, pid, servers, placement):
        super().__init__(pid, servers, placement)
        self.deps: Dict[ObjectId, Timestamp] = {}

    def validate(self, txn: Transaction) -> None:
        super().validate(txn)
        if len(txn.writes) > 1:
            raise UnsupportedTransaction(
                "COPS-SNOW supports only single-object writes"
            )
        if txn.read_set and txn.writes:
            raise UnsupportedTransaction(
                "COPS-SNOW transactions are read-only or single writes"
            )

    def begin(self, ctx: StepContext, active: ActiveTxn) -> None:
        txn = active.txn
        if txn.writes:
            obj, val = txn.writes[0]
            active.awaiting = {self.primary(obj)}
            ctx.send(
                self.primary(obj),
                WriteRequest(
                    txid=txn.txid,
                    kind="write",
                    items=(ValueEntry(obj, val),),
                    meta={"deps": tuple(self.deps.items())},
                ),
            )
        else:
            groups = self.partition_objects(txn.read_set)
            active.awaiting = set(groups)
            active.round += 1
            for server, keys in groups.items():
                ctx.send(server, ReadRequest(txid=txn.txid, keys=keys))

    def handle_message(self, ctx: StepContext, msg: Message) -> None:
        active = self.current
        p = msg.payload
        if active is None or getattr(p, "txid", None) != active.txn.txid:
            return
        if isinstance(p, WriteReply):
            obj = active.txn.writes[0][0]
            self.deps = {obj: p.meta["ts"]}
            active.awaiting.discard(msg.src)
            if not active.awaiting:
                self.finish(ctx)
        elif isinstance(p, ReadReply):
            for entry in p.values:
                active.reads[entry.obj] = entry.value
                if entry.ts != INITIAL_TS:
                    if entry.obj not in self.deps or entry.ts > self.deps[entry.obj]:
                        self.deps[entry.obj] = entry.ts
            active.awaiting.discard(msg.src)
            if not active.awaiting:
                self.finish(ctx)
