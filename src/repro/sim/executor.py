"""The execution engine: configurations, steps, deliveries, snapshots.

A :class:`Simulation` owns the processes and the network and applies
events to them.  Its mutable state — process states, in-transit and income
buffers, counters — *is* the configuration in the sense of the paper; the
:meth:`Simulation.snapshot` / :meth:`Simulation.restore` pair implements
``RC(C, α)`` exploration: snapshot a configuration ``C``, run any legal
fragment ``α``, observe, restore, run a different fragment.

Every applied event is appended both to the observational
:class:`~repro.sim.trace.Trace` and to a replayable command log, so that
any fragment can be re-executed (possibly filtered) from a snapshot — the
mechanism behind the paper's indistinguishability splices.
"""

from __future__ import annotations

import copy
import hashlib
import io
import pickle
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from operator import is_
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.codec import (
    CodecError,
    ComponentLedger,
    cells_digest,
    ledger_from_cells,
)
from repro.sim.messages import Message, Payload, ProcessId
from repro.sim.network import Network
from repro.sim.process import Process, StepContext
from repro.sim.replay import Command, DeliverCmd, InvokeCmd, ReplayError, StepCmd
from repro.sim.trace import DeliverEvent, InvokeEvent, StepEvent, Trace

#: The deep-copy oracle's fingerprint dumps and size reports pickle at
#: protocol 5 (out-of-band-buffer era, the fastest framing available).
PICKLE_PROTOCOL = 5


@dataclass
class SimCounters:
    """Cost accounting for the ``RC(C, α)`` machinery.

    Surfaced by :meth:`repro.core.explore.ExplorationResult.describe` and
    the fork benchmarks so the perf trajectory of the snapshot path stays
    observable across PRs.
    """

    snapshots: int = 0          #: snapshot() calls
    restores: int = 0           #: restore() calls
    fingerprints: int = 0       #: fingerprint() calls
    cache_hits: int = 0         #: component serializations reused
    cache_misses: int = 0       #: component serializations recomputed
    bytes_serialized: int = 0   #: fresh bytes encoded for snapshots
    bytes_reused: int = 0       #: snapshot bytes served from the dirty cache
    bytes_restored: int = 0     #: bytes decoded by restores
    restore_reuses: int = 0     #: restores that kept every live component
    #: per-component accounting (delta snapshots): components captured
    #: by snapshot(), components decoded by restore(), and live
    #: components a delta restore() kept untouched because their cells
    #: already matched the snapshot.
    components_serialized: int = 0
    components_restored: int = 0
    components_reused: int = 0
    #: work-stealing frontier accounting (parallel runs; see
    #: repro.engine.parallel): subtree roots a worker published back to
    #: the shared deque instead of exploring, published roots consumed
    #: by a *different* worker than their publisher, times a worker
    #: found the deque empty and waited, and global seen-set traffic
    #: (claims that lost to another worker / claims that won).
    publishes: int = 0
    steals: int = 0
    idle_waits: int = 0
    shared_seen_hits: int = 0
    shared_seen_inserts: int = 0
    #: schema-codec accounting: Merkle subtree leaves (field cells /
    #: map keys / seq elements) freshly encoded vs reused from their
    #: shadow.  cells_encoded is the "re-hashed subtrees" measure the
    #: codec benchmark gates on: after one event it stays O(delta in
    #: the touched component), not O(process).  codec_fallbacks is
    #: always 0 — a component the codec cannot encode raises
    #: CodecError instead of falling back — and stays in the ledger so
    #: run records keep their shape.
    cells_encoded: int = 0
    cells_reused: int = 0
    codec_fallbacks: int = 0

    def describe(self) -> str:
        total = self.bytes_serialized + self.bytes_reused
        pct = 100.0 * self.bytes_reused / total if total else 0.0
        return (
            f"{self.snapshots} snapshots "
            f"({self.components_serialized} components captured), "
            f"{self.restores} restores "
            f"({self.components_restored} components loaded / "
            f"{self.components_reused} kept), "
            f"{self.fingerprints} fingerprints; serialization cache "
            f"{self.cache_hits} hits / {self.cache_misses} misses "
            f"({pct:.0f}% of {total} snapshot bytes reused)"
        )

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def merge(self, other: "SimCounters") -> None:
        """Accumulate another ledger into this one (parallel workers)."""
        for key, value in other.__dict__.items():
            setattr(self, key, getattr(self, key) + value)


def _uv(out: bytearray, n: int) -> None:
    """Append one unsigned LEB128 varint (structural payload framing)."""
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _net_capture(net: Network, prev=None):
    """Snapshot a network as an immutable structural tuple — zero bytes.

    The network's mutable state is pure *placement*: which
    :class:`~repro.sim.messages.Message` sits in which in-transit queue
    or income buffer, plus the per-link send counters.  The messages
    themselves are immutable once sent (the model's "links do not modify
    messages", enforced by lint rule RL404, whose contract already
    shares payloads by reference with the trace) — so a snapshot needs
    no serialization at all: capture the container *shapes* in immutable
    tuples and hold the message objects by reference.  Restoring
    (:func:`_net_build`) rebuilds fresh containers around the same
    messages, which satisfies the Configuration ownership rule the same
    way ``copy.deepcopy`` does when it returns immutables by identity.

    ``prev`` (the previous capture, any branch) enables per-container
    tuple reuse: a queue/buffer whose elements match the previous
    sub-tuple *element-for-element by identity* is exactly the captured
    container, so the sub-tuple is reused — which is what keeps the
    identity-keyed fragment memos downstream (``_net_frag``) hot.  The
    full scan is the only sound check: restores share the pre-fork
    :class:`Message` objects by reference (:func:`_net_build` rebuilds
    containers, not messages), and ``Network.deliver`` removes from
    arbitrary queue positions — so two sibling DFS branches that
    deliver *different* non-last messages out of the same restored
    queue hold containers with equal length and an identical last
    element but different contents.  A shape-plus-last-element guard
    would alias their captures.  The scan is O(n) per container, the
    same order as building the fresh tuple it avoids, and degrades to
    the length check alone on the first mismatch.
    """
    in_transit = net.in_transit
    income = net.income
    if prev is None:
        ptransit = pincome = ()
    else:
        ptransit = prev[1]
        pincome = prev[3]
    npt = len(ptransit)
    transit: List[Any] = []
    i = 0
    for link, q in in_transit.items():
        n = len(q)
        if i < npt:
            pent = ptransit[i]
            tq = pent[1]
            if len(tq) == n and pent[0] == link and all(map(is_, q, tq)):
                transit.append(pent)
                i += 1
                continue
        transit.append((link, tuple(q)))
        i += 1
    npi = len(pincome)
    inc: List[Any] = []
    i = 0
    for pid, v in income.items():
        n = len(v)
        if i < npi:
            pent = pincome[i]
            tv = pent[1]
            if len(tv) == n and pent[0] == pid and all(map(is_, v, tv)):
                inc.append(pent)
                i += 1
                continue
        inc.append((pid, tuple(v)))
        i += 1
    return (
        net.pids,
        tuple(transit),
        tuple(net.link_counts.items()),
        tuple(inc),
    )


def _net_build(state) -> Network:
    """Materialize a private :class:`Network` from a structural capture.

    Containers are rebuilt fresh (mutating the result never touches the
    capture or any other materialization); the immutable messages are
    shared by reference.
    """
    pids, transit, counts, income = state
    net = Network.__new__(Network)
    net.pids = pids
    net.in_transit = {link: deque(q) for link, q in transit}
    net.link_counts = dict(counts)
    net.income = {pid: list(v) for pid, v in income}
    net._version = 0
    return net


class Configuration:
    """An immutable, component-granular snapshot of a configuration.

    One entry per :class:`Process` — a tuple of immutable **cells**, one
    per declared schema field (see :mod:`repro.sim.codec`) — plus one
    structural capture of the :class:`Network`, each produced (and
    cached) against the component's ``_version`` dirty counter.
    Components that did not change between two snapshots share the
    *same* cell tuple by reference, and inside a changed component every
    untouched cell keeps its identity too.  That is what makes
    :meth:`Simulation.restore` a **delta apply**: a live component whose
    cached capture *is* the snapshot's is kept as-is, and a component
    that differs by one field decodes that field only.  The fingerprint
    layer hashes the same cells Merkle-style instead of re-serializing
    the state.

    The network's capture (:func:`_net_capture`) costs no serialization
    in either direction: its mutable state is message *placement*, and
    the placed messages are immutable once sent (lint rule RL404), so
    snapshots hold them by reference inside immutable tuples and
    restores rebuild fresh containers around them.

    Entries are ``(pid, clsref, cells)``; ``clsref``
    ("module:qualname") lets a different process (a parallel worker)
    rebuild the component ledger and decode the cells.

    **Ownership rule:** a Configuration may be restored any number of
    times, and restoring must never hand out mutable state aliased with
    the snapshot.  Everything held is immutable bytes and tuples over
    immutable messages; a restored component is either decoded fresh or
    a live component whose capture already equals the snapshot's —
    mutating it afterwards bumps its dirty counter, so later snapshots
    and restores see the divergence.  ``snapshot_mode="deepcopy"``
    (:class:`DeepCopyConfiguration`) is the independent oracle.

    :meth:`fork` shares the (immutable) captures, so it stays O(1).
    """

    __slots__ = ("procs", "net_state", "msg_counter", "event_count")

    def __init__(
        self,
        procs: Tuple[Tuple[ProcessId, str, Tuple[bytes, ...]], ...],
        net_state,
        msg_counter: int,
        event_count: int,
    ):
        #: per-process entries, in the process map's insertion order
        #: (restore rebuilds the map in exactly this order)
        self.procs = procs
        #: the network's structural capture (see :func:`_net_capture`)
        self.net_state = net_state
        self.msg_counter = msg_counter
        self.event_count = event_count

    @property
    def processes(self) -> Dict[ProcessId, Process]:
        """Decode private copies of the snapshotted processes.

        Each property access is a fresh, independent materialization.
        """
        return {
            pid: ledger_from_cells(clsref, pid, cells).decode_component(cells)
            for pid, clsref, cells in self.procs
        }

    @property
    def network(self) -> Network:
        """Rebuild a private copy of the snapshotted network."""
        return _net_build(self.net_state)

    def fork(self) -> "Configuration":
        return Configuration(
            procs=self.procs,  # immutable: share, don't copy
            net_state=self.net_state,
            msg_counter=self.msg_counter,
            event_count=self.event_count,
        )

    def size_bytes(self) -> int:
        """Encoded bytes held: the process cells.

        The network capture holds no serialized bytes at all (structural
        tuples over shared immutable messages), so it contributes zero.
        """
        return sum(len(c) for _, _, cells in self.procs for c in cells)


@dataclass
class DeepCopyConfiguration:
    """The pre-optimization snapshot: deep copies of the live objects.

    Kept as the reference implementation (``snapshot_mode="deepcopy"``)
    so tests can pin the old contract against the codec path, with
    which it shares no code (no cells, no ledgers, no delta restores),
    and the fork benchmark can measure both in one process.  Restoring
    one of these must fork first — the held objects would otherwise
    alias live state after a restore.
    """

    processes: Dict[ProcessId, Process]
    network: Network
    msg_counter: int
    event_count: int
    #: lazily computed by :meth:`size_bytes`.  A snapshot's held state
    #: never changes after capture, so the size is computed once — the
    #: old implementation re-pickled the full (processes, network) pair
    #: on *every* call, which made cost reporting itself O(state).
    _size: Optional[int] = None

    def fork(self) -> "DeepCopyConfiguration":
        return DeepCopyConfiguration(
            processes=copy.deepcopy(self.processes),
            network=copy.deepcopy(self.network),
            msg_counter=self.msg_counter,
            event_count=self.event_count,
        )

    def size_bytes(self) -> int:  # parity with Configuration, for benchmarks
        if self._size is None:
            self._size = len(
                pickle.dumps((self.processes, self.network), PICKLE_PROTOCOL)
            )
        return self._size


#: the two snapshot implementations: "codec" (schema-codec cells,
#: field-granular deltas + Merkle fingerprints; the production path)
#: and "deepcopy" (the reference oracle).
SNAPSHOT_MODES = ("codec", "deepcopy")


@contextmanager
def use_snapshot_mode(mode: str):
    """Force every new snapshot into one of :data:`SNAPSHOT_MODES`.

    Benchmark/test helper; flips the class-level default and restores it.
    """
    if mode not in SNAPSHOT_MODES:
        raise ValueError(f"unknown snapshot mode {mode!r}")
    old = Simulation.snapshot_mode
    Simulation.snapshot_mode = mode
    try:
        yield
    finally:
        Simulation.snapshot_mode = old


class _SetMark:
    """Sentinel class tagging a canonicalized (sorted) set — see _canonize."""


class _ObjMark:
    """Sentinel class tagging a canonicalized object — see _canonize."""


_ATOMIC_TYPES = (str, int, float, bool, bytes, type(None))


def _fast_dumps(obj: Any) -> bytes:
    """C pickle in *fast mode* (no memo): bytes are identity-blind."""
    buf = io.BytesIO()
    p = pickle.Pickler(buf, PICKLE_PROTOCOL)
    p.fast = True
    p.dump(obj)
    return buf.getvalue()


def _canonize(obj: Any, memo: Optional[Dict[int, Any]] = None) -> Any:
    """Rewrite a state tree into a canonical, order-deterministic form.

    Containers are rebuilt bottom-up; sets and frozensets become
    ``(_SetMark, is_frozen, sorted elements)`` with elements ordered by
    their own canonical bytes (a total order that never compares
    heterogeneous elements with ``<``); any other object becomes
    ``(_ObjMark, module, qualname, canonized state)``.  The sentinel
    *classes* are picklable by reference and cannot collide with
    protocol-state values.  Dicts keep their insertion order — both
    ``copy.deepcopy`` and ``pickle.loads`` preserve it, so it is already
    deterministic.

    ``memo`` is a per-call memo for the set-element sort keys, keyed by
    the *original* element's id (each entry holds the element strongly,
    so ids stay stable for the duration of the call): a vector-clock
    entry shared by several sets in one state is canonized and dumped
    once per pass instead of once per set that contains it.
    """
    t = type(obj)
    if t in _ATOMIC_TYPES:
        return obj
    if t is tuple:
        return tuple(_canonize(x, memo) for x in obj)
    if t is list:
        return [_canonize(x, memo) for x in obj]
    if t is dict:
        return {_canonize(k, memo): _canonize(v, memo) for k, v in obj.items()}
    if t is set or t is frozenset:
        if memo is None:
            memo = {}
        entries = []
        for x in obj:
            ent = memo.get(id(x))
            if ent is None or ent[0] is not x:
                cx = _canonize(x, memo)
                ent = (x, _fast_dumps(cx), cx)
                # repro-lint: disable=RL103 — per-call memo; the entry
                # pins x so the id stays valid, and hits are guarded
                # with `is`; keys are never ordered or iterated
                memo[id(x)] = ent
            entries.append(ent)
        entries.sort(key=lambda e: e[1])
        return (_SetMark, t is frozenset, [e[2] for e in entries])
    return (
        _ObjMark,
        t.__module__,
        t.__qualname__,
        _canonize(obj.__getstate__(), memo),
    )


class _CompRow:
    """One component's dirty-tracked captures, all in one place.

    A row is valid while the live component *is* ``obj`` at dirty
    version ``version``; every mutation of the component goes through
    an event (which bumps the counter), so validity is two identity/int
    comparisons.  The row carries every capture the snapshot and
    fingerprint machinery ever needs for that component — the restorable
    snapshot capture plus the strict and canonical fingerprint leaves —
    filled lazily, so no state is ever encoded twice for the same
    (object, version) pair.
    """

    __slots__ = ("obj", "version", "capture", "nbytes", "fp", "fp_canon")

    def __init__(self, obj: Any, version: int):
        self.obj = obj
        self.version = version
        #: the restorable snapshot capture: the cell tuple for a process
        #: row, the structural :func:`_net_capture` tuple for the
        #: network row
        self.capture: Optional[Any] = None
        #: total cell bytes, summed once per capture so cache hits
        #: don't re-walk the cell tuple
        self.nbytes: int = 0
        #: strict / canonical fingerprint leaf: the Merkle digest of
        #: the cells (codec) or the canonical dump of ``__getstate__`` /
        #: ``fp_state()`` (deepcopy oracle)
        self.fp: Optional[bytes] = None
        self.fp_canon: Optional[bytes] = None


#: cache key for the network's component row (process rows key on pid)
_NET = "\x00network"

def _fp_hasher():
    return hashlib.blake2b(digest_size=16)


#: eviction caps for the identity-keyed fingerprint memos.  Entries pin
#: their key objects alive (that is what keeps the ``id`` keys valid),
#: and messages are re-minted on every post-restore re-execution — so an
#: unbounded memo grows with *total events executed*, not with live
#: state.  On overflow the memo is simply cleared: both are pure caches,
#: so the only cost is re-encoding a few live entries on the next pass.
_PAYLOAD_MEMO_CAP = 4096
_NET_FRAG_CAP = 8192


class Simulation:
    """A running instance of the system."""

    #: one of :data:`SNAPSHOT_MODES`; class attribute, overridable per
    #: instance.  "codec" is the production path.
    snapshot_mode = "codec"

    def __init__(self, processes: Sequence[Process]):
        self.processes: Dict[ProcessId, Process] = {}
        for p in processes:
            if p.pid in self.processes:
                raise ValueError(f"duplicate pid {p.pid}")
            self.processes[p.pid] = p
        self.network = Network(self.processes.keys())
        self.trace = Trace()
        self.log: List[Command] = []
        self._msg_counter = 0
        self.event_count = 0
        self.counters = SimCounters()
        # per-component dirty-tracked capture rows (snapshot cells +
        # fingerprint leaves), keyed by pid / _NET; see _CompRow.  Rows
        # hold the component strongly, so object ids cannot be recycled
        # into false hits.
        self._comp_rows: Dict[str, _CompRow] = {}
        # schema-codec component ledgers, keyed by pid.  A ledger
        # persists across version bumps — that persistence is what
        # makes re-encoding O(changed fields) — and is value-verified on
        # every capture, so it survives restores and even wholesale
        # component replacement.
        self._codec_ledgers: Dict[str, ComponentLedger] = {}
        # canonical-fingerprint payload memo: messages are
        # immutable once sent (RL404), so each payload's canonical form
        # is computed once per simulation instead of once per
        # fingerprint.  Entries hold the message strongly (ids stay
        # valid); keyed by id because payloads are arbitrary unhashable
        # values.  Bounded by _PAYLOAD_MEMO_CAP (cleared on overflow).
        self._payload_canon: Dict[int, Tuple[Message, Any]] = {}
        # sorted pid order + index map, rebuilt only if the process set
        # ever changes size (pids are fixed at construction; restores
        # replace values, never keys).  Used by every fingerprint.
        self._pid_cache: Optional[
            Tuple[Tuple[ProcessId, ...], Dict[ProcessId, int]]
        ] = None
        # the most recent network capture (any branch) — seeds the
        # per-container tuple reuse inside :func:`_net_capture`
        self._net_prev = None
        # per-container structural-payload fragments, keyed by capture
        # sub-tuple identity (the guard value keeps the tuple alive);
        # bounded by _NET_FRAG_CAP (cleared on overflow)
        self._net_frag: Dict[int, Tuple[Any, bytes]] = {}

    # -- configuration management -----------------------------------------

    def _pid_order(self) -> Tuple[Tuple[ProcessId, ...], Dict[ProcessId, int]]:
        """``(sorted pids, pid → sorted index)``, cached."""
        cached = self._pid_cache
        if cached is None or len(cached[0]) != len(self.processes):
            order = tuple(sorted(self.processes))
            cached = (order, {pid: i for i, pid in enumerate(order)})
            self._pid_cache = cached
        return cached

    def _row(self, key: str, obj: Any) -> _CompRow:
        """The component's cache row, invalidated on identity/version drift."""
        version = getattr(obj, "_version", 0)
        row = self._comp_rows.get(key)
        if row is None or row.obj is not obj or row.version != version:
            row = _CompRow(obj, version)
            self._comp_rows[key] = row
        return row

    def _net_snapshot_state(self):
        """The network's structural capture, built at most once per version.

        Contributes zero to the byte ledger: :func:`_net_capture` holds
        the (immutable) messages by reference and serializes nothing.
        """
        row = self._row(_NET, self.network)
        state = row.capture
        if state is None:
            state = row.capture = _net_capture(self.network, self._net_prev)
            self._net_prev = state
            self.counters.cache_misses += 1
            self.counters.components_serialized += 1
        else:
            self.counters.cache_hits += 1
        return state

    def _codec_capture(
        self, pid: ProcessId, proc: Process, row: Optional[_CompRow] = None
    ) -> Tuple[bytes, ...]:
        """The component's codec capture: its cell tuple.

        Cached in the component's row; on a cache miss the ledger
        re-encodes only the cells whose fresh encoding differs from the
        cached bytes.  ``row``, when supplied, must be the component's
        current row (saves the lookup on paths that already fetched it).

        A component the codec cannot encode — a class whose schema does
        not cover its state, or a field holding a value the wire format
        cannot round-trip — raises :class:`CodecError` naming the pid,
        the class and the field.  There is no fallback: every snapshot
        and fingerprint goes through the schema, so a gap in it is a bug
        to fix (lint rule RL504 finds undeclared fields statically).
        """
        if row is None:
            row = self._row(pid, proc)
        cached = row.capture
        if cached is not None:
            self.counters.cache_hits += 1
            self.counters.bytes_reused += row.nbytes
            return cached
        try:
            ledger = self._codec_ledgers.get(pid)
            if ledger is None or ledger.cls is not type(proc):
                ledger = self._codec_ledgers[pid] = ComponentLedger(proc)
            cells = ledger.capture(proc, self.counters)
        except CodecError as exc:
            raise CodecError(f"cannot snapshot process {pid!r}: {exc}") from exc
        self.counters.cache_misses += 1
        self.counters.components_serialized += 1
        row.capture = cells
        row.nbytes = sum(len(c) for c in cells)
        return cells

    def snapshot(self):
        """Capture the current configuration.

        The snapshot is one cell tuple per process plus one zero-copy
        structural capture of the network, each served from the
        per-component dirty cache: after one event, only the touched
        components are captured (and inside them only the touched
        cells), every clean capture is shared by reference with the
        previous snapshot.  ``"deepcopy"`` deep copies the live objects.
        """
        self.counters.snapshots += 1
        if self.snapshot_mode == "deepcopy":
            return DeepCopyConfiguration(
                processes=copy.deepcopy(self.processes),
                network=copy.deepcopy(self.network),
                msg_counter=self._msg_counter,
                event_count=self.event_count,
            )
        entries = []
        ledgers = self._codec_ledgers
        rows = self._comp_rows
        counters = self.counters
        for pid, proc in self.processes.items():
            # inline row-hit fast path (the overwhelmingly common case:
            # one event dirties one component)
            row = rows.get(pid)
            if (
                row is not None
                and row.obj is proc
                and row.version == proc._version
                and row.capture is not None
            ):
                counters.cache_hits += 1
                counters.bytes_reused += row.nbytes
                cells = row.capture
            else:
                cells = self._codec_capture(pid, proc)
            entries.append((pid, ledgers[pid].clsref, cells))
        return Configuration(
            procs=tuple(entries),
            net_state=self._net_snapshot_state(),
            msg_counter=self._msg_counter,
            event_count=self.event_count,
        )

    def restore(self, config) -> None:
        """Return to a previously captured configuration.

        A configuration may be restored any number of times; restoring
        never aliases live state (the :class:`Configuration` ownership
        rule).  Codec snapshots get this for free — restored components
        are decoded fresh from immutable cells — so no defensive copy is
        made, and they restore as a **delta apply** (see
        :meth:`_restore_codec`).  Deep-copy snapshots must still fork
        once to stay private.

        The trace and the command log are observational and are *not*
        rewound; use their ``mark``/cursor mechanisms to slice branches.
        """
        self.counters.restores += 1
        if isinstance(config, Configuration):
            self._restore_codec(config)
        else:
            forked = config.fork()
            self.processes = forked.processes
            self.network = forked.network
            self._comp_rows = {}
            self._net_prev = None
        self._msg_counter = config.msg_counter
        self.event_count = config.event_count

    def _restore_codec(self, config: Configuration) -> None:
        """Apply a codec snapshot as a *field-level* delta.

        Three tiers per component, cheapest first:

        1. The live component's cached capture *is* the snapshot's cell
           tuple (identity): keep it untouched.
        2. The live component's row is current (same object, same dirty
           version) and its ledger matches: compare the snapshot's
           cells against the live capture's cells and decode **only the
           differing fields in place**.  Sound because equal canonical
           bytes imply equal values (injectivity), snapshots hold only
           immutable bytes (nothing aliases the mutated process), and
           in the engine's one-snapshot-per-node DFS the live rows are
           exactly the child state the search is backing out of.
        3. Otherwise materialize the component fresh from its cells
           (rebuilding the ledger if the component shipped from another
           process).
        """
        counters = self.counters
        rows = self._comp_rows
        ledgers = self._codec_ledgers
        new_procs: Dict[ProcessId, Process] = {}
        changed = 0
        for pid, clsref, cells in config.procs:
            live = self.processes.get(pid)
            row = rows.get(pid)
            row_current = (
                row is not None
                and live is not None
                and row.obj is live
                and row.version == getattr(live, "_version", 0)
            )
            if row_current and row.capture is cells:
                counters.components_reused += 1
                new_procs[pid] = live
                continue
            ledger = ledgers.get(pid)
            if (
                row_current
                and row.capture is not None
                and ledger is not None
                and ledger.cls is type(live)
            ):
                # field-level in-place delta against the live capture
                live_cells = row.capture
                schema = ledger.schema
                decoded = 0
                for i, cell in enumerate(cells):
                    have = live_cells[i]
                    if cell is have or cell == have:
                        continue
                    name = schema[i].name
                    setattr(
                        live,
                        name,
                        ledger.decode_field_delta(
                            i, cell, getattr(live, name), counters
                        ),
                    )
                    decoded += 1
                if decoded:
                    live.mark_dirty()
                    counters.components_restored += 1
                    changed += 1
                else:
                    counters.components_reused += 1
                row = _CompRow(live, getattr(live, "_version", 0))
                row.capture = cells
                row.nbytes = sum(len(c) for c in cells)
                rows[pid] = row
                new_procs[pid] = live
                continue
            # full materialization
            changed += 1
            counters.components_restored += 1
            if ledger is None or ledger.clsref != clsref:
                ledger = ledger_from_cells(clsref, pid, cells)
                ledgers[pid] = ledger
            proc = ledger.decode_component(cells)
            counters.bytes_restored += sum(
                len(cells[i])
                for i, f in enumerate(ledger.schema)
                if f.kind != "const"
            )
            row = _CompRow(proc, 0)
            row.capture = cells
            row.nbytes = sum(len(c) for c in cells)
            rows[pid] = row
            new_procs[pid] = proc
        net = self.network
        row = rows.get(_NET)
        if (
            row is not None
            and row.obj is net
            and row.version == getattr(net, "_version", 0)
            and row.capture is config.net_state
        ):
            counters.components_reused += 1
        else:
            net = _net_build(config.net_state)
            row = _CompRow(net, 0)
            row.capture = config.net_state
            rows[_NET] = row
            counters.components_restored += 1
            self.network = net
            changed += 1
        # the snapshot's capture describes the network's exact state now,
        # so it is the right (same-lineage) seed for the next capture's
        # per-container reuse scan
        self._net_prev = config.net_state
        if changed == 0:
            counters.restore_reuses += 1
        if changed or len(new_procs) != len(self.processes):
            self.processes = new_procs

    def _structural_payload_strict(self) -> bytes:
        """The network's message placement as canonical bytes (strict).

        Built from the network's structural capture so the per-link and
        per-buffer fragments can be memoized by tuple identity — the
        capture delta (:func:`_net_capture`) reuses the sub-tuple of
        every untouched container, so one event re-encodes one or two
        fragments.  Each fragment is a self-delimiting varint run
        (``src dst n msg_id…`` for links, ``pid n msg_id…`` for income
        buffers); the payload is the two fragment lists sorted by bytes,
        each with a count prefix.  That framing is uniquely decodable,
        so two configurations produce the same payload **iff** their
        placements are equal — the same partition the pickled-tuple
        payload induced.  The link indices are load-bearing: a
        position-only encoding would collide states where the same
        ``msg_id`` sits on *different* links.
        """
        net = self.network
        idx = self._pid_order()[1]
        # the capture is cached on the net row by _net_snapshot_state;
        # build it here (uncounted) if a fingerprint runs first
        row = self._row(_NET, net)
        state = row.capture
        if state is None:
            state = row.capture = _net_capture(net, self._net_prev)
            self._net_prev = state
        frag = self._net_frag
        if len(frag) >= _NET_FRAG_CAP:
            frag.clear()
        tfrags: List[bytes] = []
        for ent in state[1]:
            e = frag.get(id(ent))
            if e is not None and e[0] is ent:
                tfrags.append(e[1])
                continue
            (s, d), q = ent
            out = bytearray()
            push = out.append
            a = idx[s]
            b = idx[d]
            push(a) if a < 0x80 else _uv(out, a)
            push(b) if b < 0x80 else _uv(out, b)
            n = len(q)
            push(n) if n < 0x80 else _uv(out, n)
            for m in q:
                mid = m.msg_id
                push(mid) if mid < 0x80 else _uv(out, mid)
            eb = bytes(out)
            # repro-lint: disable=RL103 — fragment memo; the entry pins
            # ent so the id stays valid, hits are guarded with `is`,
            # and the fragments are sorted by content below
            frag[id(ent)] = (ent, eb)
            tfrags.append(eb)
        ifrags: List[bytes] = []
        for ent in state[3]:
            e = frag.get(id(ent))
            if e is not None and e[0] is ent:
                ifrags.append(e[1])
                continue
            pid, msgs = ent
            out = bytearray()
            push = out.append
            a = idx[pid]
            push(a) if a < 0x80 else _uv(out, a)
            n = len(msgs)
            push(n) if n < 0x80 else _uv(out, n)
            for m in msgs:
                mid = m.msg_id
                push(mid) if mid < 0x80 else _uv(out, mid)
            eb = bytes(out)
            # repro-lint: disable=RL103 — same identity-guarded memo as
            # the transit fragments above
            frag[id(ent)] = (ent, eb)
            ifrags.append(eb)
        tfrags.sort()
        ifrags.sort()
        pre1 = bytearray()
        _uv(pre1, len(tfrags))
        pre2 = bytearray()
        _uv(pre2, len(ifrags))
        return bytes(pre1) + b"".join(tfrags) + bytes(pre2) + b"".join(ifrags)

    def _canon_payload(self, m: Message):
        """A message's canonized payload, memoized for the simulation.

        Messages are immutable once sent (the model's "links do not
        modify messages", lint rule RL404), so the canonical form never
        changes; entries hold the message strongly so the id key stays
        valid.  Used by the canonical fingerprint, which would otherwise
        re-canonize every in-flight payload on every fingerprint.
        """
        memo = self._payload_canon
        entry = memo.get(id(m))
        if entry is None or entry[0] is not m:
            if len(memo) >= _PAYLOAD_MEMO_CAP:
                memo.clear()
            entry = (m, _canonize(m.payload, {}))
            # repro-lint: disable=RL103 — identity-guarded memo; the
            # entry pins m, hits check `entry[0] is m`, keys unordered
            memo[id(m)] = entry
        return entry[1]

    def _structural_trace_canonical(self):
        """Message placement *and contents* up to commutation (POR).

        Blind to global ``msg_id``s: in-transit messages are identified
        by their per-link ``link_seq`` (queue order on one link is always
        send order, so the tuple is canonical), and income batches are
        the *sorted set* of ``(src, link_seq)`` entries — sound because
        :meth:`Network.drain_income` presents every batch in that
        canonical order, making a step's behaviour a function of the
        batch set.  Two configurations reached by commuting independent
        events (different-process steps mint different ``msg_id``s;
        same-process deliveries permute a batch) therefore collide here,
        which is what lets the engine keep one representative per
        Mazurkiewicz trace.  Empty queues and buffers are dropped: a
        link that emptied is the same as one never used.

        Unlike the strict placement this one must carry each message's
        **payload**: without the globally-sequenced ``msg_id`` (whose
        numbering encodes the whole minting order), ``(src, link_seq)``
        alone no longer determines what the message says — two branches
        can produce the same skeleton with different replies in flight.
        """
        net = self.network
        idx = self._pid_order()[1]
        canon = self._canon_payload
        return (
            tuple(
                sorted(
                    (
                        (idx[src], idx[dst]),
                        tuple((m.link_seq, canon(m)) for m in q),
                    )
                    for (src, dst), q in net.in_transit.items()
                    if q
                )
            ),
            tuple(
                sorted(
                    (
                        idx[pid],
                        tuple(
                            sorted(
                                (idx[m.src], m.link_seq, canon(m))
                                for m in msgs
                            )
                        ),
                    )
                    for pid, msgs in net.income.items()
                    if msgs
                )
            ),
        )

    @staticmethod
    def _dumps_canonical(obj: Any) -> bytes:
        """Pickle ``obj`` by *value*, blind to identity and set order.

        Fingerprint serializations must be a pure function of the state's
        values.  A normal pickle is not, on two counts:

        * **Object identity.**  The pickle memo distinguishes a state
          holding two references to one ``'X0'`` string from a state
          holding two equal copies — and *which* of those a live
          simulation holds depends on how it got there
          (``copy.deepcopy`` returns immutables by identity, so a
          restored branch keeps referencing the very same interned
          strings as objects created afterwards, while ``pickle.loads``
          materializes fresh copies).  Pickle's *fast mode* disables the
          memo — repeated references are re-serialized inline.  (Fast
          mode cannot handle cyclic state; protocol state here is plain
          acyclic data.)
        * **Set iteration order.**  Sets serialize in hash-table order,
          which depends on the interpreter's hash seed *and* on the
          set's construction history — a set rebuilt by ``loads`` can
          iterate differently from the equal set it was dumped from.
          :func:`_canonize` rewrites sets and frozensets into sorted
          form.  (Dicts are insertion-ordered and pickle preserves that
          order, so they are already deterministic.)

        The canonical rewrite is a light Python walk; the byte emission
        stays on the C pickler.  (The C pickler alone cannot do this: it
        fast-paths exact builtin containers before consulting
        ``reducer_override``, so set order cannot be intercepted there,
        and fast mode cannot handle cyclic state — protocol state here
        is plain acyclic data.)
        """
        return _fast_dumps(_canonize(obj, {}))

    def _proc_fp_dumps(self, canonical: bool = False) -> List[Tuple[ProcessId, bytes]]:
        """Canonical per-process state dumps (the deep-copy oracle's
        fingerprint).

        Each process's state is serialized with :meth:`_dumps_canonical`,
        independently of the codec: it walks ``__getstate__`` itself, so
        a schema or cell bug in the production path cannot hide in both
        fingerprints at once.  ``canonical=True`` serializes
        :meth:`Process.fp_state` instead of the raw snapshot state, so
        data the process never branches on (a client's event-counter
        stamps) is masked out of the trace-canonical fingerprint.

        Dumps live in the per-component cache rows (see
        :class:`_CompRow`), keyed on (object identity, dirty counter):
        every process mutation goes through ``step``/``invoke`` (which
        bump the counter), so a fingerprint after one event
        re-serializes at most the one process the event touched.
        """
        attr = "fp_canon" if canonical else "fp"
        out: List[Tuple[ProcessId, bytes]] = []
        for pid in self._pid_order()[0]:
            proc = self.processes[pid]
            row = self._row(pid, proc)
            dump = getattr(row, attr)
            if dump is not None:
                self.counters.cache_hits += 1
            else:
                state = proc.fp_state() if canonical else proc.__getstate__()
                dump = self._dumps_canonical(state)
                setattr(row, attr, dump)
                self.counters.cache_misses += 1
            out.append((pid, dump))
        return out

    def _codec_fp_digests(
        self, canonical: bool = False
    ) -> List[Tuple[ProcessId, bytes]]:
        """Per-process Merkle digests (the production fingerprint).

        The strict digest combines the component's field cells
        (:func:`repro.sim.codec.cells_digest`); the canonical variant
        swaps in the masked cells for fields declaring a ``canon``
        transform and reuses the strict cells for everything else — so
        a fingerprint after one event re-hashes only the cells the
        event touched, and the hashing itself is C-speed over already
        encoded buffers.  Digests live in the same dirty-keyed rows as
        the cell captures.
        """
        counters = self.counters
        out: List[Tuple[ProcessId, bytes]] = []
        rows = self._comp_rows
        procs = self.processes
        for pid in self._pid_order()[0]:
            proc = procs[pid]
            # inline _row(): the row is current for every untouched
            # component, and fingerprints run twice per state
            row = rows.get(pid)
            if row is None or row.obj is not proc or row.version != proc._version:
                row = _CompRow(proc, proc._version)
                rows[pid] = row
            digest = row.fp_canon if canonical else row.fp
            if digest is not None:
                counters.cache_hits += 1
                out.append((pid, digest))
                continue
            cells = self._codec_capture(pid, proc, row)
            if canonical:
                ledger = self._codec_ledgers[pid]
                cells = ledger.canon_capture(proc, cells, counters)
            digest = cells_digest(cells, _fp_hasher)
            if canonical:
                row.fp_canon = digest
            else:
                row.fp = digest
            counters.cache_misses += 1
            out.append((pid, digest))
        return out

    def fingerprint(self, canonical: bool = False) -> bytes:
        """A content hash of the current configuration, for revisit pruning.

        Covers every process's state plus the structural placement of
        in-transit and income messages; deliberately *excludes* the event
        and message counters (and the dirty counters), so configurations
        reached by different interleavings of the same events collide.
        The per-process leaves are value-canonical encodings (codec
        cells, or the oracle's canonical dumps), so the hash is a pure
        function of the state's values.

        ``canonical=True`` hashes the *trace-canonical* placement instead
        (:meth:`_structural_trace_canonical`): blind to global ``msg_id``
        numbering and to intra-batch income order, so configurations that
        differ only by a permutation of independent events collide.  The
        exploration engine uses it for partial-order reduction; the
        default (strict) placement stays byte-compatible with the
        pre-engine baselines.
        """
        self.counters.fingerprints += 1
        if self.snapshot_mode == "deepcopy":
            dumps = self._proc_fp_dumps(canonical)
        else:
            # Merkle path: per-process digests straight from the cell
            # captures — the persistent ledgers are the cache, and
            # restores keep them primed by construction
            dumps = self._codec_fp_digests(canonical)
        # the structural payload is a pure function of the network state,
        # so it caches in the network's dirty-keyed row (fp/fp_canon are
        # unused on the _NET row otherwise)
        netrow = self._row(_NET, self.network)
        pattr = "fp_canon" if canonical else "fp"
        payload = getattr(netrow, pattr)
        if payload is None:
            if canonical:
                # the canonical structure embeds message payloads
                # (arbitrary values), so it needs the
                # identity-independent serializer
                payload = _fast_dumps(self._structural_trace_canonical())
            else:
                payload = self._structural_payload_strict()
            setattr(netrow, pattr, payload)
        h = hashlib.blake2b(digest_size=16)
        for _pid, dump in dumps:
            # length-framed: process order is fixed (sorted pids), the
            # frame keeps dump boundaries unambiguous
            h.update(len(dump).to_bytes(8, "little"))
            h.update(dump)
        h.update(payload)
        return h.digest()

    # -- events -------------------------------------------------------------

    def step(self, pid: ProcessId) -> StepEvent:
        """Apply a computation step of ``pid``."""
        proc = self.processes[pid]
        inbox = self.network.drain_income(pid)
        neighbors = [q for q in self.processes if q != pid]
        self.event_count += 1
        ctx = StepContext(pid, neighbors, self.event_count)
        proc.on_step(ctx, inbox)
        proc.mark_dirty()
        # the network is NOT marked dirty here: its own mutators (post,
        # deliver, drain_income) bump its version, and messages are
        # immutable once sent (the model's "links do not modify
        # messages", enforced by the RL4xx lint rules) — so a step that
        # neither received nor sent leaves the network's serialization
        # valid, and a delta restore after it touches one process only
        sent: List[Message] = []
        for dst, payload in ctx.sends:
            msg = Message(
                msg_id=self._msg_counter,
                src=pid,
                dst=dst,
                link_seq=self.network.next_link_seq(pid, dst),
                payload=payload,
            )
            self._msg_counter += 1
            self.network.post(msg)
            sent.append(msg)
        event = StepEvent(
            index=len(self.trace), pid=pid, received=tuple(inbox), sent=tuple(sent)
        )
        self.trace.append(event)
        self.log.append(StepCmd(pid))
        return event

    def deliver(
        self, src: ProcessId, dst: ProcessId, link_seq: Optional[int] = None
    ) -> Message:
        """Apply a delivery event; default: oldest in-transit on the link."""
        if link_seq is None:
            q = self.network.in_transit.get((src, dst))
            if not q:
                raise ReplayError(f"no in-transit message on link {src}->{dst}")
            link_seq = q[0].link_seq
        try:
            msg = self.network.deliver(src, dst, link_seq)
        except KeyError as exc:
            raise ReplayError(str(exc)) from exc
        self.event_count += 1
        self.trace.append(DeliverEvent(index=len(self.trace), message=msg))
        self.log.append(DeliverCmd(src, dst, link_seq))
        return msg

    def deliver_msg(self, msg: Message) -> Message:
        return self.deliver(msg.src, msg.dst, msg.link_seq)

    def invoke(self, pid: ProcessId, txn: Any) -> None:
        """Hand a transaction invocation to client ``pid``."""
        proc = self.processes[pid]
        on_invoke = getattr(proc, "on_invoke", None)
        if on_invoke is None:
            raise TypeError(f"{pid} does not accept invocations")
        on_invoke(txn)
        proc.mark_dirty()
        self.trace.append(InvokeEvent(index=len(self.trace), pid=pid, txn=txn))
        self.log.append(InvokeCmd(pid, txn))

    # -- replay ---------------------------------------------------------------

    def apply(self, cmd: Command) -> None:
        if isinstance(cmd, StepCmd):
            self.step(cmd.pid)
        elif isinstance(cmd, DeliverCmd):
            self.deliver(cmd.src, cmd.dst, cmd.link_seq)
        elif isinstance(cmd, InvokeCmd):
            self.invoke(cmd.pid, cmd.txn)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown command {cmd!r}")

    def replay(self, commands: Iterable[Command], strict: bool = True) -> List[Command]:
        """Apply a recorded (possibly filtered) command list.

        With ``strict`` (the default) a delivery of a message that does not
        exist raises :class:`ReplayError`.  With ``strict=False`` such
        deliveries are skipped and the list of skipped commands returned —
        used by diagnostics, never by the proof engine.
        """
        skipped: List[Command] = []
        for cmd in commands:
            try:
                self.apply(cmd)
            except ReplayError:
                if strict:
                    raise
                skipped.append(cmd)
        return skipped

    # -- queries ---------------------------------------------------------------

    def pids(self) -> Tuple[ProcessId, ...]:
        return tuple(self.processes)

    def quiescent(self, pids: Optional[Iterable[ProcessId]] = None) -> bool:
        """No in-transit or undelivered messages; no (selected) process busy."""
        if not self.network.idle():
            return False
        group = self.processes.values() if pids is None else (
            self.processes[p] for p in pids
        )
        return not any(p.wants_step() for p in group)

    def log_mark(self) -> int:
        return len(self.log)

    def log_since(self, mark: int) -> List[Command]:
        return self.log[mark:]
