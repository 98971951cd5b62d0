"""Schema-aware state codecs for the snapshot/fingerprint stack.

The delta snapshots of :mod:`repro.sim.executor` made snapshot *traffic*
proportional to the number of dirty components, but each dirty component
still paid O(process): one full ``pickle.dumps`` for the restorable
sub-blob plus two full ``_canonize`` walks for the strict and canonical
fingerprint dumps.  This module replaces all three with **one**
schema-driven walk that scales with the *delta inside* the component:

* Every :class:`~repro.sim.process.Process` subclass declares a
  ``codec_schema`` — a tuple of :class:`CodecField` entries naming its
  state fields and their kinds (``const`` / ``value`` / ``map`` /
  ``seq``).  Schemas are collected over the MRO, so a subclass declares
  only the fields it adds.
* :class:`ComponentLedger` keeps, per live component, the last encoded
  **cell** (canonical bytes) per field — and for ``map``/``seq``
  fields, per key/element.  Change detection is encode-and-compare:
  each capture re-encodes the dirty component's fields and
  byte-compares against the cached cells (byte equality of canonical
  encodings *is* value equality, so stale reuse is impossible by
  construction); only differing cells are published as fresh bytes,
  everything else keeps its identity and is shared by reference.
* Cell bytes double as fingerprint leaves: the component digest is a
  Merkle-style combine (:func:`cells_digest`) over the field cells, so
  the fingerprint after one event re-hashes only the touched subtrees.
  The canonical (trace-blind) variant swaps in transformed cells for
  the fields that declare a ``canon`` mask and reuses the strict cells
  for every other field.

The wire format (:class:`_Encoder` / :class:`_Decoder`) is a canonical,
injective, identity-blind tagged binary encoding: type-tagged atoms
(ints as zigzag LEB128 varints, floats by their IEEE bit pattern, bools
distinct from ints), insertion-ordered dicts, sets serialized in sorted
encoded-bytes order, and arbitrary objects as ``(module, qualname,
state-dict)``.  Two values encode to the same bytes **iff** they are
equal under exactly the relation the executor's ``_canonize`` +
fast-mode pickle partition has always used — which is what keeps the
engine-level state counts bit-identical across snapshot modes.  Strings
intern against a deterministic static table (the repo's stable
vocabulary plus each schema's declared/const-derived strings) and
non-static strings are emitted raw, so every fragment of a cell is a
pure function of (value, statics) — safe to compare, cache, share, and
ship to workers byte-for-byte — while hot strings cost two bytes.
Deeply-immutable :class:`~repro.txn.types.Transaction` objects encode as
length-framed fragments memoized by identity on the encode side and by
fragment bytes on the decode side, so the transactions threaded through
every client field cost one dict probe per capture/restore.

A component whose class declares no schema, whose schema does not cover
its ``__getstate__`` keys, or whose state contains a value the codec
cannot round-trip raises :class:`CodecError` naming the class and the
field; the executor adds the pid and lets it propagate.  There is no
fallback path: the codec is the only production snapshot, so schema
coverage is a correctness requirement.  Lint rule RL504 flags the
missing/incomplete declarations statically.
"""

from __future__ import annotations

import importlib
import struct
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.txn.types import BOTTOM, Transaction

__all__ = [
    "CodecError",
    "CodecField",
    "ComponentLedger",
    "const",
    "value",
    "mapf",
    "seq",
    "collect_schema",
    "collect_statics",
    "encode_cell",
    "decode_cell",
    "ledger_from_cells",
    "cells_digest",
    "codec_equal",
]


class CodecError(Exception):
    """The codec cannot faithfully encode this component."""


# -- schema declarations -----------------------------------------------------

#: field kinds.  ``const`` fields never change after ``__init__`` (encoded
#: once, shared by reference forever, their strings seed the intern
#: table); ``value`` fields re-encode as a whole when changed; ``map``
#: fields are dicts with per-key sub-cells; ``seq`` fields are lists
#: with per-element sub-cells (append-mostly lists re-encode the tail,
#: not the history).
CONST, VALUE, MAP, SEQ = "const", "value", "map", "seq"


@dataclass(frozen=True)
class CodecField:
    """One declared state field of a dirty-tracked component."""

    name: str
    kind: str
    #: optional value mask for the *canonical* fingerprint variant —
    #: the codec analogue of overriding ``fp_state()``.  For ``value``
    #: fields it receives the field value; for ``seq`` fields, each
    #: element.  It must be pure and deterministic.
    canon: Optional[Callable[[Any], Any]] = None


def const(name: str) -> CodecField:
    return CodecField(name, CONST)


def value(name: str, canon: Optional[Callable[[Any], Any]] = None) -> CodecField:
    return CodecField(name, VALUE, canon)


def mapf(name: str) -> CodecField:
    return CodecField(name, MAP)


def seq(name: str, canon: Optional[Callable[[Any], Any]] = None) -> CodecField:
    return CodecField(name, SEQ, canon)


def collect_schema(cls: type) -> Optional[Tuple[CodecField, ...]]:
    """The full schema of ``cls``: MRO-collected ``codec_schema`` entries.

    Base-class declarations come first; a subclass redeclaring a field
    name overrides the base entry (e.g. to change its kind or mask).
    Returns ``None`` when no class in the MRO declares a schema.
    """
    fields: List[CodecField] = []
    found = False
    for klass in reversed(cls.__mro__):
        entries = klass.__dict__.get("codec_schema")
        if entries is None:
            continue
        found = True
        for f in entries:
            fields = [g for g in fields if g.name != f.name]
            fields.append(f)
    return tuple(fields) if found else None


def collect_statics(cls: type) -> Tuple[str, ...]:
    """MRO-collected ``codec_statics`` strings, order-deterministic."""
    out: List[str] = []
    seen = set()
    for klass in reversed(cls.__mro__):
        for s in klass.__dict__.get("codec_statics", ()):
            if s not in seen:
                seen.add(s)
                out.append(s)
    return tuple(out)


#: the repo's stable state vocabulary, baked in so every encoder and
#: decoder — including a forked or spawned worker — derives the same
#: intern table with no registration order to skew.  Entries are module
#: names, class qualnames, and dataclass field names that occur in
#: protocol state.  Extending it is a compatible change (cells are
#: always decoded by the same build that encoded them; snapshots never
#: persist across program versions).
COMMON_STATICS: Tuple[str, ...] = (
    # modules whose classes appear nested in process state
    "repro.protocols.base",
    "repro.protocols.calvin",
    "repro.protocols.cops_geo",
    "repro.protocols.cops_snow",
    "repro.protocols.occult",
    "repro.protocols.snapshot",
    "repro.protocols.spanner",
    "repro.sim.clock",
    "repro.sim.messages",
    "repro.txn.client",
    "repro.txn.types",
    # class qualnames
    "Version",
    "ValueEntry",
    "ReadRequest",
    "ReadReply",
    "WriteRequest",
    "WriteReply",
    "ServerMsg",
    "Message",
    "Transaction",
    "TxnRecord",
    "ActiveTxn",
    "Operation",
    "LamportClock",
    "VectorClock",
    "HybridLogicalClock",
    "HLCTimestamp",
    "TTInterval",
    "TrueTimeOracle",
    "PendingReplica",
    "PendingWrite",
    # dataclass / state field names
    "obj",
    "value",
    "ts",
    "txid",
    "deps",
    "meta",
    "visible",
    "invisible_to",
    "kind",
    "reads",
    "writes",
    "txn",
    "name",
    "ops",
    "round",
    "awaiting",
    "state",
    "invoked_at",
    "completed_at",
    "status",
    "msg_id",
    "src",
    "dst",
    "link_seq",
    "payload",
    "owner",
    "clock",
    "time",
    "node",
    "physical",
    "logical",
    "earliest",
    "latest",
    "epsilon",
    "version",
    "waiting",
    "client",
    "old_readers",
)


# -- the wire format ---------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05      # inline utf-8, assigns the next intern id
_T_SREF = 0x06     # back-reference into the intern table
_T_BYTES = 0x07
_T_TUPLE = 0x08
_T_LIST = 0x09
_T_DICT = 0x0A
_T_SET = 0x0B
_T_FSET = 0x0C
_T_DEQUE = 0x0D
_T_OBJ = 0x0E      # (module, qualname, state dict)
_T_BOTTOM = 0x0F   # the ⊥ singleton (repro.txn.types.BOTTOM)
_T_OBJL = 0x10     # length-framed _T_OBJ fragment (memoizable object)

_pack_float = struct.Struct(">d").pack
_unpack_float = struct.Struct(">d").unpack_from


def _varint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _zigzag(n: int) -> int:
    return (n << 1) if n >= 0 else ((-n << 1) - 1)


def _read_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Read one varint at ``pos``; returns ``(value, next_pos)``."""
    b = buf[pos]
    if b < 0x80:
        return b, pos + 1
    out = b & 0x7F
    shift = 7
    pos += 1
    while True:
        b = buf[pos]
        pos += 1
        out |= (b & 0x7F) << shift
        if not b & 0x80:
            return out, pos
        shift += 7


_MISSING = object()


#: single-byte varints for small length prefixes (the overwhelmingly
#: common case: container sizes and intern ids < 128)
_LEN1 = tuple(bytes([i]) for i in range(128))

#: pre-built ``tag + varint(zigzag(n))`` int cells for the small-int band
#: that dominates simulation state (timestamps, counters, slot numbers)
_INT_CELLS = {n: b"\x03" + _varint(_zigzag(n)) for n in range(-32, 1024)}

#: per-intern-table cache of pre-built SREF byte strings, so encoding a
#: static string is one dict probe + one list append.  Keyed by table
#: identity; the guard tuple keeps the table alive and detects id reuse.
#: Bounded: the guard pins every table ever seen, and tables are built
#: per ledger — over many Simulations the process would otherwise pin
#: them all forever.  Overflow clears the cache (a pure cache: live
#: tables re-derive their entry on the next encode).
_SENC_CACHE: Dict[int, Tuple[Dict[str, int], Dict[str, bytes]]] = {}
_SENC_CACHE_CAP = 64


def _senc_for(statics: Dict[str, int]) -> Dict[str, bytes]:
    key = id(statics)
    hit = _SENC_CACHE.get(key)
    if hit is not None and hit[0] is statics:
        return hit[1]
    if len(_SENC_CACHE) >= _SENC_CACHE_CAP:
        _SENC_CACHE.clear()
    senc = {s: b"\x06" + _varint(i) for s, i in statics.items()}
    _SENC_CACHE[key] = (statics, senc)
    return senc


_OBJECT_GETSTATE = getattr(object, "__getstate__", None)

#: per-class cache for the generic-object path: (module, qualname,
#: has-custom-__getstate__).  Builtin subclasses are never cached (they
#: raise before insertion), so a cache hit is always encodable.
_OBJ_HEAD: Dict[type, Tuple[str, str, bool]] = {}


class _Encoder:
    """One cell's canonical byte emission.

    Strings intern only against the shared immutable ``statics`` map, so
    every encoding is a pure, context-free function of (value, statics):
    any fragment of a cell can be compared, cached, or spliced into
    another cell byte-for-byte.  That context-freeness is what makes the
    set-element sort, the per-entry map/seq sub-cells, and the frozen
    :class:`~repro.txn.types.Transaction` fragment memo all sound.
    """

    __slots__ = ("statics", "senc", "parts", "ememo", "fmemo")

    def __init__(self, statics: Dict[str, int]):
        self.statics = statics
        self.senc = _senc_for(statics)
        self.parts: List[bytes] = []
        #: set-element encoding memo, persistent across cells on the
        #: per-ledger encoder.  Only values on which Python equality IS
        #: the codec relation (:func:`_eq_is_exact`) are inserted, so a
        #: hash-equal key of another codec type (``1`` vs ``True``)
        #: can never serve the wrong bytes.
        self.ememo: Dict[Any, bytes] = {}
        #: id-keyed fragment memo for deeply-immutable ``Transaction``
        #: objects (frozen dataclass whose fields are str/tuple-of-str/
        #: tuple-of-pairs — in-place mutation is impossible, so identity
        #: implies unchanged bytes).  The guard value keeps the object
        #: alive so an id can never be reused while its entry is live.
        self.fmemo: Dict[int, Tuple[Any, bytes]] = {}

    def encode(self, v: Any) -> None:
        parts = self.parts
        t = v.__class__
        if t is str:
            e = self.senc.get(v)
            if e is not None:
                parts.append(e)
            else:
                self._encode_str(v)
            return
        if t is int:
            cell = _INT_CELLS.get(v)
            if cell is not None:
                parts.append(cell)
            else:
                parts.append(b"\x03")
                parts.append(_varint(_zigzag(v)))
            return
        if v is None:
            parts.append(b"\x00")
            return
        if t is bool:
            parts.append(b"\x01" if v else b"\x02")
        elif t is float:
            parts.append(b"\x04")
            parts.append(_pack_float(v))
        elif t is bytes:
            parts.append(b"\x07")
            parts.append(_varint(len(v)))
            parts.append(v)
        elif t is tuple:
            n = len(v)
            parts.append(b"\x08")
            parts.append(_LEN1[n] if n < 128 else _varint(n))
            for x in v:
                self.encode(x)
        elif t is list:
            n = len(v)
            parts.append(b"\x09")
            parts.append(_LEN1[n] if n < 128 else _varint(n))
            for x in v:
                self.encode(x)
        elif t is dict:
            n = len(v)
            parts.append(b"\x0a")
            parts.append(_LEN1[n] if n < 128 else _varint(n))
            for k, val in v.items():
                self.encode(k)
                self.encode(val)
        elif t is set or t is frozenset:
            n = len(v)
            parts.append(b"\x0b" if t is set else b"\x0c")
            parts.append(_LEN1[n] if n < 128 else _varint(n))
            ememo = self.ememo
            pieces = []
            for x in v:
                # only exact values may consult (or populate) the memo:
                # ``ememo.get(True)`` must not hit an entry for ``1``
                if _eq_is_exact(x):
                    e = ememo.get(x)
                    if e is None:
                        e = self._encode_detached(x)
                        ememo[x] = e
                else:
                    e = self._encode_detached(x)
                pieces.append(e)
            pieces.sort()
            parts.extend(pieces)
        elif t is deque:
            n = len(v)
            parts.append(b"\x0d")
            parts.append(_LEN1[n] if n < 128 else _varint(n))
            for x in v:
                self.encode(x)
        elif t is Transaction:
            fmemo = self.fmemo
            key = id(v)
            hit = fmemo.get(key)
            if hit is not None and hit[0] is v:
                parts.append(hit[1])
            else:
                save = self.parts
                self.parts = []
                self._encode_obj(v, t)
                body = b"".join(self.parts)
                self.parts = parts = save
                n = len(body)
                frag = b"\x10" + (_LEN1[n] if n < 128 else _varint(n)) + body
                fmemo[key] = (v, frag)
                parts.append(frag)
        elif v is BOTTOM:
            # ⊥ is a stateless singleton whose identity must survive the
            # round trip (pickle preserves it via __reduce__; the generic
            # object path cannot, and object.__getstate__ returns None
            # for it on 3.11+)
            parts.append(b"\x0f")
        else:
            self._encode_obj(v, t)

    def _encode_str(self, v: str) -> None:
        # slow path: ``v`` is not in the static table (checked by the
        # caller via the pre-built SREF cache) — emit raw utf-8
        parts = self.parts
        raw = v.encode("utf-8")
        n = len(raw)
        parts.append(b"\x05")
        parts.append(_LEN1[n] if n < 128 else _varint(n))
        parts.append(raw)

    def _encode_detached(self, v: Any) -> bytes:
        """Encode ``v`` into its own byte string (sharing the memos)."""
        save = self.parts
        self.parts = []
        self.encode(v)
        e = self.parts[0] if len(self.parts) == 1 else b"".join(self.parts)
        self.parts = save
        return e

    def _encode_obj(self, v: Any, t: type) -> None:
        head = _OBJ_HEAD.get(t)
        if head is None:
            if isinstance(
                v, (dict, list, tuple, set, frozenset, str, bytes, int, float)
            ):
                # a builtin-container subclass (defaultdict, namedtuple, …)
                # would lose its extra behaviour through the generic object
                # path — refuse rather than decode to the wrong type
                raise CodecError(
                    f"builtin subclass {t.__qualname__} not codec-encodable"
                )
            custom = (
                getattr(t, "__getstate__", None) is not _OBJECT_GETSTATE
                and _OBJECT_GETSTATE is not None
            ) or _OBJECT_GETSTATE is None
            head = (t.__module__, t.__qualname__, custom)
            _OBJ_HEAD[t] = head
        module, qualname, custom = head
        if custom:
            getstate = getattr(v, "__getstate__", None)
            if getstate is not None:
                state = getstate()
            else:  # pragma: no cover - pre-3.11 fallback
                state = getattr(v, "__dict__", None)
            if not isinstance(state, dict):
                raise CodecError(f"{t.__qualname__} state is not a plain dict")
        else:
            # plain object: object.__getstate__ would hand back (a copy
            # of) __dict__ anyway — read it directly and skip the call
            state = v.__dict__
        parts = self.parts
        senc = self.senc
        parts.append(b"\x0e")
        e = senc.get(module)
        if e is not None:
            parts.append(e)
        else:
            self._encode_str(module)
        e = senc.get(qualname)
        if e is not None:
            parts.append(e)
        else:
            self._encode_str(qualname)
        n = len(state)
        parts.append(_LEN1[n] if n < 128 else _varint(n))
        for k, val in state.items():
            e = senc.get(k)
            if e is not None:
                parts.append(e)
            else:
                self._encode_str(k)
            self.encode(val)


    def cell(self, v: Any) -> bytes:
        """Encode ``v`` as a fresh self-contained cell, reusing this
        encoder instance (the statics/senc tables and memos carry
        over — encodings are context-free, so reuse cannot change the
        bytes)."""
        self.parts = parts = []
        self.encode(v)
        if len(parts) == 1:
            return parts[0]
        return b"".join(parts)


def _encode_isolated(v: Any, statics: Dict[str, int]) -> bytes:
    return _Encoder(statics).cell(v)


def encode_cell(v: Any, statics: Dict[str, int]) -> bytes:
    """Encode one value as a self-contained canonical cell."""
    return _Encoder(statics).cell(v)


class _Decoder:
    __slots__ = ("buf", "pos", "statics", "dmemo")

    def __init__(self, buf: bytes, statics: Sequence[str]):
        self.buf = buf
        self.pos = 0
        self.statics = statics
        #: optional fragment → decoded-object memo for length-framed
        #: ``_T_OBJL`` fragments (frozen ``Transaction``s).  Shared by
        #: the owning ledger across restores: handing back the same
        #: immutable object is exactly what ``deepcopy`` does for
        #: atoms, and saves re-materializing the transaction on every
        #: restore that touches it.
        self.dmemo: Optional[Dict[bytes, Any]] = None

    def _varint(self) -> int:
        buf, pos, shift, out = self.buf, self.pos, 0, 0
        while True:
            b = buf[pos]
            pos += 1
            out |= (b & 0x7F) << shift
            if not b & 0x80:
                self.pos = pos
                return out
            shift += 7

    def decode(self) -> Any:
        buf = self.buf
        pos = self.pos
        tag = buf[pos]
        pos += 1
        # hot tags first, with the single-byte varint read inlined
        if tag == _T_SREF:
            idx = buf[pos]
            if idx < 0x80:
                self.pos = pos + 1
            else:
                self.pos = pos
                idx = self._varint()
            return self.statics[idx]
        if tag == _T_INT:
            z = buf[pos]
            if z < 0x80:
                self.pos = pos + 1
            else:
                self.pos = pos
                z = self._varint()
            return (z >> 1) if not z & 1 else -((z + 1) >> 1)
        self.pos = pos
        if tag == _T_NONE:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_STR:
            n = self._varint()
            s = buf[self.pos : self.pos + n].decode("utf-8")
            self.pos += n
            return s
        if tag == _T_FLOAT:
            v = _unpack_float(buf, self.pos)[0]
            self.pos += 8
            return v
        if tag == _T_BYTES:
            n = self._varint()
            v = buf[self.pos : self.pos + n]
            self.pos += n
            return v
        if tag == _T_TUPLE:
            return tuple(self.decode() for _ in range(self._varint()))
        if tag == _T_LIST:
            return [self.decode() for _ in range(self._varint())]
        if tag == _T_DICT:
            n = self._varint()
            out: Dict[Any, Any] = {}
            for _ in range(n):
                k = self.decode()
                out[k] = self.decode()
            return out
        if tag == _T_SET or tag == _T_FSET:
            n = self._varint()
            elems = [self.decode() for _ in range(n)]
            return frozenset(elems) if tag == _T_FSET else set(elems)
        if tag == _T_DEQUE:
            return deque(self.decode() for _ in range(self._varint()))
        if tag == _T_BOTTOM:
            return BOTTOM
        if tag == _T_OBJ:
            module = self.decode()
            qualname = self.decode()
            n = self._varint()
            state: Dict[str, Any] = {}
            for _ in range(n):
                k = self.decode()
                state[k] = self.decode()
            cls = _resolve_class(module, qualname)
            obj = object.__new__(cls)
            setstate = getattr(cls, "__setstate__", None)
            if setstate is not None and setstate is not getattr(
                object, "__setstate__", None
            ):
                obj.__setstate__(state)
            else:
                obj.__dict__.update(state)
            return obj
        if tag == _T_OBJL:
            n = self._varint()
            pos = self.pos
            end = pos + n
            self.pos = end
            frag = buf[pos:end]
            dmemo = self.dmemo
            if dmemo is not None:
                v = dmemo.get(frag)
                if v is not None:
                    return v
            sub = _Decoder(frag, self.statics)
            v = sub.decode()
            if dmemo is not None:
                dmemo[frag] = v
            return v
        raise CodecError(f"bad tag {tag:#x} at {self.pos - 1}")


_CLASS_CACHE: Dict[Tuple[str, str], type] = {}


def _resolve_class(module: str, qualname: str) -> type:
    key = (module, qualname)
    cls = _CLASS_CACHE.get(key)
    if cls is None:
        obj: Any = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        cls = _CLASS_CACHE[key] = obj
    return cls


def decode_cell(cell: bytes, statics: Sequence[str]) -> Any:
    dec = _Decoder(cell, statics)
    v = dec.decode()
    if dec.pos != len(cell):
        raise CodecError("trailing bytes in cell")
    return v


# -- value equality (the codec's partition, without byte emission) -----------

def _eq_is_exact(v: Any) -> bool:
    """Whether Python ``==`` coincides with the codec relation for ``v``.

    True only for exact ``str``/``int``/``bytes`` (``bool`` is excluded —
    ``True == 1`` but the codec distinguishes them; ``float`` is excluded
    for ``0.0 == -0.0`` and nan) and containers thereof.  Checked per
    side: a ``1`` on one side and a ``True`` on the other makes the
    ``bool`` side inexact, which forces the exact fallback.
    """
    t = v.__class__
    if t is str or t is int or t is bytes:
        return True
    if t is tuple or t is frozenset:
        return all(_eq_is_exact(x) for x in v)
    return False


def _eq_is_exact_all(vs: Any) -> bool:
    return all(_eq_is_exact(x) for x in vs)


def codec_equal(a: Any, b: Any) -> bool:
    """Exact equality under the codec's (and ``_canonize``'s) relation.

    The ledger's change detection compares encoded bytes instead (one
    walk), so this predicate is not on the capture hot path; it remains
    the reference definition of the codec's equality kernel, used by
    the round-trip tests as an oracle.  The contract is asymmetric in
    cost direction: ``True`` must be *exact* (the relation may never
    identify values whose canonical encodings differ), ``False`` for an
    actually-equal pair (nan elements) is tolerated.  User-defined
    ``__eq__`` is never consulted for objects (e.g. ``Message.__eq__``
    ignores the payload field); states compare structurally instead.
    """
    if a is b:
        return True
    ta = a.__class__
    if ta is not b.__class__:
        return False
    if ta is int or ta is str or ta is bytes:
        return a == b
    if ta is bool or a is None:
        return a == b
    if ta is float:
        return _pack_float(a) == _pack_float(b)
    if ta is tuple or ta is list:
        if len(a) != len(b):
            return False
        return all(codec_equal(x, y) for x, y in zip(a, b))
    if ta is dict:
        if len(a) != len(b):
            return False
        for (ka, va), (kb, vb) in zip(a.items(), b.items()):
            if not codec_equal(ka, kb) or not codec_equal(va, vb):
                return False
        return True
    if ta is set or ta is frozenset:
        if len(a) != len(b):
            return False
        if a != b:
            # Python equality is coarser than the codec relation, so a
            # Python-level mismatch is exact; the only lie in this
            # direction (nan elements comparing unequal to themselves)
            # is a false negative, which merely re-encodes
            return False
        if _eq_is_exact_all(a) and _eq_is_exact_all(b):
            # both sides hold only types on which Python equality IS the
            # codec relation (no bool/int, int/float, ±0.0 collapses),
            # so the == above already decided it
            return True
        # exact under the codec relation: compare sorted isolated
        # encodings (sets are small protocol state — awaiting/deps sets)
        try:
            ea = sorted(_encode_isolated(x, _EMPTY_STATICS) for x in a)
            eb = sorted(_encode_isolated(x, _EMPTY_STATICS) for x in b)
        except CodecError:
            return False
        return ea == eb
    if ta is deque:
        if len(a) != len(b):
            return False
        return all(codec_equal(x, y) for x, y in zip(a, b))
    getstate = getattr(a, "__getstate__", None)
    if getstate is None:  # pragma: no cover - pre-3.11 fallback
        sa = getattr(a, "__dict__", None)
        sb = getattr(b, "__dict__", None)
    else:
        sa = getstate()
        sb = b.__getstate__()
    if not isinstance(sa, dict) or not isinstance(sb, dict):
        return False
    return codec_equal(sa, sb)


_EMPTY_STATICS: Dict[str, int] = {}


# -- per-component ledgers ---------------------------------------------------

def _derive_statics(
    class_statics: Tuple[str, ...], const_values: Sequence[Any], pid: str
) -> Tuple[str, ...]:
    """The full static table: class vocabulary + const-derived strings.

    Both ends derive it the same way — the decoder decodes const cells
    against the class statics first, then derives the same extension.
    """
    out = list(COMMON_STATICS)
    seen = set(out)
    for s in class_statics + (pid,):
        if s not in seen:
            seen.add(s)
            out.append(s)
    stack = list(const_values)
    while stack:
        v = stack.pop()
        t = v.__class__
        if t is str:
            if v not in seen:
                seen.add(v)
                out.append(v)
        elif t is tuple or t is list or t is set or t is frozenset:
            stack.extend(sorted(v, key=repr) if t in (set, frozenset) else v)
        elif t is dict:
            stack.extend(v.keys())
            stack.extend(v.values())
    return tuple(out)


_BASE_STATICS_MAP: Dict[str, int] = {s: i for i, s in enumerate(COMMON_STATICS)}


def _class_statics_map(class_statics: Tuple[str, ...], pid: str) -> Dict[str, int]:
    out = dict(_BASE_STATICS_MAP)
    for s in class_statics + (pid,):
        if s not in out:
            out[s] = len(out)
    return out


class ComponentLedger:
    """One live component's codec state, persistent across versions.

    Holds the schema, the derived intern tables, the last encoded cell
    per field, and for map/seq fields the per-key/per-element
    sub-cells.  The executor keeps one ledger per pid; unlike the
    ``_CompRow`` cache rows (which are replaced on every version bump),
    a ledger survives mutations — that persistence is exactly what
    keeps fresh bytes O(changed fields) per event.
    """

    __slots__ = (
        "cls",
        "clsref",
        "schema",
        "statics_map",
        "statics_seq",
        "cells",
        "canon_cells",
        "consts",
        "subcells",
        "kindex",
        "dmemo",
        "_enc",
        "_dec",
        "width",
    )

    def __init__(self, proc: Any):
        cls = type(proc)
        schema = collect_schema(cls)
        state = proc.__getstate__()
        if schema is None:
            raise CodecError(
                f"{cls.__qualname__} declares no codec_schema "
                f"(undeclared fields: {sorted(state)})"
            )
        names = [f.name for f in schema]
        if len(set(names)) != len(names) or set(names) != set(state):
            missing = set(state) - set(names)
            extra = set(names) - set(state)
            raise CodecError(
                f"{cls.__qualname__} schema does not match state "
                f"(undeclared fields: {sorted(missing)}, "
                f"declared but unset: {sorted(extra)})"
            )
        pid = getattr(proc, "pid", "")
        const_vals = [state[f.name] for f in schema if f.kind == CONST]
        self._init_core(cls, schema, pid, const_vals)
        self.width = len(proc.__dict__)
        base_map = _class_statics_map(collect_statics(cls), pid)
        for i, f in enumerate(schema):
            if f.kind == CONST:
                # const cells are encoded in isolated mode against the
                # *class-level* table only: they seed the full table, so
                # they must be decodable before it exists, and their
                # bytes must stay valid under any prefix-compatible
                # superset table (no local back-references)
                self.cells[i] = _encode_isolated(state[f.name], base_map)
                self.canon_cells[i] = self.cells[i]
                self.consts[i] = state[f.name]

    def _init_core(
        self,
        cls: type,
        schema: Tuple[CodecField, ...],
        pid: str,
        const_vals: Sequence[Any],
    ) -> None:
        self.cls = cls
        self.clsref = f"{cls.__module__}:{cls.__qualname__}"
        self.schema = schema
        class_statics = collect_statics(cls)
        self.statics_seq = _derive_statics(class_statics, const_vals, pid)
        self.statics_map = {s: i for i, s in enumerate(self.statics_seq)}
        nfields = len(schema)
        self.cells: List[Optional[bytes]] = [None] * nfields
        self.canon_cells: List[Optional[bytes]] = [None] * nfields
        #: const fields hold their value by reference (sharing the
        #: construction-time configuration is the const contract)
        self.consts: List[Any] = [None] * nfields
        #: map/seq fields: field index -> {key: (kcell, vcell)} or
        #: [cell, ...] — the per-entry byte cache entries are compared
        #: against fresh encodings, never decoded
        self.subcells: Dict[int, Any] = {}
        #: map fields only: field index -> {kcell bytes: key} — the
        #: reverse index that lets the delta restore recognize an
        #:  unchanged entry without decoding its key
        self.kindex: Dict[int, Dict[bytes, Any]] = {}
        #: length-framed-fragment → decoded ``Transaction`` memo,
        #: shared by every decode this ledger performs
        self.dmemo: Dict[bytes, Any] = {}
        #: persistent encoder/decoder (statics tables set up once;
        #: encodings are context-free so reuse is sound)
        self._enc = _Encoder(self.statics_map)
        self._dec = _Decoder(b"", self.statics_seq)
        self._dec.dmemo = self.dmemo
        #: attribute count of the component this ledger mirrors
        #: (schema fields plus bookkeeping such as ``_version``), set
        #: once a live component is bound; a capture whose component
        #: grew or lost an attribute refuses instead of silently
        #: dropping the undeclared field
        self.width: Optional[int] = None

    # -- encoding ----------------------------------------------------------

    def capture(self, proc: Any, counters: Any) -> Tuple[bytes, ...]:
        """Encode the component's current state as a cell tuple.

        Change detection is *encode-and-compare*: every non-const field
        is re-encoded (one walk — the canonical bytes double as the
        change detector, since byte equality of canonical encodings IS
        value equality under the codec relation) and byte-compared
        against the cached cell.  Only differing cells (and inside
        map/seq fields, only differing keys/elements) are published as
        fresh bytes; unchanged cells keep their identity so snapshots
        share them by reference.  ``counters`` is the executor's
        :class:`SimCounters` ledger.
        """
        schema = self.schema
        cells = self.cells
        enc = self._enc
        if len(proc.__dict__) != self.width:
            names = {f.name for f in schema}
            raise CodecError(
                f"{self.cls.__qualname__} changed shape after construction "
                f"(undeclared fields: "
                f"{sorted(k for k in proc.__getstate__() if k not in names)}, "
                f"missing fields: {sorted(names - set(proc.__dict__))})"
            )
        try:
            for i, f in enumerate(schema):
                kind = f.kind
                if kind == CONST:
                    counters.cells_reused += 1
                    counters.bytes_reused += len(cells[i])  # type: ignore[arg-type]
                    continue
                live = getattr(proc, f.name)
                if kind == VALUE:
                    cell = enc.cell(live)
                    have = cells[i]
                    if have is not None and have == cell:
                        counters.cells_reused += 1
                        counters.bytes_reused += len(have)
                        continue
                    counters.cells_encoded += 1
                    counters.bytes_serialized += len(cell)
                    cells[i] = cell
                    self.canon_cells[i] = None
                elif kind == MAP:
                    self._capture_map(i, live, counters)
                else:  # SEQ
                    self._capture_seq(i, live, counters)
        except CodecError as exc:
            # name the field: a partially refreshed cell cache is
            # harmless, the next capture re-encodes and compares every
            # field
            raise CodecError(
                f"{self.cls.__qualname__}.{f.name}: {exc}"
            ) from exc
        return tuple(cells)  # type: ignore[arg-type]

    def _capture_map(self, i: int, live: Any, counters: Any) -> None:
        # composite-cell wire format: varint(n), then per entry
        # varint(len(kcell)) kcell varint(len(vcell)) vcell — the length
        # prefixes are what let the delta restore slice entries without
        # decoding them
        if live.__class__ is not dict:
            raise CodecError(f"map field {self.schema[i].name} is not a dict")
        sub = self.subcells.get(i) or {}
        new_kindex: Dict[bytes, Any] = {}
        enc = self._enc
        n = len(live)
        parts: List[bytes] = [_LEN1[n] if n < 128 else _varint(n)]
        new_sub: Dict[Any, Tuple[bytes, bytes]] = {}
        for k, v in live.items():
            kcell = enc.cell(k)
            vcell = enc.cell(v)
            old = sub.get(k)
            # entries compare by encoded bytes, so a hash-equal key of a
            # different codec type (1 vs True) cannot serve a stale cell
            if old is not None and old[0] == kcell and old[1] == vcell:
                kcell, vcell = old
                counters.cells_reused += 1
                counters.bytes_reused += len(kcell) + len(vcell)
            else:
                counters.cells_encoded += 1
                counters.bytes_serialized += len(kcell) + len(vcell)
            new_sub[k] = (kcell, vcell)
            new_kindex[kcell] = k
            nk = len(kcell)
            nv = len(vcell)
            parts.append(_LEN1[nk] if nk < 128 else _varint(nk))
            parts.append(kcell)
            parts.append(_LEN1[nv] if nv < 128 else _varint(nv))
            parts.append(vcell)
        self.subcells[i] = new_sub
        self.kindex[i] = new_kindex
        joined = b"".join(parts)
        have = self.cells[i]
        if have is not None and have == joined:
            counters.cells_reused += 1
        else:
            self.cells[i] = joined
            self.canon_cells[i] = None

    def _capture_seq(self, i: int, live: Any, counters: Any) -> None:
        # composite-cell wire format: varint(n), then per element
        # varint(len(cell)) cell (see _capture_map)
        if live.__class__ is not list:
            raise CodecError(f"seq field {self.schema[i].name} is not a list")
        sub = self.subcells.get(i) or []
        enc = self._enc
        nsub = len(sub)
        new_sub: List[bytes] = []
        n = len(live)
        parts: List[bytes] = [_LEN1[n] if n < 128 else _varint(n)]
        for j, v in enumerate(live):
            cell = enc.cell(v)
            if j < nsub and sub[j] == cell:
                cell = sub[j]
                counters.cells_reused += 1
                counters.bytes_reused += len(cell)
            else:
                counters.cells_encoded += 1
                counters.bytes_serialized += len(cell)
            new_sub.append(cell)
            nc = len(cell)
            parts.append(_LEN1[nc] if nc < 128 else _varint(nc))
            parts.append(cell)
        self.subcells[i] = new_sub
        joined = b"".join(parts)
        have = self.cells[i]
        if have is not None and have == joined:
            counters.cells_reused += 1
        else:
            self.cells[i] = joined
            self.canon_cells[i] = None

    def canon_capture(
        self, proc: Any, cells: Tuple[bytes, ...], counters: Any
    ) -> Tuple[bytes, ...]:
        """The canonical-variant cells for a strict capture of ``proc``.

        Fields without a ``canon`` mask share the strict cell by
        reference; masked fields encode the transformed value, cached
        until the strict cell changes (``capture`` clears the slot).
        """
        out = list(cells)
        for i, f in enumerate(self.schema):
            if f.canon is None:
                continue
            cached = self.canon_cells[i]
            if cached is not None:
                counters.cells_reused += 1
                counters.bytes_reused += len(cached)
                out[i] = cached
                continue
            live = getattr(proc, f.name)
            if f.kind == SEQ:
                masked: Any = [f.canon(x) for x in live]
            else:
                masked = f.canon(live)
            # canon cells are fingerprint leaves only (hashed, never
            # decoded), so a plain whole-value encoding suffices
            cell = self._enc.cell(masked)
            counters.cells_encoded += 1
            counters.bytes_serialized += len(cell)
            self.canon_cells[i] = cell
            out[i] = cell
        return tuple(out)

    # -- decoding ----------------------------------------------------------

    def decode_field(self, i: int, cell: bytes) -> Any:
        """Decode one non-const field cell, refreshing the cached cell.

        The decoded value goes onto the live process and may be mutated
        there — that is fine, because change detection re-encodes and
        compares bytes instead of aliasing the decoded object.
        """
        f = self.schema[i]
        if f.kind == MAP:
            return self._decode_map(i, cell, None)
        if f.kind == SEQ:
            return self._decode_seq(i, cell, None)
        dec = self._dec
        dec.buf = cell
        dec.pos = 0
        v = dec.decode()
        self.cells[i] = cell
        self.canon_cells[i] = None
        return v

    def decode_field_delta(
        self, i: int, cell: bytes, live_val: Any, counters: Any
    ) -> Any:
        """Decode one field cell as a delta against the live value.

        Only valid when the ledger's caches mirror the live component
        (the executor's tier-2 restore guard): map/seq entries whose
        cached bytes equal the snapshot's slice reuse the *live* value
        object instead of decoding — sound because equal canonical
        bytes imply codec-equal values, and the replaced container
        drops the live reference.  ``bytes_restored`` is charged only
        for the slices actually decoded, making the restore ledger
        O(delta) too.
        """
        f = self.schema[i]
        if f.kind == MAP:
            if live_val.__class__ is dict:
                return self._decode_map(i, cell, live_val, counters)
            return self._decode_map(i, cell, None, counters)
        if f.kind == SEQ:
            if live_val.__class__ is list:
                return self._decode_seq(i, cell, live_val, counters)
            return self._decode_seq(i, cell, None, counters)
        counters.bytes_restored += len(cell)
        dec = self._dec
        dec.buf = cell
        dec.pos = 0
        v = dec.decode()
        self.cells[i] = cell
        self.canon_cells[i] = None
        return v

    def _decode_map(
        self, i: int, cell: bytes, live: Optional[Dict], counters: Any = None
    ) -> Any:
        sub = self.subcells.get(i) if live is not None else None
        kindex = self.kindex.get(i) if live is not None else None
        dec = self._dec
        n, pos = _read_varint(cell, 0)
        out: Dict[Any, Any] = {}
        new_sub: Dict[Any, Tuple[bytes, bytes]] = {}
        new_kindex: Dict[bytes, Any] = {}
        restored = 0
        for _ in range(n):
            ln, pos = _read_varint(cell, pos)
            end = pos + ln
            kcell = cell[pos:end]
            pos = end
            ln, pos = _read_varint(cell, pos)
            end = pos + ln
            vcell = cell[pos:end]
            pos = end
            k = _MISSING if kindex is None else kindex.get(kcell, _MISSING)
            if k is not _MISSING:
                old = sub.get(k)  # type: ignore[union-attr]
                lv = live.get(k, _MISSING)  # type: ignore[union-attr]
                if old is not None and lv is not _MISSING and old[1] == vcell:
                    # unchanged entry: reuse the live value object and
                    # the cached byte objects
                    out[k] = lv
                    kcell, vcell = old
                    new_sub[k] = old
                    new_kindex[kcell] = k
                    continue
            else:
                dec.buf = kcell
                dec.pos = 0
                k = dec.decode()
                restored += len(kcell)
            dec.buf = vcell
            dec.pos = 0
            out[k] = dec.decode()
            restored += len(vcell)
            new_sub[k] = (kcell, vcell)
            new_kindex[kcell] = k
        if counters is not None:
            counters.bytes_restored += restored
        self.subcells[i] = new_sub
        self.kindex[i] = new_kindex
        self.cells[i] = cell
        self.canon_cells[i] = None
        return out

    def _decode_seq(
        self, i: int, cell: bytes, live: Optional[List], counters: Any = None
    ) -> Any:
        sub = self.subcells.get(i) if live is not None else None
        nlive = len(live) if live is not None else 0
        if sub is not None and len(sub) != nlive:
            sub = None
        dec = self._dec
        n, pos = _read_varint(cell, 0)
        out: List[Any] = []
        new_sub: List[bytes] = []
        restored = 0
        for j in range(n):
            ln, pos = _read_varint(cell, pos)
            end = pos + ln
            vcell = cell[pos:end]
            pos = end
            if sub is not None and j < nlive and sub[j] == vcell:
                out.append(live[j])  # type: ignore[index]
                new_sub.append(sub[j])
                continue
            dec.buf = vcell
            dec.pos = 0
            out.append(dec.decode())
            restored += len(vcell)
            new_sub.append(vcell)
        if counters is not None:
            counters.bytes_restored += restored
        self.subcells[i] = new_sub
        self.cells[i] = cell
        self.canon_cells[i] = None
        return out

    def decode_component(self, cells: Sequence[bytes]) -> Any:
        """Materialize a fresh process from a full cell tuple.

        Const values are shared from the ledger (the sharing is the
        const contract); every other field decodes fresh.
        """
        state: Dict[str, Any] = {}
        for i, f in enumerate(self.schema):
            if f.kind == CONST:
                state[f.name] = self.consts[i]
            else:
                state[f.name] = self.decode_field(i, cells[i])
        proc = object.__new__(self.cls)
        proc.__setstate__(state)
        self.width = len(proc.__dict__)
        return proc


def ledger_from_cells(clsref: str, pid: str, cells: Sequence[bytes]) -> ComponentLedger:
    """Rebuild a ledger for a shipped component (cross-process restore).

    The const cells inside the shipped tuple are decoded against the
    class-level table first (they were encoded in isolated mode against
    exactly that table); the full table then derives the same way it
    did on the encoding side.
    """
    module, qualname = clsref.split(":", 1)
    cls = _resolve_class(module, qualname)
    schema = collect_schema(cls)
    if schema is None:
        raise CodecError(f"{cls.__qualname__} declares no codec_schema")
    class_statics = collect_statics(cls)
    base_map = _class_statics_map(class_statics, pid)
    base_seq: List[str] = [""] * len(base_map)
    for s, i in base_map.items():
        base_seq[i] = s
    const_vals = []
    const_cells = []
    for i, f in enumerate(schema):
        if f.kind == CONST:
            const_vals.append(decode_cell(cells[i], base_seq))
            const_cells.append(cells[i])
    ledger = object.__new__(ComponentLedger)
    ledger._init_core(cls, schema, pid, const_vals)
    ci = 0
    for i, f in enumerate(schema):
        if f.kind == CONST:
            ledger.cells[i] = const_cells[ci]
            ledger.canon_cells[i] = const_cells[ci]
            ledger.consts[i] = const_vals[ci]
            ci += 1
    return ledger


def cells_digest(cells: Sequence[bytes], hasher_factory) -> bytes:
    """Merkle-style combine of a component's field cells.

    Length-framed so cell boundaries stay unambiguous; the per-field
    leaves are the cells themselves (already canonical bytes), so the
    combine is one C-speed hash over reused buffers.
    """
    h = hasher_factory()
    for cell in cells:
        h.update(len(cell).to_bytes(8, "little"))
        h.update(cell)
    return h.digest()
