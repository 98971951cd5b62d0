"""The schema codec: round-trip exactness, per-protocol coverage, and
engine-level bit-identity of the ``codec`` snapshot mode.

Three layers of defense, cheapest first:

* **Wire-level** (hypothesis): ``encode_cell``/``decode_cell`` round-trip
  arbitrary nested state under ``codec_equal``, encoding is
  deterministic, and the pickle oracle agrees with the decoded value.
* **Ledger-level**: every registered protocol's server and client
  classes build a :class:`ComponentLedger` without falling back, and a
  driven system capture/decode round-trips against ``__getstate__``.
* **Engine-level**: a bounded DFS under ``snapshot_mode="codec"``
  reproduces the verdicts, state counts, anomaly unions and
  first-violation traces of the ``deepcopy`` oracle bit-for-bit, and
  the Lemma 3 induction reaches the same outcome, for every registered
  protocol.
* **Loud failure**: a component the codec cannot encode raises a
  :class:`CodecError` naming the pid, class and field — there is no
  silent fallback path.
"""

import pickle
from collections import OrderedDict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explore import explore_write_read_race
from repro.core.induction import run_induction
from repro.core.setup import SetupError, prepare_theorem_system
from repro.protocols.registry import protocol_names
from repro.sim.codec import (
    CodecError,
    ComponentLedger,
    codec_equal,
    decode_cell,
    encode_cell,
    value,
)
from repro.sim.executor import (
    SNAPSHOT_MODES,
    SimCounters,
    Simulation,
    use_snapshot_mode,
)
from repro.sim.process import Process
from repro.sim.scheduler import RoundRobinScheduler
from repro.txn.client import UnsupportedTransaction
from repro.txn.types import BOTTOM, Transaction

MODES = SNAPSHOT_MODES


# ---------------------------------------------------------------------------
# Wire level: arbitrary nested values round-trip exactly
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.just(BOTTOM),
)

_hashable = st.recursive(
    st.one_of(
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.text(max_size=8),
        st.binary(max_size=8),
    ),
    lambda inner: st.tuples(inner, inner),
    max_leaves=6,
)

_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4).map(deque),
        st.dictionaries(_hashable, inner, max_size=4),
        st.sets(_hashable, max_size=4),
        st.frozensets(_hashable, max_size=4),
    ),
    max_leaves=24,
)


class TestWireRoundTrip:
    @given(v=_values)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_determinism(self, v):
        statics = {"X0": 0, "s0": 1}
        seq = ("X0", "s0")
        cell = encode_cell(v, statics)
        again = encode_cell(v, statics)
        assert cell == again  # deterministic bytes
        decoded = decode_cell(cell, seq)
        assert codec_equal(decoded, v)
        # the pickle oracle sees the same value
        assert codec_equal(decoded, pickle.loads(pickle.dumps(v)))

    @given(v=_values)
    @settings(max_examples=50, deadline=None)
    def test_statics_do_not_change_the_value(self, v):
        plain = decode_cell(encode_cell(v, {}), ())
        interned = decode_cell(
            encode_cell(v, {"a": 0, "bb": 1}), ("a", "bb")
        )
        assert codec_equal(plain, interned)

    def test_transaction_round_trips(self):
        txn = Transaction(
            txid="t1", read_set=("X0",), writes=(("X1", "v"),)
        )
        cell = encode_cell({"active": txn, "log": [txn, txn]}, {})
        out = decode_cell(cell, ())
        assert codec_equal(out["active"], txn)
        assert codec_equal(out["log"], [txn, txn])

    def test_bool_int_keys_stay_distinct(self):
        # 1 == True hashes identically; the codec must keep the types
        v = {True: "a", 2: "b"}
        out = decode_cell(encode_cell(v, {}), ())
        assert out[True] == "a" and out[2] == "b"
        assert all(type(k) is type(ok) for k, ok in zip(sorted(map(repr, v)), sorted(map(repr, out))))


# ---------------------------------------------------------------------------
# Ledger level: every registered protocol is schema-complete
# ---------------------------------------------------------------------------


def _driven_system(name, events=8):
    try:
        tsys = prepare_theorem_system(name)
    except (SetupError, TypeError) as exc:
        pytest.skip(f"{name}: default theorem setup not applicable ({exc})")
    sched = RoundRobinScheduler()
    try:
        tsys.sim.invoke(tsys.cw, tsys.tw())
    except UnsupportedTransaction:
        # single-object-write protocols: C_0 state is still populated
        pass
    pids = (tsys.cw,) + tuple(tsys.servers)
    for _ in range(events):
        sched.tick(tsys.sim, pids=pids)
    return tsys


@pytest.mark.parametrize("name", protocol_names())
def test_protocol_capture_matches_pickle_oracle(name):
    tsys = _driven_system(name)
    counters = SimCounters()
    for pid, proc in tsys.sim.processes.items():
        try:
            ledger = ComponentLedger(proc)
        except CodecError as exc:
            pytest.fail(f"{name}/{pid}: schema incomplete: {exc}")
        cells = ledger.capture(proc, counters)
        clone = ledger.decode_component(cells)
        assert codec_equal(clone.__getstate__(), proc.__getstate__()), (
            f"{name}/{pid}: codec round-trip diverges from __getstate__"
        )
        # a second capture of unchanged state reuses every cell by identity
        again = ledger.capture(proc, counters)
        assert all(a is b for a, b in zip(cells, again))


# ---------------------------------------------------------------------------
# Engine level: the codec mode is bit-identical to the oracles
# ---------------------------------------------------------------------------


def _result_key(r):
    return dict(
        violation_found=r.violation_found,
        states_visited=r.states_visited,
        states_deduped=r.states_deduped,
        schedules_completed=r.schedules_completed,
        truncated=r.truncated,
        schedules=sorted(tuple(s) for s, _ in r.violations),
        anomalies=sorted(str(a) for _, an in r.violations for a in an),
    )


@pytest.mark.parametrize("protocol,depth", [("fastclaim", 10), ("cops", 12)])
def test_codec_mode_bit_identical_to_oracles(protocol, depth):
    keys = {}
    for mode in MODES:
        with use_snapshot_mode(mode):
            r = explore_write_read_race(
                protocol,
                max_depth=depth,
                max_states=4000,
                first_violation_only=False,
            )
        keys[mode] = _result_key(r)
    assert keys["codec"] == keys["deepcopy"], f"{protocol}: codec diverges"


@pytest.mark.parametrize("protocol", ["fastclaim", "cops"])
def test_codec_mode_first_violation_trace_identical(protocol):
    traces = {}
    for mode in MODES:
        with use_snapshot_mode(mode):
            r = explore_write_read_race(
                protocol, max_depth=12, max_states=4000,
                first_violation_only=True,
            )
        traces[mode] = (
            r.violation_found,
            [tuple(s) for s, _ in r.violations[:1]],
            sorted(str(a) for _, an in r.violations[:1] for a in an),
        )
    assert traces["codec"] == traces["deepcopy"], f"{protocol}: trace diverges"


def test_codec_fingerprint_work_is_o_delta():
    """After one event, re-capture encodes only the touched cells."""
    with use_snapshot_mode("codec"):
        tsys = _driven_system("fastclaim")
        sim = tsys.sim
        sim.snapshot()
        sim.fingerprint()
        before = sim.counters.cells_encoded
        sched = RoundRobinScheduler()
        sched.tick(sim, pids=(tsys.cw,))  # one event on one component
        sim.snapshot()
        sim.fingerprint()
        delta = sim.counters.cells_encoded - before
        total_cells = sum(
            len(led.schema) for led in sim._codec_ledgers.values()
        )
        assert delta <= 8, (
            f"one event re-encoded {delta} cells (system has {total_cells})"
        )


def _outcome(fn):
    """``fn()``'s result, or the exception it raised (type and message)."""
    try:
        return fn()
    except Exception as exc:  # compared across modes, never swallowed
        return ("raises", type(exc).__name__, str(exc))


@pytest.mark.parametrize("name", protocol_names())
def test_induction_identical_across_modes(name):
    """The Lemma 3 induction reaches the same verdict under the codec and
    the deep-copy oracle for every protocol in the zoo (a protocol that
    refuses the setup must refuse it the same way in both)."""

    def induction():
        verdict = run_induction(prepare_theorem_system(name))
        return (verdict.outcome, verdict.k_reached, verdict.forced_messages)

    got = {}
    for mode in MODES:
        with use_snapshot_mode(mode):
            got[mode] = _outcome(induction)
    assert got["codec"] == got["deepcopy"], name


@pytest.mark.parametrize("name", protocol_names())
def test_explore_identical_across_modes(name):
    """A budget-cut exhaustive search explores the same state partition
    under the codec and the deep-copy oracle for every protocol."""

    def explore():
        return _result_key(
            explore_write_read_race(
                name, max_depth=12, max_states=300, first_violation_only=False
            )
        )

    got = {}
    for mode in MODES:
        with use_snapshot_mode(mode):
            got[mode] = _outcome(explore)
    assert got["codec"] == got["deepcopy"], name


# ---------------------------------------------------------------------------
# Loud failure: a component outside the schema raises, naming the field
# ---------------------------------------------------------------------------


class _DriftyProc(Process):
    """Schema'd process whose ``x`` can be rebound outside the schema."""

    codec_schema = (value("x"),)

    def __init__(self, pid):
        super().__init__(pid)
        self.x = 0

    def on_step(self, ctx, inbox):
        pass


def test_drifted_field_raises_then_recovers():
    """A field rebound to a value the codec cannot encode raises a
    ``CodecError`` naming the pid, class and field, on both the snapshot
    and the fingerprint path; once the field is set back, the
    fingerprint equals the pre-drift one (the failed capture left no
    trace in the ledger)."""
    sim = Simulation([_DriftyProc("a")])
    fp0 = sim.fingerprint()
    proc = sim.processes["a"]
    # builtin-container subclasses are not codec-encodable
    proc.x = OrderedDict()
    proc.mark_dirty()
    for capture in (sim.fingerprint, sim.snapshot):
        with pytest.raises(CodecError) as info:
            capture()
        assert "'a'" in str(info.value)
        assert "_DriftyProc.x" in str(info.value)
    proc.x = 0
    proc.mark_dirty()
    assert sim.fingerprint() == fp0
    sim.restore(sim.snapshot())
    # a fresh simulation (no drift in its history) agrees
    assert Simulation([_DriftyProc("a")]).fingerprint() == fp0
    assert sim.counters.codec_fallbacks == 0


class _NoSchemaProc(Process):
    """Inherits only Process's (const("pid"),) — ``x`` undeclared."""

    def __init__(self, pid):
        super().__init__(pid)
        self.x = 0

    def on_step(self, ctx, inbox):
        pass


def test_undeclared_field_raises():
    """A class whose schema does not cover its state cannot be captured:
    the error names the pid, the class and the undeclared field."""
    sim = Simulation([_NoSchemaProc("a")])
    for capture in (sim.fingerprint, sim.snapshot):
        with pytest.raises(CodecError) as info:
            capture()
        msg = str(info.value)
        assert "'a'" in msg and "_NoSchemaProc" in msg and "['x']" in msg
    assert "a" not in sim._codec_ledgers


def test_field_added_after_construction_raises():
    """The lazy ``getattr(self, "f", default)`` idiom grows the state
    after the ledger was built; the capture refuses instead of silently
    dropping the new field from every snapshot."""
    sim = Simulation([_DriftyProc("a")])
    sim.snapshot()
    proc = sim.processes["a"]
    proc.y = 1
    proc.mark_dirty()
    with pytest.raises(CodecError, match=r"_DriftyProc changed shape.*\['y'\]"):
        sim.snapshot()


def test_senc_cache_is_bounded():
    """The process-wide SREF cache must not pin every intern table ever
    built (one per ledger, across every Simulation in the process)."""
    from repro.sim import codec as codec_mod

    tables = [
        dict(codec_mod._BASE_STATICS_MAP)
        for _ in range(codec_mod._SENC_CACHE_CAP * 2)
    ]
    cells = [encode_cell(("payload", 7), t) for t in tables]
    assert len(set(cells)) == 1  # eviction never changes the bytes
    assert len(codec_mod._SENC_CACHE) <= codec_mod._SENC_CACHE_CAP
