"""The fast-fork snapshot machinery: isolation, cost accounting, budgets.

The component-granular codec snapshot (``Configuration`` as one cell
tuple per process plus a structural network capture, restored as a
delta) must preserve the deep-copy contract exactly: a snapshot is
isolated from every future mutation of the live simulation, a restore
never hands out mutable state aliased with the snapshot, and the
exploration engine's fingerprints reproduce the same equivalence
classes.  Every contract test here runs against both snapshot modes —
the production codec path and the deep-copy oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explore import explore_write_read_race
from repro.sim.events import enabled_events
from repro.core.setup import prepare_theorem_system
from repro.sim.executor import (
    SNAPSHOT_MODES,
    Configuration,
    DeepCopyConfiguration,
    SimCounters,
    Simulation,
    use_snapshot_mode,
)
from repro.sim.scheduler import RoundRobinScheduler

from helpers import Echo, Pinger

MODES = SNAPSHOT_MODES


def proc_states(sim):
    """Canonical per-process protocol state (dirty counters excluded).

    Serialized with the identity-blind canonical dump, not a raw
    ``pickle.dumps``: a raw pickle's memo encodes object-*sharing*
    topology, which is not part of the semantic state (restoring a
    snapshot materializes value-equal objects whose sharing may differ
    from the originals — ``copy.deepcopy`` and ``pickle.loads`` already
    disagree about it).  The canonical dump is exact on values, which is
    the relation every verdict and fingerprint is defined over.
    """
    return {
        pid: Simulation._dumps_canonical(p.__getstate__())
        for pid, p in sim.processes.items()
    }


def run_some(sim, tsys, events=6):
    sched = RoundRobinScheduler()
    pids = (tsys.cw,) + tuple(tsys.servers)
    for _ in range(events):
        sched.tick(sim, pids=pids)


# ---------------------------------------------------------------------------
# Snapshot isolation on a protocol with nested state (Wren: 2PC prepared
# maps, write caches, vector frontiers)
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    @pytest.mark.parametrize("mode", MODES)
    def test_live_mutation_does_not_touch_snapshot(self, mode):
        with use_snapshot_mode(mode):
            tsys = prepare_theorem_system("wren")
            sim = tsys.sim
            sim.invoke(tsys.cw, tsys.tw())
            run_some(sim, tsys)
            snap = sim.snapshot()
            frozen = proc_states(sim)
            fp = sim.fingerprint()
            # mutate the live sim well past the snapshot
            run_some(sim, tsys, events=12)
            assert proc_states(sim) != frozen  # the run did change state
            sim.restore(snap)
            assert proc_states(sim) == frozen
            assert sim.fingerprint() == fp

    @pytest.mark.parametrize("mode", MODES)
    def test_mutating_restored_state_does_not_touch_snapshot(self, mode):
        with use_snapshot_mode(mode):
            tsys = prepare_theorem_system("wren")
            sim = tsys.sim
            sim.invoke(tsys.cw, tsys.tw())
            run_some(sim, tsys)
            snap = sim.snapshot()
            frozen = proc_states(sim)
            sim.restore(snap)
            run_some(sim, tsys, events=12)  # mutate the restored branch
            sim.restore(snap)  # the snapshot must still be pristine
            assert proc_states(sim) == frozen

    @pytest.mark.parametrize("mode", ["codec"])
    def test_materialized_views_are_private(self, mode):
        # encoded snapshots only: a DeepCopyConfiguration hands out the
        # held objects themselves (the old contract — restore forks,
        # direct access aliases); codec snapshots decode a private copy
        # on every access
        with use_snapshot_mode(mode):
            tsys = prepare_theorem_system("wren")
            sim = tsys.sim
            sim.invoke(tsys.cw, tsys.tw())
            run_some(sim, tsys)
            snap = sim.snapshot()
            frozen = proc_states(sim)
            view = snap.processes
            # trash the materialized copy; the snapshot must not notice
            for p in view.values():
                p.__dict__.clear()
            sim.restore(snap)
            assert proc_states(sim) == frozen

    def test_fork_shares_immutable_captures(self):
        tsys = prepare_theorem_system("wren")
        sim = tsys.sim
        snap = sim.snapshot()
        fork = snap.fork()
        assert isinstance(snap, Configuration)
        # O(1): the per-component captures are shared, not copied
        assert fork.procs is snap.procs
        assert fork.net_state is snap.net_state
        assert fork.size_bytes() == snap.size_bytes() > 0

    def test_consecutive_snapshots_share_clean_components(self):
        # after one event, a new snapshot re-captures only the touched
        # components; every clean cell tuple is the *same* object as the
        # previous snapshot's, and inside the touched component every
        # untouched cell is too
        tsys = prepare_theorem_system("wren")
        sim = tsys.sim
        sim.invoke(tsys.cw, tsys.tw())
        run_some(sim, tsys)
        snap1 = sim.snapshot()
        sim.step(tsys.cw)  # touches cw (and the network, via its sends)
        snap2 = sim.snapshot()
        cells1 = {pid: cells for pid, _, cells in snap1.procs}
        cells2 = {pid: cells for pid, _, cells in snap2.procs}
        assert cells1.keys() == cells2.keys()
        shared = [pid for pid in cells1 if cells1[pid] is cells2[pid]]
        assert set(cells1) - set(shared) == {tsys.cw}
        fresh = [
            i
            for i, (a, b) in enumerate(zip(cells1[tsys.cw], cells2[tsys.cw]))
            if a is not b
        ]
        assert len(fresh) < len(cells1[tsys.cw])

    def test_delta_restore_touches_only_changed_components(self):
        # a backtrack after a single step re-materializes that process
        # (plus the network when the step moved messages), keeping every
        # other process object live
        tsys = prepare_theorem_system("wren")
        sim = tsys.sim
        sim.invoke(tsys.cw, tsys.tw())
        run_some(sim, tsys)
        snap = sim.snapshot()
        sim.fingerprint()
        before = {pid: p for pid, p in sim.processes.items()}
        sim.step(tsys.cw)
        base = sim.counters.components_restored
        sim.restore(snap)
        assert sim.counters.components_restored - base <= 2  # cw + network
        for pid, p in sim.processes.items():
            if pid == tsys.cw:
                assert p is not before[pid]
            else:
                assert p is before[pid]

    def test_deepcopy_fork_is_independent(self):
        with use_snapshot_mode("deepcopy"):
            tsys = prepare_theorem_system("wren")
            sim = tsys.sim
            snap = sim.snapshot()
            assert isinstance(snap, DeepCopyConfiguration)
            fork = snap.fork()
            assert fork.processes is not snap.processes
            assert fork.size_bytes() > 0


# ---------------------------------------------------------------------------
# Mode equivalence: the fast path must reproduce the reference exploration
# ---------------------------------------------------------------------------


class TestModeEquivalence:
    @pytest.mark.parametrize("protocol", ["fastclaim", "cops"])
    def test_exploration_identical_across_modes(self, protocol):
        results = {}
        for mode in MODES:
            with use_snapshot_mode(mode):
                r = explore_write_read_race(
                    protocol, max_depth=14, max_states=4_000
                )
            results[mode] = (
                r.states_visited,
                r.schedules_completed,
                r.truncated,
                sorted(tuple(s) for s, _ in r.violations),
            )
        assert results["codec"] == results["deepcopy"]


# ---------------------------------------------------------------------------
# Cost accounting
# ---------------------------------------------------------------------------


class TestSimCounters:
    def test_counters_track_snapshot_restore_fingerprint(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        sim.fingerprint()
        sim.step("p")
        sim.restore(snap)
        c = sim.counters
        assert c.snapshots == 1
        assert c.restores == 1
        assert c.fingerprints == 1
        assert c.bytes_serialized > 0

    def test_unchanged_state_reuses_serialization(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        sim.snapshot()
        before = sim.counters.bytes_serialized
        sim.snapshot()  # no event in between: the cached cells are reused
        assert sim.counters.bytes_serialized == before
        assert sim.counters.cache_hits >= 1
        assert sim.counters.bytes_reused > 0

    def test_restore_to_current_state_keeps_live_objects(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        procs = sim.processes
        sim.restore(snap)  # nothing happened: live state already matches
        assert sim.counters.restore_reuses == 1
        assert sim.processes is procs

    def test_restore_after_event_materializes_fresh_objects(self):
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        snap = sim.snapshot()
        procs = sim.processes
        sim.step("p")
        sim.restore(snap)
        assert sim.processes is not procs
        assert sim.counters.bytes_restored > 0

    def test_byte_accumulation_arithmetic(self):
        """The ledger's byte fields follow the cell arithmetic.

        A fresh snapshot captures every component once (the network is
        a zero-byte structural capture).  A restore that must rebuild a
        process pays ``bytes_restored`` for that process's non-const
        cells only; a snapshot after one event pays ``bytes_serialized``
        for the one cell the event changed; and a restore against a
        current live capture decodes only the differing cell.  Every
        component a restore touches lands in exactly one of
        ``components_restored`` / ``components_reused``.
        """
        sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
        n_components = len(sim.processes) + 1  # + the network
        snap = sim.snapshot()
        c = sim.counters
        assert c.components_serialized == c.cache_misses == n_components
        assert 0 < c.bytes_serialized < snap.size_bytes()
        schema = sim._codec_ledgers["p"].schema
        names = [f.name for f in schema]
        cells = {pid: cells for pid, _, cells in snap.procs}["p"]

        def restore_delta():
            before = c.as_dict()
            sim.restore(snap)
            assert c.restores == before["restores"] + 1
            loaded = c.components_restored - before["components_restored"]
            kept = c.components_reused - before["components_reused"]
            assert loaded + kept == n_components
            # the step dirtied exactly "p" and the network; "e" stays live
            assert (loaded, kept) == (2, n_components - 2)
            return c.bytes_restored - before["bytes_restored"]

        # a stale live row: "p" is rebuilt from all its non-const cells
        sim.step("p")
        assert restore_delta() == sum(
            len(cell)
            for cell, f in zip(cells, schema)
            if f.kind != "const"
        )
        # one step changes one cell, and a snapshot pays for that cell
        sim.step("p")
        before = c.bytes_serialized
        snap2 = sim.snapshot()
        cells2 = {pid: cells for pid, _, cells in snap2.procs}["p"]
        changed = [i for i, (a, b) in enumerate(zip(cells, cells2)) if a != b]
        assert [names[i] for i in changed] == ["remaining"]
        assert c.bytes_serialized - before == len(cells2[changed[0]])
        # a current live row: only the differing cell is decoded
        assert restore_delta() == len(cells[changed[0]])

    @pytest.mark.parametrize("mode", MODES)
    def test_restore_reuse_consistency_across_modes(self, mode):
        """``restore_reuses`` means zero byte traffic.

        The deepcopy oracle is deliberately naive — it always rebuilds,
        so it must never claim a reuse (a reuse it *wrongly* claimed
        would mask exactly the cache bugs the oracle exists to catch).
        """
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
            snap = sim.snapshot()
            before = sim.counters.as_dict()
            sim.restore(snap)  # live state already matches the snapshot
            c = sim.counters
            expected_reuses = 0 if mode == "deepcopy" else 1
            assert c.restore_reuses == before["restore_reuses"] + expected_reuses
            assert c.bytes_restored == before["bytes_restored"]
            sim.step("p")
            sim.restore(snap)  # now a real restore: traffic resumes
            assert (
                c.restore_reuses == before["restore_reuses"] + expected_reuses
            )
            if mode != "deepcopy":  # deepcopy moves objects, not bytes
                assert c.bytes_restored > before["bytes_restored"]

    @pytest.mark.parametrize("mode", ["codec"])
    def test_snapshot_reuse_bytes_across_modes(self, mode):
        """Back-to-back snapshots reuse their encoded cells."""
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
            sim.snapshot()
            before = sim.counters.as_dict()
            sim.snapshot()
            c = sim.counters
            assert c.bytes_serialized == before["bytes_serialized"]
            assert c.bytes_reused > before["bytes_reused"]
            assert c.cache_hits > before["cache_hits"]

    def test_merge_adds_every_field(self):
        """merge() is plain fieldwise addition — including the component
        fields, so worker ledgers survive the parallel merge intact."""
        a = SimCounters(**{k: 2 * i + 1 for i, k in
                           enumerate(SimCounters().as_dict())})
        b = SimCounters(**{k: 10 * (i + 1) for i, k in
                           enumerate(SimCounters().as_dict())})
        expect = {k: a.as_dict()[k] + b.as_dict()[k] for k in a.as_dict()}
        a.merge(b)
        assert a.as_dict() == expect

    def test_workers_counters_include_worker_traffic(self, monkeypatch):
        """A pooled run's merged ledger carries the workers' restores."""
        from repro.engine import parallel

        monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
        serial = explore_write_read_race(
            "fastclaim", max_depth=12, max_states=4_000, por=True,
            first_violation_only=False,
        )
        fanned = explore_write_read_race(
            "fastclaim", max_depth=12, max_states=4_000, por=True,
            first_violation_only=False, workers=2,
        )
        assert not fanned.auto_serial
        # the merged ledger covers seeding + every worker subtree: at
        # least as many restores/snapshots as the serial run's whole walk
        assert fanned.counters.restores >= serial.counters.restores
        assert fanned.counters.snapshots >= serial.counters.snapshots

    def test_describe_and_as_dict(self):
        c = SimCounters(snapshots=3, restores=2, fingerprints=1,
                        bytes_serialized=100, bytes_reused=300)
        text = c.describe()
        assert "3 snapshots" in text and "2 restores" in text
        d = c.as_dict()
        assert d["snapshots"] == 3 and d["bytes_reused"] == 300

    def test_exploration_surfaces_counters(self):
        r = explore_write_read_race("fastclaim", max_depth=10, max_states=500)
        assert r.counters is not None
        assert r.counters.snapshots > 0
        assert "cost:" in r.describe()


# ---------------------------------------------------------------------------
# The max_states budget
# ---------------------------------------------------------------------------


class TestStateBudget:
    def test_budget_cuts_search_immediately(self):
        r = explore_write_read_race(
            "cops", max_depth=22, max_states=200, first_violation_only=False
        )
        # the budget check counts the state that overflows it, then stops
        # all descent: exactly one state past the budget is ever visited
        assert r.states_visited == 201
        assert r.truncated >= 1

    def test_budget_truncation_counts_cut_siblings(self):
        small = explore_write_read_race("cops", max_depth=22, max_states=200)
        big = explore_write_read_race("cops", max_depth=22, max_states=6_000)
        assert big.states_visited == 6_001
        # a deeper budget explores strictly more and truncates elsewhere
        assert big.schedules_completed > small.schedules_completed

    def test_unbudgeted_run_not_truncated(self):
        r = explore_write_read_race("fastclaim", max_depth=8, max_states=10**6)
        # shallow depth truncates, but never via the state budget
        assert r.states_visited < 10**6


# ---------------------------------------------------------------------------
# Fingerprint properties (hypothesis): equal prefixes agree, any extra
# event disagrees — this is the property that guards the dirty-tracked
# fingerprint cache (a missing mark_dirty would serve a stale fingerprint
# and break the second half)
# ---------------------------------------------------------------------------


def fresh_sim():
    return Simulation([Pinger("p", "e", n=3), Echo("e")])


def apply_choices(sim, choices):
    """Drive the sim by the explorer's own enabled-event menu."""
    applied = 0
    for c in choices:
        events = enabled_events(sim, ("p", "e"))
        if not events:
            break
        events[c % len(events)].apply(sim)
        applied += 1
    return applied


class TestFingerprintProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=12))
    def test_same_prefix_same_fingerprint(self, choices):
        a, b = fresh_sim(), fresh_sim()
        apply_choices(a, choices)
        apply_choices(b, choices)
        assert a.fingerprint() == b.fingerprint()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=7), max_size=10),
        st.integers(min_value=0, max_value=7),
    )
    def test_extra_event_changes_fingerprint(self, choices, extra):
        sim = fresh_sim()
        apply_choices(sim, choices)
        fp = sim.fingerprint()
        if apply_choices(sim, [extra]) == 0:
            return  # quiescent: no extra event exists
        assert sim.fingerprint() != fp

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=10))
    def test_fingerprint_stable_across_snapshot_restore(self, choices):
        sim = fresh_sim()
        apply_choices(sim, choices)
        snap = sim.snapshot()
        fp = sim.fingerprint()
        apply_choices(sim, [0, 1, 2])
        sim.restore(snap)
        assert sim.fingerprint() == fp


# ---------------------------------------------------------------------------
# Network-capture reuse soundness across DFS branches (regression)
# ---------------------------------------------------------------------------


class TestNetCaptureBranchSoundness:
    """The per-container reuse inside ``_net_capture`` must compare
    element-for-element by identity.

    Restores share the pre-fork ``Message`` objects by reference and
    ``Network.deliver`` removes from arbitrary queue positions, so two
    sibling branches that deliver *different* non-last messages out of
    the same restored length-3 queue hold containers with equal length
    and an identical last element but different contents.  The old
    (length, last-element) guard aliased their captures, corrupting the
    second branch's snapshot and strict fingerprint.
    """

    @pytest.mark.parametrize("mode", MODES)
    def test_sibling_branches_do_not_alias_captures(self, mode):
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("a", "b", n=3), Echo("b")])
            for _ in range(3):
                sim.step("a")  # queue a->b now holds link_seq 0, 1, 2
            base = sim.snapshot()
            sim.fingerprint()
            # branch A: deliver the head of the queue
            sim.deliver("a", "b", 0)
            snap_a = sim.snapshot()
            fp_a = sim.fingerprint()
            # back out; branch B: deliver the *middle* message — same
            # length, same (shared) last element, different contents
            sim.restore(base)
            sim.deliver("a", "b", 1)
            snap_b = sim.snapshot()
            fp_b = sim.fingerprint()
            q_a = [m.link_seq for m in snap_a.network.in_transit[("a", "b")]]
            q_b = [m.link_seq for m in snap_b.network.in_transit[("a", "b")]]
            assert q_a == [1, 2]
            assert q_b == [0, 2]
            assert fp_a != fp_b
            # the strict fingerprint must be a pure function of the
            # state: a fresh simulation driven to B's exact state agrees
            fresh = Simulation([Pinger("a", "b", n=3), Echo("b")])
            for _ in range(3):
                fresh.step("a")
            fresh.deliver("a", "b", 1)
            assert fresh.fingerprint() == fp_b

    @pytest.mark.parametrize("mode", MODES)
    def test_income_buffers_do_not_alias_captures(self, mode):
        """Same aliasing shape on the income buffers: both branches end
        by delivering the same (shared) message, so the buffers agree on
        length and last element but differ in the middle."""
        with use_snapshot_mode(mode):
            sim = Simulation([Pinger("a", "b", n=3), Echo("b")])
            for _ in range(3):
                sim.step("a")
            base = sim.snapshot()
            sim.fingerprint()
            sim.deliver("a", "b", 0)
            sim.deliver("a", "b", 2)
            snap_a = sim.snapshot()
            fp_a = sim.fingerprint()
            sim.restore(base)
            sim.deliver("a", "b", 1)
            sim.deliver("a", "b", 2)
            snap_b = sim.snapshot()
            fp_b = sim.fingerprint()
            assert fp_a != fp_b
            got_a = [m.link_seq for m in snap_a.network.income["b"]]
            got_b = [m.link_seq for m in snap_b.network.income["b"]]
            assert got_a == [0, 2]
            assert got_b == [1, 2]


# ---------------------------------------------------------------------------
# Identity-keyed fingerprint memos stay bounded (regression)
# ---------------------------------------------------------------------------


def test_payload_canon_memo_is_bounded(monkeypatch):
    """The canonical-payload memo pins every message it ever sees, so it
    must evict: messages are re-minted on every post-restore
    re-execution and an unbounded memo grows with total events."""
    from repro.sim import executor as executor_mod
    from repro.sim.messages import Message

    from helpers import Note

    monkeypatch.setattr(executor_mod, "_PAYLOAD_MEMO_CAP", 8)
    sim = Simulation([Echo("a"), Echo("b")])
    for i in range(50):
        m = Message(msg_id=i, src="a", dst="b", link_seq=i, payload=Note(i))
        assert sim._canon_payload(m) == sim._canon_payload(m)
    assert len(sim._payload_canon) <= 8


def test_net_frag_memo_is_bounded(monkeypatch):
    """The strict-payload fragment memo is cleared on overflow instead
    of pinning every capture sub-tuple for the simulation's life."""
    from repro.sim import executor as executor_mod

    monkeypatch.setattr(executor_mod, "_NET_FRAG_CAP", 4)
    sim = Simulation([Pinger("a", "b", n=10), Echo("b")])
    fps = []
    for _ in range(10):
        sim.step("a")
        fps.append(sim.fingerprint())
    # one insert per container per pass after a possible clear: the memo
    # hovers at the cap plus the live container count, independent of
    # the number of events executed
    containers = len(sim.network.in_transit) + len(sim.network.income)
    assert len(sim._net_frag) <= 4 + containers
    assert len(set(fps)) == len(fps)  # eviction never changed a hash
