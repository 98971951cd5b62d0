"""The exploration engine's contracts: equivalence, reduction, soundness.

Three layers of evidence that :mod:`repro.engine` is a faithful — and
strictly cheaper — replacement for brute-force schedule enumeration:

* **Strategy equivalence** (per protocol): DFS, BFS and the parallel
  frontier explore the same reduced schedule space, so verdicts and the
  union of violating-history anomalies are identical.
* **POR equivalence + reduction** (full scope, slow): on the two seed
  scenarios the sleep-set/canonical-quotient search returns the same
  verdict and the same anomaly set as the unreduced DFS while expanding
  at least 2x fewer states — the acceptance gate for the reduction.
* **Independence soundness** (empirical diamond property): for sampled
  reachable configurations, every pair of enabled events the relation
  declares independent commutes — both orders land in the same
  canonical fingerprint with the same enabled sets.  This is the local
  condition the Mazurkiewicz-trace argument needs; checking it on real
  protocol states guards the hand-written relation against drift.
"""

import pytest

from repro.core.explore import explore_write_read_race
from repro.engine import ExplorationResult
from repro.protocols import REGISTRY

#: every POR-safe protocol, with a depth that keeps the reduced search
#: exhaustive-or-cheap, and the expected write/read-race verdict
MATRIX = {
    "fastclaim": (26, True),
    "cops": (26, False),
    "cops_snow": (26, False),
    "cops_rw": (26, False),
    "eiger": (22, False),
    "ramp": (22, False),
    "ramp_small": (18, False),
    "occult": (18, False),
    "handshake": (26, True),
    "calvin": (26, False),
}


def anomaly_union(result: ExplorationResult):
    return frozenset(
        str(a) for _, anomalies in result.violations for a in anomalies
    )


def test_matrix_covers_every_por_safe_protocol():
    por_safe = {name for name, info in REGISTRY.items() if info.por_safe}
    assert por_safe == set(MATRIX)


@pytest.mark.parametrize("protocol", sorted(MATRIX))
def test_strategies_and_workers_agree(protocol):
    """DFS / BFS / workers=2 (all POR): same verdict, same anomaly set."""
    depth, expect_violation = MATRIX[protocol]
    arms = {
        key: explore_write_read_race(
            protocol,
            max_depth=depth,
            max_states=60_000,
            first_violation_only=False,
            por=True,
            **kw,
        )
        for key, kw in [
            ("dfs", {}),
            ("bfs", dict(strategy="bfs")),
            ("workers2", dict(workers=2)),
        ]
    }
    for key, r in arms.items():
        assert r.violation_found == expect_violation, (protocol, key)
        assert not r.exhausted, (protocol, key)
    assert (
        anomaly_union(arms["dfs"])
        == anomaly_union(arms["bfs"])
        == anomaly_union(arms["workers2"])
    )


#: the two seed scenarios of the POR acceptance gate, at full scope
#: (depth past quiescence, zero truncation — the verdict is exhaustive)
FULL_SCOPE = {"fastclaim": 18, "cops": 22}


@pytest.mark.slow
@pytest.mark.parametrize("protocol", sorted(FULL_SCOPE))
def test_por_identical_verdict_2x_fewer_states(protocol):
    depth = FULL_SCOPE[protocol]
    kw = dict(
        max_depth=depth, max_states=80_000, first_violation_only=False
    )
    plain = explore_write_read_race(protocol, **kw)
    reduced = explore_write_read_race(protocol, por=True, **kw)
    # both explorations cover the entire scope...
    for r in (plain, reduced):
        assert r.truncated == 0 and not r.exhausted
    # ...agree on the verdict and on *which* anomalies exist...
    assert plain.violation_found == reduced.violation_found
    assert anomaly_union(plain) == anomaly_union(reduced)
    # ...and the reduction pays: >= 2x fewer expanded configurations
    assert plain.states_visited >= 2 * reduced.states_visited, (
        plain.states_visited,
        reduced.states_visited,
    )


def test_workers_bit_identical_first_violation():
    """The parallel frontier reports the same first violation as serial."""
    kw = dict(max_depth=30, max_states=60_000, por=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert serial.violation_found and fanned.violation_found
    s_sched, s_anoms = serial.violations[0]
    f_sched, f_anoms = fanned.violations[0]
    assert s_sched == f_sched
    assert [str(a) for a in s_anoms] == [str(a) for a in f_anoms]


def test_workers_auto_serial_on_tiny_scope():
    """A tiny scope answers a ``workers=2`` request serially.

    The POR-reduced fastclaim scope is ~128 states — far below the
    serial probe budget — so the parallel wrapper must skip the pool and
    return the serial result verbatim: same counts, same first
    violation, flagged ``auto_serial``.
    """
    kw = dict(max_depth=30, max_states=60_000, por=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert fanned.auto_serial and not serial.auto_serial
    assert "(auto-serial)" in fanned.describe()
    assert (
        fanned.states_visited,
        fanned.states_deduped,
        fanned.schedules_completed,
        fanned.truncated,
    ) == (
        serial.states_visited,
        serial.states_deduped,
        serial.schedules_completed,
        serial.truncated,
    )
    assert fanned.violations == serial.violations


def test_workers_pool_path_forced(monkeypatch):
    """With the probe disabled the pool really runs — and still matches.

    Guards the pool machinery itself now that small scopes normally
    auto-serial: verdict, anomaly union and the bit-identical first
    violation must survive the fan-out.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    kw = dict(max_depth=30, max_states=60_000, por=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert not fanned.auto_serial
    assert serial.violation_found and fanned.violation_found
    assert fanned.violations[0] == serial.violations[0]


def test_workers_root_dedup_on_strict_keyed_seeding(monkeypatch):
    """Strict-keyed frontier roots are deduped by canonical fingerprint.

    A first-violation run seeds with strict keys (no shared claim set),
    so roots reached by different orders of commuting events look
    distinct; the pre-ship dedup must recompute canonical prints (via
    the batched restore sweep) and collapse them — fewer payloads, same
    first violation as serial.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    shipped = {}
    orig = parallel._dedup_roots

    def spy(sim, roots, canonical, partial):
        kept = orig(sim, roots, canonical, partial)
        shipped["before"], shipped["after"] = len(roots), len(kept)
        return kept

    monkeypatch.setattr(parallel, "_dedup_roots", spy)
    kw = dict(max_depth=18, max_states=60_000, first_violation_only=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert not fanned.auto_serial
    assert shipped["after"] < shipped["before"]  # dedup actually bites
    assert serial.violation_found and fanned.violation_found
    assert fanned.violations[0][0] == serial.violations[0][0]


def test_workers_shared_quotient_deterministic(monkeypatch):
    """Exhaustive pool runs explore the shared canonical quotient.

    With the cross-worker claim set every canonical class is expanded
    exactly once pool-wide, so the merged counts are bit-identical run
    to run (no wall-clock dependence), never exceed the serial count,
    and the anomaly union matches serial exactly.  The seeding walk
    keys canonically too, so duplicate roots never even materialize.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    kw = dict(max_depth=10, max_states=60_000, first_violation_only=False)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert not fanned.auto_serial
    assert fanned.violation_found == serial.violation_found
    assert anomaly_union(fanned) == anomaly_union(serial)
    assert fanned.states_visited <= serial.states_visited
    assert fanned.shared_seen_hits > 0  # cross-worker dedup actually ran
    again = explore_write_read_race("fastclaim", workers=2, **kw)
    assert (
        fanned.states_visited,
        fanned.states_deduped,
        fanned.schedules_completed,
        fanned.truncated,
    ) == (
        again.states_visited,
        again.states_deduped,
        again.schedules_completed,
        again.truncated,
    )


def test_dedup_roots_sleep_subset_rule():
    """The dedup drop rule mirrors the seen-set's sleep-subset logic.

    POR path is pure (uses ``node.fingerprint`` directly), so it unit
    tests without a simulation: a later root falls only to an earlier
    kept root with the same canonical print and a *subset* sleep set.
    """
    from types import SimpleNamespace

    from repro.engine.parallel import _dedup_roots

    def node(fp, sleep=()):
        return SimpleNamespace(fingerprint=fp, sleep=frozenset(sleep))

    partial = ExplorationResult(protocol="x", strategy="dfs", por=True)
    roots = [
        node(b"A", {1}),       # kept: first occurrence
        node(b"A", {1, 2}),    # dropped: {1} <= {1, 2}
        node(b"A", set()),     # kept: {} is not a superset of {1}
        node(b"B"),            # kept: new print
        node(b"A", {2, 3}),    # dropped: covered by the kept {} visit
    ]
    kept = _dedup_roots(None, roots, True, partial)
    assert [n.fingerprint for n in kept] == [b"A", b"A", b"B"]
    assert [set(n.sleep) for n in kept] == [{1}, set(), set()]
    assert partial.states_deduped == 2


def test_sweep_order_maximizes_component_sharing():
    """Pure unit test for the batched-recompute restore sweep.

    Greedy nearest-neighbour over component signatures: start at root 0,
    hop to the root sharing the most component tokens, ties to the
    lowest index.  Signature tokens compare by identity-or-equality.
    """
    from repro.engine.parallel import sweep_order

    # 0 shares 2 tokens with 2, one with 1 and 3; from 2 the best left
    # is 3 (shares "c"); 1 comes last.
    sigs = [
        ("a", "b", "x"),
        ("q", "r", "x"),
        ("a", "b", "c"),
        ("q", "b", "c"),
    ]
    assert sweep_order(sigs) == [0, 2, 3, 1]
    # ties break low: 1 and 2 both share everything with 0
    assert sweep_order([("a",), ("a",), ("a",)]) == [0, 1, 2]
    # degenerate sizes pass through
    assert sweep_order([]) == []
    assert sweep_order([("a",)]) == [0]
    assert sweep_order([("a",), ("b",)]) == [0, 1]


def test_snapshot_signature_tracks_changed_components():
    """Two snapshots one event apart share every signature token except
    the one component the event changed — so ``sweep_order`` sees the
    sharing between codec snapshots."""
    from helpers import Echo, Pinger
    from repro.engine.parallel import _snapshot_signature
    from repro.sim.executor import Simulation, use_snapshot_mode

    sim = Simulation([Pinger("p", "e", n=2), Echo("e")])
    sim.step("p")  # a ping is now in transit
    snap_a = sim.snapshot()
    sim.deliver("p", "e")  # moves the ping: touches the network only
    snap_b = sim.snapshot()  # both held: the id tokens stay unique
    before, after = _snapshot_signature(snap_a), _snapshot_signature(snap_b)
    assert len(before) == len(after) == len(sim.processes) + 1
    assert [a == b for a, b in zip(before, after)] == [True, True, False]
    # deep-copy snapshots share nothing component-wise: one opaque token
    with use_snapshot_mode("deepcopy"):
        assert len(_snapshot_signature(Simulation([Echo("e")]).snapshot())) == 1


def test_global_budget_caps_pool(monkeypatch):
    """``max_states`` is one pool-wide budget, not per worker.

    The canonical quotient of the full-scope fastclaim scenario is ~1.3k
    states, so a 600-state cap must bind: the pool stops at <= 600
    visits in total.  ``per_worker_budget=True`` restores the old
    semantics — each worker gets the full cap — and visits more.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    kw = dict(
        max_depth=18, max_states=600, first_violation_only=False, workers=2
    )
    pooled = explore_write_read_race("fastclaim", **kw)
    assert not pooled.auto_serial
    assert pooled.exhausted
    assert pooled.states_visited <= 600
    legacy = explore_write_read_race(
        "fastclaim", per_worker_budget=True, **kw
    )
    assert legacy.states_visited > pooled.states_visited


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_workers_steal_under_load_equivalence(monkeypatch, workers):
    """Skewed load: stealing rebalances, the answer doesn't move.

    The full-scope fastclaim race is heavily skewed — subtrees under the
    multi-object write dwarf the read-first subtrees — so static root
    assignment starves workers; the deque must actually migrate work.
    Under that load, at every pool width: identical verdict and anomaly
    union, pool-wide visits never above serial, and the first-violation
    arm reports the bit-identical serial trace.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "SERIAL_PROBE_STATES", 0)
    kw = dict(max_depth=18, max_states=80_000, por=True)
    serial = explore_write_read_race(
        "fastclaim", first_violation_only=False, **kw
    )
    fanned = explore_write_read_race(
        "fastclaim", first_violation_only=False, workers=workers, **kw
    )
    assert not fanned.auto_serial
    assert fanned.violation_found == serial.violation_found
    assert anomaly_union(fanned) == anomaly_union(serial)
    assert fanned.states_visited <= serial.states_visited
    # first-violation arm: the bit-identical serial trace wins the merge
    s_first = explore_write_read_race("fastclaim", **kw)
    f_first = explore_write_read_race("fastclaim", workers=workers, **kw)
    assert f_first.violations[0][0] == s_first.violations[0][0]
    assert [str(a) for a in f_first.violations[0][1]] == [
        str(a) for a in s_first.violations[0][1]
    ]


def test_workers_merge_counters():
    r = explore_write_read_race(
        "cops", max_depth=26, max_states=60_000,
        first_violation_only=False, por=True, workers=2,
    )
    assert r.workers == 2
    assert r.counters is not None and r.counters.snapshots > 0


def test_por_refused_for_unsafe_protocols():
    """Synchronized-clock protocols branch on the global step counter;
    the registry says so and the wrapper refuses to reduce them."""
    unsafe = {name for name, info in REGISTRY.items() if not info.por_safe}
    assert "spanner" in unsafe and "wren" in unsafe
    for protocol in ("spanner", "wren"):
        with pytest.raises(ValueError, match="not declared POR-safe"):
            explore_write_read_race(protocol, max_depth=8, por=True)


def test_states_deduped_split():
    """Revisits are no longer folded into states_visited."""
    r = explore_write_read_race(
        "fastclaim", max_depth=18, max_states=80_000,
        first_violation_only=False,
    )
    assert r.states_deduped > 0
    assert r.steps == r.states_visited  # SearchOutcome vocabulary


@pytest.mark.parametrize("protocol", ["fastclaim", "cops"])
def test_independence_diamond_property(protocol):
    """Empirical soundness of the independence relation.

    Walk a fixed pseudo-random schedule; at each visited configuration,
    for every enabled pair declared independent, applying the two events
    in either order must reach the same canonical fingerprint and leave
    the same events enabled.
    """
    import random

    from repro.core.setup import prepare_theorem_system
    from repro.sim.events import enabled_events, independent
    from repro.txn.types import read_only_txn, write_only_txn

    tsys = prepare_theorem_system(protocol, n_probes=2)
    sim = tsys.system.sim
    if REGISTRY[protocol].supports_wtx:
        sim.invoke(tsys.cw, write_only_txn(dict(tsys.new_values), txid="Tw"))
    else:
        for i, (obj, val) in enumerate(sorted(tsys.new_values.items())):
            sim.invoke(tsys.cw, write_only_txn({obj: val}, txid=f"Tw{i}"))
    sim.invoke(tsys.probes[0], read_only_txn(tsys.objects, txid="Tr"))
    pids = (tsys.cw, tsys.probes[0]) + tuple(tsys.servers)

    rng = random.Random(7)
    checked = 0
    for _ in range(40):  # schedule prefix of 40 moves
        events = enabled_events(sim, pids)
        if not events:
            break
        here = sim.snapshot()
        for a in events:
            for b in events:
                if not independent(a, b):
                    continue
                sim.restore(here)
                a.apply(sim)
                b.apply(sim)
                fp_ab = sim.fingerprint(canonical=True)
                en_ab = set(enabled_events(sim, pids))
                sim.restore(here)
                b.apply(sim)
                a.apply(sim)
                assert sim.fingerprint(canonical=True) == fp_ab, (a, b)
                # as a *set*: enumeration order tracks msg_id numbering,
                # which is exactly what the canonical quotient masks
                assert set(enabled_events(sim, pids)) == en_ab, (a, b)
                checked += 1
        sim.restore(here)
        events[rng.randrange(len(events))].apply(sim)
    assert checked > 50  # the walk actually exercised the relation
