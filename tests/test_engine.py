"""The exploration engine's contracts: equivalence, reduction, soundness.

Three layers of evidence that :mod:`repro.engine` is a faithful — and
strictly cheaper — replacement for brute-force schedule enumeration:

* **Strategy equivalence** (per protocol): DFS, BFS and the parallel
  frontier explore the same reduced schedule space, so verdicts and the
  union of violating-history anomalies are identical.
* **Reduction equivalence** (full scope, slow): on the two seed
  scenarios the default exhaustive search (canonical keys) and the
  sleep-set/canonical-quotient search return the same verdict and the
  same anomaly set as the strict-keyed DFS while expanding at least 10x
  and 2x fewer states — the acceptance gates for the reductions.
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
    """DFS / BFS / workers=2 (all POR) and the default exhaustive DFS
    (canonical keys, no POR): same verdict, same anomaly set."""
    depth, expect_violation = MATRIX[protocol]
    arms = {
        key: explore_write_read_race(
            protocol,
            max_depth=depth,
            max_states=60_000,
            first_violation_only=False,
            **kw,
        )
        for key, kw in [
            ("dfs", dict(por=True)),
            ("bfs", dict(strategy="bfs", por=True)),
            ("workers2", dict(workers=2, por=True)),
            ("canon", {}),
        ]
    }
    for key, r in arms.items():
        assert r.violation_found == expect_violation, (protocol, key)
        assert not r.exhausted, (protocol, key)
        assert r.canonical_keys, (protocol, key)
    assert not arms["canon"].por
    assert (
        anomaly_union(arms["dfs"])
        == anomaly_union(arms["bfs"])
        == anomaly_union(arms["workers2"])
        == anomaly_union(arms["canon"])
    )


#: the two seed scenarios of the reduction gates, at full scope
#: (depth past quiescence, zero truncation — the verdict is exhaustive)
FULL_SCOPE = {"fastclaim": 18, "cops": 22}


@pytest.mark.slow
@pytest.mark.parametrize("protocol", sorted(FULL_SCOPE))
def test_por_identical_verdict_2x_fewer_states(protocol):
    """Strict keys, the default (canonical keys) and POR agree exactly.

    The strict arm is the unreduced reference population (46,222 and
    31,187 states); the default exhaustive run keys on the canonical
    print (1,300 and 489) and POR adds sleep sets on top of it.
    """
    depth = FULL_SCOPE[protocol]
    kw = dict(
        max_depth=depth, max_states=80_000, first_violation_only=False
    )
    plain = explore_write_read_race(protocol, strict_keys=True, **kw)
    default = explore_write_read_race(protocol, **kw)
    reduced = explore_write_read_race(protocol, por=True, **kw)
    assert not plain.canonical_keys and default.canonical_keys
    # all three explorations cover the entire scope...
    for r in (plain, default, reduced):
        assert r.truncated == 0 and not r.exhausted
    # ...agree on the verdict and on *which* anomalies exist...
    assert (
        plain.violation_found
        == default.violation_found
        == reduced.violation_found
    )
    assert anomaly_union(plain) == anomaly_union(default) == anomaly_union(reduced)
    # ...and the reductions pay: >= 2x fewer expanded configurations
    # under POR, >= 10x fewer under the default canonical keys
    assert plain.states_visited >= 2 * reduced.states_visited, (
        plain.states_visited,
        reduced.states_visited,
    )
    assert plain.states_visited >= 10 * default.states_visited, (
        plain.states_visited,
        default.states_visited,
    )


def test_key_rule():
    """``use_canonical_keys``: canonical under POR and on exhaustive
    runs of POR-safe protocols, strict everywhere else — and runs
    report the keys they used."""
    from repro.engine import use_canonical_keys

    def rule(protocol, strategy="dfs", **kw):
        return use_canonical_keys(REGISTRY[protocol], strategy=strategy, **kw)

    assert rule("fastclaim", por=True, first_violation_only=True)
    assert rule("fastclaim", por=False, first_violation_only=False)
    assert rule("fastclaim", "bfs", por=False, first_violation_only=False)
    assert not rule("fastclaim", por=False, first_violation_only=True)
    assert not rule("fastclaim", "random", por=False, first_violation_only=False)
    assert not rule("spanner", por=False, first_violation_only=False)
    assert not rule(
        "fastclaim", por=False, first_violation_only=False, strict_keys=True
    )
    with pytest.raises(ValueError, match="strict_keys"):
        rule("fastclaim", por=True, first_violation_only=False, strict_keys=True)
    with pytest.raises(ValueError, match="strict_keys"):
        explore_write_read_race("fastclaim", max_depth=4, por=True, strict_keys=True)
    # what a run reports: ``canonical_keys`` and the ``+canon`` knob
    kw = dict(max_depth=10, max_states=5_000)
    exhaustive = explore_write_read_race(
        "fastclaim", first_violation_only=False, **kw
    )
    first = explore_write_read_race("fastclaim", **kw)
    reduced = explore_write_read_race("fastclaim", por=True, **kw)
    assert "[dfs+canon]" in exhaustive.describe()
    assert "[dfs]" in first.describe() and not first.canonical_keys
    assert "[dfs+por]" in reduced.describe() and reduced.canonical_keys


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
    """A frontier narrower than the pool is answered serially.

    At depth 2 the POR-reduced fastclaim seeding walk can cut no deeper
    than depth 2, where it finds 5 subtree roots — fewer than
    ``workers + 1`` for a 5-worker request — so the parallel wrapper
    must skip the pool and return one serial search verbatim: same
    counts, same violations, flagged ``auto_serial``.
    """
    kw = dict(max_depth=2, max_states=60_000, por=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=5, **kw)
    assert fanned.auto_serial and not serial.auto_serial
    assert fanned.roots_shipped == 0
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


def test_workers_pool_path_forced():
    """The pool really runs on a small scope — and still matches.

    Verdict, anomaly union and the bit-identical first violation must
    survive the fan-out.
    """
    kw = dict(max_depth=30, max_states=60_000, por=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert not fanned.auto_serial
    assert serial.violation_found and fanned.violation_found
    assert fanned.violations[0] == serial.violations[0]


def test_workers_root_dedup_on_strict_keyed_seeding():
    """Strict-keyed first-violation pool runs report serial's witness.

    A first-violation run seeds with strict keys (no shared claim set),
    so roots reached by different orders of commuting events look
    distinct and are all shipped; the merge must still pick the serial
    DFS's first violating schedule.
    """
    kw = dict(max_depth=18, max_states=60_000, first_violation_only=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert not fanned.auto_serial
    assert serial.violation_found and fanned.violation_found
    assert fanned.violations[0][0] == serial.violations[0][0]


class _PublishingContext:
    """A single-process stand-in for ``parallel.WorkerContext``.

    Publishes every later sibling down to ``publish_depth`` into a FIFO
    list (through the pool's own payload encoding) and prunes by the
    lowest violation ordinal seen so far, as the pool's shared register
    does — no processes, so the run is fully deterministic.
    """

    seen = None
    budget = None

    def __init__(self, publish_depth):
        self.publish_depth = publish_depth
        self.prefix = ()
        self.tasks = []
        self.best = None

    def want_publish(self, depth):
        return depth <= self.publish_depth

    def publish(self, snapshot, depth, sleep, trail_labels, key, ancestors):
        import pickle

        from repro.engine import parallel

        self.tasks.append(
            pickle.loads(
                parallel._task_payload(
                    snapshot, depth, sleep, trail_labels, key, ancestors
                )
            )
        )

    def beats(self, key):
        return self.best is not None and self.best <= key

    def pruned(self, path):
        return self.beats(self.prefix + tuple(path))

    def report_violation(self, key):
        if not self.beats(key):
            self.best = key


def test_published_tasks_dedup_against_their_ancestors():
    """Deterministic replay of the first-violation race in the pool.

    On the strict-keyed fastclaim race, ``step cw`` can leave the print
    unchanged, so the serial DFS dedups such a child against its parent.
    Here a stub context publishes later siblings at shallow depths and
    every published task runs through the workers' own task routine,
    publishing grandchildren in turn.  A task whose root print equals
    one of its ancestors' must be deduped on entry, and the lowest
    violation ordinal over all tasks must be the serial DFS's first
    violation.  Without the shipped ancestor path such a task explores
    a copy of its ancestor's subtree under a lower ordinal.
    """
    from repro.core.setup import prepare_theorem_system
    from repro.engine import parallel
    from repro.engine.core import SerialSearch, resolve_checker
    from repro.txn.types import read_only_txn, write_only_txn

    kw = dict(max_depth=18, max_states=60_000, first_violation_only=True)
    serial = explore_write_read_race("fastclaim", **kw)

    tsys = prepare_theorem_system("fastclaim", n_probes=2)
    sim = tsys.system.sim
    sim.invoke(tsys.cw, write_only_txn(dict(tsys.new_values), txid="Tw"))
    sim.invoke(tsys.probes[0], read_only_txn(tsys.objects, txid="Tr"))
    clients = tuple(tsys.system.clients)
    boot = dict(
        protocol="fastclaim",
        strategy="dfs",
        por=False,
        pids=clients + tuple(tsys.system.service_pids),
        clients=clients,
        max_depth=kw["max_depth"],
        max_states=kw["max_states"],
        first_violation_only=True,
        rng_seed=0,
        incremental=True,
        oracle=False,
        canonical_keys=False,
    )
    spec = resolve_checker("causal")
    ctx = _PublishingContext(publish_depth=10)
    top = SerialSearch(
        sim, boot["pids"], clients,
        ExplorationResult(protocol="fastclaim"), spec,
        kw["max_depth"], kw["max_states"], True, False,
        incremental=True, ctx=ctx,
    )
    top.run("dfs")
    searches = [top]
    ancestor_dups = 0
    while ctx.tasks:
        args = ctx.tasks.pop(0)
        if ctx.beats(args["key"]):
            continue  # a lower-ordinal violation already exists
        sim.restore(args["root"])
        dup = sim.fingerprint() in {fp for fp, _ in args["ancestors"]}
        search = parallel._explore_task(sim, boot, spec, ctx, args)
        if dup:
            ancestor_dups += 1
            assert search.result.states_visited == 0, args["trail_prefix"]
            assert search.result.states_deduped == 1, args["trail_prefix"]
        searches.append(search)
    assert ancestor_dups > 0  # the race's shape actually occurred
    keyed = [
        (key, labels)
        for s in searches
        for key, (labels, _) in zip(s.violation_keys, s.result.violations)
    ]
    assert keyed
    assert min(keyed)[1] == serial.violations[0][0]


@pytest.mark.parametrize("protocol", ["spanner", "wren"])
def test_workers_strict_keys_for_non_por_safe(monkeypatch, protocol):
    """``por_safe=False`` protocols are keyed strictly, end to end.

    Their canonical prints are not a bisimulation (they branch on the
    global step counter), so neither the seeding walk nor any worker —
    nor an exhaustive serial run, which keys POR-safe protocols
    canonically — may compute one.  The spy raises in whichever process
    calls it — workers are forked with it in place — and the verdict
    must equal serial's.  The budget is large enough that the pool
    really runs.
    """
    from repro.sim.executor import Simulation

    orig = Simulation.fingerprint
    calls = []

    def strict_only(self, canonical=False):
        if canonical:
            raise AssertionError("canonical fingerprint on a strict scope")
        calls.append(1)
        return orig(self, canonical)

    monkeypatch.setattr(Simulation, "fingerprint", strict_only)
    kw = dict(max_depth=14, max_states=5_000, first_violation_only=True)
    serial = explore_write_read_race(protocol, workers=1, **kw)
    fanned = explore_write_read_race(protocol, workers=2, **kw)
    assert not fanned.auto_serial and fanned.roots_shipped > 0
    assert calls  # the parent's seeding walk went through the spy
    assert fanned.violation_found == serial.violation_found
    assert fanned.violations[:1] == serial.violations[:1]
    calls.clear()
    exhaustive = explore_write_read_race(
        protocol, max_depth=14, max_states=5_000, first_violation_only=False
    )
    assert calls and not exhaustive.canonical_keys


def test_workers_shared_quotient_deterministic():
    """Exhaustive pool runs explore the shared canonical quotient.

    With the cross-worker claim set every canonical class is expanded
    exactly once pool-wide, so the merged counts are bit-identical run
    to run (no wall-clock dependence), never exceed the serial count,
    and the anomaly union matches serial exactly.  The seeding walk
    keys canonically too, so duplicate roots never even materialize.
    """
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


def test_workers_shared_quotient_deterministic_past_quiescence():
    """The shared-quotient determinism, on a scope no depth cut reaches.

    At depth 18 every fastclaim schedule quiesces (nothing truncated),
    so the pool's counts are run-to-run identical, never above the
    serial POR count, and its anomaly union is serial's.
    """
    kw = dict(max_depth=18, max_states=60_000, first_violation_only=False)
    serial = explore_write_read_race("fastclaim", workers=1, por=True, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    assert not fanned.auto_serial
    assert fanned.truncated == 0 and not fanned.exhausted
    assert fanned.violation_found == serial.violation_found
    assert anomaly_union(fanned) == anomaly_union(serial)
    assert fanned.states_visited <= serial.states_visited
    assert fanned.shared_seen_hits > 0
    again = explore_write_read_race("fastclaim", workers=2, **kw)
    assert (
        fanned.states_visited,
        fanned.states_deduped,
        fanned.schedules_completed,
    ) == (
        again.states_visited,
        again.states_deduped,
        again.schedules_completed,
    )


def test_workers_seeding_violation_keeps_earlier_roots(monkeypatch):
    """A violation the seeding walk meets above its cutoff is not final.

    FastClaim's first violating schedule (serial DFS preorder) is 17
    events long, but later ones are as short as 15.  Seeded at cutoff
    15, the walk stops at a 15-event violation after collecting roots
    that precede it in preorder — one of which holds the serial first
    violation.  Those roots must still run, so the pool reports the
    serial witness, not the seeding walk's.  The shallower passes are
    skipped (each starts afresh from the root) by answering them with a
    frontier too narrow to stop the cutoff from growing.
    """
    from repro.engine import parallel

    monkeypatch.setattr(parallel, "MAX_CUTOFF", 15)
    monkeypatch.setattr(parallel, "ROOTS_PER_WORKER", 100_000)
    stops = []
    orig = parallel.SerialSearch.collect_frontier

    def spy(self, cutoff, *args, **kwargs):
        if cutoff < 15:
            return [None]
        roots = orig(self, cutoff, *args, **kwargs)
        stops.append((self.abort, len(roots), self.result.violations[:1]))
        return roots

    monkeypatch.setattr(parallel.SerialSearch, "collect_frontier", spy)
    kw = dict(max_depth=30, max_states=60_000, first_violation_only=True)
    serial = explore_write_read_race("fastclaim", workers=1, **kw)
    fanned = explore_write_read_race("fastclaim", workers=2, **kw)
    aborted, n_roots, seeded = stops[-1]
    assert aborted and n_roots > 2  # the walk stopped with roots in hand
    assert seeded[0][0] != serial.violations[0][0]
    assert not fanned.auto_serial and fanned.roots_shipped == n_roots
    assert fanned.violations == serial.violations[:1]


def test_global_budget_caps_pool():
    """``max_states`` is one pool-wide budget, not per worker.

    The canonical quotient of the full-scope fastclaim scenario is ~1.3k
    states, so a 600-state cap must bind: the pool stops at <= 600
    visits in total.
    """
    kw = dict(
        max_depth=18, max_states=600, first_violation_only=False, workers=2
    )
    pooled = explore_write_read_race("fastclaim", **kw)
    assert not pooled.auto_serial
    assert pooled.exhausted
    assert pooled.states_visited <= 600


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_workers_steal_under_load_equivalence(workers):
    """Skewed load: stealing rebalances, the answer doesn't move.

    The full-scope fastclaim race is heavily skewed — subtrees under the
    multi-object write dwarf the read-first subtrees — so static root
    assignment starves workers; the deque must actually migrate work.
    Under that load, at every pool width: identical verdict and anomaly
    union, pool-wide visits never above serial, and the first-violation
    arm reports the bit-identical serial trace.
    """
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
