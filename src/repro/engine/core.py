"""The unified exploration engine: strategies, budgets, reduction.

This package owns schedule-space exploration end to end.  The previous
layout had three divergent drivers — a recursive DFS in
``core/explore.py``, the chaos adversaries' hand-rolled enumeration in
``sim/adversaries.py``, and a memoized DFS in ``consistency/search.py``
— each with its own budget accounting.  The engine replaces them with
one frontier/strategy core over a common :class:`SearchNode`:

* **Strategies** — ``"dfs"`` (the reference order, identical to the old
  recursive explorer), ``"bfs"`` (shortest-counterexample order) and
  ``"random"`` (seeded random walks, no dedup) all share the seen-set,
  the state/depth budgets and the truncation accounting implemented
  here, once.
* **Partial-order reduction** (``por=True``) — driven by the
  :func:`repro.sim.events.independent` relation, in two coupled parts.
  The seen-set keys on the *trace-canonical* fingerprint
  (``Simulation.fingerprint(canonical=True)``), under which the two
  sides of every commuting diamond are the same state — that quotient,
  one representative per Mazurkiewicz trace, is where the state-count
  reduction comes from.  On top of it, *sleep sets* prune the redundant
  sibling orders so merged states are mostly not even generated.
  Soundness: sleep sets never prune a trace entirely, only redundant
  interleavings of commuting events, so every reachable *quiescent*
  configuration (and hence every checked history and every verdict) is
  still reached; combined with the seen-set, a revisited configuration
  is only skipped when a previous visit had a subset sleep set (i.e.
  explored at least as much).  See ``docs/model.md``.
* **Parallel frontier** (``workers=N``) — :mod:`repro.engine.parallel`
  fans DFS-preorder subtree roots out to ``multiprocessing`` workers;
  snapshots are self-contained bytes and fingerprints are
  hash-seed-independent, so results merge deterministically.

The engine applies events exclusively through
:meth:`repro.sim.events.Event.apply`; ``repro.lint`` rule RL405 keeps
every other layer honest about that.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.engine.outcome import SearchOutcome
from repro.sim.events import Event, Step, enabled_events, independent
from repro.sim.executor import Configuration, SimCounters, Simulation
from repro.sim.messages import ProcessId

STRATEGIES = ("dfs", "bfs", "random")

_EMPTY: FrozenSet[Event] = frozenset()


def _wall() -> float:
    """Host wall-clock, for ``checker_seconds`` instrumentation only.

    The value never feeds simulated time, verdicts or fingerprints — it
    measures the real cost of consistency checking so benchmarks can
    compare the delta checkers against the batch scan.
    """
    # repro-lint: disable=RL101 — host-side cost instrumentation; the
    # simulation never observes this value
    return time.perf_counter()


@dataclass
class SearchNode:
    """One frontier entry: a configuration plus how we got there."""

    snapshot: Configuration
    fingerprint: bytes
    trail: Tuple[Event, ...]
    depth: int
    #: sleep set: events whose exploration from this node is already
    #: covered by a sibling branch (empty unless POR is on)
    sleep: FrozenSet[Event] = _EMPTY
    #: global DFS-preorder ordinal: the index path through each
    #: ancestor's explorable-children list (parallel merge key — the
    #: lexicographically smallest violating key is the serial DFS's
    #: first violation)
    key: Tuple[int, ...] = ()


@dataclass
class ExplorationResult(SearchOutcome):
    """Outcome of a (possibly reduced, possibly parallel) exploration.

    Extends the repo-wide :class:`SearchOutcome` budget vocabulary:
    ``steps`` mirrors ``states_visited`` and ``exhausted`` reports a
    spent state budget.  ``states_visited`` counts configurations
    actually *expanded*; revisits pruned by the seen-set are counted
    separately in ``states_deduped`` (the old explorer counted a node
    before the seen check, inflating ``states_visited`` by the number of
    revisits).
    """

    protocol: str = ""
    states_visited: int = 0     #: configurations expanded
    states_deduped: int = 0     #: revisits pruned by the seen-fingerprint set
    schedules_completed: int = 0
    truncated: int = 0          #: branches cut by the depth or state budget
    violations: List[Tuple[List[str], List]] = field(default_factory=list)
    #: snapshot/restore cost accounting for the run (see SimCounters)
    counters: Optional[SimCounters] = None
    strategy: str = "dfs"
    por: bool = False
    workers: int = 1
    #: a ``workers > 1`` request answered serially because the fan-out
    #: could not pay for itself (tiny scope or too few subtree roots —
    #: see :mod:`repro.engine.parallel`)
    auto_serial: bool = False
    #: parallel runs: subtree roots the seeding walk shipped to the pool
    #: (the work-stealing deque's initial population)
    roots_shipped: int = 0
    #: parallel runs: states the whole pool deduped against the *shared*
    #: fingerprint claim set (cross-worker dedup; worker-local seen-set
    #: dedup stays inside ``states_deduped`` alongside it)
    shared_seen_hits: int = 0
    #: leaves whose history was given a verdict
    checks: int = 0
    #: wall-clock spent in checker work (delta consumption + verdicts for
    #: the incremental path; history extraction + scan for the batch path)
    checker_seconds: float = 0.0
    incremental: bool = False

    @property
    def violation_found(self) -> bool:
        return bool(self.violations)

    @property
    def conclusive(self) -> bool:
        """No budget cut any branch: the verdict covers the whole scope."""
        return not self.exhausted and self.truncated == 0

    def describe(self) -> str:
        knobs = self.strategy + ("+por" if self.por else "")
        if self.workers > 1:
            knobs += f"+workers={self.workers}"
            if self.auto_serial:
                knobs += "(auto-serial)"
        head = (
            f"{self.protocol} [{knobs}]: explored {self.states_visited} states "
            f"({self.states_deduped} deduped), "
            f"{self.schedules_completed} complete schedules, "
            f"{self.truncated} truncated"
        )
        if not self.violations:
            lines = [head + " — no causal violation in scope"]
        else:
            sched, anomalies = self.violations[0]
            lines = [head + f" — {len(self.violations)} violating schedule(s)"]
            lines.append("  first violating schedule:")
            for s in sched:
                lines.append(f"    {s}")
            for a in anomalies[:2]:
                lines.append(f"  anomaly: {a.describe()}")
        if self.counters is not None:
            lines.append(f"  cost: {self.counters.describe()}")
        if self.workers > 1 and not self.auto_serial and self.counters is not None:
            c = self.counters
            lines.append(
                f"  steal: {self.roots_shipped} roots shipped, "
                f"{c.publishes} published, {c.steals} stolen, "
                f"{c.idle_waits} idle waits; shared seen-set "
                f"{c.shared_seen_hits} hits / {c.shared_seen_inserts} inserts"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class CheckerSpec:
    """A checker resolved to its batch scan and incremental factory.

    ``batch`` is the whole-history anomaly scan (the reference oracle);
    ``incremental`` constructs a fresh
    :class:`~repro.consistency.incremental.IncrementalChecker` whose
    verdicts are bit-identical to ``batch`` on the same records.  The
    DFS strategies consume committed-record deltas through the
    incremental checker by default; ``incremental=None`` means the
    checker has no delta form and always runs batch.
    """

    name: str
    batch: Callable
    incremental: Optional[Callable] = None


def resolve_checker(checker: str) -> CheckerSpec:
    """Map a checker name to its batch scan + incremental factory."""
    if checker == "causal":
        from repro.consistency.causal import find_causal_anomalies
        from repro.consistency.incremental import IncrementalCausalChecker

        return CheckerSpec("causal", find_causal_anomalies, IncrementalCausalChecker)
    if checker == "read-atomic":
        from repro.consistency.atomicity import find_fractured_reads
        from repro.consistency.incremental import IncrementalReadAtomicChecker

        return CheckerSpec(
            "read-atomic", find_fractured_reads, IncrementalReadAtomicChecker
        )
    if checker == "sessions":
        from repro.consistency.incremental import IncrementalSessionChecker
        from repro.consistency.sessions import check_sessions

        return CheckerSpec("sessions", check_sessions, IncrementalSessionChecker)
    raise ValueError(f"unknown checker {checker!r}")


def clients_done(sim: Simulation, clients: Sequence[ProcessId]) -> bool:
    """Every client idle: no active transaction, nothing pending."""
    from repro.txn.client import ClientBase

    for c in clients:
        p = sim.processes[c]
        if not isinstance(p, ClientBase) or p.current is not None or p.pending:
            return False
    return True


class SerialSearch:
    """One search over one live simulation, any serial strategy.

    Owns the seen-set, budgets and truncation accounting.  The caller
    provides the simulation positioned at the root configuration; the
    search mutates it freely (snapshot/restore discipline) and leaves it
    in an unspecified configuration.
    """

    def __init__(
        self,
        sim: Simulation,
        pids: Sequence[ProcessId],
        clients: Sequence[ProcessId],
        result: ExplorationResult,
        checker: "CheckerSpec | Callable",
        max_depth: int,
        max_states: int,
        first_violation_only: bool,
        por: bool,
        rng_seed: int = 0,
        trail_prefix: Tuple[str, ...] = (),
        incremental: bool = False,
        oracle: bool = False,
        ctx=None,
        canonical_keys: bool = False,
    ):
        self.sim = sim
        self.pids = tuple(pids)
        self.clients = tuple(clients)
        self.result = result
        if not isinstance(checker, CheckerSpec):  # bare batch callable
            checker = CheckerSpec(getattr(checker, "__name__", "?"), checker)
        self.checker = checker
        self.max_depth = max_depth
        self.max_states = max_states
        self.first_violation_only = first_violation_only
        self.por = por
        self.rng_seed = rng_seed
        #: labels prepended to violation schedules (parallel subtree roots)
        self.trail_prefix = trail_prefix
        #: key the seen-set canonically even without POR (parallel mode,
        #: POR-safe protocols only).  The strict fingerprint deliberately
        #: excludes the event/message counters, so two strict-equal
        #: states can still differ in *future fingerprint identity* —
        #: under a cross-worker claim set that would make the explored
        #: region depend on which worker claimed first.  The canonical
        #: print is counter-blind *and* a bisimulation for POR-safe
        #: protocols, so the claimed quotient is schedule-independent.
        self.canonical_keys = canonical_keys
        #: worker context for the work-stealing pool (None when serial):
        #: duck-typed provider of the global state budget, the shared
        #: fingerprint claim set, subtree publication and first-violation
        #: pruning — see ``repro.engine.parallel.WorkerContext``
        self.ctx = ctx
        self.abort = False      # first violation found: stop everything
        self.exhausted = False  # state budget spent: stop everything
        # DFS-preorder ordinal of the current node: the index path taken
        # through each ancestor's explorable-children list.  Prefixed by
        # ctx.prefix (the task's own ordinal) it is a *global* preorder
        # key — violations sort by it so the parallel merge can pick the
        # serial DFS's first violation regardless of worker timing.
        self._path: List[int] = []
        #: per-violation global ordinal keys, parallel to the slice of
        #: ``result.violations`` this search appended (parallel mode)
        self.violation_keys: List[Tuple[int, ...]] = []
        # fingerprint -> sleep sets it was visited with.  A revisit is
        # skippable iff some previous visit slept on a *subset* of what
        # we would sleep on now (it explored at least as much).  Without
        # POR every sleep set is empty and this degenerates to a set.
        self._seen: dict = {}
        self._trail: List[Event] = []
        # Incremental checking (DFS-shaped walks only: the checker's
        # checkpoint/rollback runs in lockstep with apply/restore, which
        # needs the stack discipline).  The checker is primed here from
        # the sim's *current* configuration — for a parallel subtree
        # root that one advance rebuilds the whole prefix state, after
        # which the subtree is pure delta work.
        self.incremental = bool(incremental and checker.incremental is not None)
        self.oracle = oracle
        self._checker = None
        self._consumed: Dict[str, int] = {}
        self._client_set = frozenset(self.clients)
        if self.incremental:
            from repro.txn.history import committed_deltas

            t0 = _wall()
            self._checker = checker.incremental()
            self._consumed, fresh = committed_deltas(sim, self.clients, {})
            if fresh:
                self._checker.advance(fresh)
            result.checker_seconds += _wall() - t0

    # -- incremental checker lockstep --------------------------------------

    def _delta_collect(self, pid: ProcessId) -> Optional[tuple]:
        """After a client step: collect newly-committed records.

        Commits only happen inside ``Simulation.step`` of a client (a
        delivery just parks the message in the income buffer), so the
        DFS loops call this for client-step edges only, and only ``pid``
        can have committed.  Returns ``(rollback token, fresh records)``
        for :meth:`_delta_rollback`, or None when the step did not
        commit.

        Collecting does **not** consume: the fresh records ride into the
        recursive call and are consumed only once the child survives its
        dedup/budget checks (or is a checked leaf), so subtrees that die
        unexplored never pay checker work.  A consumed delta is shared
        by the whole surviving subtree — every leaf verdict in it is
        then just :meth:`IncrementalChecker.anomalies` on maintained
        state.
        """
        from repro.txn.history import committed_deltas

        consumed = self._consumed
        if len(self.sim.processes[pid].completed) == consumed.get(pid, 0):
            return None
        token = (self._checker.checkpoint(), consumed)
        self._consumed, fresh = committed_deltas(
            self.sim, self.clients, consumed
        )
        return (token, fresh)

    def _delta_consume(self, fresh: tuple) -> None:
        t0 = _wall()
        self._checker.advance(fresh)
        self.result.checker_seconds += _wall() - t0

    def _delta_rollback(self, token: tuple) -> None:
        self._checker.rollback(token[0])
        self._consumed = token[1]

    def _fingerprint(self) -> bytes:
        """The seen-set key for the current configuration.

        POR keys on the trace-canonical fingerprint so commuting
        interleavings merge; without POR the strict (msg_id-covering)
        fingerprint keeps parity with the pre-engine explorer —
        except under ``canonical_keys`` (parallel workers on POR-safe
        protocols), where canonical keying keeps the cross-worker
        claimed quotient deterministic.
        """
        return self.sim.fingerprint(canonical=self.por or self.canonical_keys)

    # -- seen-set ---------------------------------------------------------

    def _covered(self, fp: bytes, sleep: FrozenSet[Event]) -> bool:
        prior = self._seen.get(fp)
        if prior is None:
            return False
        if not self.por:
            return True
        return any(s <= sleep for s in prior)

    def _remember(self, fp: bytes, sleep: FrozenSet[Event]) -> None:
        if not self.por:
            self._seen[fp] = True
            return
        prior = self._seen.setdefault(fp, [])
        prior[:] = [s for s in prior if not (sleep <= s)]
        prior.append(sleep)

    def seen_states(self) -> int:
        return len(self._seen)

    def universal_fingerprints(self):
        """Fingerprints whose visits cover *every* later visit.

        A visit with an empty sleep set explored every outgoing event,
        so the sleep-subset rule (``prior ⊆ current``) covers any later
        visit of the same fingerprint (``∅ ⊆ anything``).  These are
        exactly the entries the parallel driver may publish into the
        cross-worker claim set.  Without POR every visit qualifies.
        """
        if not self.por:
            return list(self._seen)
        return [fp for fp, priors in self._seen.items() if frozenset() in priors]

    # -- budget ------------------------------------------------------------

    def _count_state(self) -> bool:
        """Count one expanded state against the budget; False = stop.

        Serial searches keep the historical local semantics (count, then
        exhaust when the count passes ``max_states``).  Under a worker
        context with a *global* budget the state is counted only if the
        shared counter grants it, so the pool's total ``states_visited``
        can never exceed the requested cap no matter how many workers
        run (the documented pre-stealing behaviour — N workers, N× the
        cap — survives behind ``per_worker_budget=True``).
        """
        r = self.result
        ctx = self.ctx
        if ctx is not None and ctx.budget is not None:
            if not ctx.budget.take():
                self.exhausted = True
                r.truncated += 1
                return False
            r.states_visited += 1
            return True
        r.states_visited += 1
        if r.states_visited > self.max_states:
            self.exhausted = True
            r.truncated += 1
            return False
        return True

    def _shared_covered(self, fp: bytes, sleep: FrozenSet[Event]) -> bool:
        """Consult (and claim in) the cross-worker fingerprint set.

        Only visits with an *empty* sleep set participate — their
        coverage is universal under the sleep-subset rule, so a hit is
        sound for any later visitor; a non-empty-sleep visit neither
        claims nor trusts the shared set and falls back to the local
        sleep-aware seen dict (see docs/model.md).  A losing claim is a
        cross-worker dedup; a winning claim makes this worker the one
        expander of the fingerprint.
        """
        ctx = self.ctx
        if ctx is None or ctx.seen is None or sleep:
            return False
        c = self.sim.counters
        if ctx.seen.claim(fp):
            c.shared_seen_inserts += 1
            return False
        c.shared_seen_hits += 1
        return True

    # -- leaves -----------------------------------------------------------

    def _check_leaf(self) -> None:
        from repro.txn.history import build_history

        r = self.result
        r.schedules_completed += 1
        r.checks += 1
        t0 = _wall()
        if self.incremental:
            anomalies = self._checker.anomalies()
        else:
            hist = build_history(self.sim, clients=self.clients)
            anomalies = self.checker.batch(hist)
        r.checker_seconds += _wall() - t0
        if self.oracle and self.incremental:
            hist = build_history(self.sim, clients=self.clients)
            expect = self.checker.batch(hist)
            if anomalies != expect:
                raise AssertionError(
                    f"incremental {self.checker.name} verdict diverged "
                    f"from the batch oracle:\n  incremental: {anomalies!r}"
                    f"\n  batch:       {expect!r}"
                )
        if anomalies:
            labels = list(self.trail_prefix) + [e.label for e in self._trail]
            r.violations.append((labels, anomalies))
            if self.ctx is not None:
                key = self.ctx.prefix + tuple(self._path)
                self.violation_keys.append(key)
                self.ctx.report_violation(key)
            if self.first_violation_only:
                # within one task DFS preorder *is* key order, so the
                # first violation found is the task's minimal one
                self.abort = True

    def _child_sleep(
        self, sleep: FrozenSet[Event], prior: List[Event], event: Event
    ) -> FrozenSet[Event]:
        if not self.por:
            return _EMPTY
        return frozenset(
            x for x in sleep.union(prior) if independent(x, event)
        )

    # -- DFS (the reference strategy) -------------------------------------

    def run_dfs(self, depth: int = 0, sleep: FrozenSet[Event] = _EMPTY) -> None:
        """Depth-first from the sim's current configuration."""
        self._dfs(depth, sleep, ())

    def _dfs(
        self, depth: int, sleep: FrozenSet[Event], fresh: Sequence
    ) -> None:
        r = self.result
        ctx = self.ctx
        if ctx is not None and ctx.pruned(self._path):
            # a violation with a smaller global ordinal already exists:
            # nothing below this node can beat it (keys only grow here)
            return
        events = enabled_events(self.sim, self.pids)
        if not events:
            if not self._count_state():
                return
            if clients_done(self.sim, self.clients):
                if fresh:
                    self._delta_consume(fresh)
                self._check_leaf()
            return  # stuck without finishing: not a legal maximal run
        # one snapshot per node: every child branch mutates the live sim
        # and restores from this same (immutable) snapshot afterwards;
        # fingerprinting right after reuses the captures the snapshot
        # just cached.
        snap = self.sim.snapshot()
        fp = self._fingerprint()
        if self._covered(fp, sleep):
            r.states_deduped += 1
            return
        if self._shared_covered(fp, sleep):
            # another worker owns this fingerprint; remember it locally
            # so later intra-worker revisits dedup without the lock
            r.states_deduped += 1
            self._remember(fp, sleep)
            return
        self._remember(fp, sleep)
        if not self._count_state():
            return
        if depth >= self.max_depth:
            r.truncated += 1
            return
        if fresh:
            # the node survived its dedup and budget checks: consume the
            # records committed on the entering edge; the whole subtree
            # shares the result
            self._delta_consume(fresh)
        explorable = (
            [e for e in events if e not in sleep] if self.por else events
        )
        prior: List[Event] = []
        for i, e in enumerate(explorable):
            child_sleep = self._child_sleep(sleep, prior, e)
            if (
                ctx is not None
                and i > 0
                and depth + 1 < self.max_depth
                and ctx.want_publish(depth + 1)
            ):
                # the deque is hungry: ship this child subtree (snapshot
                # + trail + depth + sleep + global ordinal) back to the
                # pool instead of exploring it here — a later sibling of
                # work in progress, so local progress is never blocked.
                # Not counted: the worker that expands it counts it.
                e.apply(self.sim)
                self._trail.append(e)
                ctx.publish(
                    self.sim.snapshot(),
                    depth + 1,
                    child_sleep,
                    self.trail_prefix
                    + tuple(ev.label for ev in self._trail),
                    ctx.prefix + tuple(self._path) + (i,),
                )
                self._trail.pop()
                self.sim.restore(snap)
                prior.append(e)
                continue
            e.apply(self.sim)
            self._trail.append(e)
            self._path.append(i)
            # collect in lockstep with apply; rollback in lockstep with
            # restore — backtracking reuses the parent's checker state
            # instead of recomputing it.  None on non-commit edges.
            ck = (
                self._delta_collect(e.pid)
                if self.incremental
                and e.__class__ is Step
                and e.pid in self._client_set
                else None
            )
            self._dfs(depth + 1, child_sleep, ck[1] if ck else ())
            if ck is not None:
                self._delta_rollback(ck[0])
            self._path.pop()
            self._trail.pop()
            self.sim.restore(snap)
            prior.append(e)
            if self.abort:
                return
            if self.exhausted:
                r.truncated += len(explorable) - 1 - i  # cut siblings
                return

    # -- frontier seeding (parallel mode) ---------------------------------

    def collect_frontier(
        self, cutoff: int, depth: int = 0, sleep: FrozenSet[Event] = _EMPTY
    ) -> List[SearchNode]:
        """DFS-preorder roots at ``cutoff`` depth, leaves checked en route.

        Identical to :meth:`run_dfs` above the cutoff; a node *at* the
        cutoff is snapshotted and returned instead of expanded (and not
        counted — the worker that expands it counts it).
        """
        roots: List[SearchNode] = []
        self._seed(cutoff, depth, sleep, roots, ())
        return roots

    def _seed(
        self,
        cutoff: int,
        depth: int,
        sleep: FrozenSet[Event],
        roots: List[SearchNode],
        fresh: Sequence,
    ) -> None:
        r = self.result
        events = enabled_events(self.sim, self.pids)
        if not events:
            if not self._count_state():
                return
            if clients_done(self.sim, self.clients):
                if fresh:
                    self._delta_consume(fresh)
                self._check_leaf()
            return
        snap = self.sim.snapshot()
        fp = self._fingerprint()
        if self._covered(fp, sleep):
            r.states_deduped += 1
            return
        if depth >= cutoff or depth >= self.max_depth:
            # a subtree root: remembered (so a duplicate reached later in
            # the seeding walk is pruned exactly as the serial DFS would)
            # but not counted — its worker counts it on entry.
            self._remember(fp, sleep)
            roots.append(
                SearchNode(
                    snap, fp, tuple(self._trail), depth, sleep,
                    key=tuple(self._path),
                )
            )
            return
        self._remember(fp, sleep)
        if not self._count_state():
            return
        if fresh:
            self._delta_consume(fresh)
        explorable = (
            [e for e in events if e not in sleep] if self.por else events
        )
        prior: List[Event] = []
        for i, e in enumerate(explorable):
            child_sleep = self._child_sleep(sleep, prior, e)
            e.apply(self.sim)
            self._trail.append(e)
            self._path.append(i)
            ck = (
                self._delta_collect(e.pid)
                if self.incremental
                and e.__class__ is Step
                and e.pid in self._client_set
                else None
            )
            self._seed(cutoff, depth + 1, child_sleep, roots, ck[1] if ck else ())
            if ck is not None:
                self._delta_rollback(ck[0])
            self._path.pop()
            self._trail.pop()
            self.sim.restore(snap)
            prior.append(e)
            if self.abort:
                return
            if self.exhausted:
                r.truncated += len(explorable) - 1 - i
                return

    # -- BFS ---------------------------------------------------------------

    def run_bfs(self, depth: int = 0, sleep: FrozenSet[Event] = _EMPTY) -> None:
        """Breadth-first from the sim's current configuration.

        Finds shortest counterexamples first.  Children are deduped at
        generation time so the frontier never holds duplicate snapshots.
        """
        from collections import deque

        r = self.result
        sim = self.sim
        snap = sim.snapshot()
        fp = self._fingerprint()
        self._remember(fp, sleep)
        frontier = deque(
            [SearchNode(snap, fp, tuple(self._trail), depth, sleep)]
        )
        while frontier:
            node = frontier.popleft()
            sim.restore(node.snapshot)
            events = enabled_events(sim, self.pids)
            if not self._count_state():
                r.truncated += len(frontier)
                return
            if not events:
                if clients_done(sim, self.clients):
                    self._trail = list(node.trail)
                    self._check_leaf()
                    if self.abort:
                        return
                continue
            if node.depth >= self.max_depth:
                r.truncated += 1
                continue
            explorable = (
                [e for e in events if e not in node.sleep]
                if self.por
                else events
            )
            prior: List[Event] = []
            for e in explorable:
                child_sleep = self._child_sleep(node.sleep, prior, e)
                e.apply(sim)
                child_snap = sim.snapshot()
                child_fp = self._fingerprint()
                if self._covered(child_fp, child_sleep) or self._shared_covered(
                    child_fp, child_sleep
                ):
                    r.states_deduped += 1
                else:
                    self._remember(child_fp, child_sleep)
                    frontier.append(
                        SearchNode(
                            child_snap,
                            child_fp,
                            node.trail + (e,),
                            node.depth + 1,
                            child_sleep,
                        )
                    )
                sim.restore(node.snapshot)
                prior.append(e)

    # -- random walks -------------------------------------------------------

    def run_random(self, depth: int = 0, sleep: FrozenSet[Event] = _EMPTY) -> None:
        """Seeded random walks to quiescence, until the state budget.

        No dedup (the budget bounds work, not coverage) and no POR — a
        walk keeps one interleaving per attempt anyway.  Deterministic
        given ``rng_seed``.
        """
        r = self.result
        sim = self.sim
        rng = random.Random(self.rng_seed)
        root = sim.snapshot()
        base_trail = list(self._trail)
        while not self.abort and r.states_visited < self.max_states:
            sim.restore(root)
            self._trail = list(base_trail)
            d = depth
            while True:
                events = enabled_events(sim, self.pids)
                if not events:
                    if clients_done(sim, self.clients):
                        self._check_leaf()
                    break
                if d >= self.max_depth:
                    r.truncated += 1
                    break
                e = rng.choice(events)
                e.apply(sim)
                self._trail.append(e)
                r.states_visited += 1
                d += 1
                if r.states_visited >= self.max_states:
                    self.exhausted = True
                    r.truncated += 1
                    break

    def run(self, strategy: str, depth: int = 0, sleep: FrozenSet[Event] = _EMPTY) -> None:
        if strategy != "dfs":
            # BFS and random walks jump between non-ancestor
            # configurations, which the trail-based checker rollback
            # cannot follow — they keep the batch scan
            self.incremental = False
        self.result.incremental = self.incremental
        if strategy == "dfs":
            self.run_dfs(depth, sleep)
        elif strategy == "bfs":
            self.run_bfs(depth, sleep)
        elif strategy == "random":
            self.run_random(depth, sleep)
        else:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )


def run(
    system,
    *,
    checker: str = "causal",
    strategy: str = "dfs",
    por: bool = False,
    workers: int = 1,
    max_depth: int = 40,
    max_states: int = 50_000,
    first_violation_only: bool = True,
    rng_seed: int = 0,
    incremental: Optional[bool] = None,
    checker_oracle: bool = False,
    per_worker_budget: bool = False,
) -> ExplorationResult:
    """Explore every schedule of ``system``'s current configuration.

    The caller has already invoked the scenario's transactions; the
    engine enumerates adversary schedules from here.  ``strategy`` is
    one of ``"dfs"`` / ``"bfs"`` / ``"random"``; ``por=True`` switches on
    sleep-set partial-order reduction; ``workers > 1`` runs the
    work-stealing frontier (see :mod:`repro.engine.parallel`).
    ``max_states`` is a *global* budget — the pool's total
    ``states_visited`` never exceeds it regardless of ``workers``;
    ``per_worker_budget=True`` restores the pre-stealing per-worker
    budget (each worker gets the full cap — kept for benchmark
    comparisons against the old pool).

    ``incremental=None`` (the default) uses the delta checkers on DFS
    walks and the batch scan elsewhere; ``False`` forces the batch scan
    everywhere, ``True`` requests the delta checkers (still a no-op for
    BFS/random, whose configuration jumps the checker rollback cannot
    follow).  ``checker_oracle=True`` additionally runs the batch scan
    at every leaf and raises if the verdicts are not bit-identical.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    spec = resolve_checker(checker)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    por = por and strategy != "random"
    use_inc = (
        (incremental if incremental is not None else True)
        and strategy == "dfs"
        and spec.incremental is not None
    )
    result = ExplorationResult(
        protocol=system.info.name,
        strategy=strategy,
        por=por,
        workers=workers,
    )
    sim = system.sim
    pids = tuple(system.clients) + tuple(system.service_pids)
    if workers > 1:
        from repro.engine.parallel import run_parallel

        return run_parallel(
            system,
            checker=checker,
            strategy=strategy,
            por=por,
            workers=workers,
            max_depth=max_depth,
            max_states=max_states,
            first_violation_only=first_violation_only,
            rng_seed=rng_seed,
            result=result,
            incremental=use_inc,
            oracle=checker_oracle,
            per_worker_budget=per_worker_budget,
        )
    search = SerialSearch(
        sim,
        pids,
        system.clients,
        result,
        spec,
        max_depth,
        max_states,
        first_violation_only,
        por,
        rng_seed=rng_seed,
        incremental=use_inc,
        oracle=checker_oracle,
    )
    search.run(strategy)
    result.exhausted = search.exhausted
    result.steps = result.states_visited
    result.counters = replace(sim.counters)
    return result
