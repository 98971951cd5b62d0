"""The work-stealing parallel frontier with a shared canonical seen-set.

Parallelising the explorer is only possible because of two
invariants: configuration snapshots are *self-contained* (a worker
re-materializes a private simulation from the shipped snapshot alone —
they are cheap per-component cell tuples, which is what makes
shipping subtree roots mid-run affordable) and fingerprints are
*hash-seed-independent* (every worker computes the same 16 bytes for the
same configuration, so one cross-process seen-set is meaningful).

The scheme replaces the old ship-once pool (fan the seeding frontier out
exactly once, merge at the end) with three cooperating pieces:

* **A shared deque of subtree roots.**  The parent runs the ordinary
  serial search truncated at a shallow cutoff, collects the DFS-preorder
  frontier, and enqueues every root (delta snapshot + trail + depth +
  sleep set + *ordinal*).  Long-lived workers pull roots until the deque
  drains; a worker whose queue-side supply runs low is fed by…
* **Publication (the "steal" half).**  A worker that sees the deque
  hungrier than the pool (fewer queued roots than workers) publishes the
  later siblings of its in-progress work back to the deque — snapshot,
  trail, depth, sleep set, ordinal — instead of exploring them locally.
  A heavy subtree is therefore *split across the pool while it runs*
  rather than pinning one core, which is the whole point: the old pool's
  wall-clock was the weight of the heaviest subtree.
* **A shared canonical-fingerprint seen-set** (:mod:`repro.engine.seenset`):
  an open-addressing claim table in ``multiprocessing.shared_memory``
  (spilling to a disk-backed sqlite store for populations larger than
  RAM), consulted by every worker before expansion.  A fingerprint is
  claimed exactly once pool-wide, so a configuration reachable from two
  shipped roots is expanded once — not once per root as the old pool
  did; ``states_visited`` can no longer exceed the serial count.  POR
  soundness: only visits with an **empty sleep set** claim or trust the
  shared set (their coverage is universal under the sleep-subset rule
  ``prior ⊆ current``); non-empty-sleep visits use the worker-local
  sleep-aware seen dict, exactly the serial rule.

**Determinism.**  Every task and every violation carries a global
DFS-preorder *ordinal* — the index path through each ancestor's
explorable-children list, rooted at the seeding walk.  The merge is a
sort: violations order by ordinal, and with ``first_violation_only`` the
winner is the lowest ordinal regardless of which worker found it first
in wall-clock — bit-identical to the serial DFS's first violation, since
preorder *is* ordinal order.  Workers prune any subtree whose ordinal
prefix exceeds the best known violation, so the speculative overshoot
stays bounded.  Counts merge by summation: with the shared claim set
each fingerprint is expanded exactly once pool-wide, so on exhaustive
runs (no budget/depth truncation) the totals are schedule-independent —
without POR they equal the serial run's exactly; with POR a
fingerprint revisited under incomparable sleep sets may land in two
workers' local dicts, so ``states_visited`` may (rarely) differ from
serial by a handful of re-expansions, never anomalies or verdicts.

**Budget.**  ``max_states`` is a *global* budget: workers draw chunks
from one shared counter, so ``workers=N`` can no longer visit N× the
requested cap (the old per-worker behaviour survives behind
``per_worker_budget=True`` for benchmark comparisons).  When the global
budget binds, *which* states were visited is scheduling-dependent — the
run is truncated either way (``exhausted``); bit-identity claims apply
to exhaustive runs, same as the depth budget.

Two guards keep the fan-out from costing more than it saves:

* **Root dedup** — before shipping, roots are deduped by *canonical*
  fingerprint (same sleep-subset rule as the seen-set); without POR the
  canonical prints are recomputed in one restore sweep ordered by
  snapshot sharing (:func:`sweep_order`) so the recompute cost is one
  delta-restore chain, not ``O(roots × full restore)``.
* **Auto-serial fallback** — a ``workers > 1`` request is answered
  serially (``result.auto_serial``) when the fan-out cannot pay for pool
  spin-up: a deterministic serial probe capped at
  :data:`SERIAL_PROBE_STATES` (overridable via the
  ``SERIAL_PROBE_STATES`` environment variable; CI sets ``0`` to force
  the pool) settles trivially small scopes outright, and a seeding walk
  that finds fewer than ``workers + 1`` roots falls back to one full
  serial search.  Both produce the serial result *by construction*.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.core import ExplorationResult, SerialSearch, resolve_checker
from repro.engine.seenset import make_seen_set
from repro.sim.executor import Configuration, SimCounters, Simulation

#: target number of subtree roots per worker for the *initial* seeding
#: (stealing rebalances later, so this only needs to cover start-up)
ROOTS_PER_WORKER = 4

#: never seed deeper than this: each extra level multiplies seeding work
MAX_CUTOFF = 10

#: the auto-serial probe budget: a scope that a serial search finishes
#: within this many states is cheaper to answer serially than to ship to
#: a pool (process spin-up alone dwarfs the work).  Set to 0 to disable
#: the probe (tests and the CI steal-path smoke arm use this to force
#: the pool path); the SERIAL_PROBE_STATES environment variable
#: overrides the default at import time.
SERIAL_PROBE_STATES = int(os.environ.get("SERIAL_PROBE_STATES", "4096"))

#: a worker publishes later siblings back to the deque only after this
#: many locally-expanded states since its previous publication — the
#: deque stays fed without shattering the endgame into per-node tasks
PUBLISH_INTERVAL = 4

#: how long an idle worker sleeps on an empty deque before re-checking
#: (each timeout is one ``idle_waits`` tick in the merged counters)
IDLE_TICK = 0.05

#: byte budget for an encoded ordinal inside the shared best-violation
#: cell (2 bytes per tree level — far above any reachable depth)
_KEY_BYTES = 512


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _encode_key(key: Sequence[int]) -> bytes:
    """Ordinal tuple -> bytes whose lexicographic order is preorder.

    Fixed 2 bytes per level, big-endian: byte-wise comparison then
    matches tuple comparison, and a shorter key that is a prefix of a
    longer one sorts first — ancestors before descendants, exactly
    DFS preorder.
    """
    return b"".join(i.to_bytes(2, "big") for i in key)


class GlobalBudget:
    """The shared ``max_states`` counter, drawn down in chunks.

    Workers take states in chunks of :data:`CHUNK` to keep the shared
    lock off the per-state hot path; unused chunk remainders are
    returned on worker exit, so the pool can undershoot the cap by at
    most ``workers × CHUNK`` in a truncated run and by nothing in an
    exhaustive one.  The pool's total ``states_visited`` can never
    *exceed* the cap: a state is only counted after a successful take.
    """

    CHUNK = 32

    def __init__(self, total: int, ctx):
        self._remaining = ctx.Value("q", max(total, 0))
        self._local = 0

    def take(self) -> bool:
        if self._local > 0:
            self._local -= 1
            return True
        with self._remaining.get_lock():
            grant = min(self.CHUNK, self._remaining.value)
            self._remaining.value -= grant
        if grant == 0:
            return False
        self._local = grant - 1
        return True

    def release_local(self) -> None:
        if self._local:
            with self._remaining.get_lock():
                self._remaining.value += self._local
            self._local = 0

    def __getstate__(self):
        return self._remaining

    def __setstate__(self, state):
        self._remaining = state
        self._local = 0


class BestViolation:
    """The pool-wide lowest violation ordinal (first-violation pruning).

    ``offer`` lowers it, ``beats`` answers "is everything under this
    ordinal prefix already beaten?".  A raw flag makes the common case —
    no violation anywhere yet — a lock-free single-byte read.
    """

    def __init__(self, ctx):
        self._arr = ctx.Array("B", 2 + _KEY_BYTES)
        self._flag = ctx.RawValue("b", 0)

    def _read(self) -> Optional[bytes]:
        n = (self._arr[0] << 8) | self._arr[1]
        if n == 0:
            return None
        return bytes(self._arr[2 : 2 + n])

    def offer(self, enc: bytes) -> None:
        enc = enc[:_KEY_BYTES]
        with self._arr.get_lock():
            cur = self._read()
            if cur is None or enc < cur:
                self._arr[0] = len(enc) >> 8
                self._arr[1] = len(enc) & 0xFF
                self._arr[2 : 2 + len(enc)] = enc
                self._flag.value = 1

    def beats(self, enc: bytes) -> bool:
        if not self._flag.value:  # no violation reported anywhere yet
            return False
        with self._arr.get_lock():
            cur = self._read()
        return cur is not None and cur <= enc

    def __getstate__(self):
        return (self._arr, self._flag)

    def __setstate__(self, state):
        self._arr, self._flag = state


class WorkerContext:
    """Per-worker bundle of the pool's shared machinery.

    Duck-typed against :class:`repro.engine.core.SerialSearch`'s ``ctx``
    hooks: the global state budget (``budget.take``), the cross-worker
    claim set (``seen.claim``), sibling publication back to the deque
    (``want_publish``/``publish``), first-violation ordinal pruning
    (``pruned``/``report_violation``) and the current task's global
    ordinal ``prefix``.
    """

    def __init__(
        self,
        worker_id: int,
        workers: int,
        task_q,
        outstanding,
        seen,
        budget: Optional[GlobalBudget],
        best: Optional[BestViolation],
        counters: SimCounters,
    ):
        self.worker_id = worker_id
        self.workers = workers
        self.task_q = task_q
        self.outstanding = outstanding
        self.seen = seen
        self.budget = budget
        self.best = best
        self.counters = counters
        self.prefix: Tuple[int, ...] = ()
        self._since_publish = 0

    # -- budget/seen are consumed directly by SerialSearch -----------------

    def _hungry(self) -> bool:
        try:
            return self.task_q.qsize() < self.workers
        except NotImplementedError:  # pragma: no cover - macOS qsize
            return False

    def want_publish(self, depth: int) -> bool:
        self._since_publish += 1
        if self._since_publish < PUBLISH_INTERVAL:
            return False
        if not self._hungry():
            return False
        self._since_publish = 0
        return True

    def publish(
        self,
        snapshot,
        depth: int,
        sleep,
        trail_labels: Tuple[str, ...],
        key: Tuple[int, ...],
    ) -> None:
        payload = pickle.dumps(
            {
                "root": snapshot,
                "depth": depth,
                "sleep": sleep,
                "trail_prefix": trail_labels,
                "key": key,
            }
        )
        with self.outstanding.get_lock():
            self.outstanding.value += 1
        self.task_q.put((_encode_key(key), self.worker_id, payload))
        self.counters.publishes += 1

    def pruned(self, path: Sequence[int]) -> bool:
        if self.best is None:
            return False
        return self.best.beats(_encode_key(self.prefix) + _encode_key(path))

    def report_violation(self, key: Tuple[int, ...]) -> None:
        if self.best is not None:
            self.best.offer(_encode_key(key))


class _SeedingContext:
    """The parent's seeding-walk context: record violation ordinals only.

    The seeding walk is serial — no budget, no shared set, no stealing —
    but its leaf violations must carry ordinals so they merge into the
    same global preorder as the workers'.
    """

    prefix: Tuple[int, ...] = ()
    seen = None
    budget = None

    def want_publish(self, depth: int) -> bool:
        return False

    def pruned(self, path) -> bool:
        return False

    def report_violation(self, key) -> None:
        pass


def _task_done(outstanding, task_q, workers: int) -> None:
    """Retire one task; the retirer of the last task releases the pool."""
    with outstanding.get_lock():
        outstanding.value -= 1
        if outstanding.value == 0:
            for _ in range(workers):
                task_q.put(None)


def _worker_main(
    worker_id: int,
    boot_payload: bytes,
    task_q,
    result_q,
    outstanding,
    seen,
    budget: Optional[GlobalBudget],
    best: Optional[BestViolation],
) -> None:
    """One long-lived worker: pull, explore, publish, repeat."""
    boot = pickle.loads(boot_payload)
    sim = Simulation([])
    sim.snapshot_mode = boot["snapshot_mode"]
    spec = resolve_checker(boot["checker"])
    first_violation_only = boot["first_violation_only"]
    ctx = WorkerContext(
        worker_id,
        boot["workers"],
        task_q,
        outstanding,
        seen if boot["strategy"] != "random" else None,
        budget if boot["strategy"] != "random" else None,
        best if first_violation_only else None,
        sim.counters,
    )
    if boot["strategy"] != "dfs":
        # stealing needs the DFS stack discipline; bfs workers still use
        # the shared set + global budget, random keeps per-task budgets
        ctx.want_publish = lambda depth: False
    agg = {
        "states_visited": 0,
        "states_deduped": 0,
        "schedules_completed": 0,
        "truncated": 0,
        "checks": 0,
        "checker_seconds": 0.0,
        "violations": [],  # (ordinal key, seq-in-task, labels, anomalies)
        "exhausted": False,
        "tasks": 0,
        "error": None,
    }
    try:
        while True:
            try:
                task = task_q.get(timeout=IDLE_TICK)
            except queue_mod.Empty:
                sim.counters.idle_waits += 1
                continue
            if task is None:
                break
            key_enc, publisher, payload = task
            try:
                if best is not None and first_violation_only and best.beats(key_enc):
                    continue  # a lower-ordinal violation already exists
                args = pickle.loads(payload)
                if publisher >= 0 and publisher != worker_id:
                    sim.counters.steals += 1
                agg["tasks"] += 1
                sim.restore(args["root"])
                result = ExplorationResult(
                    protocol=boot["protocol"],
                    strategy=boot["strategy"],
                    por=boot["por"],
                )
                ctx.prefix = tuple(args["key"])
                # the subtree root's checker state is rebuilt here from
                # the shipped snapshot (SerialSearch primes the
                # incremental checker from the sim's current
                # configuration); the subtree is then pure deltas
                search = SerialSearch(
                    sim,
                    boot["pids"],
                    boot["clients"],
                    result,
                    spec,
                    boot["max_depth"],
                    boot["max_states"],
                    first_violation_only,
                    boot["por"],
                    rng_seed=boot["rng_seed"] + (args["key"][0] if args["key"] else 0),
                    trail_prefix=tuple(args["trail_prefix"]),
                    incremental=boot["incremental"],
                    oracle=boot["oracle"],
                    ctx=ctx,
                    canonical_keys=boot["canonical_keys"],
                )
                search.run(
                    boot["strategy"], depth=args["depth"], sleep=args["sleep"]
                )
                agg["states_visited"] += result.states_visited
                agg["states_deduped"] += result.states_deduped
                agg["schedules_completed"] += result.schedules_completed
                agg["truncated"] += result.truncated
                agg["checks"] += result.checks
                agg["checker_seconds"] += result.checker_seconds
                agg["exhausted"] = agg["exhausted"] or search.exhausted
                keys = list(search.violation_keys)
                for seq, (labels, anomalies) in enumerate(result.violations):
                    key = keys[seq] if seq < len(keys) else tuple(args["key"])
                    agg["violations"].append(
                        (_encode_key(key), seq, labels, anomalies)
                    )
            finally:
                _task_done(outstanding, task_q, boot["workers"])
    except BaseException as exc:  # ship the failure; the parent raises
        import traceback

        agg["error"] = f"{exc!r}\n{traceback.format_exc()}"
    finally:
        if budget is not None:
            budget.release_local()
        agg["counters"] = replace(sim.counters)
        # plain close: process exit then joins both queues' feeder
        # threads, flushing any in-flight sentinel/published puts —
        # cancelling the join here could strand peers without sentinels
        result_q.put(pickle.dumps(agg))


def run_parallel(
    system,
    *,
    checker: str,
    strategy: str,
    por: bool,
    workers: int,
    max_depth: int,
    max_states: int,
    first_violation_only: bool,
    rng_seed: int,
    result: ExplorationResult,
    incremental: bool = False,
    oracle: bool = False,
    per_worker_budget: bool = False,
) -> ExplorationResult:
    """Explore ``system`` with a work-stealing pool of ``workers``."""
    sim = system.sim
    pids = tuple(system.clients) + tuple(system.service_pids)
    clients = tuple(system.clients)
    spec = resolve_checker(checker)
    root_snap = sim.snapshot()
    target = max(workers * ROOTS_PER_WORKER, workers + 1)
    # Cross-worker dedup keys on the *canonical* fingerprint: the strict
    # print deliberately excludes the event/message counters, so two
    # strict-equal states can diverge in future fingerprint identity —
    # a strict-keyed claim set would make the explored region (and every
    # count) depend on which worker claimed first.  Canonical prints are
    # counter-blind and a bisimulation for POR-safe protocols, so the
    # claimed quotient — and all merged counts — are schedule-
    # independent.  por_safe=False protocols (they branch on the global
    # step counter, outside the bisimulation) get no shared set at all:
    # workers fall back to strict worker-local dedup, which can
    # re-expand a fingerprint once per subtree but can never change a
    # verdict.  See docs/extending.md.
    #
    # The claim set serves *exhaustive* runs only, and when it is on the
    # pool explores the canonical **closure** — sleep sets off, every
    # visit claims — because neither composes with cross-worker
    # claim-once: a non-empty-sleep visit's coverage is not universal
    # (so it could neither claim nor trust the set), and the worker-
    # local sleep dicts it would fall back to make counts depend on the
    # stealing partition.  The closure is sound (every reachable
    # canonical class is expanded exactly once, so every quiescent class
    # is still checked — sleep sets only ever prune redundant
    # interleavings) and bit-deterministic.  First-violation runs
    # instead promise the serial DFS's exact winning trail, which the
    # claim set cannot keep (which strict path first reaches a class is
    # a wall-clock race), so they keep sleep sets and worker-local dedup
    # and rely on the ordinal merge + best-key pruning; they abort early
    # anyway.
    canon = por or getattr(system.info, "por_safe", False)
    use_shared = canon and not first_violation_only
    work_por = por and not use_shared

    def _serial(budget: int) -> SerialSearch:
        """One fresh full serial search from the root (auto-serial paths)."""
        sim.restore(root_snap)
        partial = ExplorationResult(
            protocol=result.protocol,
            strategy=strategy,
            por=por,
            workers=workers,
        )
        s = SerialSearch(
            sim,
            pids,
            clients,
            partial,
            spec,
            max_depth,
            budget,
            first_violation_only,
            por,
            rng_seed=rng_seed,
            incremental=incremental,
            oracle=oracle,
        )
        s.run(strategy, depth=0)
        return s

    # a cheap deterministic probe: tiny scopes are answered serially
    # outright — pool spin-up alone costs more than exploring a few
    # thousand states on the delta-restore path.  The probe IS the
    # serial run (same strategy, same seeds), so returning its result
    # matches ``workers=1`` bit for bit.
    if SERIAL_PROBE_STATES > 0:
        probe = _serial(min(max_states, SERIAL_PROBE_STATES))
        if probe.abort or not probe.exhausted or SERIAL_PROBE_STATES >= max_states:
            # settled: first violation found, scope finished within the
            # probe budget, or the probe budget already was the caller's
            _finalize(result, probe.result, probe, sim)
            result.auto_serial = True
            return result
        # scope outlives the probe: discard its counts (the pool recounts
        # from scratch; only SimCounters byte totals keep accumulating)

    # grow the cutoff until the frontier is wide enough to balance the
    # pool; each pass restarts from the root (shallow passes are cheap)
    roots = []
    search: Optional[SerialSearch] = None
    for cutoff in range(1, min(max_depth, MAX_CUTOFF) + 1):
        sim.restore(root_snap)
        partial = ExplorationResult(
            protocol=result.protocol,
            strategy=strategy,
            por=por,
            workers=workers,
        )
        search = SerialSearch(
            sim,
            pids,
            clients,
            partial,
            spec,
            max_depth,
            max_states,
            first_violation_only,
            work_por,
            rng_seed=rng_seed,
            incremental=incremental,
            oracle=oracle,
            ctx=_SeedingContext(),
            canonical_keys=use_shared,
        )
        roots = search.collect_frontier(cutoff)
        if (
            search.abort
            or search.exhausted
            or not roots
            or len(roots) >= target
        ):
            break
    assert search is not None
    partial = search.result
    if search.abort or search.exhausted or not roots:
        # the seeding walk already settled it (violation above the
        # cutoff, budget spent, or the whole scope is shallower than the
        # cutoff): the parent's serial prefix is the complete answer
        _finalize(result, partial, search, sim)
        return result

    if len(roots) < workers + 1:
        # not enough subtrees to keep the pool busy: one serial run is
        # cheaper than spinning up workers that would mostly idle
        fallback = _serial(max_states)
        _finalize(result, fallback.result, fallback, sim)
        result.auto_serial = True
        return result

    roots = _dedup_roots(sim, roots, por or use_shared, partial)

    ctx = _mp_context()
    seen = None
    if use_shared:
        # the cross-worker claim set: the expansion population is
        # bounded by the state budget; make_seen_set spills to the
        # disk-backed store when the in-memory table would outgrow its
        # budget
        seen = make_seen_set(max_states, ctx=ctx)
        # parent-side claims: every seeding-walk expansion whose
        # coverage is universal (empty sleep set) — minus the roots
        # themselves, whose subtrees are *not* explored yet and must be
        # claimed by the worker that expands them
        root_fps = {node.fingerprint for node in roots}
        for fp in search.universal_fingerprints():
            if fp not in root_fps:
                seen.claim(fp)
    budget = None
    if not per_worker_budget:
        budget = GlobalBudget(max_states - partial.states_visited, ctx)
    best = BestViolation(ctx) if first_violation_only else None
    task_q = ctx.Queue()
    result_q = ctx.Queue()
    outstanding = ctx.Value("l", len(roots))
    for node in roots:
        payload = pickle.dumps(
            {
                "root": node.snapshot,
                "depth": node.depth,
                "sleep": node.sleep,
                "trail_prefix": tuple(e.label for e in node.trail),
                "key": node.key,
            }
        )
        task_q.put((_encode_key(node.key), -1, payload))
    boot_payload = pickle.dumps(
        {
            "pids": pids,
            "clients": clients,
            "checker": checker,
            "strategy": strategy,
            "por": work_por,
            "max_depth": max_depth,
            "max_states": max_states,
            "first_violation_only": first_violation_only,
            "rng_seed": rng_seed,
            "protocol": result.protocol,
            "incremental": incremental,
            "oracle": oracle,
            "workers": workers,
            "canonical_keys": use_shared,
            # explicit, not inherited: under a spawn start method the
            # class-level mode would reset to the default, and a worker
            # fingerprinting in a different mode than the parent's
            # seeding walk would not collide with the parent-side claims
            "snapshot_mode": sim.snapshot_mode,
        }
    )
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(i, boot_payload, task_q, result_q, outstanding, seen, budget, best),
            daemon=True,
        )
        for i in range(workers)
    ]
    for p in procs:
        p.start()

    keyed_violations: List[Tuple[bytes, int, list, list]] = [
        (_encode_key(key), seq, labels, anomalies)
        for seq, ((labels, anomalies), key) in enumerate(
            zip(partial.violations, search.violation_keys)
        )
    ]
    exhausted = search.exhausted
    error = None
    try:
        for _ in range(workers):
            while True:
                try:
                    raw = result_q.get(timeout=5.0)
                    break
                except queue_mod.Empty:
                    dead = [p for p in procs if not p.is_alive() and p.exitcode]
                    if dead:  # pragma: no cover - defensive
                        raise RuntimeError(
                            f"parallel worker died with exit code "
                            f"{dead[0].exitcode}"
                        )
            agg = pickle.loads(raw)
            if agg["error"]:
                error = agg["error"]
                continue
            partial.states_visited += agg["states_visited"]
            partial.states_deduped += agg["states_deduped"]
            partial.schedules_completed += agg["schedules_completed"]
            partial.truncated += agg["truncated"]
            partial.checks += agg["checks"]
            partial.checker_seconds += agg["checker_seconds"]
            keyed_violations.extend(agg["violations"])
            exhausted = exhausted or agg["exhausted"]
            sim.counters.merge(agg["counters"])
    finally:
        for p in procs:
            if error is None:
                p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()
                p.join()
        task_q.cancel_join_thread()
        result_q.cancel_join_thread()
        if seen is not None:
            seen.unlink()
    if error is not None:
        raise RuntimeError(f"parallel worker failed:\n{error}")

    # the deterministic merge: global DFS preorder *is* ordinal order,
    # so sorting recovers the serial violation order — and the lowest
    # ordinal is the serial DFS's first violation, regardless of which
    # worker found what when
    keyed_violations.sort(key=lambda kv: (kv[0], kv[1]))
    merged = [(labels, anomalies) for _, _, labels, anomalies in keyed_violations]
    partial.violations = merged[:1] if first_violation_only else merged

    search.exhausted = exhausted
    _finalize(result, partial, search, sim)
    result.roots_shipped = len(roots)
    result.shared_seen_hits = sim.counters.shared_seen_hits
    return result


def sweep_order(signatures: Sequence[Tuple]) -> List[int]:
    """The restore order that maximizes consecutive snapshot sharing.

    ``signatures[i]`` is root *i*'s component signature — one opaque
    token per component (in practice the identity of each per-process
    cell tuple plus the network capture).  A delta restore reloads exactly
    the components whose token differs from the live one, so the cost of
    fingerprinting all roots is the sum of *adjacent differences* along
    the sweep.  Greedy nearest-neighbour: start at root 0 (the live sim
    just produced it), repeatedly hop to the unvisited root sharing the
    most component tokens with the current one; ties break to the lowest
    index so the order is deterministic.  Pure function — unit-testable
    without a simulation.
    """
    n = len(signatures)
    if n <= 2:
        return list(range(n))
    remaining = set(range(1, n))
    order = [0]
    cur = signatures[0]
    while remaining:
        best_idx, best_shared = -1, -1
        for idx in sorted(remaining):
            sig = signatures[idx]
            shared = sum(1 for a, b in zip(cur, sig) if a is b or a == b)
            if shared > best_shared:
                best_idx, best_shared = idx, shared
        order.append(best_idx)
        remaining.discard(best_idx)
        cur = signatures[best_idx]
    return order


def _snapshot_signature(snapshot) -> Tuple:
    """Identity tokens of a snapshot's components (for sweep_order).

    One token per process cell tuple plus one for the network capture:
    snapshots share a component's capture by reference exactly when the
    component did not change between them.
    """
    if not isinstance(snapshot, Configuration):
        return (id(snapshot),)  # deepcopy snapshots share nothing
    return tuple(id(cells) for _, _, cells in snapshot.procs) + (
        id(snapshot.net_state),
    )


def _dedup_roots(
    sim: Simulation,
    roots: List,
    canonical: bool,
    partial: ExplorationResult,
) -> List:
    """Drop frontier roots whose subtree another shipped root covers.

    Keyed on the *canonical* fingerprint: when the seeding walk already
    keyed canonically (POR, or ``canonical_keys`` parallel seeding)
    ``node.fingerprint`` is reused; otherwise (strict-keyed seeding:
    ``por_safe=False`` protocols) the canonical print is recomputed per
    root.  The recompute batch
    runs as a single restore sweep in :func:`sweep_order` — roots whose
    snapshots share component captures restore consecutively, so
    each hop reloads (and re-fingerprints) only the components that
    actually differ, instead of paying a full restore per root in list
    order.  The keep/drop decision then replays in the *original*
    DFS-preorder: a later root is dropped iff an earlier kept root has
    the same canonical print and slept on a subset of the later one's
    sleep set (it explores at least as much); earlier wins so the
    DFS-preorder first-violation guarantee is untouched.  Drops are
    counted in ``states_deduped``, exactly as the serial canonical
    quotient counts the revisit each corresponds to.
    """
    fps: Dict[int, bytes] = {}
    if canonical:
        for i, node in enumerate(roots):
            fps[i] = node.fingerprint
    else:
        order = sweep_order([_snapshot_signature(n.snapshot) for n in roots])
        for i in order:
            node = roots[i]
            sim.restore(node.snapshot)
            fps[i] = sim.fingerprint(canonical=True)
    kept: List = []
    seen: Dict[bytes, List] = {}
    for i, node in enumerate(roots):
        fp = fps[i]
        prior = seen.get(fp)
        if prior is not None and any(s <= node.sleep for s in prior):
            partial.states_deduped += 1
            continue
        seen.setdefault(fp, []).append(node.sleep)
        kept.append(node)
    return kept


def _finalize(
    result: ExplorationResult,
    partial: ExplorationResult,
    search: SerialSearch,
    sim: Simulation,
) -> None:
    result.states_visited = partial.states_visited
    result.states_deduped = partial.states_deduped
    result.schedules_completed = partial.schedules_completed
    result.truncated = partial.truncated
    result.checks = partial.checks
    result.checker_seconds = partial.checker_seconds
    result.violations = partial.violations
    result.exhausted = search.exhausted
    result.steps = result.states_visited
    result.incremental = search.incremental
    result.counters = replace(sim.counters)
