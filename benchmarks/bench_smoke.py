"""A one-minute perf-regression smoke for the state-space engines.

Runs canonical model-checker workloads across the engine's knobs
(strategy, partial-order reduction, parallel workers) on the production
(codec) snapshot path and checks the exploration *counts* against the
committed baseline: the state partition is a pure function of protocol
state values (strict fingerprints) or of their trace-canonical quotient
(POR fingerprints), so ``states_visited`` / ``states_deduped`` /
``schedules_completed`` are exact, machine-independent invariants — any
drift means the fork/fingerprint/reduction machinery changed behaviour,
not just speed.  Wall-clock time and the SimCounters cost ledger are
printed for eyeballing but never asserted (they are machine-dependent).

Run via ``make bench-smoke`` (which pins ``PYTHONHASHSEED`` — the counts
no longer depend on it, but a pinned seed keeps any future regression
deterministic to reproduce) or directly::

    python benchmarks/bench_smoke.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.explore import explore_write_read_race  # noqa: E402

#: label -> (protocol, engine kwargs, exact expected counts)
BASELINES = {
    "fastclaim dfs": (
        "fastclaim",
        dict(max_depth=30, max_states=60_000),
        dict(states_visited=437, states_deduped=456,
             schedules_completed=79, violations=1, truncated=0),
    ),
    "fastclaim dfs+por": (
        "fastclaim",
        dict(max_depth=30, max_states=60_000, por=True),
        dict(states_visited=128, states_deduped=50,
             schedules_completed=4, violations=1, truncated=0),
    ),
    # the POR-reduced scope is tiny, so the workers=2 request auto-serials
    # (serial probe) and must reproduce the workers=1 counts exactly
    "fastclaim dfs+por+w2": (
        "fastclaim",
        dict(max_depth=30, max_states=60_000, por=True, workers=2),
        dict(states_visited=128, states_deduped=50,
             schedules_completed=4, violations=1, truncated=0),
    ),
    "fastclaim dfs+por exhaustive": (
        "fastclaim",
        dict(max_depth=30, max_states=60_000, por=True,
             first_violation_only=False),
        dict(states_visited=1_416, states_deduped=554,
             schedules_completed=24, violations=12, truncated=0),
    ),
    "cops dfs (budget)": (
        "cops",
        dict(max_depth=22, max_states=6_000),
        dict(states_visited=6_001, states_deduped=6_288,
             schedules_completed=1_021, violations=0, truncated=28),
    ),
    "cops dfs+por": (
        "cops",
        dict(max_depth=22, max_states=6_000, por=True),
        dict(states_visited=515, states_deduped=174,
             schedules_completed=15, violations=0, truncated=0),
    ),
}


def fork_machinery_smoke() -> bool:
    """The reduced bench_fork: snapshot/fork/restore semantics + caching."""
    from repro.core.setup import prepare_theorem_system
    from repro.sim.scheduler import RoundRobinScheduler

    tsys = prepare_theorem_system("wren")
    sim = tsys.sim
    sim.invoke(tsys.cw, tsys.tw())
    sched = RoundRobinScheduler()
    for _ in range(6):
        sched.tick(sim, pids=(tsys.cw,) + tuple(tsys.servers))
    snap = sim.snapshot()
    fp = sim.fingerprint()
    fork = snap.fork()  # O(1) fork: shares the per-component captures
    ok = fork.procs is snap.procs and fork.net_state is snap.net_state
    snap2 = sim.snapshot()  # unchanged state: every cell tuple is cached
    ok &= all(
        c2 is c1
        for (_, _, c1), (_, _, c2) in zip(snap.procs, snap2.procs)
    )
    ok &= snap2.net_state is snap.net_state
    ok &= sim.counters.bytes_reused > 0
    for _ in range(6):
        sched.tick(sim, pids=(tsys.cw,) + tuple(tsys.servers))
    sim.restore(snap)
    ok &= sim.fingerprint() == fp and sim.counters.bytes_restored > 0
    print(("ok  " if ok else "FAIL") + f" fork machinery: {sim.counters.describe()}")
    return ok


def oracle_identity_smoke() -> bool:
    """The production snapshot path against the deep-copy oracle.

    Same search under ``snapshot_mode="codec"`` and ``"deepcopy"``: the
    state partition (fingerprints) must be identical, so every count,
    every violating schedule and the anomaly union must match exactly.
    ``benchmarks/bench_codec.py`` runs the full-scope version with the
    traffic and O(delta) gates; this is the few-second version.
    """
    from repro.sim.executor import use_snapshot_mode

    kwargs = dict(
        max_depth=30, max_states=60_000, por=True,
        first_violation_only=False,
    )
    runs = {}
    for mode in ("codec", "deepcopy"):
        with use_snapshot_mode(mode):
            r = explore_write_read_race("fastclaim", **kwargs)
        runs[mode] = dict(
            states_visited=r.states_visited,
            states_deduped=r.states_deduped,
            schedules_completed=r.schedules_completed,
            schedules=sorted(tuple(s) for s, _ in r.violations),
            anomalies=sorted(
                {str(a) for _, anomalies in r.violations for a in anomalies}
            ),
        )
    ok = runs["codec"] == runs["deepcopy"]
    print(
        ("ok  " if ok else "FAIL")
        + f" production==deepcopy identity: {runs['codec']['states_visited']} "
        f"states, {len(runs['codec']['schedules'])} violating schedules"
    )
    if not ok:
        print(f"     codec:    {runs['codec']}\n     deepcopy: {runs['deepcopy']}")
    return ok


def checker_smoke() -> bool:
    """The delta checkers against the per-leaf batch scan.

    Both arms must produce identical exact counts (including ``checks``)
    and identical anomaly strings; the per-leaf checker cost is printed
    as a throughput ledger for eyeballing, never asserted.
    """
    kwargs = dict(
        max_depth=30, max_states=60_000, first_violation_only=False
    )
    inc = explore_write_read_race("fastclaim", **kwargs)
    bat = explore_write_read_race("fastclaim", incremental=False, **kwargs)

    def key(r):
        return dict(
            states_visited=r.states_visited,
            states_deduped=r.states_deduped,
            schedules_completed=r.schedules_completed,
            checks=r.checks,
            anomalies=sorted(
                {str(a) for _, anomalies in r.violations for a in anomalies}
            ),
        )

    ok = key(inc) == key(bat)
    ok &= inc.incremental and not bat.incremental
    ok &= inc.checks == EXPECT_CHECKS
    for label, r in (("incremental", inc), ("batch", bat)):
        per = r.checker_seconds / r.checks * 1e6 if r.checks else 0.0
        print(
            f"{'ok  ' if ok else 'FAIL'} checker {label}: "
            f"{r.checks} leaves, {r.checker_seconds * 1e3:.1f}ms checker "
            f"({per:.0f}us/leaf)"
        )
    if inc.checks != EXPECT_CHECKS:
        print(f"     expected checks={EXPECT_CHECKS}, got {inc.checks}")
    return ok


#: exact leaf count of the checker smoke scenario (machine-independent)
EXPECT_CHECKS = 5_395


def main() -> int:
    failures = 0
    failures += not fork_machinery_smoke()
    failures += not oracle_identity_smoke()
    failures += not checker_smoke()
    for label, (proto, kwargs, expect) in BASELINES.items():
        t0 = time.perf_counter()
        r = explore_write_read_race(proto, **kwargs)
        dt = time.perf_counter() - t0
        got = dict(
            states_visited=r.states_visited,
            states_deduped=r.states_deduped,
            schedules_completed=r.schedules_completed,
            violations=len(r.violations),
            truncated=r.truncated,
        )
        ok = got == expect
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {got} in {dt:.1f}s")
        if not ok:
            print(f"     expected {expect}")
        print(f"     cost: {r.counters.describe()}")
    if failures:
        print(f"bench-smoke: {failures} baseline mismatch(es)")
        return 1
    print("bench-smoke: all exploration baselines reproduced")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
