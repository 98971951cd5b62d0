"""The work-stealing frontier's acceptance gate: fast *and* identical.

Runs the full-scope FastClaim write/read race — the seed scenario whose
schedule tree is heavily skewed (the subtrees under the multi-object
write dwarf the read-first subtrees, so static root assignment would
starve workers) — through the pool at several widths and asserts the
tentpole's contract:

* **Identity.** Pool verdicts and anomaly unions equal serial's; the
  first-violation arm reports the bit-identical serial trace; pool
  state counts are bit-identical run to run (the shared canonical claim
  set makes the explored quotient schedule-independent, so there is no
  wall-clock dependence to hide behind); and pool visits never exceed
  the serial count.
* **Shared beats local.** The same pool with the cross-worker claim set
  disabled (worker-local dedup only) re-expands classes its siblings
  already covered; the shared set must dedup at least as much — i.e.
  visit at most as many states.
* **The speedup gate.** workers=4 beats serial by >= 2.2x (wall-clock
  <= 0.45x) and workers=8 by >= 3.5x.  The pool explores the canonical
  quotient (~1.3k classes) while the strict serial baseline enumerates
  ~46k configurations, so the gate is an algorithmic claim first and a
  parallelism claim second — it holds even on a single-core runner,
  and the JSON records ``cpu_count`` so the artifact stays honest
  about which effect dominated.  The serial baseline is pinned to
  strict keys (``strict_keys=True``): an exhaustive serial run keys
  canonically by default and explores the pool's quotient.  That
  default run is recorded, ungated, as ``serial_default``, so the
  artifact shows the pool against the best serial run too.

The grid lands in ``benchmarks/results/BENCH_parallel.json`` (a CI
artifact, so the speedup trajectory stays observable across PRs).
"""

import os
import time

from bench_explore import save_json
from repro.core.explore import explore_write_read_race
from repro.engine import parallel

#: the skewed full-scope scenario (depth past quiescence, no truncation)
PROTOCOL, DEPTH = "fastclaim", 18

#: the speedup gates, per pool width
SPEEDUP_GATE = {4: 2.2, 8: 3.5}

#: workers=4 wall-clock must undercut serial by this factor
WALL_CLOCK_GATE = 0.45


class _NoSharedSet:
    """A claim set that never dedups: every claim 'wins', so workers
    fall back to purely local dedup — the baseline the shared-vs-local
    gate measures against."""

    def claim(self, fp):
        return True

    def close(self):
        pass

    def unlink(self):
        pass


def _anomaly_union(result):
    return sorted(
        {str(a) for _, anomalies in result.violations for a in anomalies}
    )


def _count_key(r):
    return (
        r.states_visited,
        r.states_deduped,
        r.schedules_completed,
        r.truncated,
    )


def _run(workers, first_violation_only=False, strict_keys=False):
    t0 = time.perf_counter()
    r = explore_write_read_race(
        PROTOCOL,
        max_depth=DEPTH,
        max_states=80_000,
        first_violation_only=first_violation_only,
        workers=workers,
        strict_keys=strict_keys,
    )
    return time.perf_counter() - t0, r


def _entry(seconds, r):
    return {
        "seconds": round(seconds, 2),
        "states_visited": r.states_visited,
        "states_deduped": r.states_deduped,
        "schedules_completed": r.schedules_completed,
        "violation_found": r.violation_found,
        "anomaly_union": _anomaly_union(r),
        "roots_shipped": r.roots_shipped,
        "shared_seen_hits": r.shared_seen_hits,
        "steals": r.counters.steals,
        "publishes": r.counters.publishes,
        "idle_waits": r.counters.idle_waits,
    }


def test_parallel_frontier_gate(benchmark, monkeypatch):
    report = {
        "protocol": PROTOCOL,
        "max_depth": DEPTH,
        "cpu_count": os.cpu_count(),
        "speedup_gate": SPEEDUP_GATE,
        "wall_clock_gate": WALL_CLOCK_GATE,
        "arms": {},
    }

    def run():
        # the strict serial baseline
        serial_s, serial = _run(workers=1, strict_keys=True)
        report["arms"]["serial"] = _entry(serial_s, serial)
        # the default serial run (canonical keys): recorded, not gated
        default_s, default = _run(workers=1)
        report["arms"]["serial_default"] = _entry(default_s, default)
        pool = {}
        for w in (4, 8):
            secs, r = _run(workers=w)
            pool[w] = r
            assert not r.auto_serial
            arm = _entry(secs, r)
            arm["speedup_vs_serial"] = round(serial_s / secs, 2)
            report["arms"][f"workers{w}"] = arm
        assert _anomaly_union(default) == _anomaly_union(serial)
        # identity: verdicts, unions, and counts under the shared quotient
        for w, r in pool.items():
            assert r.violation_found == serial.violation_found, w
            assert _anomaly_union(r) == _anomaly_union(serial), w
            assert r.states_visited <= serial.states_visited, w
        # determinism: a second workers=4 run is count-bit-identical
        again_s, again = _run(workers=4)
        assert _count_key(again) == _count_key(pool[4])
        report["arms"]["workers4_repeat"] = _entry(again_s, again)
        report["count_deterministic"] = True
        # shared-dedup >= local-dedup: disabling the cross-worker claim
        # set leaves only worker-local dedup, which re-expands classes
        # sibling workers already covered
        monkeypatch.setattr(
            parallel, "make_seen_set", lambda *a, **k: _NoSharedSet()
        )
        local_s, local_only = _run(workers=4)
        monkeypatch.undo()
        arm = _entry(local_s, local_only)
        del arm["shared_seen_hits"]  # no shared set in this arm
        report["arms"]["workers4_local_dedup"] = arm
        assert local_only.violation_found == serial.violation_found
        assert _anomaly_union(local_only) == _anomaly_union(serial)
        assert pool[4].states_visited <= local_only.states_visited
        report["shared_vs_local_visit_ratio"] = round(
            local_only.states_visited / pool[4].states_visited, 2
        )
        # first-violation arm: bit-identical serial trace wins the merge
        fvo_serial_s, fvo_serial = _run(workers=1, first_violation_only=True)
        fvo_pool_s, fvo_pool = _run(workers=4, first_violation_only=True)
        assert fvo_serial.violation_found and fvo_pool.violation_found
        assert fvo_pool.violations[0][0] == fvo_serial.violations[0][0]
        assert [str(a) for a in fvo_pool.violations[0][1]] == [
            str(a) for a in fvo_serial.violations[0][1]
        ]
        report["arms"]["fvo_serial"] = _entry(fvo_serial_s, fvo_serial)
        report["arms"]["fvo_workers4"] = _entry(fvo_pool_s, fvo_pool)
        report["first_violation_bit_identical"] = True

    benchmark.pedantic(run, rounds=1, iterations=1)
    # the speedup gates (see the module docstring: the shared canonical
    # quotient makes these hold even single-core)
    for w, gate in SPEEDUP_GATE.items():
        speedup = report["arms"][f"workers{w}"]["speedup_vs_serial"]
        assert speedup >= gate, (w, speedup)
    w4 = report["arms"]["workers4"]
    assert w4["seconds"] <= WALL_CLOCK_GATE * report["arms"]["serial"]["seconds"]
    save_json("BENCH_parallel", report)
    print(
        f"{PROTOCOL}@{DEPTH}: serial {report['arms']['serial']['seconds']}s "
        f"({report['arms']['serial']['states_visited']:,} states) — "
        f"w4 {w4['speedup_vs_serial']}x, "
        f"w8 {report['arms']['workers8']['speedup_vs_serial']}x, "
        f"shared/local visit ratio "
        f"{report['shared_vs_local_visit_ratio']}x"
    )
    benchmark.extra_info["speedup"] = {
        w: report["arms"][f"workers{w}"]["speedup_vs_serial"] for w in (4, 8)
    }
