"""The schema-codec acceptance gate: the production snapshot path.

Runs the two seed write/read-race scenarios (FastClaim, which violates;
COPS, which verifies) at full plain-DFS scope, strict-keyed (the
population the baseline recorded; exhaustive runs key canonically by
default), on the schema-codec path
(typed cells + incremental Merkle fingerprints, the only production
snapshot mode) and asserts:

* **Identity.** The codec search is the oracle's search: at a reduced
  scope both scenarios replay under the ``deepcopy`` oracle with
  identical verdicts, state counts, dedup counts, violating schedules
  and anomaly unions (full scope under deepcopy is minutes, and the
  partition argument is scope-independent).  At full scope the state
  counts must equal the ones the retired per-component pickle path
  recorded (``BYTES_BASELINE``), which explored the oracle's partition.
* **The ≥ 5x traffic gate.** ``bytes_serialized + bytes_restored`` on
  the codec path must undercut the recorded traffic of the retired
  per-component pickle path (``BYTES_BASELINE``) at least 5x.
* **O(delta) fingerprint work.** After one event on one component, the
  re-capture must encode only the touched cells (``cells_encoded``
  delta bounded by a small constant, not by system size).

Wall-clock seconds are recorded, never asserted.  The whole grid lands
in ``benchmarks/results/BENCH_codec.json`` (a CI artifact, so the
trajectory stays observable across commits).
"""

import time

from bench_explore import save_json
from repro.core.explore import explore_write_read_race
from repro.sim.executor import use_snapshot_mode

#: (protocol, full-scope depth, expects violation)
SCENARIOS = [
    ("fastclaim", 18, True),
    ("cops", 22, False),
]

#: plain-DFS search counts, wall clock and traffic at the scopes above,
#: as recorded for the retired per-component pickle path
#: (``snapshot_mode="bytes"``) before the schema codec replaced it — the
#: fixed reference the gates are phrased against.
#: Counts and traffic are deterministic (they must reproduce); seconds
#: are that machine's and are reported, not asserted.
BYTES_BASELINE = {
    "fastclaim": {
        "seconds": 16.92,
        "traffic": 77_521_873,
        "states_visited": 46_222,
        "states_deduped": 77_786,
        "schedules_completed": 5_395,
    },
    "cops": {
        "seconds": 9.83,
        "traffic": 48_847_767,
        "states_visited": 31_187,
        "states_deduped": 34_731,
        "schedules_completed": 5_077,
    },
}

#: acceptance gates
TRAFFIC_GATE = 5.0  #: codec traffic must undercut the bytes baseline 5x
DELTA_CELLS_MAX = 8  #: cells re-encoded after one event on one component

#: reduced scope for the deepcopy oracle replay
ORACLE_SCOPE = {"fastclaim": 10, "cops": 12}


def _traffic(counters) -> int:
    return counters.bytes_serialized + counters.bytes_restored


def _identity_key(result):
    return dict(
        violation_found=result.violation_found,
        states_visited=result.states_visited,
        states_deduped=result.states_deduped,
        schedules_completed=result.schedules_completed,
        truncated=result.truncated,
        schedules=sorted(tuple(s) for s, _ in result.violations),
        anomaly_union=sorted(
            {str(a) for _, anomalies in result.violations for a in anomalies}
        ),
    )


def _delta_cells_probe() -> int:
    """Worst per-event ``cells_encoded`` growth over a short run.

    Each scheduler tick applies one event to one component; O(delta)
    fingerprint/snapshot work means the re-encode bill per event is a
    small constant (touched cells), not the system's total cell count.
    """
    from repro.core.setup import prepare_theorem_system
    from repro.sim.scheduler import RoundRobinScheduler

    tsys = prepare_theorem_system("fastclaim")
    sim = tsys.sim
    sim.invoke(tsys.cw, tsys.tw())
    sched = RoundRobinScheduler()
    pids = (tsys.cw,) + tuple(tsys.servers)
    for _ in range(8):
        sched.tick(sim, pids=pids)
    sim.snapshot()
    sim.fingerprint()
    worst = 0
    total = 0
    for _ in range(6):
        before = sim.counters.cells_encoded
        sched.tick(sim, pids=pids)  # one event on one component
        sim.snapshot()
        sim.fingerprint()
        delta = sim.counters.cells_encoded - before
        worst = max(worst, delta)
        total += delta
    assert total > 0, "probe events never touched a cell"
    return worst


def _oracle_identical(proto: str) -> bool:
    """The codec and deepcopy searches agree bit for bit at reduced scope."""
    keys = {}
    for mode in ("codec", "deepcopy"):
        with use_snapshot_mode(mode):
            r = explore_write_read_race(
                proto,
                max_depth=ORACLE_SCOPE[proto],
                max_states=4_000,
                first_violation_only=False,
            )
        keys[mode] = _identity_key(r)
    return keys["codec"] == keys["deepcopy"]


def test_codec_gates(benchmark):
    report = {
        "traffic_gate": TRAFFIC_GATE,
        "delta_cells_max": DELTA_CELLS_MAX,
        "scenarios": [],
    }

    def run():
        for proto, depth, expect_violation in SCENARIOS:
            t0 = time.perf_counter()
            # strict keys: the population BYTES_BASELINE recorded
            r = explore_write_read_race(
                proto,
                max_depth=depth,
                max_states=80_000,
                first_violation_only=False,
                strict_keys=True,
            )
            dt = time.perf_counter() - t0
            assert r.violation_found == expect_violation, proto
            assert r.truncated == 0 and not r.exhausted, proto
            key = _identity_key(r)
            base = BYTES_BASELINE[proto]
            traffic = _traffic(r.counters)
            report["scenarios"].append(
                {
                    "protocol": proto,
                    "max_depth": depth,
                    "seconds": round(dt, 2),
                    "traffic_bytes": traffic,
                    "counters": r.counters.as_dict(),
                    **{k: v for k, v in key.items() if k != "schedules"},
                    "counts_match_baseline": all(
                        key[k] == base[k]
                        for k in (
                            "states_visited",
                            "states_deduped",
                            "schedules_completed",
                        )
                    ),
                    "oracle_identical": _oracle_identical(proto),
                    "speedup_vs_bytes_baseline": round(
                        base["seconds"] / max(dt, 1e-9), 2
                    ),
                    "traffic_ratio_vs_bytes_baseline": round(
                        base["traffic"] / traffic, 1
                    ),
                }
            )
        report["delta_cells_one_event"] = _delta_cells_probe()

    benchmark.pedantic(run, rounds=1, iterations=1)
    assert report["delta_cells_one_event"] <= DELTA_CELLS_MAX, report[
        "delta_cells_one_event"
    ]
    for entry in report["scenarios"]:
        assert entry["oracle_identical"], entry["protocol"]
        assert entry["counts_match_baseline"], entry
        assert entry["traffic_ratio_vs_bytes_baseline"] >= TRAFFIC_GATE, entry
        print(
            f"{entry['protocol']}: codec traffic "
            f"{entry['traffic_bytes']:,} bytes — "
            f"{entry['traffic_ratio_vs_bytes_baseline']}x under the "
            f"recorded bytes baseline; {entry['seconds']}s "
            f"({entry['speedup_vs_bytes_baseline']}x vs its recorded seconds)"
        )
    print(
        f"one event re-encodes {report['delta_cells_one_event']} cells "
        f"(gate: <= {DELTA_CELLS_MAX})"
    )
    save_json("BENCH_codec", report)
    benchmark.extra_info["traffic_ratio"] = [
        (e["protocol"], e["traffic_ratio_vs_bytes_baseline"])
        for e in report["scenarios"]
    ]
