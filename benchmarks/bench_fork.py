"""The fork benchmark: codec snapshots vs the deep-copy reference.

Micro level: the raw snapshot / fingerprint / restore cycle — the inner
loop of ``RC(C, α)`` — timed in both snapshot modes on a protocol with
nested state (Wren).  Macro level: the full model-checker runs of
``bench_explore`` repeated in both modes, asserting that the fast path
explores the *identical* state space (same states visited, same
schedules, same violations) at several times lower wall-clock time.

Both levels emit machine-readable JSON (``BENCH_fork.json``,
``BENCH_fork_macro.json``) under ``benchmarks/results/`` so the perf
trajectory of the fork path stays visible across PRs (the exploration
matrix itself lives in ``bench_explore.py`` / ``BENCH_explore.json``);
``make bench-smoke`` checks the committed state counts on every run.
"""

import json
import time

from conftest import RESULTS_DIR, once, save_result
from repro.core.explore import explore_write_read_race
from repro.core.setup import prepare_theorem_system
from repro.sim.executor import use_snapshot_mode
from repro.sim.scheduler import RoundRobinScheduler

MODES = ("codec", "deepcopy")

#: the same workloads as the bench_smoke baselines
MACRO_CONFIGS = [
    ("fastclaim", dict(max_depth=30, max_states=60_000), True),
    ("cops", dict(max_depth=22, max_states=6_000), False),
]


def save_json(name: str, payload) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[saved to benchmarks/results/{name}.json]")


def _warm_sim():
    tsys = prepare_theorem_system("wren")
    sim = tsys.sim
    sim.invoke(tsys.cw, tsys.tw())
    sched = RoundRobinScheduler()
    pids = (tsys.cw,) + tuple(tsys.servers)
    for _ in range(8):
        sched.tick(sim, pids=pids)
    return sim


def _micro_cycle(sim, cycles: int) -> dict:
    """Time the snapshot/fingerprint/restore cycle and the O(1) fork."""
    t0 = time.perf_counter()
    for _ in range(cycles):
        snap = sim.snapshot()
        sim.fingerprint()
        sim.restore(snap)
    cycle_s = (time.perf_counter() - t0) / cycles
    snap = sim.snapshot()
    t0 = time.perf_counter()
    for _ in range(cycles):
        snap.fork()
    fork_s = (time.perf_counter() - t0) / cycles
    return {
        "cycle_us": round(cycle_s * 1e6, 2),
        "fork_us": round(fork_s * 1e6, 3),
        "snapshot_bytes": snap.size_bytes(),
        "counters": sim.counters.as_dict(),
    }


def test_fork_micro(benchmark):
    """snapshot+fingerprint+restore and fork(), both modes, Wren state."""
    report = {}

    def run():
        for mode in MODES:
            with use_snapshot_mode(mode):
                report[mode] = _micro_cycle(_warm_sim(), cycles=300)

    once(benchmark, run)
    report["speedup_cycle"] = round(
        report["deepcopy"]["cycle_us"] / report["codec"]["cycle_us"], 2
    )
    # the codec fork copies no bytes; the deep-copy fork copies everything
    assert report["codec"]["fork_us"] < report["deepcopy"]["fork_us"]
    assert report["speedup_cycle"] > 1.0
    save_json("BENCH_fork", report)
    benchmark.extra_info.update(report)


def test_explore_modes_identical_and_faster(benchmark):
    """The acceptance gate for the encoded-snapshot path.

    Identical exploration results in both modes on both bench_explore
    workloads, with the fast path at least 2x faster in-process (the
    recorded JSON keeps the measured ratio; against the pre-rework
    engine — which also deep copied once more per restore and cached
    nothing — the measured gap is larger).
    """
    report = {"configs": []}

    def run():
        for proto, params, expect_violation in MACRO_CONFIGS:
            entry = {"protocol": proto, "params": params, "modes": {}}
            for mode in MODES:
                with use_snapshot_mode(mode):
                    t0 = time.perf_counter()
                    r = explore_write_read_race(proto, **params)
                    dt = time.perf_counter() - t0
                entry["modes"][mode] = {
                    "states_visited": r.states_visited,
                    "schedules_completed": r.schedules_completed,
                    "truncated": r.truncated,
                    "violations": sorted(tuple(s) for s, _ in r.violations),
                    "seconds": round(dt, 2),
                    "counters": r.counters.as_dict(),
                }
                assert r.violation_found == expect_violation, (proto, mode)
            report["configs"].append(entry)

    once(benchmark, run)
    for entry in report["configs"]:
        fast, ref = entry["modes"]["codec"], entry["modes"]["deepcopy"]
        for key in ("states_visited", "schedules_completed", "violations"):
            assert fast[key] == ref[key], (entry["protocol"], key)
        entry["identical"] = True
        entry["speedup"] = round(ref["seconds"] / fast["seconds"], 2)
        assert entry["speedup"] >= 2.0, entry
    save_json("BENCH_fork_macro", report)
    rows = [
        [
            e["protocol"],
            e["modes"]["codec"]["states_visited"],
            e["modes"]["deepcopy"]["seconds"],
            e["modes"]["codec"]["seconds"],
            f'{e["speedup"]}x',
        ]
        for e in report["configs"]
    ]
    from repro.analysis.tables import format_table

    save_result(
        "fork_speedup",
        format_table(
            ["protocol", "states", "deepcopy s", "codec s", "speedup"],
            rows,
            title="Codec-snapshot forking vs deep-copy reference (identical searches)",
        ),
    )
