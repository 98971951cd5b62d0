"""Self-tests of the benchmark harness (not of the program), ~50 s.

    python3 perfbench/selftest.py

* a tiny-scope run of every workload passes its correctness check, on
  two seeds, and its traced self times account for the busy time;
* the seeded race script explores exactly the states of
  ``explore_write_read_race``'s own script: the seed changes ids and
  values, not the scenario's shape;
* a wrong expectation is a failed exploration, not a crash;
* in a directory without the program the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check_tiny_workloads() -> None:
    for name in workloads.WORKLOADS:
        for seed in (0, 7):
            rec = run.measure(name, seed, seconds=1, trace=True, tiny=True)
            assert rec["failed"] == 0 and rec["setup_ok"], (name, seed, rec["errors"])
            layers = rec["per_layer"]
            named = sum(layers[f"{layer}.self_s"] for layer in spans.LAYERS)
            total = named + layers[f"{spans.CORE}.self_s"]
            busy = layers["trace.busy_s"]
            assert abs(total - busy) <= 1e-9 * busy, (name, total, busy)
            assert 0 < named <= busy, (name, named, busy)
            if name.endswith("-w2"):
                assert layers["engine.parallel.auto_serial"] == 0, name
                assert layers["engine.parallel.workers_traced"] == 2, layers
                assert layers["engine.parallel.worker_busy_s"] > 0, layers
            else:
                assert named <= layers["trace.explore_s"], (name, named)
            print(f"ok  tiny {name} seed={seed}: layers {named / busy:.0%} of busy time")


def check_race_shape() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.explore import explore_write_read_race

    w = workloads.WORKLOADS["fastclaim-race-strict"]
    knobs, _ = workloads.settings(w, tiny=True)
    ref = explore_write_read_race(w.protocol, **knobs)
    rec = run.measure(w.name, 5, seconds=1, trace=False, tiny=True)
    got = rec["result"]
    for key in ("states_visited", "states_deduped", "schedules_completed", "violating_schedules"):
        want = len(ref.violations) if key == "violating_schedules" else getattr(ref, key)
        assert got[key] == want, (key, got[key], want)
    print(f"ok  seeded race explores the reference scope ({got['states_visited']} states)")


def check_wrong_expectation() -> None:
    w = workloads.WORKLOADS["fastclaim-race-strict"]
    wrong = workloads.Expectation(
        violation=False, anomalies=frozenset(), conclusive=True, exhausted=False
    )
    rec = run.measure(w.name, 0, seconds=1, trace=False, tiny=True, expect=wrong)
    assert rec["attempted"] >= 1 and rec["failed"] == rec["attempted"], rec["errors"]
    print(f"ok  wrong expectation counted as {rec['failed']} failed exploration(s)")


def check_without_program() -> None:
    bare = os.path.join(run.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        HERE,
        os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns(".out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cops-x7-por",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok  no program: exit {proc.returncode}, no result printed")


def main() -> int:
    check_without_program()
    check_wrong_expectation()
    check_race_shape()
    check_tiny_workloads()
    return 0


if __name__ == "__main__":
    sys.exit(main())
