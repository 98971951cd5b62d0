"""The exploration-engine matrix: strategy × POR × workers.

Runs the two seed write/read-race scenarios (FastClaim, which violates;
COPS, which verifies) through the engine's knobs at full scope — depth
past quiescence, no truncation — and records the whole grid in
``benchmarks/results/BENCH_explore.json``.  The matrix is simultaneously
the acceptance gate for the partial-order reduction (same verdict, same
anomaly set, ≥ 2x fewer expanded states than the unreduced DFS) and the
perf trajectory the CI artifact tracks across PRs.

The closing table repeats the paper's point from the other side: the
brute-force checker needs tens of thousands of configurations (hundreds
after reduction) to find what the proof engine assembles as one splice.
"""

import json
import time

from conftest import RESULTS_DIR, once, save_result
from repro.analysis.tables import format_table
from repro.core import check_impossibility
from repro.core.explore import explore_write_read_race

#: (protocol, full-scope depth, expects violation)
SCENARIOS = [
    ("fastclaim", 18, True),
    ("cops", 22, False),
]

#: (label, strategy, por, workers, strict_keys) — the CI smoke matrix
#: mirrors this.  ``dfs`` is the unreduced reference the POR gate is
#: phrased against, so it pins strict keys; ``dfs+canon`` is the default
#: exhaustive run (canonical keys, no sleep sets).
CONFIGS = [
    ("dfs", "dfs", False, 1, True),
    ("dfs+canon", "dfs", False, 1, False),
    ("dfs+por", "dfs", True, 1, False),
    ("bfs+por", "bfs", True, 1, False),
    ("dfs+por+w2", "dfs", True, 2, False),
]

_rows = []


def _anomaly_union(result):
    return sorted(
        {str(a) for _, anomalies in result.violations for a in anomalies}
    )


def save_json(name: str, payload) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[saved to benchmarks/results/{name}.json]")


def test_engine_matrix(benchmark):
    """The whole grid, with the POR acceptance gate asserted."""
    report = {"scenarios": []}

    def run():
        for proto, depth, expect_violation in SCENARIOS:
            entry = {"protocol": proto, "max_depth": depth, "configs": {}}
            for label, strategy, por, workers, strict in CONFIGS:
                t0 = time.perf_counter()
                r = explore_write_read_race(
                    proto,
                    max_depth=depth,
                    max_states=80_000,
                    first_violation_only=False,
                    strategy=strategy,
                    por=por,
                    workers=workers,
                    strict_keys=strict,
                )
                dt = time.perf_counter() - t0
                assert r.violation_found == expect_violation, (proto, label)
                assert r.truncated == 0 and not r.exhausted, (proto, label)
                entry["configs"][label] = {
                    "states_visited": r.states_visited,
                    "states_deduped": r.states_deduped,
                    "schedules_completed": r.schedules_completed,
                    "violating_schedules": len(r.violations),
                    "anomaly_union": _anomaly_union(r),
                    "seconds": round(dt, 2),
                    "counters": r.counters.as_dict(),
                }
            report["scenarios"].append(entry)

    once(benchmark, run)
    for entry in report["scenarios"]:
        cfg = entry["configs"]
        plain, reduced = cfg["dfs"], cfg["dfs+por"]
        # every knob returns the same verdict and the same anomalies
        for label, arm in cfg.items():
            assert arm["anomaly_union"] == plain["anomaly_union"], label
        # the acceptance gate: POR cuts expanded states by >= 2x
        entry["por_reduction"] = round(
            plain["states_visited"] / reduced["states_visited"], 1
        )
        assert entry["por_reduction"] >= 2.0, entry
        _rows.extend(
            [
                entry["protocol"],
                label,
                arm["states_visited"],
                arm["schedules_completed"],
                arm["violating_schedules"],
                arm["seconds"],
            ]
            for label, arm in cfg.items()
        )
    save_json("BENCH_explore", report)
    benchmark.extra_info["por_reduction"] = [
        (e["protocol"], e["por_reduction"]) for e in report["scenarios"]
    ]


def test_proof_engine_refutes_fastclaim(benchmark):
    verdict = once(benchmark, check_impossibility, "fastclaim", max_k=3,
                   skip_fast_check=True)
    assert verdict.outcome == "CAUSAL_VIOLATION"
    _rows.append(["fastclaim", "proof engine", 1, 1, 1, "-"])


def test_explore_table(benchmark):
    once(benchmark, lambda: None)
    save_result(
        "explore_vs_engine",
        format_table(
            ["protocol", "config", "states", "schedules", "violating", "s"],
            _rows,
            title="Exploration matrix vs the paper's constructions",
        ),
    )
