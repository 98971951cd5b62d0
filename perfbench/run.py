"""The exploration-engine benchmark: time to verdict, set-up and memory.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) as a closed loop of
explorations, each in a fresh interpreter (``probe.py``), through the
public ``repro.core.explore.explore`` with the program's own defaults,
for ``--seconds`` seconds (at least one exploration).  Every verdict is
checked against the workload's recorded expectation.

``--trace 0`` reports the end-to-end metrics: ``explore_s`` (median
engine call, call to verdict), ``setup_s`` (median over several
set-ups: import, ``prepare_theorem_system`` to C0, script), and
``peak_rss_mb`` (median peak resident memory of one exploration; on the
pool the parent plus every worker).  ``--trace 1`` adds one traced
exploration after the untraced ones and reports the per-layer split
(``spans.py``) and the tracing overhead instead.

Every metric is printed by name with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
full record (environment, counts, every sample) is written to
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

#: a run must end within 180 s; probes are not started past this
BUDGET_S = 170.0
#: set-up-only probes per untraced run, on top of each exploration's own
#: set-up: import time is noisy, so ``setup_s`` is a median of several
SETUP_SAMPLES = 8

END_TO_END = {"explore_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric and its unit, in report order."""
    units: Dict[str, str] = {}
    for name in spans.LAYERS + (spans.CORE,):
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in ("bytes_serialized", "bytes_restored"):
        units[f"sim.executor.{name}"] = "B"
    for name in ("components_restored", "components_reused"):
        units[f"sim.executor.{name}"] = "count"
    units["sim.executor.cache_hit_ratio"] = "ratio"
    units["sim.codec.cells_encoded"] = "count"
    units["sim.codec.codec_fallbacks"] = "count"
    for name in ("states_visited", "states_deduped", "schedules_completed", "truncated"):
        units[f"engine.core.{name}"] = "count"
    units["engine.core.dedup_ratio"] = "ratio"
    units["engine.core.states_per_s"] = "1/s"
    units["consistency.incremental.checks"] = "count"
    units["consistency.incremental.checker_seconds"] = "s"
    for name in ("parent_s", "worker_busy_s", "worker_wait_s"):
        units[f"engine.parallel.{name}"] = "s"
    for name in ("workers_traced", "roots_shipped", "publishes", "steals", "idle_waits"):
        units[f"engine.parallel.{name}"] = "count"
    units["engine.parallel.auto_serial"] = "flag"
    units["engine.seenset.hit_ratio"] = "ratio"
    units["trace.explore_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    units["trace.busy_s"] = "s"
    units["trace.layer_share"] = "ratio"
    return units


PER_LAYER = per_layer_units()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(records: List[dict], key: str) -> Optional[float]:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def run_probe(workload: str, seed: int, tiny: bool, deadline: float, mode: str) -> dict:
    """One probe in a fresh interpreter, leading its own process group.

    The group is killed afterwards, so no pool worker can outlive its
    probe even when the probe dies or times out.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "probe.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--out-dir", OUT_DIR,
    ] + (["--tiny"] if tiny else [])
    # an installed package carries compiled bytecode: let the unmeasured
    # first set-up write it into the checkout even where the environment
    # disables that, so every measured set-up imports, none compiles
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err = f"probe timed out\n{err}"
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    wall = time.perf_counter() - t0
    lines = out.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        rec = None
    if rec is None:
        rec = {"error": f"probe exited {proc.returncode}: {err.strip()[-2000:]}"}
    rec["wall_s"] = wall
    return rec


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    expect: Optional[workloads.Expectation] = None,
) -> dict:
    """Run one workload; the record holds every sample and every metric."""
    w = workloads.WORKLOADS[workload]
    if expect is None:
        expect = workloads.expectation(w, seed)
    deadline = time.perf_counter() + BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)

    def probe(mode: str) -> dict:
        return run_probe(workload, seed, tiny, deadline, mode)

    errors: List[str] = []
    # unmeasured: writes the bytecode caches and warms the file cache, a
    # cost a user pays once per install, not per set-up
    setups = [probe("setup")]
    if not trace:
        setups += [probe("setup") for _ in range(SETUP_SAMPLES)]
    errors += [s["error"] for s in setups if "error" in s]

    explorations: List[dict] = []
    t0 = time.perf_counter()
    while True:
        rec = probe("explore")
        explorations.append(rec)
        elapsed = time.perf_counter() - t0
        # stop when the next exploration would overrun --seconds, or
        # leave no room for it and the traced one within the budget
        if elapsed + rec["wall_s"] > seconds or time.perf_counter() + 3 * rec["wall_s"] > deadline:
            break
    traced = probe("trace") if trace else None

    failed = 0
    for rec in explorations + ([traced] if traced else []):
        problems = [rec["error"]] if "error" in rec else workloads.verdict_errors(
            expect, rec["verdict"]
        )
        rec["problems"] = problems
        if problems:
            failed += 1
            errors += problems
    attempted = len(explorations) + (1 if traced else 0)

    measured = setups[1:] + explorations if not trace else explorations
    end_to_end = {
        "explore_s": _median(explorations, "explore_s"),
        "setup_s": _median(measured, "setup_s"),
        "peak_rss_mb": _median(explorations, "peak_rss_mb"),
    }
    if None in end_to_end.values():
        raise RuntimeError(f"{workload}: nothing measured: {errors}")
    explore_s = end_to_end["explore_s"]
    record = {
        "workload": workload,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "attempted": attempted,
        "failed": failed,
        "setup_ok": not any("error" in s for s in setups),
        "errors": errors,
        "fail_ratio": failed / attempted,
        "samples": {
            "explore_s": [r.get("explore_s") for r in explorations],
            "setup_s": [r.get("setup_s") for r in measured],
            "peak_rss_mb": [r.get("peak_rss_mb") for r in explorations],
        },
        "end_to_end": end_to_end,
        "env": environment(explorations),
        "result": next((r["result"] for r in explorations if "result" in r), None),
    }
    if trace:
        record["per_layer"] = per_layer(traced, explore_s)
        record["traced"] = {k: v for k, v in traced.items() if k != "verdict"}
    return record


def per_layer(traced: dict, untraced_explore_s: float) -> Dict[str, float]:
    """The per-layer metrics of the traced exploration."""
    if "layers" not in traced:
        return {name: 0.0 for name in PER_LAYER}
    m = dict(traced["layers"])
    c = traced["counters"]
    r = traced["result"]
    m["sim.executor.bytes_serialized"] = c["bytes_serialized"]
    m["sim.executor.bytes_restored"] = c["bytes_restored"]
    m["sim.executor.components_restored"] = c["components_restored"]
    m["sim.executor.components_reused"] = c["components_reused"]
    m["sim.executor.cache_hit_ratio"] = _ratio(
        c["cache_hits"], c["cache_hits"] + c["cache_misses"]
    )
    m["sim.codec.cells_encoded"] = c["cells_encoded"]
    m["sim.codec.codec_fallbacks"] = c["codec_fallbacks"]
    for name in ("states_visited", "states_deduped", "schedules_completed", "truncated"):
        m[f"engine.core.{name}"] = r[name]
    m["engine.core.dedup_ratio"] = _ratio(
        r["states_visited"], r["states_visited"] + r["states_deduped"]
    )
    m["engine.core.states_per_s"] = _ratio(r["states_visited"], untraced_explore_s)
    m["consistency.incremental.checks"] = r["checks"]
    m["consistency.incremental.checker_seconds"] = r["checker_seconds"]
    m["engine.parallel.roots_shipped"] = r["roots_shipped"]
    m["engine.parallel.publishes"] = c["publishes"]
    m["engine.parallel.steals"] = c["steals"]
    m["engine.parallel.idle_waits"] = c["idle_waits"]
    m["engine.parallel.auto_serial"] = int(r["auto_serial"])
    m["engine.seenset.hit_ratio"] = _ratio(
        c["shared_seen_hits"], c["shared_seen_hits"] + c["shared_seen_inserts"]
    )
    m["trace.explore_s"] = traced["explore_s"]
    m["trace.overhead_ratio"] = traced["explore_s"] / untraced_explore_s - 1.0
    return {name: m[name] for name in PER_LAYER}


def environment(explorations: List[dict]) -> dict:
    env = next((r["env"] for r in explorations if "env" in r), {})
    auto = [r["result"]["auto_serial"] for r in explorations if "result" in r]
    return dict(
        env,
        git_sha=_git_sha(),
        src_sha256=_src_digest(),
        auto_serial=auto[0] if auto else None,
    )


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """A digest of the program's sources: the checkout may not be a git tree."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def report(record: dict) -> Dict[str, dict]:
    """Print the record for a reader; return the metrics the JSON line carries."""
    w = record["workload"]
    print(f"== {w} seed={record['seed']} trace={int(record['trace'])}: {record['why']}")
    for name, unit in END_TO_END.items():
        n = len(record["samples"][name])
        print(f"{w} {name} = {record['end_to_end'][name]:.6g} {unit} (median, n={n})")
    print(
        f"{w} fail_ratio = {record['fail_ratio']:.6g} ratio "
        f"({record['failed']}/{record['attempted']} explorations failed)"
    )
    for err in record["errors"]:
        print(f"{w} FAILED: {err}", file=sys.stderr)
    if record["trace"]:
        for name, value in record["per_layer"].items():
            print(f"{w} {name} = {value:.6g} {PER_LAYER[name]}")
        layers = record["per_layer"]
        if (
            workloads.WORKLOADS[w].knobs.get("workers", 1) > 1
            and not layers["engine.parallel.auto_serial"]
            and not layers["engine.parallel.workers_traced"]
        ):
            print(f"{w}: worker spans missing (workers were not forked); parent-side metrics only")
        metrics = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in record["per_layer"].items()
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(f"{w} env = {json.dumps(record['env'], sort_keys=True)}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"]
    )
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program at {ROOT}/src/repro", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: Dict[str, dict] = {}
    correct, attempted, failed = True, 0, 0
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        path = os.path.join(
            OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        got = report(record)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        correct = correct and record["failed"] == 0 and record["setup_ok"]
        attempted += record["attempted"]
        failed += record["failed"]
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
