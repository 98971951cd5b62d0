"""One set-up, or one exploration, of one workload in a fresh interpreter.

    python3 perfbench/probe.py --workload NAME --seed N --mode setup|explore|trace

Prints one JSON object on its last stdout line.  ``setup_s`` runs from
before ``import repro`` to the script in hand (``prepare_theorem_system``
driving to C0 included); ``explore_s`` is the engine call, from call to
verdict in hand.  ``trace`` mode wraps the layers first (see
``spans.py``) and adds the per-layer split.  A fresh interpreter per
exploration keeps ``peak_rss_mb`` to one exploration and makes every
set-up pay the import a user pays.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import platform
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402


def _anomalies(result) -> list:
    """The anomaly union over every violating schedule, as field dicts."""
    union = {}
    for _, anomalies in result.violations:
        for a in anomalies:
            fields = {k: str(v) for k, v in dataclasses.asdict(a).items()}
            union[workloads.anomaly_key(fields)] = fields
    return [union[k] for k in sorted(union)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--mode", choices=("setup", "explore", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test scope")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    knobs, chain_length = workloads.settings(w, args.tiny)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.core.explore import explore
    from repro.core.setup import prepare_theorem_system

    tsys = prepare_theorem_system(w.protocol, n_probes=2)
    script = workloads.build_script(w, tsys, args.seed, chain_length)
    out = {"setup_s": time.perf_counter() - t0}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    log = spans.ProcessLog(args.out_dir, f"probe{os.getpid()}")
    call = explore
    if args.mode == "trace":
        spans.install(log)
        call = log.wrap(explore, spans.CORE)
    t_call = time.perf_counter()
    try:
        result = call(tsys.system, script, **knobs)
    except Exception:
        out["explore_s"] = time.perf_counter() - t_call
        out["error"] = traceback.format_exc()
        print(json.dumps(out))
        return 0
    t_done = time.perf_counter()
    workers = log.worker_records()
    own = log.record()
    counters = result.counters.as_dict() if result.counters is not None else {}
    out.update(
        explore_s=t_done - t_call,
        peak_rss_mb=(own["maxrss_kb"] + sum(r["maxrss_kb"] for r in workers)) / 1024.0,
        verdict={
            "violation": result.violation_found,
            "anomalies": _anomalies(result),
            "conclusive": result.conclusive,
            "exhausted": bool(result.exhausted),
            "checks": result.checks,
        },
        result={
            "states_visited": result.states_visited,
            "states_deduped": result.states_deduped,
            "schedules_completed": result.schedules_completed,
            "truncated": result.truncated,
            "violating_schedules": len(result.violations),
            "checks": result.checks,
            "checker_seconds": result.checker_seconds,
            "incremental": result.incremental,
            "auto_serial": result.auto_serial,
            "roots_shipped": result.roots_shipped,
            "shared_seen_hits": result.shared_seen_hits,
        },
        counters=counters,
        workers_recorded=len(workers),
        env={
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
            "snapshot_mode": tsys.system.sim.snapshot_mode,
            "start_methods": multiprocessing.get_all_start_methods(),
        },
    )
    if args.mode == "trace":
        out["layers"] = spans.layer_split(own, workers, t_call, t_done)
        spans.dump_spans(
            os.path.join(args.out_dir, f"spans-{args.workload}.pkl"), [own] + workers
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
