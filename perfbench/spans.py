"""Outside-in span tracing of the exploration engine's layers.

The program is treated as a black box: before the engine call the
probe rebinds the public functions at each layer boundary to wrappers
that record one span per call (layer, start, end, parent span) in
memory.  Spans are written out once, when the process ends; the
layer split is computed from them afterwards.  A layer's *self time*
is its spans' duration minus the part covered by child spans;
``engine.core`` is the rest of the traced exploration's busy time, so
all self times add up to it.

Pool workers are ``fork``ed from the probe after the wrappers are in
place, so they inherit them.  A ``register_after_fork`` hook empties the
inherited span log in each worker and registers a ``Finalize`` that
writes the worker's spans (and its peak RSS) to ``out_dir`` when the
worker exits.  The same hook runs untraced too, because the pool's
``peak_rss_mb`` adds up the parent and every worker.  Under a ``spawn``
start method the workers re-import the program unwrapped: only the
parent's spans and memory are then recorded, and the report says so.
"""

from __future__ import annotations

import os
import pickle
import resource
import time
from array import array
from multiprocessing import util as mp_util
from typing import Dict, List

#: the layer each wrapped function's self time is charged to.  Engine
#: bookkeeping (the exploration call itself and ``SerialSearch.run`` /
#: ``collect_frontier``: seen-set, sleep sets, DFS recursion) is
#: ``engine.core``; checkpoint is folded into rollback.
CORE = "engine.core"
LAYERS = (
    "sim.executor.fingerprint",
    "sim.executor.snapshot",
    "sim.executor.restore",
    "sim.events.enabled_events",
    "sim.executor.step",
    "sim.executor.deliver",
    "consistency.incremental.advance",
    "consistency.incremental.anomalies",
    "consistency.incremental.rollback",
    "txn.history.committed_deltas",
    "engine.seenset.claim",
)


class ProcessLog:
    """One process's span log plus its lifetime and peak memory."""

    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self.role = "parent"
        self.born = time.perf_counter()
        self.layer_names: List[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        mp_util.register_after_fork(self, ProcessLog._after_fork)

    def _code(self, name: str) -> int:
        if name not in self.layer_names:
            self.layer_names.append(name)
        return self.layer_names.index(name)

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call under layer ``name``."""
        code = self._code(name)
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            i = len(layer)
            layer.append(code)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = fn.__doc__
        return span

    def _after_fork(self) -> None:
        # a forked worker starts with the parent's log; keep only its own
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        self.stack[:] = [-1]
        self.role = "worker"
        self.born = time.perf_counter()
        mp_util.Finalize(self, self.flush, exitpriority=100)

    def record(self) -> dict:
        return {
            "run_id": self.run_id,
            "role": self.role,
            "pid": os.getpid(),
            "born": self.born,
            "died": time.perf_counter(),
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "layer_names": list(self.layer_names),
            "layer": self.layer,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }

    def flush(self) -> None:
        """Write this (worker) process's record to ``out_dir``."""
        path = os.path.join(self.out_dir, f"{self.run_id}.worker{os.getpid()}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(self.record(), fh, protocol=pickle.HIGHEST_PROTOCOL)

    def worker_records(self) -> List[dict]:
        """Load (and remove) the records the workers of this run wrote."""
        prefix = f"{self.run_id}.worker"
        records = []
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith(prefix):
                path = os.path.join(self.out_dir, name)
                with open(path, "rb") as fh:
                    records.append(pickle.load(fh))
                os.remove(path)
        return records


def install(log: ProcessLog) -> None:
    """Rebind every traced public function to its span-recording wrapper."""
    import repro.engine.core as engine_core
    import repro.engine.seenset as seenset
    import repro.txn.history as history
    from repro.consistency.incremental import IncrementalChecker
    from repro.sim.executor import Simulation

    for method in ("fingerprint", "snapshot", "restore", "step", "deliver"):
        setattr(
            Simulation,
            method,
            log.wrap(getattr(Simulation, method), f"sim.executor.{method}"),
        )
    # the engine calls enabled_events through its own module global
    engine_core.enabled_events = log.wrap(
        engine_core.enabled_events, "sim.events.enabled_events"
    )
    # imported at call time by the engine, so rebinding the module
    # attribute is enough
    history.committed_deltas = log.wrap(
        history.committed_deltas, "txn.history.committed_deltas"
    )
    checker_layers = {
        "advance": "consistency.incremental.advance",
        "anomalies": "consistency.incremental.anomalies",
        "checkpoint": "consistency.incremental.rollback",
        "rollback": "consistency.incremental.rollback",
    }
    pending = [IncrementalChecker]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method, name in checker_layers.items():
            if method in cls.__dict__:
                setattr(cls, method, log.wrap(cls.__dict__[method], name))
    for method in ("run", "collect_frontier"):
        setattr(
            engine_core.SerialSearch,
            method,
            log.wrap(getattr(engine_core.SerialSearch, method), CORE),
        )
    for cls in (seenset.SharedSeenSet, seenset.DiskSeenSet):
        cls.claim = log.wrap(cls.claim, "engine.seenset.claim")


def _self_times(rec: dict, self_s: Dict[str, float], calls: Dict[str, int]) -> None:
    """Accumulate one process's per-layer self time and call count."""
    start, end, parent, layer = rec["start"], rec["end"], rec["parent"], rec["layer"]
    names = rec["layer_names"]
    n = len(layer)
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    for i in range(n):
        name = names[layer[i]]
        self_s[name] = self_s.get(name, 0.0) + (end[i] - start[i]) - covered[i]
        calls[name] = calls.get(name, 0) + 1


def layer_split(
    parent: dict, workers: List[dict], t_call: float, t_done: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced exploration.

    ``parent`` holds the probe's own spans, ``workers`` the pool
    workers'.  The busy time is the engine call on a serial run.  On the
    pool the parent blocks from the moment a worker takes its first task
    until the verdict is merged; that wait is not work, so the busy time
    is the parent's time up to the first task plus every worker's time
    inside ``SerialSearch.run``.  ``engine.core`` is the busy time no
    other layer covers.
    """
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for rec in [parent] + workers:
        _self_times(rec, self_s, calls)
    busy_s = t_done - t_call
    parent_s = busy_per_worker = wait_per_worker = 0.0
    if workers:
        firsts, busy, waits = [], [], []
        for rec in workers:
            tops = [
                i
                for i in range(len(rec["layer"]))
                if rec["parent"][i] < 0
                and rec["layer_names"][rec["layer"][i]] == CORE
            ]
            b = sum(rec["end"][i] - rec["start"][i] for i in tops)
            if tops:
                firsts.append(min(rec["start"][i] for i in tops))
            busy.append(b)
            waits.append(rec["died"] - rec["born"] - b)
        parent_s = (min(firsts) if firsts else t_done) - t_call
        busy_s = parent_s + sum(busy)
        busy_per_worker = sum(busy) / len(busy)
        wait_per_worker = sum(waits) / len(waits)
    layered = sum(self_s.get(name, 0.0) for name in LAYERS)
    self_s[CORE] = busy_s - layered
    out: Dict[str, float] = {}
    for name in LAYERS + (CORE,):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    out["engine.parallel.parent_s"] = parent_s
    out["engine.parallel.worker_busy_s"] = busy_per_worker
    out["engine.parallel.worker_wait_s"] = wait_per_worker
    out["engine.parallel.workers_traced"] = len(workers)
    out["trace.busy_s"] = busy_s
    out["trace.layer_share"] = layered / busy_s if busy_s > 0 else 0.0
    return out


def dump_spans(path: str, records: List[dict]) -> None:
    """Write every process's spans of one traced run to ``path``."""
    with open(path, "wb") as fh:
        pickle.dump(records, fh, protocol=pickle.HIGHEST_PROTOCOL)
