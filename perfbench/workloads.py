"""The four schedule-space workloads and what each one is expected to prove.

Every workload is one exploration at a time from a single process (a
closed loop: the next exploration starts when the previous verdict is
in hand).  Only ``cops-x7-por-w2`` starts worker processes.

The workload seed changes transaction ids and written values, never the
scenario's shape: the same processes, the same transactions on the same
objects, the same engine knobs.  Every recorded expectation therefore
holds for every seed, and a claim made on one seed can be re-checked on
an unseen one.  State, dedup and leaf counts are *not* expectations:
a canonical-keys change legitimately moves them, so they are reported
as per-layer metrics only.

This module imports nothing from ``repro`` at import time: the runner
loads it without paying (or timing) the program's import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: used when no ``--seed`` is given
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Expectation:
    """The verdict a workload must reach, on at least one checked leaf;
    counts are deliberately absent."""

    violation: bool
    #: the exact union of anomalies over all violating schedules, each
    #: anomaly as a sorted tuple of its (field, value) pairs
    anomalies: frozenset
    conclusive: bool
    exhausted: bool


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    protocol: str
    #: ``race`` (the theorem's write racing one ROT) or ``chain``
    #: (writes alternating with 2-key ROTs)
    shape: str
    #: exactly the knobs the workload names; everything else stays at the
    #: program's defaults so a PR that changes a default is measured
    knobs: Dict[str, object]
    #: knob overrides for the harness self-test's tiny scope (same
    #: expected verdict, seconds instead of tens of seconds)
    tiny: Dict[str, object]
    chain_length: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fastclaim-race-strict",
            why=(
                "the paper's scenario, exhaustive on strict keys: most leaves "
                "and violations, so the seen-set and the checker do their most work"
            ),
            protocol="fastclaim",
            shape="race",
            knobs={"max_depth": 18, "first_violation_only": False},
            # POR keeps the verdict and the anomaly union (sleep sets only
            # prune redundant interleavings) on ~1,300 instead of ~46k states
            tiny={"por": True},
        ),
        Workload(
            name="cops-x7-por",
            why=(
                "proof of absence on canonical prints plus sleep sets: the "
                "snapshot stack dominates and the checker is nearly idle"
            ),
            protocol="cops",
            shape="chain",
            chain_length=7,
            knobs={"por": True, "max_depth": 100, "first_violation_only": False},
            tiny={"chain_length": 3},
        ),
        Workload(
            name="spanner-budget",
            why=(
                "por_safe=False protocol on strict keys cut by a 30k-state "
                "budget: cost per state at a fixed count, restore and step heavy"
            ),
            protocol="spanner",
            shape="race",
            knobs={"max_depth": 40, "max_states": 30_000},
            tiny={"max_states": 6_000},
        ),
        Workload(
            name="cops-x7-por-w2",
            why=(
                "the cops-x7-por inputs on a 2-worker pool: the only workload "
                "that runs engine.parallel and engine.seenset"
            ),
            protocol="cops",
            shape="chain",
            chain_length=7,
            knobs={
                "por": True,
                "max_depth": 100,
                "first_violation_only": False,
                "workers": 2,
            },
            tiny={"chain_length": 5},
        ),
    )
}


def seed_tag(seed: int) -> str:
    """Six hex digits drawn from ``seed``: fixed width, so every seed
    writes strings of the same length."""
    return f"{random.Random(seed).getrandbits(24):06x}"


def settings(workload: Workload, tiny: bool) -> Tuple[Dict[str, object], int]:
    """(engine knobs, chain length) for one run."""
    knobs = dict(workload.knobs)
    chain_length = workload.chain_length
    if tiny:
        overrides = dict(workload.tiny)
        chain_length = overrides.pop("chain_length", chain_length)
        knobs.update(overrides)
    return knobs, chain_length


def race_inputs(tag: str) -> Tuple[Dict[str, str], str, str]:
    """(new values, writer txid, reader txid) of the write/read race."""
    return (
        {obj: f"{obj}:new{tag}" for obj in ("X0", "X1")},
        f"Tw{tag}",
        f"Tr{tag}",
    )


def build_script(workload: Workload, tsys, seed: int, chain_length: int) -> list:
    """The (client, transaction) script, generated from ``seed``.

    ``race`` mirrors ``explore_write_read_race``: one multi-object write
    by the writer client racing one ROT of every object by the first
    probe.  ``chain`` is ``chain_length`` transactions, single-object
    writes alternating with 2-key ROTs by the second probe.
    """
    from repro.txn.types import read_only_txn, write_only_txn

    tag = seed_tag(seed)
    if workload.shape == "race":
        values, writer, reader = race_inputs(tag)
        return [
            (tsys.cw, write_only_txn(values, txid=writer)),
            (tsys.probes[0], read_only_txn(tsys.objects, txid=reader)),
        ]
    objs = tsys.objects
    script = []
    for i in range(chain_length):
        if i % 2 == 0:
            obj = objs[(i // 2) % len(objs)]
            script.append(
                (tsys.cw, write_only_txn({obj: f"b{i}@{tag}"}, txid=f"Tw{i}.{tag}"))
            )
        else:
            script.append(
                (tsys.probes[1], read_only_txn(list(objs[:2]), txid=f"Tr{i}.{tag}"))
            )
    return script


def anomaly_key(fields: Dict[str, object]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in fields.items()))


def expectation(workload: Workload, seed: int) -> Expectation:
    """The recorded verdict of ``workload`` on the inputs of ``seed``."""
    if workload.protocol == "fastclaim":
        # FastClaim's fast ROT can read both initial values while the
        # write is already causally before it: one stale read per object
        values, writer, reader = race_inputs(seed_tag(seed))
        return Expectation(
            violation=True,
            anomalies=frozenset(
                anomaly_key(
                    {
                        "reader": reader,
                        "obj": obj,
                        "read_value": f"{obj}:init",
                        "read_writer": f"Tin{i}",
                        "fresher_writer": writer,
                        "fresher_value": values[obj],
                    }
                )
                for i, obj in enumerate(("X0", "X1"))
            ),
            conclusive=True,
            exhausted=False,
        )
    if workload.protocol == "cops":
        return Expectation(
            violation=False, anomalies=frozenset(), conclusive=True, exhausted=False
        )
    # spanner: no violation within the budget, which the run must spend
    return Expectation(
        violation=False, anomalies=frozenset(), conclusive=False, exhausted=True
    )


def verdict_errors(expect: Expectation, verdict: Dict[str, object]) -> List[str]:
    """Every way ``verdict`` (as reported by the probe) misses ``expect``."""
    errors = []
    if verdict["violation"] != expect.violation:
        errors.append(f"violation {verdict['violation']} != {expect.violation}")
    got = frozenset(anomaly_key(a) for a in verdict["anomalies"])
    if got != expect.anomalies:
        errors.append(
            f"anomaly union {sorted(got)} != {sorted(expect.anomalies)}"
        )
    if verdict["conclusive"] != expect.conclusive:
        errors.append(f"conclusive {verdict['conclusive']} != {expect.conclusive}")
    if verdict["exhausted"] != expect.exhausted:
        errors.append(f"exhausted {verdict['exhausted']} != {expect.exhausted}")
    if verdict["checks"] < 1:
        errors.append("no leaf was given a verdict")
    return errors
