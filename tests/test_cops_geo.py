"""Geo-replicated COPS: cross-datacenter causal replication."""

import pytest

from repro.consistency import check_history, find_causal_anomalies
from repro.protocols.cops_geo import (
    build_geo_system,
    geo_placement,
    pid_dc,
    server_pid,
)
from repro.sim.executor import SNAPSHOT_MODES, use_snapshot_mode
from repro.sim.scheduler import RandomScheduler, RoundRobinScheduler, run_until_quiescent
from repro.txn.client import UnsupportedTransaction
from repro.txn.types import BOTTOM, read_only_txn, write_only_txn


def build(objects=("X0", "X1"), n_dcs=2, parts=2, clients=("a", "b")):
    return build_geo_system(
        objects=objects,
        n_dcs=n_dcs,
        partitions_per_dc=parts,
        clients=clients,
        home_dcs={"a": 0, "b": 1, "c": 0},
    )


def do(system, client, txn):
    return system.execute(client, txn, scheduler=RoundRobinScheduler())


class TestTopology:
    def test_server_pid_roundtrip(self):
        assert server_pid(1, 0) == "s1p0"
        assert pid_dc("s1p0") == 1
        assert pid_dc("s12p3") == 12

    def test_geo_placement_one_replica_per_dc(self):
        p = geo_placement(("A", "B", "C"), n_dcs=3, partitions_per_dc=2)
        assert p["A"] == ("s0p0", "s1p0", "s2p0")
        assert p["B"] == ("s0p1", "s1p1", "s2p1")
        assert p["C"] == ("s0p0", "s1p0", "s2p0")

    def test_clients_address_home_dc_only(self):
        system = build()
        a = system.client("a")
        b = system.client("b")
        assert pid_dc(a.primary("X0")) == 0
        assert pid_dc(b.primary("X0")) == 1

    def test_no_wtx(self):
        system = build()
        with pytest.raises(UnsupportedTransaction):
            do(system, "a", write_only_txn({"X0": "1", "X1": "2"}))


class TestReplication:
    def test_local_write_immediately_visible_locally(self):
        system = build()
        do(system, "a", write_only_txn({"X0": "v"}, txid="w"))
        rec = do(system, "a", read_only_txn(("X0",), txid="r"))
        assert rec.reads["X0"] == "v"

    def test_remote_dc_sees_after_settle(self):
        system = build()
        do(system, "a", write_only_txn({"X0": "v"}, txid="w"))
        system.settle()
        rec = do(system, "b", read_only_txn(("X0",), txid="r"))
        assert rec.reads["X0"] == "v"

    def test_remote_dc_stale_before_replication(self):
        from repro.core.visibility import FrozenScheduler

        system = build()
        sim = system.sim
        sim.invoke("a", write_only_txn({"X0": "v"}, txid="w"))
        run_until_quiescent(sim, pids=("a", "s0p0", "s0p1"))
        frozen = {m.msg_id for m in sim.network.pending()}
        client = system.client("b")
        sim.invoke("b", read_only_txn(("X0",), txid="r"))
        FrozenScheduler(frozen).run(
            sim, until=lambda s: bool(client.completed), max_events=10_000
        )
        assert client.completed[-1].reads["X0"] is BOTTOM  # withheld

    def test_dependent_write_held_pending(self):
        """The COPS dependency check: X1 (dep on X0) replicated first
        must stay invisible at the remote DC until X0 lands."""
        system = build()
        sim = system.sim
        sim.invoke("a", write_only_txn({"X0": "base"}, txid="w0"))
        run_until_quiescent(sim, pids=("a", "s0p0", "s0p1"))
        sim.invoke("a", write_only_txn({"X1": "dep"}, txid="w1"))
        run_until_quiescent(sim, pids=("a", "s0p0", "s0p1"))
        # deliver only X1's replication to dc1
        for m in list(sim.network.pending(dst="s1p1")):
            sim.deliver_msg(m)
            sim.step("s1p1")
        server = system.server("s1p1")
        chain = server.versions("X1")
        assert any(not v.visible for v in chain)  # pending behind dep check
        rec = do(system, "b", read_only_txn(("X0", "X1"), txid="r"))
        assert rec.reads["X1"] is BOTTOM
        # once X0 replicates, the pending version is released
        system.settle()
        rec2 = do(system, "b", read_only_txn(("X0", "X1"), txid="r2"))
        assert rec2.reads == {"X0": "base", "X1": "dep"}

    def test_cross_dc_chain_via_clients(self):
        """b reads a's write, writes a reply; a must see them in order."""
        system = build()
        do(system, "a", write_only_txn({"X0": "post"}, txid="w0"))
        system.settle()
        got = do(system, "b", read_only_txn(("X0",), txid="rb"))
        assert got.reads["X0"] == "post"
        do(system, "b", write_only_txn({"X1": "reply"}, txid="w1"))
        system.settle()
        rec = do(system, "a", read_only_txn(("X0", "X1"), txid="ra"))
        assert rec.reads == {"X0": "post", "X1": "reply"}

    @pytest.mark.parametrize("mode", SNAPSHOT_MODES)
    def test_pending_replica_released_after_restore(self, mode):
        """A replica held behind its dependency check must still be
        released after a snapshot restore rebuilt its server: the
        pending entry refers to the stored version by key, so decoding
        ``pending`` and ``store`` separately cannot split them."""
        with use_snapshot_mode(mode):
            system = build()
            sim = system.sim
            do(system, "a", write_only_txn({"X0": "v0"}, txid="w0"))
            do(system, "a", write_only_txn({"X1": "v1"}, txid="w1"))
            servers = tuple(p for p in sim.processes if p.startswith("s"))
            sched = RoundRobinScheduler()
            while not any(sim.processes[s].pending for s in servers):
                sched.tick(sim, pids=servers)
            waiting = [s for s in servers if sim.processes[s].pending]
            snap = sim.snapshot()
            for s in waiting:  # dirty them, so the restore rebuilds them
                sim.step(s)
            sim.restore(snap)
            system.settle()
            rec = do(system, "b", read_only_txn(("X0", "X1"), txid="r"))
            assert rec.reads == {"X0": "v0", "X1": "v1"}


class TestGeoConsistency:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_interleavings_stay_causal(self, seed):
        system = build(objects=("X0", "X1", "X2", "X3"), clients=("a", "b", "c"))
        sched = RandomScheduler(seed)
        import random

        rng = random.Random(seed)
        for i in range(18):
            client = rng.choice(("a", "b", "c"))
            if rng.random() < 0.5:
                obj = rng.choice(("X0", "X1", "X2", "X3"))
                system.execute(
                    client,
                    write_only_txn({obj: f"v{i}@{client}"}, txid=f"t{i}"),
                    scheduler=sched,
                )
            else:
                objs = rng.sample(("X0", "X1", "X2", "X3"), 2)
                system.execute(
                    client, read_only_txn(tuple(objs), txid=f"t{i}"), scheduler=sched
                )
        system.settle()
        assert find_causal_anomalies(system.history()) == []

    def test_three_dcs(self):
        system = build_geo_system(
            objects=("X0", "X1"),
            n_dcs=3,
            partitions_per_dc=2,
            clients=("a", "b", "c"),
            home_dcs={"a": 0, "b": 1, "c": 2},
        )
        do(system, "a", write_only_txn({"X0": "v0"}, txid="w0"))
        system.settle()
        for reader in ("b", "c"):
            rec = do(system, reader, read_only_txn(("X0",), txid=f"r{reader}"))
            assert rec.reads["X0"] == "v0"
        report = check_history(system.history(), level="causal", exact=True)
        assert report.ok, report.describe()
