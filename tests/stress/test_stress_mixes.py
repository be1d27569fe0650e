"""64-session stress replays: striped recycler vs. serial execution.

The acceptance bar for the striped-lock rewrite: under 64 concurrent
sessions admitting queries in seeded pseudo-random orders — SkyServer's
heavily-overlapping cone mix and a TPC-H pattern mix — every query's
result must be **byte-identical** to a serial single-session run, with
background maintenance racing the traffic.  Deterministic replay: the
seeds below fix the admission schedule (see ``interleave.py``), so a
failure reproduces.
"""

from __future__ import annotations

import threading

import pytest

from interleave import (DeterministicInterleaver, seeded_admission_order,
                        serial_reference)

from repro import Database, RecyclerConfig
from repro.workloads import skyserver, tpch

N_SESSIONS = 64
SEEDS = (7, 1337)


def chunk(queries, n_streams):
    per = max(len(queries) // n_streams, 1)
    return [queries[i * per:(i + 1) * per] for i in range(n_streams)]


@pytest.fixture(scope="module")
def sky_setup():
    catalog_rows = 4000
    workload = skyserver.generate_workload(N_SESSIONS * 2)
    streams = chunk(workload, N_SESSIONS)
    reference_db = Database(
        RecyclerConfig(mode="spec"),
        catalog=skyserver.build_catalog(num_rows=catalog_rows))
    reference = serial_reference(reference_db, streams)
    return catalog_rows, streams, reference


@pytest.fixture(scope="module")
def tpch_setup():
    scale = 0.005
    streams = tpch.generate_streams(N_SESSIONS, scale_factor=scale,
                                    patterns=[1, 3, 6, 10, 12])
    reference_db = Database(RecyclerConfig(mode="spec"),
                            catalog=tpch.build_catalog(scale_factor=scale))
    reference = serial_reference(reference_db, streams)
    return scale, streams, reference


def fresh_sky_db(catalog_rows, **config_kwargs):
    return Database(RecyclerConfig(mode="spec", **config_kwargs),
                    catalog=skyserver.build_catalog(num_rows=catalog_rows))


class TestAdmissionOrder:
    def test_seeded_order_is_reproducible(self):
        streams = [[0, 1, 2], [0, 1], [0]]
        first = seeded_admission_order(streams, seed=42)
        again = seeded_admission_order(streams, seed=42)
        other = seeded_admission_order(streams, seed=43)
        assert first == again
        assert first != other
        # per-stream order preserved in every permutation
        for order in (first, other):
            for stream_id in range(3):
                indexes = [i for s, i in order if s == stream_id]
                assert indexes == sorted(indexes)


class TestSkyServer64Sessions:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_byte_identical_to_serial(self, sky_setup, seed):
        catalog_rows, streams, reference = sky_setup
        db = fresh_sky_db(catalog_rows)
        runner = DeterministicInterleaver(db, seed=seed, slots=16)
        result = runner.run(streams)
        assert len(result.rows) == sum(len(s) for s in streams)
        for key, rows in result.rows.items():
            assert rows == reference[key], key
        # the shared-result machinery engaged under contention
        assert result.num_reused > 0
        assert len(db.recycler.inflight) == 0
        db.recycler.graph.check_invariants()
        db.recycler.cache.check_invariants()
        db.close()

    def test_identical_with_background_maintenance(self, sky_setup):
        """Maintenance racing 64 sessions (aggressive truncation every
        cycle) must not change a single byte.  The cache holds about a
        fifth of what the run would cache, so results are rejected or
        evicted mid-run and the rule truncates their idle subtrees
        (dozens of nodes a run) while sessions match against them."""
        catalog_rows, streams, reference = sky_setup
        db = fresh_sky_db(catalog_rows, truncate_min_idle_events=8,
                          cache_capacity=1024)
        stop = threading.Event()
        errors: list[BaseException] = []

        def maintainer():
            try:
                while not stop.is_set():
                    db.maintain()
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        chaos = threading.Thread(target=maintainer)
        chaos.start()
        try:
            runner = DeterministicInterleaver(db, seed=SEEDS[0], slots=16)
            result = runner.run(streams)
        finally:
            stop.set()
            chaos.join(timeout=10)
        assert not errors, errors
        for key, rows in result.rows.items():
            assert rows == reference[key], key
        assert db.summary()["maintenance"]["nodes_truncated"] > 0
        db.recycler.graph.check_invariants()
        db.recycler.cache.check_invariants()
        assert len(db.recycler.inflight) == 0
        db.close()


class TestTpch64Sessions:
    @pytest.mark.parametrize("seed", SEEDS[:1])
    def test_byte_identical_to_serial(self, tpch_setup, seed):
        scale, streams, reference = tpch_setup
        db = Database(RecyclerConfig(mode="spec"),
                      catalog=tpch.build_catalog(scale_factor=scale))
        runner = DeterministicInterleaver(db, seed=seed, slots=16)
        result = runner.run(streams)
        assert len(result.rows) == sum(len(s) for s in streams)
        for key, rows in result.rows.items():
            assert rows == reference[key], key
        assert result.num_reused > 0
        db.recycler.graph.check_invariants()
        db.recycler.cache.check_invariants()
        assert len(db.recycler.inflight) == 0
        db.close()
