"""Tests for the similarity-retrieval layer over the result store.

Covers the feature extractors, the on-disk index (byte-determinism,
incremental maintenance, version safety), the RRF retriever (ranking and
the store-membership staleness guard), similarity seeding through the
pipeline (tier-0 hits, pCFG boosts, digest exclusion), LRU eviction ×
index consistency, and the scheduler/service counters.
"""

from __future__ import annotations

import json

import pytest

from repro.core import StaggConfig
from repro.core.search import SearchLimits
from repro.lifting import RecordingObserver, resolve_method
from repro.retrieval import (
    INDEX_SCHEMA_VERSION,
    RetrievalIndex,
    Retriever,
    entry_row,
    seeded_lifter,
)
from repro.retrieval.features import (
    dimension_signature,
    lexical_shingles,
    source_features,
)
from repro.service.store import CachedLifter, ResultStore
from repro.suite import get_benchmark


#: Cheap kernels (each lifts in well under a second with STAGG_BU).
SEED_KERNELS = ("darknet.copy_cpu", "blend.add_pixels")


def _populate(cache_dir, kernels=SEED_KERNELS, method="STAGG_BU"):
    """Lift *kernels* into the store at *cache_dir* and return the store."""
    for name in kernels:
        lifter = CachedLifter(
            resolve_method(method, timeout_seconds=20.0), cache_dir
        )
        report = lifter.lift(get_benchmark(name).task())
        assert report.success
    return ResultStore(cache_dir)


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """One populated store + built index shared by read-only tests."""
    cache_dir = tmp_path_factory.mktemp("retrieval-store")
    store = _populate(cache_dir)
    index = RetrievalIndex(cache_dir)
    index.rebuild(store)
    return cache_dir, store, index


# ---------------------------------------------------------------------- #
# Feature extraction
# ---------------------------------------------------------------------- #
class TestFeatures:
    def test_shingles_are_deterministic_and_comment_blind(self):
        source = "void f(int n, float *a) { a[0] = n; }"
        commented = "void f(int n, float *a) { /* hi */ a[0] = n; }"
        assert lexical_shingles(source) == lexical_shingles(commented)
        assert lexical_shingles(source)  # non-empty
        assert lexical_shingles(source) == tuple(sorted(set(lexical_shingles(source))))

    def test_source_features_degrade_on_unparseable_source(self):
        features = source_features("not C at all ===", None)
        assert features["shingles"]
        assert not features["loop_shape"]

    def test_source_features_of_a_corpus_kernel(self):
        benchmark = get_benchmark("darknet.copy_cpu")
        features = source_features(benchmark.c_source, None)
        assert features["loop_shape"] is not None
        assert features["signature_shape"] is not None

    def test_dimension_signature(self):
        assert dimension_signature([2, 1, 0]) == "2-1-0"
        assert dimension_signature(None) == ""

    def test_entry_row_is_a_pure_function_of_the_entry(self, populated):
        _cache, store, _index = populated
        digest = next(iter(store.digests()))
        entry = store.peek(digest)
        assert entry_row(entry) == entry_row(entry)
        row = entry_row(entry)
        assert row["solved"] is True
        assert row["skeleton"]
        assert row["shingles"]


# ---------------------------------------------------------------------- #
# Index determinism and maintenance
# ---------------------------------------------------------------------- #
class TestIndex:
    def test_rebuild_is_byte_deterministic(self, populated):
        cache_dir, store, index = populated
        index.rebuild(store)
        first = index.path.read_bytes()
        index.rebuild(store)
        assert index.path.read_bytes() == first

    def test_incremental_add_equals_full_rebuild(self, tmp_path):
        # Arm the index before any writes: store puts then maintain it.
        index = RetrievalIndex(tmp_path)
        index.rebuild(ResultStore(tmp_path))
        store = _populate(tmp_path)
        incremental = index.path.read_bytes()
        index.rebuild(store)
        assert index.path.read_bytes() == incremental

    def test_version_mismatch_reads_as_no_index(self, tmp_path):
        index = RetrievalIndex(tmp_path)
        index.write({})
        data = json.loads(index.path.read_text())
        data["index_schema"] = INDEX_SCHEMA_VERSION + 1
        index.path.write_text(json.dumps(data))
        assert index.read() is None

    def test_corrupt_index_reads_as_no_index(self, tmp_path):
        index = RetrievalIndex(tmp_path)
        index.write({})
        index.path.write_text("{ truncated")
        assert index.read() is None

    def test_absent_index_disarms_store_maintenance(self, tmp_path):
        # No index file: puts must not create one (cold stores stay cold).
        store = _populate(tmp_path)
        assert len(store) == len(SEED_KERNELS)
        assert not RetrievalIndex(tmp_path).exists()


# ---------------------------------------------------------------------- #
# Retrieval (RRF ranking + staleness guard)
# ---------------------------------------------------------------------- #
class TestRetriever:
    def test_open_returns_none_without_an_index(self, tmp_path):
        assert Retriever.open(tmp_path) is None

    def test_identical_task_ranks_first(self, populated):
        cache_dir, _store, _index = populated
        retriever = Retriever.open(cache_dir)
        assert retriever is not None
        task = get_benchmark("blend.add_pixels").task()
        neighbors = retriever.neighbors(task)
        assert neighbors
        assert neighbors[0].task_name == "blend.add_pixels"
        assert retriever.probe(task) == len(neighbors)

    def test_neighbors_deduplicate_skeletons(self, populated):
        cache_dir, _store, _index = populated
        retriever = Retriever.open(cache_dir)
        task = get_benchmark("darknet.axpy_cpu").task()
        skeletons = [n.skeleton for n in retriever.neighbors(task, k=10)]
        assert len(skeletons) == len(set(skeletons))

    def test_stale_rows_never_surface(self, populated):
        cache_dir, store, index = populated
        rows = index.read()
        ghost = dict(next(iter(rows.values())))
        rows["0" * 64] = ghost  # a digest the store does not hold
        retriever = Retriever(store, rows)
        task = get_benchmark(ghost["task"]).task()
        assert all(
            n.digest != "0" * 64 for n in retriever.neighbors(task, k=10)
        )


# ---------------------------------------------------------------------- #
# Seeding through the pipeline
# ---------------------------------------------------------------------- #
class TestSeeding:
    def test_tier0_hit_skips_every_synthesis_stage(self, populated):
        cache_dir, _store, _index = populated
        observer = RecordingObserver()
        lifter = seeded_lifter(
            resolve_method("STAGG_TD", timeout_seconds=20.0), cache_dir
        )
        report = lifter.lift(
            get_benchmark("blend.add_pixels").task(), observer=observer
        )
        assert report.success
        retrieval = report.details["retrieval"]
        assert retrieval["armed"] and retrieval["hit"]
        assert retrieval["seed_task"] == "blend.add_pixels"
        assert observer.stages() == ["seed"]
        assert set(observer.stages("stage_skipped")) == {
            "oracle", "templatize", "dimension", "grammar", "search"
        }
        events = [e for e in observer.events if e.name == "retrieval_seeded"]
        assert events and events[0].attrs["hit"] is True

    def test_miss_still_lifts_and_reports_attempts(self, populated):
        cache_dir, _store, _index = populated
        lifter = seeded_lifter(
            resolve_method("STAGG_BU", timeout_seconds=20.0), cache_dir
        )
        # Same method as the seeds, so the store itself would answer —
        # but we call the synthesizer directly (no CachedLifter), and the
        # neighbors' elementwise programs cannot validate a reduction.
        report = lifter.lift(get_benchmark("darknet.dot_cpu").task())
        retrieval = report.details["retrieval"]
        assert retrieval["armed"] and not retrieval["hit"]
        assert retrieval["attempted"] >= 0
        assert report.success  # the ordinary pipeline ran after the miss

    def test_disarmed_when_no_index_exists(self, tmp_path):
        lifter = seeded_lifter(
            resolve_method("STAGG_BU", timeout_seconds=20.0), tmp_path
        )
        report = lifter.lift(get_benchmark("darknet.copy_cpu").task())
        assert report.success
        retrieval = report.details["retrieval"]
        assert retrieval["armed"] is False
        assert retrieval["attempted"] == 0 and not retrieval["hit"]

    def test_seeded_lifter_leaves_non_stagg_lifters_alone(self, tmp_path):
        baseline = resolve_method("C2TACO", timeout_seconds=5.0)
        assert seeded_lifter(baseline, tmp_path) is baseline

    def test_retrieval_knobs_are_digest_excluded(self, tmp_path):
        plain = StaggConfig.topdown()
        seeded = plain.with_retrieval(str(tmp_path), k=5)
        assert seeded.retrieval_cache_dir == str(tmp_path)
        assert seeded.digest_dict() == plain.digest_dict()

    def test_retrieval_knob_validation(self):
        with pytest.raises(ValueError, match="retrieval_k"):
            StaggConfig(retrieval_k=0)
        with pytest.raises(ValueError, match="retrieval_seed_boost"):
            StaggConfig(retrieval_seed_boost=0)

    def test_progress_interval_validation(self):
        with pytest.raises(ValueError, match="progress_interval"):
            SearchLimits(progress_interval=0)


# ---------------------------------------------------------------------- #
# Eviction × index consistency (the LRU seam)
# ---------------------------------------------------------------------- #
class TestEvictionConsistency:
    def test_eviction_drops_index_rows(self, tmp_path):
        index = RetrievalIndex(tmp_path)
        index.rebuild(ResultStore(tmp_path))
        _populate(tmp_path)
        assert len(index.read()) == len(SEED_KERNELS)
        store = ResultStore(tmp_path, max_entries=1)
        evicted = store.evict()
        assert evicted
        rows = index.read()
        assert len(rows) == 1
        assert not any(digest in rows for digest in evicted)

    def test_stale_index_never_seeds_from_an_evicted_digest(self, tmp_path):
        index = RetrievalIndex(tmp_path)
        index.rebuild(ResultStore(tmp_path))
        _populate(tmp_path)
        stale_rows = index.read()  # snapshot BEFORE eviction
        store = ResultStore(tmp_path, max_entries=1)
        evicted = set(store.evict())
        # A retriever holding the stale snapshot re-checks store
        # membership per neighbor, so evicted digests cannot seed.
        retriever = Retriever(store, stale_rows)
        for name in SEED_KERNELS:
            task = get_benchmark(name).task()
            assert all(
                n.digest not in evicted
                for n in retriever.neighbors(task, k=10)
            )

    def test_peek_does_not_skew_hit_miss_counters(self, tmp_path):
        store = _populate(tmp_path)
        before = store.stats()
        store.peek(next(iter(store.digests())))
        store.peek("f" * 64)
        after = store.stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]


# ---------------------------------------------------------------------- #
# Service integration: probe + seed counters
# ---------------------------------------------------------------------- #
class TestServiceCounters:
    def test_seeded_service_counts_probes_and_hits(self, tmp_path):
        from repro.service import LiftingService
        from repro.service.api import LiftRequest

        warm = LiftingService(cache_dir=tmp_path, workers=1)
        try:
            job = warm.submit(
                LiftRequest(
                    benchmark="blend.add_pixels", method="STAGG_BU", timeout=20.0
                )
            )
            assert job.wait(30)
        finally:
            warm.close()
        RetrievalIndex(tmp_path).rebuild(ResultStore(tmp_path))

        service = LiftingService(
            cache_dir=tmp_path, workers=1, seed_from_store=True
        )
        try:
            job = service.submit(
                LiftRequest(
                    benchmark="blend.add_pixels", method="STAGG_TD", timeout=20.0
                )
            )
            assert job.wait(30)
            assert job.report.success
            stats = service.scheduler.stats()
            assert stats["retrieval_probes"] == 1
            assert stats["retrieval_seedable"] == 1
            assert stats["retrieval_seed_attempts"] == 1
            assert stats["retrieval_seed_hits"] == 1
            rendered = service.metrics.render()
            assert "repro_retrieval_seed_hits_total 1" in rendered
        finally:
            service.close()

    def test_seed_from_store_requires_cache_dir(self):
        from repro.service import LiftingService

        with pytest.raises(ValueError, match="cache_dir"):
            LiftingService(seed_from_store=True)


# ---------------------------------------------------------------------- #
# CLI surface
# ---------------------------------------------------------------------- #
class TestCli:
    def test_index_build_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        _populate(tmp_path)
        assert main(["index", "build", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and "2 solved" in out
        assert main(["index", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "armed" in out and "True" in out

    def test_methods_json(self, capsys):
        from repro.cli import main

        assert main(["methods", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["STAGG_TD"]["kind"] == "stagg"
        for entry in entries:
            assert set(entry) == {"name", "kind", "label", "supports_processes"}
            assert entry["label"]
            assert isinstance(entry["supports_processes"], bool)

    def test_lift_seed_from_store_requires_cache_dir(self, capsys):
        from repro.cli import main

        code = main(["lift", "darknet.copy_cpu", "--seed-from-store"])
        assert code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_seeded_lift_via_cli(self, tmp_path, capsys, populated):
        from repro.cli import main

        cache_dir, _store, _index = populated
        code = main([
            "lift", "blend.add_pixels", "--search", "bottomup",
            "--cache-dir", str(cache_dir), "--seed-from-store",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # The CLI's config digest differs from the stored one (different
        # knobs), so the store misses and the seed stage answers tier-0.
        assert "seeded: tier-0 hit from blend.add_pixels" in out
