"""Tests for the content-addressed artifact store (repro.store).

The store's contract has four load-bearing faces, each covered here:

* **Digest stability** — graph/result digests depend on exactly the
  fields that determine the artifact, and are bit-identical across fresh
  interpreters with randomized ``PYTHONHASHSEED`` (they are file names in
  a shared on-disk cache, so any instability would orphan every entry).
* **Atomicity** — concurrent writers racing the same digest never
  produce a torn file: readers see a missing entry or a complete one.
* **Parity** — a cached checkout (memory or disk tier) and a cached
  ``run_scenario`` result are bit-for-bit what a fresh build/run
  produces, across the whole bundled scenario library on every engine.
* **Isolation** — mutating a checked-out graph (dynamics, churn) never
  dirties the store; the shared arrays themselves refuse writes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import store as store_module
from repro.gossip.base import DisseminationResult, Task
from repro.scenario import (
    GraphSpec,
    ScenarioSpec,
    build_graph,
    library_scenario_names,
    load_named_scenario,
    run_scenario,
)
from repro.simulation.metrics import SimulationMetrics
from repro.simulation.protocol import EngineSelectionError
from repro.store import (
    GraphStore,
    ResultStore,
    configure_graph_store,
    configure_result_store,
    decode_result,
    encode_result,
    graph_digest,
    result_digest,
)

_SRC_DIR = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
_GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


@pytest.fixture(autouse=True)
def _pristine_process_stores():
    """Every test starts and ends with a clean process-wide store setup."""
    configure_result_store(None)
    store = configure_graph_store(enabled=True)
    store.clear()
    store.stats.reset()
    yield
    configure_result_store(None)
    store = configure_graph_store(enabled=True)
    store.clear()
    store.stats.reset()


def _spec(seed: int = 7, n: int = 64, **overrides) -> ScenarioSpec:
    fields = dict(
        name="store-test",
        algorithm="flooding",
        task="one-to-all",
        graph=GraphSpec(family="erdos-renyi", n=n, latency="unit"),
        seed=seed,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
class TestDigests:
    def test_graph_digest_covers_only_graph_fields(self):
        base = _spec()
        assert graph_digest(base) == graph_digest(base.patched({"algorithm": "push-pull"}))
        assert graph_digest(base) == graph_digest(base.patched({"engine": "edge"}))
        assert graph_digest(base) == graph_digest(base.patched({"reps": 9}))
        assert graph_digest(base) == graph_digest(
            base.patched({"faults.crash_fraction": 0.1})
        )

    def test_graph_digest_sees_every_graph_field(self):
        base = _spec()
        assert graph_digest(base) != graph_digest(base.patched({"graph.family": "clique"}))
        assert graph_digest(base) != graph_digest(base.patched({"graph.n": 65}))
        assert graph_digest(base) != graph_digest(base.patched({"graph.latency": "uniform"}))
        assert graph_digest(base) != graph_digest(base.patched({"seed": 8}))
        ws = _spec(graph=GraphSpec(family="watts-strogatz", n=64, latency="unit"))
        assert graph_digest(ws) != graph_digest(ws.patched({"graph.params.k": 6}))

    def test_pinned_seed_overrides_spec_seed(self):
        one, two = _spec(seed=1), _spec(seed=2)
        assert graph_digest(one) != graph_digest(two)
        assert graph_digest(one, graph_seed=77) == graph_digest(two, graph_seed=77)

    def test_result_digest_covers_the_full_spec(self):
        base = _spec()
        assert result_digest(base) == result_digest(_spec())
        assert result_digest(base) != result_digest(base.patched({"reps": 9}))
        assert result_digest(base) != result_digest(base.patched({"engine": "edge"}))
        assert result_digest(base) != result_digest(base, graph_seed=77)

    def test_digests_stable_under_randomized_hashseed(self):
        # Digests are file names in a shared cache: they must not move
        # between interpreter invocations with different hash seeds.
        script = (
            "from repro.scenario import ScenarioSpec, GraphSpec\n"
            "from repro.store import graph_digest, result_digest\n"
            "spec = ScenarioSpec(name='hashseed', algorithm='flooding',\n"
            "                    task='one-to-all', seed=7,\n"
            "                    graph=GraphSpec(family='watts-strogatz', n=96,\n"
            "                                    latency='bimodal',\n"
            "                                    params={'k': 4, 'p': 0.1}))\n"
            "print(graph_digest(spec), result_digest(spec))\n"
        )
        outputs = []
        for hashseed in ("1", "987654321"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=_SRC_DIR)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


#: Each store format tag, at its current value, is bound to the SHA-256 of
#: the golden file that pins what it keys: seeded graph realizations for
#: GRAPH_STORE_FORMAT, stored run results for RESULT_STORE_FORMAT.  A change
#: that regenerates one of those files moves bytes that on-disk caches keyed
#: by the old tag still serve, so it must bump the tag and record the new
#: (tag value, file hash) pair here.
FORMAT_PINS = {
    ("GRAPH_STORE_FORMAT", 1): (
        "graph_digests.json",
        "a1f5cff3e7f941a8147897db2c7905d7b11afaf1a7c8c3ee5f8492b8edd20f34",
    ),
    ("RESULT_STORE_FORMAT", 1): (
        "result_digests.json",
        "9d0578cac8673bf1fad5b8c674db42fb4c465b8610b5692d46bc4ca36a923f26",
    ),
}


@pytest.mark.parametrize(
    "tag,golden",
    [("GRAPH_STORE_FORMAT", "graph_digests.json"), ("RESULT_STORE_FORMAT", "result_digests.json")],
)
def test_format_tag_is_bound_to_its_golden_pins(tag, golden):
    value = getattr(store_module, tag)
    path = os.path.join(_GOLDEN_DIR, golden)
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert FORMAT_PINS.get((tag, value)) == (golden, digest), (
        f"{golden} changed (sha256 {digest}) but {tag} is still {value}: bump {tag} "
        "so caches written by the old code miss, then record the new pair in FORMAT_PINS"
    )


# ----------------------------------------------------------------------
# GraphStore tiers
# ----------------------------------------------------------------------
class TestGraphStore:
    def test_checkout_builds_once_and_matches_fresh(self):
        spec = _spec()
        configure_graph_store(enabled=False)
        fresh = build_graph(spec).indexed()
        store = GraphStore()
        builds = []

        def build():
            builds.append(1)
            configure_graph_store(enabled=False)
            return build_graph(spec)

        first = store.checkout(spec, build)
        second = store.checkout(spec, build)
        assert len(builds) == 1
        assert store.stats.misses == 1 and store.stats.hits == 1
        for graph in (first, second):
            snap = graph.indexed()
            assert snap.labels == fresh.labels
            assert np.array_equal(snap.indptr, fresh.indptr)
            assert np.array_equal(snap.indices, fresh.indices)
            assert np.array_equal(snap.latencies, fresh.latencies)

    def test_checkouts_are_isolated_from_each_other(self):
        spec = _spec()
        store = GraphStore()
        first = store.checkout(spec, lambda: _fresh_build(spec))
        u, v = first.nodes()[0], first.nodes()[1]
        before = first.num_edges
        if first.has_edge(u, v):
            first.remove_edge(u, v)
        else:
            first.add_edge(u, v, 3)
        assert first.num_edges != before
        second = store.checkout(spec, lambda: _fresh_build(spec))
        assert second.num_edges == before

    def test_stored_arrays_refuse_writes(self):
        spec = _spec()
        store = GraphStore()
        graph = store.checkout(spec, lambda: _fresh_build(spec))
        with pytest.raises(ValueError):
            graph.indexed().indices[0] = 0

    def test_memory_tier_is_an_lru(self):
        store = GraphStore(capacity=1)
        store.checkout(_spec(seed=1), lambda: _fresh_build(_spec(seed=1)))
        evicted = store.digest(_spec(seed=1))
        store.checkout(_spec(seed=2), lambda: _fresh_build(_spec(seed=2)))
        assert len(store) == 1
        assert evicted not in store
        assert store.digest(_spec(seed=2)) in store

    def test_disk_tier_round_trips(self, tmp_path):
        spec = _spec()
        writer = GraphStore(directory=str(tmp_path))
        original = writer.checkout(spec, lambda: _fresh_build(spec)).indexed()
        assert writer.stats.disk_writes == 1

        reader = GraphStore(directory=str(tmp_path))
        loaded = reader.checkout(spec, lambda: pytest.fail("disk hit must not build"))
        assert reader.stats.disk_hits == 1 and reader.stats.builds == 0
        snap = loaded.indexed()
        assert snap.labels == original.labels
        assert np.array_equal(snap.indptr, original.indptr)
        assert np.array_equal(snap.indices, original.indices)
        assert np.array_equal(snap.latencies, original.latencies)

    def test_torn_disk_file_is_a_miss_then_repaired(self, tmp_path):
        spec = _spec()
        store = GraphStore(directory=str(tmp_path))
        path = os.path.join(str(tmp_path), f"{store.digest(spec)}.npz")
        with open(path, "wb") as handle:
            handle.write(b"not an npz payload")
        graph = store.checkout(spec, lambda: _fresh_build(spec))
        assert store.stats.builds == 1
        assert graph.num_nodes == spec.graph.n
        # The rewrite repaired the entry: a fresh store now disk-hits it.
        repaired = GraphStore(directory=str(tmp_path))
        repaired.checkout(spec, lambda: pytest.fail("repaired entry must not build"))
        assert repaired.stats.disk_hits == 1

    def test_concurrent_writers_never_tear_an_entry(self, tmp_path):
        # Two interpreters race checkout() on the same digest, each
        # rebuilding and atomically rewriting the entry many times while
        # also reading it back.  Any torn write would surface as a load
        # failure (treated as a miss) or a corrupted final file.
        script = (
            "import sys\n"
            "from repro.scenario import ScenarioSpec, GraphSpec, build_graph\n"
            "from repro.store import GraphStore, configure_graph_store\n"
            "configure_graph_store(enabled=False)\n"
            "spec = ScenarioSpec(name='race', algorithm='flooding',\n"
            "                    task='one-to-all', seed=3,\n"
            "                    graph=GraphSpec(family='erdos-renyi', n=256,\n"
            "                                    latency='bimodal'))\n"
            "for _ in range(8):\n"
            "    store = GraphStore(directory=sys.argv[1])\n"
            "    graph = store.checkout(spec, lambda: build_graph(spec))\n"
            "    assert graph.num_nodes == 256\n"
        )
        env = dict(os.environ, PYTHONPATH=_SRC_DIR)
        racers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path)],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for racer in racers:
            _stdout, stderr = racer.communicate(timeout=180)
            assert racer.returncode == 0, stderr.decode()
        assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]
        # The surviving file is complete and identical to a fresh build.
        spec = ScenarioSpec(
            name="race",
            algorithm="flooding",
            task="one-to-all",
            seed=3,
            graph=GraphSpec(family="erdos-renyi", n=256, latency="bimodal"),
        )
        survivor = GraphStore(directory=str(tmp_path))
        loaded = survivor.checkout(spec, lambda: pytest.fail("final file must load"))
        assert survivor.stats.disk_hits == 1
        fresh = _fresh_build(spec).indexed()
        snap = loaded.indexed()
        assert snap.labels == fresh.labels
        assert np.array_equal(snap.indices, fresh.indices)
        assert np.array_equal(snap.latencies, fresh.latencies)


def _fresh_build(spec: ScenarioSpec):
    configure_graph_store(enabled=False)
    try:
        return build_graph(spec)
    finally:
        configure_graph_store(enabled=True)


# ----------------------------------------------------------------------
# Result codec + ResultStore
# ----------------------------------------------------------------------
def _toy_result(details: dict) -> DisseminationResult:
    return DisseminationResult(
        algorithm="flooding",
        task=Task.ONE_TO_ALL,
        time=4,
        rounds_simulated=4,
        complete=True,
        metrics=SimulationMetrics(rounds=4),
        details=details,
    )


class TestResultStore:
    def test_single_result_round_trips(self):
        configure_graph_store(enabled=False)
        result = run_scenario(_spec(n=48))
        payload = encode_result(result)
        assert payload is not None
        assert decode_result(json.loads(json.dumps(payload))) == result

    def test_replicated_result_round_trips(self):
        configure_graph_store(enabled=False)
        result = run_scenario(_spec(n=48, engine="batch"), reps=3)
        payload = encode_result(result)
        assert payload is not None
        assert decode_result(json.loads(json.dumps(payload))) == result

    def test_lossy_details_are_refused(self, tmp_path):
        store = ResultStore(str(tmp_path))
        lossy = _toy_result(details={"curve": (1, 2, 3)})  # tuple -> list round-trip
        assert encode_result(lossy) is None
        assert store.save(_spec(), lossy) is False
        assert store.stats.uncacheable == 1
        assert not os.listdir(tmp_path)

    def test_fetch_save_fetch(self, tmp_path):
        configure_graph_store(enabled=False)
        store = ResultStore(str(tmp_path))
        spec = _spec(n=48)
        assert store.fetch(spec) is None
        result = run_scenario(spec)
        assert store.save(spec, result) is True
        assert store.fetch(spec) == result
        assert store.fetch(spec.patched({"seed": 99})) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        spec = _spec()
        with open(store._path(store.digest(spec)), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.fetch(spec) is None

    def test_run_scenario_memoizes_through_the_active_store(self, tmp_path):
        spec = _spec(n=48)
        store = configure_result_store(str(tmp_path))
        first = run_scenario(spec)
        assert store.stats.disk_writes == 1
        second = run_scenario(spec)
        assert store.stats.hits == 1
        assert second == first


# ----------------------------------------------------------------------
# Library-wide bit-for-bit parity
# ----------------------------------------------------------------------
class TestLibraryParity:
    @pytest.mark.parametrize("engine", ["fast", "edge", "batch"])
    def test_cached_runs_match_fresh_runs(self, engine):
        # Every bundled scenario, on every engine that accepts it: the
        # fresh (store-off) run, the store-populating run, and the
        # memory-hit run must be bit-for-bit identical -- including the
        # dynamics scenarios, whose runs mutate their checked-out graph.
        names = library_scenario_names()
        assert names, "bundled scenario library is missing"
        compared = 0
        for name in names:
            spec = load_named_scenario(name).patched({"engine": engine})
            configure_graph_store(enabled=False)
            try:
                fresh = run_scenario(spec)
            except EngineSelectionError:
                continue
            finally:
                store = configure_graph_store(enabled=True)
            store.clear()
            populating = run_scenario(spec)
            memory_hit = run_scenario(spec)
            assert populating == fresh, f"{name}: populating run diverged on {engine}"
            assert memory_hit == fresh, f"{name}: cached run diverged on {engine}"
            compared += 1
        assert compared >= 3, f"engine {engine} accepted only {compared} library scenarios"


# ----------------------------------------------------------------------
# Library memoization (scenario.py satellites)
# ----------------------------------------------------------------------
class TestLibraryMemoization:
    def test_load_named_scenario_is_memoized_until_the_file_changes(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path))
        spec = _spec(name="memo")
        path = tmp_path / "memo.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        first = load_named_scenario("memo")
        assert load_named_scenario("memo") is first
        # Rewriting the file (new mtime) invalidates the entry.
        patched = spec.patched({"seed": 99})
        path.write_text(json.dumps(patched.to_dict()), encoding="utf-8")
        os.utime(path, ns=(1, 1))
        reloaded = load_named_scenario("memo")
        assert reloaded is not first
        assert reloaded.seed == 99

    def test_names_listing_tracks_the_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path))
        assert library_scenario_names() == []
        (tmp_path / "alpha.json").write_text(
            json.dumps(_spec(name="alpha").to_dict()), encoding="utf-8"
        )
        names = library_scenario_names()
        assert names == ["alpha"]
        names.append("mutated")
        assert library_scenario_names() == ["alpha"]

    def test_unknown_name_reports_the_library(self):
        from repro.scenario import ScenarioError

        with pytest.raises(ScenarioError, match="baseline-pushpull-er64"):
            load_named_scenario("no-such-scenario")
