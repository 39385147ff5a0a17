#!/usr/bin/env python
"""Regenerate ``graph_digests.json``: SHA-256 pins of seeded graph realizations.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen_graph_digests.py

Each entry hashes one seeded build's node labels and its CSR snapshot
(``indptr``, ``indices``, ``latencies``), so a builder change that moves a
single edge, latency or neighbour position changes the digest.  The cases
are every bundled ``scenarios/*.json`` graph, the benchmark's three workload
graphs at their quick sizes, the same specs again with
``generators.CSR_AUTO_THRESHOLD`` forced to 0 (the direct-to-CSR builders
with explicit latency models, at small ``n``), and a grid of dict-path
``erdos_renyi`` calls.  ``test_graph_digests.py`` rebuilds every case and
compares; only regenerate after a change that is *meant* to alter seeded
graphs, and review the diff.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys
from collections.abc import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.graphs import generators  # noqa: E402
from repro.scenario import (  # noqa: E402
    GRAPH_FAMILIES,
    LATENCY_MODELS,
    GraphSpec,
    ScenarioSpec,
    load_scenario,
)
from repro.simulation.rng import derive_seed  # noqa: E402

DIGEST_FILE = "graph_digests.json"
DIGEST_PATH = os.path.join(HERE, DIGEST_FILE)

#: The benchmark's workload graphs at their manifest quick sizes and
#: default seed (``perfbench/manifest.json``).
WORKLOAD_SPECS = {
    "edge-static": ScenarioSpec(
        name="edge-static", graph=GraphSpec(family="erdos-renyi", n=4096, latency="uniform"), seed=3
    ),
    "batch-churn-sweep": ScenarioSpec(
        name="batch-churn-sweep",
        graph=GraphSpec(family="erdos-renyi", n=256, latency="uniform"),
        seed=3,
    ),
    "spectral-profile": ScenarioSpec(
        name="spectral-profile",
        graph=GraphSpec(family="configuration-model", n=3000, latency="bimodal"),
        seed=3,
    ),
}

ER_SIZES = (1, 2, 48, 300)
ER_SEED = 11


def graph_digest(graph) -> str:
    """SHA-256 over a graph's labels and its CSR snapshot arrays."""
    snapshot = graph.indexed()
    digest = hashlib.sha256(json.dumps([repr(label) for label in snapshot.labels]).encode("utf-8"))
    for array in (snapshot.indptr, snapshot.indices, snapshot.latencies):
        digest.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
    return digest.hexdigest()


def _spec_builder(spec: ScenarioSpec, csr_threshold=None) -> Callable:
    """Build ``spec``'s graph as ``build_graph`` would, bypassing the graph store."""

    def build():
        spec.graph.validate()
        saved = generators.CSR_AUTO_THRESHOLD
        if csr_threshold is not None:
            generators.CSR_AUTO_THRESHOLD = csr_threshold
        try:
            model = LATENCY_MODELS[spec.graph.latency]()
            return GRAPH_FAMILIES[spec.graph.family](
                spec.graph.n, model, derive_seed(spec.seed, "graph"), **spec.graph.params
            )
        finally:
            generators.CSR_AUTO_THRESHOLD = saved

    return build


def graph_cases() -> dict[str, Callable]:
    """Case name -> zero-argument builder, for every pinned realization."""
    specs = {
        f"scenario:{os.path.basename(path)[:-5]}": load_scenario(path)
        for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json")))
    }
    specs.update({f"workload:{name}": spec for name, spec in WORKLOAD_SPECS.items()})
    cases: dict[str, Callable] = {}
    for name, spec in specs.items():
        cases[name] = _spec_builder(spec)
        cases[f"{name}:csr"] = _spec_builder(spec, csr_threshold=0)
    for n in ER_SIZES:
        for p in (0.0, min(1.0, 8.0 / n), 0.5, 1.0):
            cases[f"erdos_renyi:n={n}:p={p!r}"] = (
                lambda n=n, p=p: generators.erdos_renyi(n, p, seed=ER_SEED)
            )
    return cases


def load_digests() -> dict[str, str]:
    """The committed digests, case name -> hex SHA-256."""
    with open(DIGEST_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    digests = {name: graph_digest(build()) for name, build in graph_cases().items()}
    with open(DIGEST_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(DIGEST_PATH)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
