"""E22 — direct-to-CSR graph families: million-node builds + SIR at scale.

The CSR-first generators' promise is *build throughput at scale*: the
Watts–Strogatz, configuration-model, and Kronecker (R-MAT) builders stream
their edges straight into CSR arrays instead of materializing a python
dict-of-dicts, so a 10^6-node graph builds in seconds.  E22 measures that
promise per family — build wall-clock at each size — and then runs the
SIR push-pull protocol (the ``"sir"`` gate: informed nodes forget the
rumor ``forget_after`` rounds after learning it) on the edge backend to
show the built graphs gossip at full speed.

Every size up to ``_FAST_CAP`` also runs the numpy-mode fast backend as an
oracle and cross-checks the two trajectories bit for bit (full metrics,
per-edge activation counters, and the SIR epidemic stats); above the cap
the edge backend runs alone.  The headline rows (each family at 10^6
nodes) carry the acceptance targets: the build stays under 30 seconds and
the SIR run completes end-to-end.  The measured rates land in
``BENCH_e22.json`` at the repository root via
:func:`benchmarks.registry.record_bench`.
"""

from __future__ import annotations

import gc as _gc
import time as _time
from typing import Optional

from repro.analysis import ResultTable
from repro.graphs import (
    weighted_configuration_model,
    weighted_kronecker,
    weighted_watts_strogatz,
)
from repro.simulation import EdgeEngine, FastEngine, RoundPolicySpec
from repro.simulation.batch_engine import EDGE_ACTIVATION_SLOT_LIMIT
from repro.simulation.rng import make_numpy_rng

__all__ = ["experiment_e22_family_scale"]

_SEED = 22
_SIZES = (100_000, 1_000_000)
_SIZES_QUICK = (1_000, 4_000)
#: Largest size the fast oracle runs at (and parity is checked at); beyond
#: it the per-node Python sweep costs minutes, which is what the edge
#: backend exists to avoid.
_FAST_CAP = 100_000
#: Rounds a node stays infectious.  Generous enough that the epidemic
#: reaches every node before the wavefront's sources recover — the run
#: then stops at completion, so a large value costs nothing.
_FORGET_AFTER = 64

#: family name -> builder (n, seed) -> graph.  Knobs are fixed per family
#: so rows are comparable across sizes; all three stream into CSR above
#: the generators' auto threshold.
_FAMILIES = (
    ("watts-strogatz", lambda n, seed: weighted_watts_strogatz(n, k=8, rewire=0.1, seed=seed)),
    (
        "configuration-model",
        lambda n, seed: weighted_configuration_model(n, gamma=2.5, min_degree=2, seed=seed),
    ),
    ("kronecker", lambda n, seed: weighted_kronecker(n, edge_factor=8, seed=seed)),
)


def _sir_run(engine_cls, graph, seed: int):
    """One seeded SIR push-pull run; returns (metrics, stats, wall, complete)."""
    engine = engine_cls(graph)
    engine.seed_rumor(graph.nodes()[0])
    spec = RoundPolicySpec(
        select="uniform-random",
        gate="sir",
        forget_after=_FORGET_AFTER,
        rng=make_numpy_rng(seed, "rep", 0),
    )
    started = _time.perf_counter()
    metrics = engine.run(
        spec, lambda eng: eng.sir_ever_complete() or eng.sir_quiescent()
    )
    wall = _time.perf_counter() - started
    return metrics, engine.sir_stats(), wall, engine.sir_ever_complete()


def experiment_e22_family_scale(quick: bool = False) -> ResultTable:
    """E22: CSR-first family builds + SIR push-pull throughput per size.

    Every row is one (family, size) pair: build wall-clock, the edge
    backend's SIR rounds/sec and edge-throughput, whether the epidemic
    reached everyone before dying out, and a ``parity`` column —
    ``bit-for-bit`` when the fast oracle's full trajectory (per-edge
    activation counters and SIR stats included) matched exactly, ``n/a``
    where the oracle did not run.
    """
    table = ResultTable(
        title="E22: direct-to-CSR families — million-node builds + SIR push-pull"
    )
    sizes = _SIZES_QUICK if quick else _SIZES
    parity_all = True
    headlines: dict[str, dict] = {}
    for family, builder in _FAMILIES:
        for n in sizes:
            # The previous row's graph + engine arrays are multi-GB at 10^6
            # nodes and can linger in reference cycles; reclaim them so the
            # build timing below measures the generator, not the allocator
            # fighting the previous row's leftovers.
            _gc.collect()
            built = _time.perf_counter()
            graph = builder(n, _SEED)
            build_wall = _time.perf_counter() - built
            edge_metrics, edge_stats, edge_wall, complete = _sir_run(
                EdgeEngine, graph, _SEED
            )
            rounds = edge_metrics.rounds
            edge_rate = rounds / edge_wall
            fast_rate: Optional[float] = None
            parity = "n/a"
            if n <= _FAST_CAP:
                fast_metrics, fast_stats, fast_wall, _ = _sir_run(FastEngine, graph, _SEED)
                fast_rate = round(fast_metrics.rounds / fast_wall, 1)
                # Above EDGE_ACTIVATION_SLOT_LIMIT the edge backend skips
                # per-edge activation counters by design (the aggregate
                # activations scalar inside as_dict() still must match).
                counters_tracked = 2 * graph.num_edges <= EDGE_ACTIVATION_SLOT_LIMIT
                matched = (
                    edge_metrics.as_dict() == fast_metrics.as_dict()
                    and (
                        not counters_tracked
                        or edge_metrics.edge_activations == fast_metrics.edge_activations
                    )
                    and edge_stats == fast_stats
                )
                parity = "bit-for-bit" if matched else "MISMATCH"
                parity_all = parity_all and matched
            row = dict(
                topology=f"{family}-{n}",
                family=family,
                n=n,
                edges=graph.num_edges,
                rounds=rounds,
                complete=complete,
                ever_informed=edge_stats["ever_informed"],
                edge_rounds_per_sec=round(edge_rate, 1),
                edges_per_sec=round(rounds * graph.num_edges / edge_wall),
                fast_rounds_per_sec=fast_rate,
                parity=parity,
                edge_wall_seconds=round(edge_wall, 3),
                build_seconds=round(build_wall, 3),
            )
            table.add_row(**row)
            headlines[family] = row
    table.add_note("one graph per (family, size); SIR push-pull one-to-all (gate 'sir',")
    table.add_note(f"forget_after={_FORGET_AFTER}), numpy draws seeded ('rep', 0) on both backends.")
    table.add_note("build_seconds is the generator's wall-clock — the CSR-first stream is the")
    table.add_note("point of the 10^6 rows.  The fast oracle (and the bit-for-bit parity check,")
    table.add_note(f"SIR stats included) runs up to n={_FAST_CAP}")
    # Imported lazily: the registry imports this module at load time.
    from .registry import record_bench

    record_bench(
        "E22",
        {
            "quick": quick,
            "engine": "edge-sir-vs-fast-oracle",
            "parity": parity_all,
            "forget_after": _FORGET_AFTER,
            "families": {
                family: {
                    "n": row["n"],
                    "edges": row["edges"],
                    "rounds": row["rounds"],
                    "complete": row["complete"],
                    "build_seconds": row["build_seconds"],
                    "edge_rounds_per_sec": row["edge_rounds_per_sec"],
                }
                for family, row in headlines.items()
            },
        },
    )
    return table
