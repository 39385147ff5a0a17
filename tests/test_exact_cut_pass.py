"""Oracle property: the one-pass exact conductance against per-cut enumeration.

:mod:`repro.core.conductance` minimizes every exact quantity in one numpy
pass over the cuts.  The oracle walks :func:`~repro.graphs.enumerate_cuts`
and scores each cut with the per-cut definitions
(:func:`cut_weight_ell_conductance`, :func:`cut_average_conductance`),
keeping the first minimum.  Values must agree by ``float.hex``, witnesses
must be the same side, and ``ℓ < 1`` must raise.  Graphs mix int, str and
tuple labels added in shuffled order, and may have isolated nodes and
disconnected parts.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    average_weighted_conductance,
    classical_conductance,
    critical_weighted_conductance,
    cut_average_conductance,
    cut_weight_ell_conductance,
    weight_ell_conductance,
    weighted_conductance_profile,
)
from repro.core.latency_classes import latency_class_index
from repro.graphs import GraphError, WeightedGraph, enumerate_cuts

LATENCIES = (1, 2, 3, 5, 8, 16, 33)


def _label(i: int, kind: int):
    return (i, "t") if kind == 2 else f"v{i}" if kind == 1 else i


@st.composite
def graph_specs(draw):
    """``(labels in insertion order, edges)`` of a graph with 2-10 nodes."""
    n = draw(st.integers(min_value=2, max_value=10))
    labels = [_label(i, draw(st.integers(0, 2))) for i in range(n)]
    pairs = list(itertools.combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(st.sampled_from(LATENCIES))))
    return tuple(draw(st.permutations(labels))), tuple(edges)


def _first_minima(graph: WeightedGraph, ells: list[int]) -> dict:
    """``{ℓ or "avg": (value, cut)}``: the first minimum over ``enumerate_cuts``."""
    best: dict = {}
    for cut in enumerate_cuts(graph):
        scores = {ell: cut_weight_ell_conductance(graph, cut, ell) for ell in ells}
        scores["avg"] = cut_average_conductance(graph, cut)
        for key, value in scores.items():
            if key not in best or value < best[key][0]:
                best[key] = (value, cut)
    return best


def _assert_same(result, expected) -> None:
    value, cut = expected
    assert float.hex(result.value) == float.hex(value)
    assert result.witness == cut


CLIQUE_6 = (tuple(range(6)), tuple((u, v, 1) for u, v in itertools.combinations(range(6), 2)))
ISOLATED = ((0, "iso", 1, 2), ((0, 1, 3), (1, 2, 5), (0, 2, 16)))
PAIR = (("a", "b"), (("b", "a", 5),))
SLOW_ONLY = ((3, (1, "t"), "v2", 0), ((3, (1, "t"), 8), ((1, "t"), "v2", 16), ("v2", 0, 33)))


@settings(max_examples=60, deadline=None)
@given(spec=graph_specs())
@example(spec=CLIQUE_6)  # many cuts tie
@example(spec=ISOLATED)  # zero-volume cuts score 0.0
@example(spec=PAIR)  # n = 2, a single cut
@example(spec=SLOW_ONLY)  # ℓ below the minimum latency: every cut ties at 0.0
def test_cut_pass_matches_per_cut_enumeration(spec):
    labels, edges = spec
    graph = WeightedGraph(labels)
    for u, v, latency in edges:
        graph.add_edge(u, v, latency)
    distinct = graph.distinct_latencies()
    ells = sorted({0, distinct[0] - 1, *distinct, distinct[-1] + 1})
    valid = [ell for ell in ells if ell >= 1]
    best = _first_minima(graph, valid)

    for ell in ells:
        if ell < 1:
            with pytest.raises(GraphError):
                weight_ell_conductance(graph, ell)
        else:
            _assert_same(weight_ell_conductance(graph, ell), best[ell])
    _assert_same(average_weighted_conductance(graph), best["avg"])
    _assert_same(classical_conductance(graph), best[distinct[-1]])

    phi = {ell: best[ell][0] for ell in distinct}
    top = max(value / ell for ell, value in phi.items())
    critical = min(ell for ell, value in phi.items() if value / ell == top)
    assert critical_weighted_conductance(graph) == (phi[critical], critical)
    profile = weighted_conductance_profile(graph)
    assert {ell: float.hex(value) for ell, value in profile.phi_by_latency.items()} == {
        ell: float.hex(value) for ell, value in phi.items()
    }
    assert (profile.critical_phi, profile.critical_latency) == (phi[critical], critical)
    assert float.hex(profile.phi_avg) == float.hex(best["avg"][0])
    assert float.hex(profile.classical_phi) == float.hex(phi[distinct[-1]])
    assert profile.nonempty_classes == len({latency_class_index(e.latency) for e in graph.edges()})
    assert profile.max_latency == distinct[-1]
