"""Tests for the sparse spectral machinery (repro.core.spectral).

Covers the contracts the estimators rely on:

* sparse-vs-exact agreement on every small gadget graph (the swept φ
  upper-bounds exhaustive enumeration and the Cheeger sandwich holds),
* sparse-vs-dense Fiedler sweep agreement at n≈512 (documented 1e-6
  relative tolerance on the swept conductance; eigenvalues to 1e-6),
* a hypothesis property pinning ``λ2/2 ≤ φ ≤ φ̂ ≤ √(2·λ2)`` on random ER
  graphs,
* bit-for-bit determinism of the estimate across two fresh processes
  running under different ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DENSE_EIGH_MAX_NODES,
    LaplacianOperator,
    cheeger_bounds,
    fiedler_pair,
    fiedler_pair_dense,
    ordering_from_embedding,
    spectral_conductance,
    sweep_cut_conductance,
    weight_ell_conductance,
)
from repro.core.estimation import fiedler_ordering
from repro.graphs import (
    GraphError,
    WeightedGraph,
    clique,
    cycle_graph,
    dumbbell,
    erdos_renyi_csr,
    grid_graph,
    path_graph,
    star,
    two_cluster_slow_bridge,
    weighted_erdos_renyi,
)

_SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _graph_with_slow_tail():
    """A fast connected core whose last-indexed nodes have only slow edges.

    Thresholding at latency 1 isolates the two highest node indices — the
    exact shape that used to corrupt the clamped-reduceat matvec.
    """
    graph = WeightedGraph(range(8))
    fast_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)]
    for u, v in fast_edges:
        graph.add_edge(u, v, latency=1)
    graph.add_edge(5, 6, latency=16)
    graph.add_edge(6, 7, latency=16)
    graph.add_edge(7, 2, latency=16)
    return graph


def _gadget_graphs():
    """Every small (n ≤ 18) gadget family the exact oracle can enumerate."""
    return [
        ("triangle", clique(3)),
        ("clique-6", clique(6)),
        ("path-8", path_graph(8)),
        ("star-9", star(9)),
        ("cycle-12", cycle_graph(12)),
        ("grid-4x4", grid_graph(4, 4)),
        ("dumbbell-10", dumbbell(5, bridge_latency=16)),
        ("slow-bridge-10", two_cluster_slow_bridge(5, fast_latency=1, slow_latency=16)),
        ("er-14", weighted_erdos_renyi(14, 0.4, seed=3)),
        ("er-16-sparse", weighted_erdos_renyi(16, 0.3, seed=7)),
    ]


class TestGadgetAgreement:
    @pytest.mark.parametrize("name,graph", _gadget_graphs(), ids=[n for n, _ in _gadget_graphs()])
    def test_sweep_upper_bounds_exact_inside_cheeger(self, name, graph):
        ell = graph.max_latency()
        exact = weight_ell_conductance(graph, ell).value
        estimate = spectral_conductance(graph, ell=ell, seed=0)
        lower, upper = estimate.cheeger_interval()
        # The sweep explores an explicit family of cuts, so it can only
        # overshoot the exhaustive minimum; Cheeger sandwiches both.
        assert exact <= estimate.phi + 1e-9, f"{name}: sweep beat exhaustive enumeration"
        assert lower - 1e-9 <= exact <= upper + 1e-9, f"{name}: Cheeger sandwich violated"
        assert estimate.phi <= upper + 1e-9, f"{name}: sweep cut escaped sqrt(2*lambda2)"

    @pytest.mark.parametrize("name,graph", _gadget_graphs(), ids=[n for n, _ in _gadget_graphs()])
    def test_sparse_solver_matches_dense_eigenvalue(self, name, graph):
        operator = LaplacianOperator.from_indexed(graph.indexed())
        dense = fiedler_pair_dense(operator)
        sparse = fiedler_pair(operator, 5, "test", tol=1e-10, max_iters=2000)
        assert sparse.converged, f"{name}: sparse solver failed to converge"
        assert sparse.lambda2 == pytest.approx(dense.lambda2, rel=1e-6, abs=1e-8), name

    def test_sweep_matches_bruteforce_prefix_values(self):
        # The vectorized all-prefix pass must equal per-cut enumeration of
        # the same prefixes, cut by cut.
        graph = weighted_erdos_renyi(12, 0.45, seed=11)
        snapshot = graph.indexed()
        ell = graph.max_latency()
        order = np.arange(snapshot.num_nodes, dtype=np.int64)
        result = sweep_cut_conductance(
            snapshot.indptr,
            snapshot.indices,
            order,
            volume_degrees=snapshot.degrees(),
            slot_weights=(snapshot.latencies <= ell).astype(np.float64),
        )
        from repro.graphs.cuts import Cut
        from repro.core.conductance import cut_weight_ell_conductance

        labels = snapshot.labels
        for k in range(1, snapshot.num_nodes):
            side = frozenset(labels[int(i)] for i in order[:k])
            expected = cut_weight_ell_conductance(graph, Cut(side), ell)
            assert result.values[k - 1] == pytest.approx(expected, abs=1e-12), f"prefix {k}"


class TestDenseSparseParity:
    def test_sweep_agreement_at_512(self):
        graph = erdos_renyi_csr(512, 16 / 512, seed=5)
        snapshot = graph.indexed()
        operator = LaplacianOperator.from_indexed(snapshot)
        dense = fiedler_pair_dense(operator)
        sparse = fiedler_pair(operator, 9, "parity", tol=1e-8, max_iters=1000)
        assert sparse.converged
        assert sparse.lambda2 == pytest.approx(dense.lambda2, rel=1e-6, abs=1e-8)
        degrees = snapshot.degrees()
        sweeps = []
        for pair in (dense, sparse):
            order = ordering_from_embedding(pair.embedding, degrees > 0)
            sweeps.append(
                sweep_cut_conductance(
                    snapshot.indptr, snapshot.indices, order, volume_degrees=degrees
                ).value
            )
        # Documented tolerance: the swept conductance (not the ordering —
        # near-degenerate eigenspaces permit different permutations) must
        # agree to 1e-6 relative.
        assert sweeps[1] == pytest.approx(sweeps[0], rel=1e-6)

    def test_fiedler_ordering_delegates_to_sparse(self):
        # Above DENSE_EIGH_MAX_NODES the ordering comes from the LOBPCG
        # path; it must still be a permutation whose sweep stays inside
        # the Cheeger interval.
        n = DENSE_EIGH_MAX_NODES + 64
        graph = erdos_renyi_csr(n, 12 / n, seed=4)
        ordering = fiedler_ordering(graph)
        assert sorted(ordering) == sorted(graph.nodes())
        estimate = spectral_conductance(graph, seed=0)
        assert estimate.method == "lobpcg"
        assert estimate.phi <= estimate.cheeger_interval()[1] + 1e-9

    def test_fiedler_ordering_dense_matches_sparse_sweep(self):
        # The same graph ordered by both solvers: swept conductance within
        # the documented 1e-6 relative tolerance.
        n = 256
        graph = erdos_renyi_csr(n, 12 / n, seed=8)
        snapshot = graph.indexed()
        degrees = snapshot.degrees()
        dense_order = fiedler_ordering(graph)
        sparse_order = fiedler_ordering(graph, max_dense_nodes=0)
        index = snapshot.index
        values = []
        for ordering in (dense_order, sparse_order):
            positions = np.fromiter((index[node] for node in ordering), dtype=np.int64, count=n)
            values.append(
                sweep_cut_conductance(
                    snapshot.indptr, snapshot.indices, positions, volume_degrees=degrees
                ).value
            )
        assert values[1] == pytest.approx(values[0], rel=1e-6)


class TestCheegerProperty:
    @given(
        st.tuples(
            st.integers(min_value=6, max_value=12),
            st.floats(min_value=0.35, max_value=0.9),
            st.integers(min_value=0, max_value=10_000),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_cheeger_sandwich_on_random_er(self, params):
        n, p, seed = params
        graph = weighted_erdos_renyi(n, p, seed=seed)
        ell = graph.max_latency()
        estimate = spectral_conductance(graph, ell=ell, seed=seed)
        exact = weight_ell_conductance(graph, ell).value
        lower, upper = estimate.cheeger_interval()
        assert lower - 1e-9 <= exact <= estimate.phi + 1e-9
        assert estimate.phi <= upper + 1e-9

    def test_cheeger_bounds_shape(self):
        lower, upper = cheeger_bounds(0.5)
        assert lower == pytest.approx(0.25)
        assert upper == pytest.approx(1.0)
        assert cheeger_bounds(-1e-15) == (0.0, 0.0)

    def test_unconverged_solve_certifies_only_the_upper_end(self):
        # One LOBPCG step cannot converge: its Rayleigh quotient only bounds
        # λ2 from above, so the lower end is dropped and √(2·λ̂2) is kept.
        graph = weighted_erdos_renyi(DENSE_EIGH_MAX_NODES + 88, 0.02, seed=4)
        pair = fiedler_pair(LaplacianOperator.from_indexed(graph.indexed()), 0, max_iters=1)
        assert not pair.converged
        assert pair.cheeger_interval() == (0.0, cheeger_bounds(pair.lambda2)[1])
        estimate = spectral_conductance(graph, seed=0, max_iters=1)
        assert estimate.method == "lobpcg" and not estimate.converged
        assert estimate.cheeger_interval() == (0.0, cheeger_bounds(estimate.lambda2)[1])
        converged = spectral_conductance(graph, seed=0)
        assert converged.converged
        assert converged.cheeger_interval() == cheeger_bounds(converged.lambda2)


class TestOperator:
    def test_matvec_matches_dense(self):
        graph = weighted_erdos_renyi(30, 0.2, seed=2)
        operator = LaplacianOperator.from_indexed(graph.indexed())
        dense = operator.dense_laplacian()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(operator.n)
            assert np.allclose(operator.matvec(x), dense @ x, atol=1e-12)

    def test_matvec_matches_dense_with_trailing_isolated_node(self):
        # Regression: reduceat starts used to be clamped to len(vals)-1,
        # which silently dropped the last supported node's final edge value
        # whenever zero-degree nodes held the highest indices — a triangle
        # plus trailing isolated node gave matvec 2.5 where dense said 1.5.
        indptr = np.array([0, 2, 4, 6, 6], dtype=np.int64)
        indices = np.array([1, 2, 0, 2, 0, 1], dtype=np.int64)
        operator = LaplacianOperator(indptr, indices)
        dense = operator.dense_laplacian()
        assert np.allclose(operator.matvec(np.ones(4)), dense @ np.ones(4), atol=1e-12)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(operator.n)
            assert np.allclose(operator.matvec(x), dense @ x, atol=1e-12)

    def test_matvec_symmetric_with_trailing_isolated_nodes(self):
        # The implicit Laplacian must stay symmetric (x'Ly == y'Lx) even
        # when latency filtering isolates the highest-indexed nodes.
        graph = _graph_with_slow_tail()
        operator = LaplacianOperator.from_indexed(graph.indexed(), max_latency=1)
        assert bool(np.any(operator._zero_degree[-2:]))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(operator.n)
        y = rng.standard_normal(operator.n)
        assert float(x @ operator.matvec(y)) == pytest.approx(
            float(y @ operator.matvec(x)), abs=1e-12
        )

    def test_sparse_matches_dense_on_latency_filtered_graph(self):
        # Regression: on a filtered graph whose slow-only nodes sit at the
        # top indices, the sparse solver used to return a wrong lambda2
        # (0.3231 vs dense 0.3178) with converged=False.
        graph = _graph_with_slow_tail()
        snapshot = graph.indexed()
        operator = LaplacianOperator.from_indexed(snapshot, max_latency=1)
        dense = operator.dense_laplacian()
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(operator.n)
            assert np.allclose(operator.matvec(x), dense @ x, atol=1e-12)
        dense_pair = fiedler_pair_dense(operator)
        sparse_pair = fiedler_pair(operator, 7, "filtered", tol=1e-10, max_iters=2000)
        assert sparse_pair.converged
        assert sparse_pair.lambda2 == pytest.approx(dense_pair.lambda2, rel=1e-6, abs=1e-8)

    def test_kernel_vector_is_null_direction(self):
        graph = weighted_erdos_renyi(25, 0.25, seed=6)
        operator = LaplacianOperator.from_indexed(graph.indexed())
        kernel = operator.kernel_vector()
        assert np.linalg.norm(operator.matvec(kernel)) < 1e-10

    def test_latency_threshold_drops_slow_edges(self):
        graph = two_cluster_slow_bridge(5, fast_latency=1, slow_latency=16)
        snapshot = graph.indexed()
        full = LaplacianOperator.from_indexed(snapshot)
        fast_only = LaplacianOperator.from_indexed(snapshot, max_latency=1)
        assert len(fast_only.indices) < len(full.indices)
        # Dropping the bridge disconnects the support: lambda2 becomes 0.
        pair = fiedler_pair_dense(fast_only)
        assert pair.lambda2 == pytest.approx(0.0, abs=1e-9)

    def test_rejects_edgeless_graphs(self):
        indptr = np.zeros(5, dtype=np.int64)
        with pytest.raises(GraphError):
            LaplacianOperator(indptr, np.array([], dtype=np.int64))


class TestDeterminism:
    def test_identical_across_processes_with_random_hashseed(self):
        # Same seed => bit-identical estimate, even with different (and
        # randomized) PYTHONHASHSEED values in fresh interpreters.
        script = (
            "from repro.core import spectral_conductance\n"
            "from repro.graphs import erdos_renyi_csr\n"
            "graph = erdos_renyi_csr(700, 10 / 700, seed=3)\n"
            "estimate = spectral_conductance(graph, seed=41)\n"
            "print(repr((estimate.phi, estimate.lambda2, estimate.prefix, "
            "estimate.iterations, estimate.method)))\n"
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
        assert "lobpcg" in outputs[0]

    def test_seed_changes_start_vector_not_contract(self):
        graph = erdos_renyi_csr(700, 10 / 700, seed=3)
        a = spectral_conductance(graph, seed=1)
        b = spectral_conductance(graph, seed=2)
        # Different seeds may take different iteration counts but must land
        # on the same eigenvalue (it is a property of the graph).
        assert a.lambda2 == pytest.approx(b.lambda2, rel=1e-4, abs=1e-6)
