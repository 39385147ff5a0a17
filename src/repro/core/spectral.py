"""Sparse spectral machinery: million-node Fiedler pairs and sweep cuts.

The conductance estimators in :mod:`repro.core.estimation` historically
materialized a dense n×n normalized Laplacian and called ``np.linalg.eigh``
— O(n²) memory and O(n³) time, capping theory checks at a few thousand
nodes while the simulation engines handle 10^6-node graphs in seconds.
This module closes that gap with three numpy-only pieces, none of which
ever forms a dense matrix:

* :class:`LaplacianOperator` — the normalized Laplacian
  ``x ↦ x − D^{-1/2} A D^{-1/2} x`` applied *implicitly* against the CSR
  ``indptr``/``indices`` arrays an :class:`~repro.graphs.indexed.IndexedGraph`
  already exposes.  One matvec is one gather plus one
  ``np.add.reduceat`` segment sum: O(m) time, O(m) transient memory.
* :func:`fiedler_pair` — a deterministic LOBPCG-style iteration for the
  second-smallest eigenpair ``(λ2, u2)``, deflating against the known
  kernel direction ``D^{1/2}·1`` every step.  The only randomness is the
  start vector, drawn from a generator seeded
  ``derive_seed(seed, "spectral", *labels)``, so results are bit-for-bit
  reproducible across processes.  :func:`fiedler_pair_dense` is the
  ``np.linalg.eigh`` oracle for cross-checking below
  :data:`DENSE_EIGH_MAX_NODES`.
* :func:`sweep_cut_conductance` — conductance of **all** ``n − 1`` prefix
  cuts of a node ordering in one O(n + m) pass: each CSR edge contributes
  ``+1`` at its lower endpoint rank and ``−1`` at its higher one, so a
  single ``np.cumsum`` yields every prefix's crossing count, while a
  second cumsum over permuted degrees yields every prefix's volume.
  Per-slot ``slot_weights`` turn the same pass into the weight-ℓ
  (latency-mask) or average-conductance (per-class ``1/2^i``) numerators.

Cheeger's inequality ``λ2/2 ≤ φ ≤ √(2·λ2)`` ties the eigenvalue to the
swept conductance; :func:`cheeger_bounds` exposes the interval and the
tests pin the sandwich on random graphs.  A solve's ``cheeger_interval``
certifies the lower end only when it converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..graphs.indexed import IndexedGraph
from ..graphs.weighted_graph import GraphError, WeightedGraph
from ..simulation.rng import make_numpy_rng

__all__ = [
    "DENSE_EIGH_MAX_NODES",
    "FiedlerResult",
    "LaplacianOperator",
    "SpectralEstimate",
    "SweepResult",
    "cheeger_bounds",
    "fiedler_pair",
    "fiedler_pair_dense",
    "ordering_from_embedding",
    "spectral_conductance",
    "sweep_cut_conductance",
]

#: Below this node count the dense ``np.linalg.eigh`` path is affordable and
#: stays available as the accuracy oracle; above it every caller should use
#: the sparse iteration.  512 keeps the dense matrix at 2 MB and the eigh
#: under ~50 ms, while the cross-check tests compare both solvers here.
DENSE_EIGH_MAX_NODES = 512

#: Refuse to materialize dense Laplacians beyond this size — the dense path
#: exists as a small-n oracle, not a fallback, and 4096² floats is already
#: 128 MB of O(n³) eigh work.
_DENSE_HARD_CAP = 4096

#: Recompute ``A·x`` from scratch every this many LOBPCG iterations: the
#: cheap update path derives it from small linear combinations, which
#: accumulates rounding drift over hundreds of steps.
_RESYNC_EVERY = 32


class LaplacianOperator:
    """Implicit normalized Laplacian over CSR arrays (never densified).

    Wraps ``(indptr, indices)`` describing a symmetric, loop-free adjacency
    on ``n = len(indptr) − 1`` nodes and applies
    ``L x = x − D^{-1/2} A D^{-1/2} x`` in O(m).  Zero-degree nodes are
    outside the operator's support: every solver vector is kept zero there,
    so the computed ``λ2`` is that of the non-isolated subgraph (on a
    disconnected support ``λ2 = 0`` and the eigenvector separates
    components, which is exactly what a sweep cut wants).

    Build from a snapshot with :meth:`from_indexed` — optionally
    latency-thresholded, which is how the estimators spectrally analyse
    ``G_ℓ`` without materializing a subgraph.
    """

    __slots__ = (
        "n",
        "indptr",
        "indices",
        "degrees",
        "inv_sqrt_degrees",
        "_zero_degree",
        "_supported_nodes",
        "_supported_starts",
    )

    def __init__(self, indptr: "np.ndarray", indices: "np.ndarray") -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.n = len(self.indptr) - 1
        if self.n < 2:
            raise GraphError("the spectral operator needs at least 2 nodes")
        if len(self.indices) == 0:
            raise GraphError("the spectral operator needs at least one edge")
        self.degrees = np.diff(self.indptr)
        self._zero_degree = self.degrees == 0
        self._supported_nodes = np.flatnonzero(~self._zero_degree)
        self._supported_starts = self.indptr[:-1][self._supported_nodes]
        with np.errstate(divide="ignore"):
            self.inv_sqrt_degrees = np.where(
                self._zero_degree, 0.0, 1.0 / np.sqrt(np.maximum(self.degrees, 1))
            )

    @classmethod
    def from_indexed(
        cls, snapshot: IndexedGraph, max_latency: Optional[int] = None
    ) -> "LaplacianOperator":
        """Operator of a snapshot, optionally restricted to latency ≤ ``ℓ``.

        With ``max_latency`` set, slots above the threshold are dropped in
        one vectorized pass (:meth:`IndexedGraph.latency_filtered_csr`);
        the vertex set stays complete, matching
        :meth:`WeightedGraph.latency_subgraph` semantics.
        """
        if max_latency is None:
            return cls(snapshot.indptr, snapshot.indices)
        indptr, indices = snapshot.latency_filtered_csr(max_latency)
        return cls(indptr, indices)

    @property
    def num_supported(self) -> int:
        """How many nodes have at least one edge (the operator's support)."""
        return int(np.count_nonzero(~self._zero_degree))

    def matvec(self, x: "np.ndarray") -> "np.ndarray":
        """Apply ``L x = x − D^{-1/2} A D^{-1/2} x`` in one O(m) pass.

        The gather ``z[indices]`` is already grouped by source node (CSR
        order), so the neighbour sums are one ``np.add.reduceat`` over the
        supported nodes' ``indptr`` starts only.  Zero-degree nodes own no
        slots, so each supported segment runs exactly to the next supported
        start (or the array end) — no clamping, which would silently
        truncate the final supported node's segment whenever zero-degree
        nodes occupy the highest indices (e.g. after latency filtering).
        """
        z = self.inv_sqrt_degrees * x
        vals = z[self.indices]
        if len(self._supported_nodes) == self.n:
            az = np.add.reduceat(vals, self.indptr[:-1])
        else:
            az = np.zeros(self.n)
            az[self._supported_nodes] = np.add.reduceat(vals, self._supported_starts)
        return x - self.inv_sqrt_degrees * az

    def kernel_vector(self) -> "np.ndarray":
        """The unit kernel direction ``D^{1/2}·1 / ‖D^{1/2}·1‖`` (λ = 0).

        Every solver vector is deflated against it so the iteration
        converges to ``λ2`` instead of the trivial 0 eigenpair.
        """
        kernel = np.sqrt(self.degrees.astype(np.float64))
        return kernel / np.linalg.norm(kernel)

    def dense_laplacian(self) -> "np.ndarray":
        """Materialize the dense normalized Laplacian (small-n oracle only)."""
        if self.n > _DENSE_HARD_CAP:
            raise GraphError(
                f"dense Laplacian at n={self.n} would need O(n^2) memory; the dense "
                f"path is a small-n oracle (cap {_DENSE_HARD_CAP}) — use fiedler_pair"
            )
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        laplacian = np.eye(self.n)
        laplacian[src, self.indices] -= self.inv_sqrt_degrees[src] * self.inv_sqrt_degrees[self.indices]
        return laplacian


@dataclass(frozen=True)
class FiedlerResult:
    """The second-smallest normalized-Laplacian eigenpair of an operator.

    ``vector`` is the (unit) eigenvector ``u2`` of ``L`` itself;
    ``embedding`` is the degree-scaled ``D^{-1/2} u2`` whose sorted order
    carries the Cheeger sweep guarantee.  Both are zero on zero-degree
    nodes.  ``lambda2`` is the Rayleigh quotient of ``vector`` — an upper
    bound on the true λ2 that tightens as ``residual`` shrinks.
    """

    lambda2: float
    vector: "np.ndarray"
    embedding: "np.ndarray"
    iterations: int
    residual: float
    converged: bool
    method: str

    def cheeger_interval(self) -> tuple[float, float]:
        """The Cheeger sandwich ``[λ2/2, √(2·λ2)]`` around the conductance.

        The lower end is ``0.0`` unless the solve converged (see
        :func:`_solve_interval`).
        """
        return _solve_interval(self.lambda2, self.converged)


def _solve_interval(lambda2: float, converged: bool) -> tuple[float, float]:
    """Cheeger's interval for a solve's eigenvalue estimate ``λ̂2``.

    An unconverged Rayleigh quotient only bounds λ2 from above, so only
    ``√(2·λ̂2)`` is certified then and the lower end falls back to ``0.0``.
    """
    lower, upper = cheeger_bounds(lambda2)
    return (lower if converged else 0.0), upper


def cheeger_bounds(lambda2: float) -> tuple[float, float]:
    """Return Cheeger's interval ``(λ2/2, √(2·λ2))`` for the conductance.

    Tiny negative eigenvalue estimates (eigh rounding on a PSD matrix) are
    clamped to zero rather than propagated into the square root.
    """
    value = max(0.0, lambda2)
    return value / 2.0, math.sqrt(2.0 * value)


def fiedler_pair(
    operator: LaplacianOperator,
    seed: int = 0,
    *labels: object,
    tol: float = 1e-6,
    max_iters: int = 256,
) -> FiedlerResult:
    """Deterministic LOBPCG-style iteration for ``(λ2, u2)``.

    Minimizes the Rayleigh quotient over ``span{x, r, p}`` (current
    iterate, deflated residual, previous search direction) per step — one
    O(m) matvec and a 3×3 dense eigenproblem.  Every basis vector is
    projected off the kernel ``D^{1/2}·1``, so the smallest Ritz value
    tracks λ2.  The start vector is the only random input, drawn from
    ``make_numpy_rng(seed, "spectral", *labels)``; everything downstream
    is plain deterministic numpy, making results identical across
    processes regardless of ``PYTHONHASHSEED``.

    Converged means the residual ``‖L x − θ x‖`` dropped below
    ``tol · max(1, θ)``; otherwise the best iterate so far is returned
    with ``converged=False`` (its Rayleigh quotient still upper-bounds λ2
    and its sweep cut still carries the Cheeger guarantee).
    """
    n = operator.n
    kernel = operator.kernel_vector()
    supported = ~operator._zero_degree

    def deflate(vec: "np.ndarray") -> "np.ndarray":
        vec = np.where(supported, vec, 0.0)
        return vec - kernel * (kernel @ vec)

    rng = make_numpy_rng(seed, "spectral", *labels)
    x = deflate(rng.standard_normal(n))
    norm = float(np.linalg.norm(x))
    if norm < 1e-12:  # pragma: no cover — needs an adversarial RNG draw
        x = deflate(np.arange(n, dtype=np.float64))
        norm = float(np.linalg.norm(x))
        if norm < 1e-12:
            # Support of exactly one orthogonal direction (e.g. K2): the
            # deflated space is empty along random directions only when
            # n_supported < 2, which the callers guard against.
            raise GraphError("cannot build a start vector orthogonal to the kernel")
    x /= norm
    ax = operator.matvec(x)
    theta = float(x @ ax)
    p: Optional["np.ndarray"] = None
    ap: Optional["np.ndarray"] = None
    residual_norm = math.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        residual = deflate(ax - theta * x)
        residual_norm = float(np.linalg.norm(residual))
        if residual_norm <= tol * max(1.0, abs(theta)):
            converged = True
            break
        w = residual / residual_norm
        w -= x * (x @ w)
        w_norm = float(np.linalg.norm(w))
        if w_norm < 1e-12:  # pragma: no cover — residual collinear with x
            break
        w /= w_norm
        aw = operator.matvec(w)
        basis = [x, w]
        images = [ax, aw]
        if p is not None and ap is not None:
            q = deflate(p)
            aq = ap
            coeff_x = x @ q
            q = q - coeff_x * x
            coeff_w = w @ q
            q = q - coeff_w * w
            # ap tracked A·p for the *unmodified* p; mirror the exact same
            # combination so aq stays A·q without a third matvec.  deflate()
            # commutes with A on the kernel's orthogonal complement up to
            # rounding, which the periodic resync below repairs.
            aq = aq - coeff_x * ax - coeff_w * aw
            q_norm = float(np.linalg.norm(q))
            if q_norm > 1e-8:
                basis.append(q / q_norm)
                images.append(aq / q_norm)
        S = np.stack(basis, axis=1)
        AS = np.stack(images, axis=1)
        gram = S.T @ AS
        gram = (gram + gram.T) / 2.0
        eigenvalues, eigenvectors = np.linalg.eigh(gram)
        coeffs = eigenvectors[:, 0]
        theta = float(eigenvalues[0])
        x_new = S @ coeffs
        ax_new = AS @ coeffs
        p_coeffs = coeffs.copy()
        p_coeffs[0] = 0.0
        if float(np.linalg.norm(p_coeffs)) > 1e-12:
            p = S @ p_coeffs
            ap = AS @ p_coeffs
        else:  # pragma: no cover — update happened entirely along x
            p = ap = None
        x = deflate(x_new)
        x_norm = float(np.linalg.norm(x))
        if x_norm < 1e-12:  # pragma: no cover — defensive; S is orthonormal
            break
        x /= x_norm
        if iterations % _RESYNC_EVERY == 0:
            ax = operator.matvec(x)
        else:
            ax = ax_new / x_norm
        theta = float(x @ ax)
    inv_sqrt = operator.inv_sqrt_degrees
    return FiedlerResult(
        lambda2=max(0.0, theta),
        vector=x,
        embedding=inv_sqrt * x,
        iterations=iterations,
        residual=residual_norm,
        converged=converged,
        method="lobpcg",
    )


def fiedler_pair_dense(operator: LaplacianOperator) -> FiedlerResult:
    """The ``np.linalg.eigh`` oracle for :func:`fiedler_pair` (small n).

    Densifies the Laplacian restricted to the operator's support, takes the
    eigenvector of the second-smallest eigenvalue, projects off the global
    kernel direction, and scatters back to full length — matching the
    sparse solver's support semantics so the two are directly comparable.
    """
    supported = ~operator._zero_degree
    support_count = int(np.count_nonzero(supported))
    if support_count < 2:  # pragma: no cover — one edge implies 2 supported
        raise GraphError("the Fiedler pair needs at least 2 non-isolated nodes")
    laplacian = operator.dense_laplacian()[np.ix_(supported, supported)]
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    ascending = np.argsort(eigenvalues, kind="stable")
    lambda2 = float(eigenvalues[ascending[1]])
    vector = np.zeros(operator.n)
    vector[supported] = eigenvectors[:, ascending[1]]
    kernel = operator.kernel_vector()
    vector -= kernel * (kernel @ vector)
    norm = float(np.linalg.norm(vector))
    if norm > 1e-12:
        vector /= norm
    return FiedlerResult(
        lambda2=max(0.0, lambda2),
        vector=vector,
        embedding=operator.inv_sqrt_degrees * vector,
        iterations=0,
        residual=0.0,
        converged=True,
        method="dense",
    )


def ordering_from_embedding(
    embedding: "np.ndarray", supported: Optional["np.ndarray"] = None
) -> "np.ndarray":
    """Node ordering for a sweep: ascending embedding, off-support last.

    Stable throughout (ties keep index order), matching the historical
    dense ``fiedler_ordering`` rule of appending isolated nodes at the end.
    """
    if supported is None:
        return np.argsort(embedding, kind="stable")
    return np.lexsort((embedding, ~supported))


@dataclass(frozen=True)
class SweepResult:
    """Conductance of every prefix cut along one node ordering.

    ``values[k]`` is the conductance of the cut separating
    ``order[: k + 1]`` from the rest; ``value``/``prefix`` point at the
    minimum.  Prefixes whose smaller-side volume is zero score 0.0, exactly
    like the per-cut helpers in :mod:`repro.core.conductance`.
    """

    value: float
    prefix: int
    order: "np.ndarray"
    values: "np.ndarray"

    def side_indices(self) -> "np.ndarray":
        """The node indices of the best cut's prefix side."""
        return self.order[: self.prefix]


def sweep_cut_conductance(
    indptr: "np.ndarray",
    indices: "np.ndarray",
    order: "np.ndarray",
    *,
    volume_degrees: Optional["np.ndarray"] = None,
    slot_weights: Optional["np.ndarray"] = None,
) -> SweepResult:
    """All ``n − 1`` prefix-cut conductances of ``order`` in one O(n + m) pass.

    An edge whose endpoints sit at ranks ``r_lo < r_hi`` crosses exactly the
    prefix cuts ``r_lo ≤ k < r_hi``, so scattering ``+weight`` at ``r_lo``
    and ``−weight`` at ``r_hi`` and cumulative-summing yields every
    prefix's crossing weight at once; volumes are a cumsum of permuted
    degrees.  This replaces the historical per-cut Python loop
    (O(n·m) with a frozenset per prefix) as the sweep bottleneck.

    ``volume_degrees`` defaults to the CSR degrees — pass the *full*
    graph's degrees when ``indptr``/``indices`` describe a threshold
    subgraph, so volumes follow Definition 1.  ``slot_weights`` (aligned
    with ``indices``) reweights each crossing edge's numerator
    contribution: a 0/1 latency mask computes ``φ_ℓ`` numerators, per-class
    ``1/2^i`` weights compute ``φ_avg`` numerators.
    """
    n = len(indptr) - 1
    if len(order) != n:
        raise GraphError(f"order must permute all {n} nodes, got {len(order)}")
    if n < 2:
        raise GraphError("sweep cuts need at least 2 nodes")
    degrees = np.diff(indptr)
    if volume_degrees is None:
        volume_degrees = degrees
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    sources = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rank_lo = rank[sources]
    rank_hi = rank[indices]
    forward = rank_lo < rank_hi  # count each undirected edge once
    lo = rank_lo[forward]
    hi = rank_hi[forward]
    if slot_weights is None:
        opened = np.bincount(lo, minlength=n).astype(np.float64)
        closed = np.bincount(hi, minlength=n).astype(np.float64)
    else:
        weights = np.asarray(slot_weights, dtype=np.float64)[forward]
        opened = np.bincount(lo, weights=weights, minlength=n)
        closed = np.bincount(hi, weights=weights, minlength=n)
    crossing = np.cumsum(opened - closed)[:-1]
    volumes = np.cumsum(volume_degrees[order])[:-1]
    total_volume = int(volume_degrees.sum())
    min_volumes = np.minimum(volumes, total_volume - volumes)
    values = np.where(min_volumes > 0, crossing / np.maximum(min_volumes, 1), 0.0)
    best = int(np.argmin(values))
    return SweepResult(
        value=float(values[best]),
        prefix=best + 1,
        order=np.asarray(order, dtype=np.int64),
        values=values,
    )


@dataclass(frozen=True)
class SpectralEstimate:
    """One spectral conductance estimate: swept φ plus its eigenvalue context."""

    phi: float
    lambda2: float
    prefix: int
    iterations: int
    residual: float
    converged: bool
    method: str

    def cheeger_interval(self) -> tuple[float, float]:
        """The Cheeger sandwich ``[λ2/2, √(2·λ2)]`` around the true φ.

        The lower end is ``0.0`` unless the solve converged (see
        :func:`_solve_interval`).
        """
        return _solve_interval(self.lambda2, self.converged)


def spectral_conductance(
    graph: Union[WeightedGraph, IndexedGraph],
    *,
    ell: Optional[int] = None,
    seed: int = 0,
    tol: float = 1e-6,
    max_iters: int = 256,
    dense_below: int = DENSE_EIGH_MAX_NODES,
) -> SpectralEstimate:
    """Estimate a graph's conductance by Fiedler sweep, straight off CSR.

    With ``ell`` set, estimates the weight-ℓ conductance ``φ_ℓ``: the
    Fiedler pair is computed on the latency-thresholded operator and the
    sweep numerator counts only edges of latency ≤ ℓ, while volumes come
    from the full graph (Definition 1).  With ``ell=None`` every edge
    counts — the classical conductance.

    Routes through :func:`fiedler_pair_dense` up to ``dense_below`` nodes
    and the sparse LOBPCG iteration beyond; the returned estimate is an
    upper bound on the true φ (it is the best of an explicit family of
    cuts) and sits inside the Cheeger interval of ``lambda2``.
    """
    snapshot = graph.indexed() if isinstance(graph, WeightedGraph) else graph
    if snapshot.num_nodes < 2 or len(snapshot.indices) == 0:
        raise GraphError("conductance is undefined for graphs with < 2 nodes or no edges")
    operator = LaplacianOperator.from_indexed(snapshot, max_latency=ell)
    if operator.num_supported < 2:
        raise GraphError(
            f"no edges survive the latency threshold {ell}; phi_ell is undefined"
        )
    if snapshot.num_nodes <= dense_below:
        pair = fiedler_pair_dense(operator)
    else:
        pair = fiedler_pair(
            operator, seed, "fiedler", -1 if ell is None else ell, tol=tol, max_iters=max_iters
        )
    order = ordering_from_embedding(pair.embedding, ~operator._zero_degree)
    slot_weights = None
    if ell is not None:
        slot_weights = (snapshot.latencies <= ell).astype(np.float64)
    sweep = sweep_cut_conductance(
        snapshot.indptr,
        snapshot.indices,
        order,
        volume_degrees=snapshot.degrees(),
        slot_weights=slot_weights,
    )
    return SpectralEstimate(
        phi=sweep.value,
        lambda2=pair.lambda2,
        prefix=sweep.prefix,
        iterations=pair.iterations,
        residual=pair.residual,
        converged=pair.converged,
        method=pair.method,
    )
