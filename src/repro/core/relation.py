"""Theorem 5: the relation between φ* and φ_avg.

Theorem 5 states that for every weighted graph

    φ*/(2ℓ*)  <=  φ_avg  <=  L · φ*/ℓ*  <=  ⌈log ℓmax⌉ · φ*/ℓ*

where ``L`` is the number of non-empty latency classes.  This module checks
the relation on concrete graphs (exactly for small graphs, approximately via
the estimators otherwise) and reports where in the sandwich φ_avg falls —
useful both as a correctness test of the conductance implementations and as
the E1 benchmark.

Reproduction note
-----------------
The *lower* bound ``φ*/(2ℓ*) <= φ_avg`` holds on every instance we tested and
its proof in the paper is sound.  The *upper* bound ``φ_avg <= L·φ*/ℓ*`` as
literally stated can fail on small dense instances whose fast-edge
conductance is zero (e.g. a 12-node bimodal graph where a single node has
only slow incident edges): the paper's proof bounds ``φ_avg(C)`` for the cut
``C`` witnessing φ*, but silently replaces the *cut-level* quantity
``φ_{2^i}(C)`` by the *graph-level* minimum ``φ_{2^i}(G)``, which only works
when the witness cut simultaneously minimizes every threshold conductance.
We therefore expose :meth:`Theorem5Report.lower_holds` and
:meth:`Theorem5Report.upper_holds` separately, plus the always-sound witness
bound ``φ_avg <= φ_avg(C*)`` via :attr:`Theorem5Report.witness_upper`.  The
E1 benchmark reports how often the claimed upper bound holds across random
families (it holds in the vast majority of cases, and always within a factor
of ~2 in our sweeps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..graphs.weighted_graph import GraphError, WeightedGraph
from .conductance import DEFAULT_MAX_EXACT_NODES
from .estimation import estimate_average_conductance, estimate_critical_conductance
from .latency_classes import nonempty_latency_classes, num_latency_classes

__all__ = ["Theorem5Report", "check_theorem5"]


@dataclass(frozen=True)
class Theorem5Report:
    """Result of evaluating the Theorem 5 sandwich on one graph.

    ``witness_upper`` is ``φ_avg(C*)`` for the cut ``C*`` witnessing φ* — an
    upper bound that is sound by the definition of φ_avg as a minimum and
    that the paper's proof actually establishes before the final (gapped)
    step; see the module docstring.
    """

    phi_star: float
    ell_star: int
    phi_avg: float
    nonempty_classes: int
    max_latency: int
    exact: bool
    witness_upper: float = float("inf")

    @property
    def lower(self) -> float:
        """``φ*/(2ℓ*)`` — the Theorem 5 lower bound on φ_avg."""
        return self.phi_star / (2 * self.ell_star)

    @property
    def upper(self) -> float:
        """``L·φ*/ℓ*`` — the Theorem 5 upper bound on φ_avg as claimed by the paper."""
        return self.nonempty_classes * self.phi_star / self.ell_star

    @property
    def loose_upper(self) -> float:
        """``⌈log ℓmax⌉·φ*/ℓ*`` — the looser upper bound of Theorem 5."""
        return num_latency_classes(self.max_latency) * self.phi_star / self.ell_star

    def lower_holds(self, tolerance: float = 1e-9) -> bool:
        """Whether the (always sound) lower bound ``φ*/2ℓ* <= φ_avg`` holds."""
        return self.lower <= self.phi_avg + tolerance

    def upper_holds(self, tolerance: float = 1e-9) -> bool:
        """Whether the paper's claimed upper bound ``φ_avg <= L·φ*/ℓ*`` holds."""
        return self.phi_avg <= self.upper + tolerance and self.upper <= self.loose_upper + tolerance

    def witness_upper_holds(self, tolerance: float = 1e-9) -> bool:
        """Whether the sound witness bound ``φ_avg <= φ_avg(C*)`` holds (it must)."""
        return self.phi_avg <= self.witness_upper + tolerance

    def holds(self, tolerance: float = 1e-9) -> bool:
        """Whether the full sandwich as stated in the paper holds."""
        return self.lower_holds(tolerance) and self.upper_holds(tolerance)

    def position(self) -> float:
        """Where φ_avg sits inside [lower, upper], as a fraction in [0, 1].

        Returns ``nan`` when the interval is degenerate.
        """
        width = self.upper - self.lower
        if width <= 0:
            return math.nan
        return (self.phi_avg - self.lower) / width

    def as_dict(self) -> dict[str, float]:
        """Flatten the report for table rendering."""
        return {
            "phi_star": self.phi_star,
            "ell_star": self.ell_star,
            "phi_avg": self.phi_avg,
            "lower": self.lower,
            "upper": self.upper,
            "loose_upper": self.loose_upper,
            "witness_upper": self.witness_upper,
            "L": self.nonempty_classes,
            "lower_holds": float(self.lower_holds()),
            "upper_holds": float(self.upper_holds()),
            "holds": float(self.holds()),
        }


def check_theorem5(graph: WeightedGraph, seed: int = 0, max_exact_nodes: int = DEFAULT_MAX_EXACT_NODES) -> Theorem5Report:
    """Evaluate the Theorem 5 sandwich on ``graph``.

    For graphs with at most ``max_exact_nodes`` nodes the quantities are exact
    (so the sandwich MUST hold — a violation indicates an implementation bug);
    for larger graphs the estimated quantities may violate the sandwich
    slightly because the two sides are estimated from different cuts.
    """
    from .conductance import _critical_profile, cut_average_conductance

    if graph.num_nodes < 2 or graph.num_edges == 0:
        raise GraphError("Theorem 5 requires a graph with at least 2 nodes and 1 edge")
    exact = graph.num_nodes <= max_exact_nodes
    witness_upper = math.inf
    if exact:
        profile, witness = _critical_profile(graph, max_exact_nodes)
        phi_star, ell_star = profile.critical_phi, profile.critical_latency
        phi_avg = profile.phi_avg
        classes = profile.nonempty_classes
        witness_upper = cut_average_conductance(graph, witness)
    else:
        phi_star, ell_star = estimate_critical_conductance(graph, seed=seed, max_exact_nodes=max_exact_nodes)
        phi_avg = estimate_average_conductance(graph, seed=seed, max_exact_nodes=max_exact_nodes)
        classes = len(nonempty_latency_classes(graph))
    return Theorem5Report(
        phi_star=phi_star,
        ell_star=ell_star,
        phi_avg=phi_avg,
        nonempty_classes=classes,
        max_latency=graph.max_latency(),
        exact=exact,
        witness_upper=witness_upper,
    )
