"""Seeded graph builds must reproduce their committed realizations bit for bit.

Every case in ``graph_digests.json`` is rebuilt from its seed and hashed over
its labels and CSR snapshot (``indptr``, ``indices``, ``latencies``), so a
generator change that alters a single edge, latency or neighbour insertion
position fails here.  Regenerate deliberately with
``python tests/golden/regen_graph_digests.py``.
"""

from __future__ import annotations

import pytest

from tests.golden.regen_graph_digests import graph_cases, graph_digest, load_digests

CASES = graph_cases()
DIGESTS = load_digests()


def test_every_graph_case_has_a_committed_digest():
    assert set(DIGESTS) == set(CASES), (
        "graph_digests.json is out of sync with the case list; "
        "run `python tests/golden/regen_graph_digests.py`"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_build_matches_committed_digest(name):
    assert graph_digest(CASES[name]()) == DIGESTS[name]
