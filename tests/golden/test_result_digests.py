"""Seeded runs must reproduce their committed stored results bit for bit.

Every case in ``result_digests.json`` is re-run and hashed over the bytes the
result store would write (:func:`repro.store.encode_result` as compact,
key-sorted JSON), so an engine change that moves a single metric, per-edge
activation count or ``details`` entry fails here.  Regenerate deliberately
with ``python tests/golden/regen_result_digests.py``.
"""

from __future__ import annotations

import pytest

from tests.golden.regen_result_digests import load_digests, result_cases, result_digest

CASES = result_cases()
DIGESTS = load_digests()


def test_every_result_case_has_a_committed_digest():
    assert set(DIGESTS) == set(CASES), (
        "result_digests.json is out of sync with the case list; "
        "run `python tests/golden/regen_result_digests.py`"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_committed_result_digest(name):
    assert result_digest(CASES[name]()) == DIGESTS[name]
