#!/usr/bin/env python
"""Regenerate ``result_digests.json``: SHA-256 pins of stored run results.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regen_result_digests.py

Each entry hashes the bytes the result store writes for one seeded run:
:func:`repro.store.encode_result` dumped as compact, key-sorted JSON.  The
cases are every bundled ``scenarios/*.json`` run on ``engine="fast"``, on
``engine="edge"`` and on ``engine="batch"`` with three replications, plus
one all-to-all run at n=80 (two knowledge words) on the edge and batch
backends.  So a change that moves any metric, any per-edge activation
count or any ``details`` entry of a stored result fails
``test_result_digests.py``, and ``tests/test_store.py`` binds this file's
own hash to ``RESULT_STORE_FORMAT``: regenerate only after a change that
is *meant* to alter results, bump the format tag with it, and review the
diff.
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

from repro.scenario import GraphSpec, ScenarioSpec, load_scenario, run_scenario  # noqa: E402
from repro.store import encode_result  # noqa: E402

DIGEST_FILE = "result_digests.json"
DIGEST_PATH = os.path.join(HERE, DIGEST_FILE)

#: Engine patches per bundled scenario: the two single-run numpy/scalar
#: backends and a three-replication batch.
ENGINE_PATCHES = {
    "fast": {"engine": "fast"},
    "edge": {"engine": "edge"},
    "batch-reps3": {"engine": "batch", "reps": 3},
}

#: 80 rumors need a second uint64 knowledge word.
ALL_TO_ALL_80 = ScenarioSpec(
    name="all-to-all-er80",
    algorithm="push-pull",
    task="all-to-all",
    graph=GraphSpec(family="erdos-renyi", n=80, latency="uniform"),
    seed=5,
)


def result_digest(result) -> str:
    """SHA-256 of a result's stored bytes (compact, key-sorted JSON)."""
    payload = encode_result(result)
    if payload is None:
        raise ValueError("result does not encode losslessly")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_cases() -> dict[str, Callable]:
    """Case name -> zero-argument runner, for every pinned result."""
    cases: dict[str, Callable] = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "scenarios", "*.json"))):
        spec = load_scenario(path)
        for label, patch in ENGINE_PATCHES.items():
            case = spec.patched(patch)
            cases[f"scenario:{spec.name}:{label}"] = lambda case=case: run_scenario(case)
    for label, patch in (("edge", {"engine": "edge"}), ("batch-reps3", ENGINE_PATCHES["batch-reps3"])):
        case = ALL_TO_ALL_80.patched(patch)
        cases[f"{ALL_TO_ALL_80.name}:{label}"] = lambda case=case: run_scenario(case)
    return cases


def load_digests() -> dict[str, str]:
    """The committed digests, case name -> hex SHA-256."""
    with open(DIGEST_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    digests = {name: result_digest(run()) for name, run in result_cases().items()}
    with open(DIGEST_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(DIGEST_PATH)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
