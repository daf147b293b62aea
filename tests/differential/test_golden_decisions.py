"""Golden decision-trace digests for the differential scenarios.

Pins the sha256 of the canonical decision stream (seed 0, SCC backend)
for each differential scenario.  Separate from ``tests/golden_digests.json``
(the full-trace goldens): decision digests canonicalise away timing, so
they survive timing-model changes that legitimately refresh the trace
goldens -- a decision digest changing means the *protocol logic* changed.

Refresh intentionally with:

    PYTHONPATH=src python tests/differential/test_golden_decisions.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from repro.transport.scenarios import DIFFERENTIAL_NAMES, run_scc

pytestmark = pytest.mark.differential

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden_decision_digests.json"

SEED = 0


def _digest(name: str) -> str:
    return run_scc(name, SEED).digest


def _load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden decision digests missing at {GOLDEN_PATH}; record them "
            f"with: PYTHONPATH=src python {__file__} --record"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_NAMES))
def test_golden_decision_digest(name):
    goldens = _load_goldens()
    assert name in goldens, (
        f"no golden decision digest for {name!r}; record with: "
        f"PYTHONPATH=src python {__file__} --record"
    )
    assert _digest(name) == goldens[name], (
        f"decision digest for {name!r} changed -- the protocol made "
        f"different decisions, not just different timings.  If intended, "
        f"refresh with: PYTHONPATH=src python {__file__} --record"
    )


def test_goldens_have_no_orphans():
    assert set(_load_goldens()) == set(DIFFERENTIAL_NAMES)


def _record() -> None:
    digests = {name: _digest(name) for name in DIFFERENTIAL_NAMES}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} decision digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
