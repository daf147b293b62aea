"""Golden *timed* trace digests for the asyncio backend.

The decision goldens (``test_golden_decisions.py``) canonicalise timing
away, so they cannot see a change in the asyncio backend's wire-op
order: every remote operation draws its latency from the seeded
:class:`~repro.transport.models.DelayModel` in heap order, so one
re-ordered operation shifts every later draw.  This file pins the
sha256 of the full timed record stream (time, source, kind, sorted
detail -- :func:`repro.obs.trace_digest`) of each shared scenario on
``AsyncioTransport`` at seed 0.  A mismatch means some operation moved,
retimed, appeared or vanished on the asyncio backend.

Refresh intentionally (and say why in CHANGES.md) with:

    PYTHONPATH=src python tests/differential/test_golden_asyncio_traces.py --record
"""

import json
import sys
from pathlib import Path

import pytest

from repro.obs import trace_digest
from repro.transport.scenarios import SCENARIOS, run_asyncio

pytestmark = pytest.mark.differential

GOLDEN_PATH = (
    Path(__file__).resolve().parent.parent / "golden_asyncio_trace_digests.json"
)

SEED = 0


def _digest(name: str) -> str:
    return trace_digest(run_asyncio(name, SEED).records)


def _load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden asyncio trace digests missing at {GOLDEN_PATH}; record "
            f"them with: PYTHONPATH=src python {__file__} --record"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_asyncio_trace_digest(name):
    goldens = _load_goldens()
    assert name in goldens, (
        f"no golden asyncio trace digest for {name!r}; record with: "
        f"PYTHONPATH=src python {__file__} --record"
    )
    assert _digest(name) == goldens[name], (
        f"timed asyncio trace for {name!r} drifted -- a wire operation "
        f"moved, retimed, appeared or vanished.  If intended, refresh with: "
        f"PYTHONPATH=src python {__file__} --record"
    )


def test_goldens_have_no_orphans():
    assert set(_load_goldens()) == set(SCENARIOS)


def _record() -> None:
    digests = {name: _digest(name) for name in sorted(SCENARIOS)}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} asyncio trace digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        print(__doc__)
