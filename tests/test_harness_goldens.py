"""Golden harness outcomes: what every harness decides, pinned.

``tests/golden_harness_outcomes.json`` holds the classified result of a
fixed set of fault campaigns (serial, and ``jobs=2`` for two of them),
chaos schedules, ``profile_counts`` coordinates, differential scenarios
and a churn campaign -- outcome labels, counts, latencies, plans,
decision digests, fault timelines and the sha256 of the printed
``campaign_summary`` / ``churn_summary``; everything
deterministic a harness reports except the free-text ``detail``.  It was
produced by ``tools/dump_harness_outcomes.py`` at the commit *before*
the harnesses moved onto ``repro.transport.world``, so it holds that
refactor -- and any later one -- to the same bytes.

``chaos[58]`` is the forged holder vote the seed-10 soak drew (ROADMAP
item 2): ``violation/corrupt`` until a single-writer slot acked only
exactly what it wrote, ``refused/aborted`` since.

Refresh (only for an intended behaviour change) with:

    PYTHONPATH=src python tools/dump_harness_outcomes.py
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "dump_harness_outcomes.py"
_spec = importlib.util.spec_from_file_location("dump_harness_outcomes", _TOOL)
dump = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dump)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(dump.GOLDEN_PATH.read_text())


def test_golden_sections_match_the_tool(golden):
    assert set(golden) == set(dump.SECTIONS)


@pytest.mark.parametrize("section", sorted(dump.SECTIONS))
def test_harness_outcomes_match_golden(golden, section):
    got = json.loads(dump.render(dump.SECTIONS[section]()))
    drift = dump.diff(golden[section], got, section)
    assert not drift, (
        f"{len(drift)} field(s) drifted from {dump.GOLDEN_PATH.name}:\n  "
        + "\n  ".join(drift[:20])
    )


def test_parallel_campaigns_equal_serial(golden):
    checked = [
        name for name, (_, parallel) in dump.CAMPAIGNS.items() if parallel
    ]
    assert checked
    for name in checked:
        assert golden["campaigns"][name]["jobs2_equal"] is True

