"""Every record real runs emit has a declared kind and emitter.

The static half (``tests/test_vocabulary.py``) checks the literals at
emit sites; this half runs the shared differential scenarios and the
pinned chaos bundles on both backends and checks what actually comes
out: each record's kind is a row of
:data:`repro.transport.decisions.TRACE_KINDS`, and its source prefix
(``rank``, ``core`` or ``faults``) is the row's emitter.
"""

import os
import re
from dataclasses import replace

import pytest

from repro.chaos import BACKENDS, ChaosSchedule, ReproBundle
from repro.chaos.runner import execute
from repro.transport.decisions import TRACE_KINDS
from repro.transport.scenarios import SCENARIOS, run_asyncio, run_scc

pytestmark = pytest.mark.differential

_BUNDLE_DIR = os.path.join(os.path.dirname(__file__), "..", "chaos_bundles")


def _bundle_runs() -> dict[str, ChaosSchedule]:
    """Each pinned schedule on its own backend, and on the other one
    where it is valid there (SCC-only kinds and network models are
    not)."""
    runs = {}
    for name in sorted(os.listdir(_BUNDLE_DIR)):
        if not name.endswith(".json"):
            continue
        pinned = ReproBundle.load(os.path.join(_BUNDLE_DIR, name)).schedule
        for backend in BACKENDS:
            schedule = replace(pinned, backend=backend)
            try:
                schedule.validate()
            except ValueError:
                continue
            runs[f"{name[:-5]}@{backend}"] = schedule
    return runs


_BUNDLE_RUNS = _bundle_runs()


def _undeclared(records) -> set[tuple[str, str]]:
    """``(source prefix, kind)`` pairs the table does not declare."""
    bad = set()
    for rec in records:
        prefix = re.sub(r"\d+$", "", rec.source)
        if TRACE_KINDS.get(rec.kind, ("",))[0] != prefix:
            bad.add((prefix, rec.kind))
    return bad


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_records_are_declared(name, backend):
    run = {"scc": run_scc, "asyncio": run_asyncio}[backend]
    assert _undeclared(run(name, 1).records) == set()


@pytest.mark.parametrize("run_id", sorted(_BUNDLE_RUNS))
def test_bundle_records_are_declared(run_id):
    run, _ = execute(_BUNDLE_RUNS[run_id], trace=True)
    assert run.records
    assert _undeclared(run.records) == set()
