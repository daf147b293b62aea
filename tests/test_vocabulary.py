"""Vocabulary guards: the two declarations agree with the code.

Trace kinds are declared once, in
:data:`repro.transport.decisions.TRACE_KINDS`; fault kinds declare their
facts once, on their :class:`repro.faults.FaultKind` row.  This static
half (run by ``make lint``) holds both declarations to the code:

- every string literal passed as a record kind at an emit site in
  ``src/repro`` is declared, and every declared kind is emitted
  somewhere as such a literal (no dead rows);
- every kind the online checker handles is declared;
- each ``FaultKind`` fact agrees with what ``FaultSpec``,
  ``ChaosSchedule.validate`` and the injector do with the kind.

The dynamic half, every record of real runs on both backends having a
declared kind and emitter, is
``tests/differential/test_trace_vocabulary.py``.
"""

import ast
import pathlib
from dataclasses import replace

import pytest

from repro.chaos import ChaosSchedule
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec
from repro.obs.invariants import _HANDLERS
from repro.scc import SccChip, SccConfig
from repro.transport.decisions import TRACE_KINDS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Emit-site call name -> position of its kind argument:
#: ``Endpoint._emit(kind)``, ``tracer.emit(now, source, kind)`` and
#: ``Endpoint._acked(site, send, readback, accept, kind, ...)``, which
#: emits ``kind`` when a re-send lands.  ``trace`` is either
#: ``Endpoint.trace(kind)`` or ``chip.trace(source, kind)``.
_KIND_ARG = {"_emit": 0, "emit": 2, "_acked": 4}


def _kind_arg(call: ast.Call) -> ast.expr | None:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "trace":
        index = 1 if len(call.args) > 1 else 0
    else:
        index = _KIND_ARG.get(func.attr)
    if index is None or len(call.args) <= index:
        return None
    return call.args[index]


def _emitted_literals() -> dict[str, list[str]]:
    """kind -> ``file:line`` of every emit site naming it as a literal."""
    sites: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            arg = _kind_arg(node)
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                sites.setdefault(arg.value, []).append(where)
    return sites


def test_every_emitted_kind_is_declared():
    undeclared = {
        kind: where for kind, where in _emitted_literals().items()
        if kind not in TRACE_KINDS
    }
    assert undeclared == {}


def test_every_declared_kind_is_emitted():
    emitted = _emitted_literals()
    assert sorted(set(TRACE_KINDS) - set(emitted)) == []


def test_every_row_names_one_emitter_and_known_roles():
    for kind, (emitter, *roles) in TRACE_KINDS.items():
        assert emitter in ("rank", "core", "faults"), kind
        assert set(roles) <= {"decision", "timeline"}, kind
        assert emitter == "rank" or "decision" not in roles, kind


def test_checker_handles_only_declared_kinds():
    assert sorted(set(_HANDLERS) - set(TRACE_KINDS)) == []


# -- FaultKind facts against behaviour ----------------------------------------

_SUSTAINED_FIELDS = dict(period=2.0, duty=0.5, cycles=2)


def _valid(kind: FaultKind) -> dict:
    """Fields every kind accepts (a victim core, a duration), plus the
    sustained-regime fields where the kind is sustained."""
    fields = dict(core=1, duration=8.0)
    return {**fields, **_SUSTAINED_FIELDS} if kind.sustained else fields


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda k: k.value)
class TestFaultKindFacts:
    def test_sustained_fields_accepted_iff_sustained(self, kind):
        fields = {**_valid(kind), **_SUSTAINED_FIELDS}
        if kind.sustained:
            FaultSpec(kind, **fields)
        else:
            with pytest.raises(ValueError, match="takes no period"):
                FaultSpec(kind, **fields)

    def test_spec_without_core_raises_iff_needs_core(self, kind):
        FaultSpec(kind, **_valid(kind))
        fields = {**_valid(kind), "core": None}
        if kind.needs_core:
            with pytest.raises(ValueError, match="needs an explicit"):
                FaultSpec(kind, **fields)
        else:
            FaultSpec(kind, **fields)

    def test_spec_without_duration_raises_iff_needs_duration(self, kind):
        fields = {**_valid(kind), "duration": 0.0}
        if kind.needs_duration:
            with pytest.raises(ValueError):
                FaultSpec(kind, **fields)
        else:
            FaultSpec(kind, **fields)

    def test_asyncio_schedule_refused_iff_scc_only(self, kind):
        scc = ChaosSchedule(
            mode="byz" if kind.adversarial else "service",
            specs=(FaultSpec(kind, **_valid(kind)),),
        )
        scc.validate()
        on_asyncio = replace(scc, backend="asyncio")
        if kind.scc_only:
            with pytest.raises(ValueError, match="only exist on the scc"):
                on_asyncio.validate()
        else:
            on_asyncio.validate()

    def test_injector_corrupts_iff_corrupts(self, kind):
        op = {"flag_write": "flag", "data_write": "data"}.get(kind.category)
        if op is None:  # never reaches the write filter
            assert not kind.corrupts
            return
        chip = SccChip(
            SccConfig(mesh_cols=1, mesh_rows=1),
            faults=FaultInjector(FaultPlan((FaultSpec(kind),))),
        )
        landed = chip.mpbs[1].write_bytes(0, b"\x01" * 32, source=0, op=op)
        assert landed == ("corrupted" if kind.corrupts else "dropped")
