"""Render TraceRecords as Chrome trace-event JSON.

The output loads in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``: one track (``tid``) per core, duration slices for
span-shaped record kinds and instant markers for everything else.

Mapping rules
-------------
- ``sourceN`` where source is ``rank`` or ``core`` maps to ``tid = N``;
  ``rank`` and ``core`` tracks with the same number merge (rank == core
  id for the default communicator), labelled by the first source seen.
  Other sources (``mesh``, ``fault`` ...) get stable tids past the core
  range.
- Kind ``x.y.begin`` opens a duration slice named ``x.y``; ``x.y.end``
  closes it (``ph`` = ``B``/``E``).  Spans must nest per track, which
  the protocol's emission sites guarantee (a wait span sits inside its
  chunk span).
- Every other kind is an instant event (``ph`` = ``i``, thread scope).
- Timestamps are the simulator's virtual microseconds, passed through
  unchanged (the trace-event ``ts`` unit is also microseconds).

:func:`validate_chrome_trace` is the well-formedness oracle the tests
use: required fields present, per-track begin/end properly nested and
monotonic.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from ..sim.trace import TraceRecord

_TRACK_RE = re.compile(r"^(?:rank|core)(\d+)$")
#: tid offset for non-core sources, far above any plausible core count.
_AUX_TID_BASE = 1_000_000


def _tid_of(source: str, aux: dict[str, int]) -> int:
    m = _TRACK_RE.match(source)
    if m:
        return int(m.group(1))
    tid = aux.get(source)
    if tid is None:
        tid = aux[source] = _AUX_TID_BASE + len(aux)
    return tid


def to_chrome_trace(
    records: Iterable[TraceRecord], *, pid: int = 1, process_name: str = "scc-sim"
) -> dict:
    """Convert records to a trace-event JSON document (as a dict)."""
    events: list[dict] = []
    aux_tids: dict[str, int] = {}
    track_names: dict[int, str] = {}
    for rec in records:
        tid = _tid_of(rec.source, aux_tids)
        track_names.setdefault(tid, rec.source)
        kind = rec.kind
        if kind.endswith(".begin"):
            ph, name = "B", kind[: -len(".begin")]
        elif kind.endswith(".end"):
            ph, name = "E", kind[: -len(".end")]
        else:
            ph, name = "i", kind
        ev = {
            "name": name,
            "ph": ph,
            "ts": rec.time,
            "pid": pid,
            "tid": tid,
        }
        if ph == "i":
            ev["s"] = "t"  # thread-scoped instant
        if rec.detail and ph != "E":  # E events take no args in the spec
            ev["args"] = {k: _jsonable(v) for k, v in rec.detail.items()}
        events.append(ev)

    meta: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid in sorted(track_names):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": track_names[tid]},
            }
        )
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _jsonable(v: object) -> object:
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return repr(v)


def write_chrome_trace(
    records: Iterable[TraceRecord], path: str, *, pid: int = 1
) -> int:
    """Write the trace-event JSON to ``path`` (checked by
    :func:`validate_chrome_trace` first); returns the event count."""
    doc = to_chrome_trace(records, pid=pid)
    validate_chrome_trace(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return len(doc["traceEvents"])


def validate_chrome_trace(doc: dict) -> None:
    """Raise ``ValueError`` on any structural defect of a trace document.

    Checks: top-level shape, required fields per event, known phase
    types, and per-(pid, tid) duration-slice discipline -- every ``E``
    matches the name of the innermost open ``B``, timestamps inside a
    track's stack never go backwards, and no slice is left open.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    open_slices: dict[tuple, list[tuple[str, float]]] = {}
    for i, ev in enumerate(events):
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                raise ValueError(f"event {i} missing {field!r}: {ev}")
        ph = ev["ph"]
        if ph not in ("B", "E", "i", "I", "M", "X", "C"):
            raise ValueError(f"event {i} has unknown phase {ph!r}")
        if ph == "M":
            continue
        if "ts" not in ev:
            raise ValueError(f"event {i} missing 'ts': {ev}")
        ts = ev["ts"]
        if not isinstance(ts, (int, float)):
            raise ValueError(f"event {i} has non-numeric ts {ts!r}")
        key = (ev["pid"], ev["tid"])
        stack = open_slices.setdefault(key, [])
        if ph == "B":
            if stack and ts < stack[-1][1]:
                raise ValueError(
                    f"event {i}: begin at ts={ts} before enclosing "
                    f"slice {stack[-1]}"
                )
            stack.append((ev["name"], ts))
        elif ph == "E":
            if not stack:
                raise ValueError(f"event {i}: end with no open slice on {key}")
            name, began = stack.pop()
            if name != ev["name"]:
                raise ValueError(
                    f"event {i}: end {ev['name']!r} does not match open "
                    f"slice {name!r}"
                )
            if ts < began:
                raise ValueError(
                    f"event {i}: slice {name!r} ends at ts={ts} before its "
                    f"begin ts={began}"
                )
    for key, stack in open_slices.items():
        if stack:
            raise ValueError(f"track {key} has unclosed slices: {stack}")
