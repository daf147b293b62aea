"""Decision-trace extraction for differential testing.

Two backends running the same protocol with the same seed agree on
*decisions* -- what each rank committed, suspected, elected, voted and
returned -- while disagreeing on every latency and on how the per-rank
event streams interleave globally.  This module canonicalises a trace
into exactly the decision content:

- keep only the *decision kinds* of :data:`TRACE_KINDS` (protocol
  outcomes and state transitions), dropping span markers, wait
  bookkeeping, retry noise and core-level wire records whose counts are
  timing-dependent;
- keep only per-rank **program order**: records are grouped by their
  ``rank{r}`` source and concatenated in rank order, because the global
  interleaving is a timing artifact;
- strip timestamps: a canonical line is ``source<TAB>kind<TAB>detail``
  with the detail dict rendered in sorted-key order.

``decision_digest`` hashes the result, giving each (scenario, seed) a
single comparable fingerprint per backend.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from ..sim.trace import TraceRecord

#: Every trace record kind the code emits, one row each:
#: ``kind: (emitter, *roles)``.  The emitter is the record's source
#: prefix -- ``rank`` (a protocol record, ``Endpoint.trace``, the one
#: hook a :class:`~repro.transport.api.CrashOnEvent` sees), ``core`` (a
#: wire record, ``Endpoint._emit`` or ``chip.trace("core{i}", ...)``)
#: or ``faults`` (the injector).  Roles: ``decision`` (kept by
#: :func:`decision_streams`) and ``timeline`` (a row of a campaign's
#: fault timeline).  Not decisions on purpose: span and wait markers,
#: completion timing (``oc.chunk_done``), retry noise (``oc.ft.renotify``,
#: ``oc.integrity.*``, ``*_retry_ok``: masked recoveries must not change
#: the decision stream), delivery-timing observations
#: (``*_unreachable``, ``svc.resync``, ``resilience.*``) and every wire
#: record, whose counts differ with backend timing.
TRACE_KINDS: dict[str, tuple[str, ...]] = {
    # OC-Bcast data path and OC collectives
    "oc.chunk.begin": ("rank",),
    "oc.chunk.end": ("rank",),
    "oc.wait.begin": ("rank",),
    "oc.wait.end": ("rank",),
    "oc.chunk_done": ("rank",),
    "oc.chunk_staged": ("rank", "decision"),
    "oc.fetch": ("rank", "decision"),
    "oc.svc.commit": ("rank", "decision"),
    "oc.svc.commit_unknown": ("rank", "decision"),
    "oc.svc.commit_moved_on": ("rank",),
    "oc.ft.renotify": ("rank", "timeline"),
    "oc.ft.child_dead": ("rank", "decision", "timeline"),
    "oc.integrity.mismatch": ("rank",),
    "oc.integrity.refetch_ok": ("rank",),
    "oc.adv.equivocate": ("rank", "decision"),
    "ocr.done": ("rank",),
    # broadcast service (coordination outcomes)
    "svc.attempt": ("rank", "decision"),
    "svc.attempt_failed": ("rank", "decision"),
    "svc.outcome": ("rank", "decision"),
    "svc.completion": ("rank", "decision"),
    "svc.step_down": ("rank", "decision"),
    "svc.self_evict": ("rank", "decision"),
    "svc.report_failed": ("rank", "decision"),
    "svc.refused": ("rank", "decision"),
    "svc.resync": ("rank",),
    "svc.fast_forward": ("rank",),
    # membership and suspicion
    "member.hb": ("rank", "decision"),
    "member.suspect": ("rank", "decision"),
    "member.view_install": ("rank", "decision"),
    "member.view_adopt": ("rank", "decision"),
    "member.install_unreachable": ("rank",),
    "resilience.lagging": ("rank",),
    "resilience.suspect": ("rank",),
    # election
    "member.elect.begin": ("rank", "decision"),
    "member.elect.won": ("rank", "decision"),
    "member.elect.follow": ("rank", "decision"),
    "member.elect.yield": ("rank", "decision"),
    "member.claim": ("rank", "decision"),
    "member.claim_unreachable": ("rank",),
    # Byzantine reliable broadcast
    "rbc.echo": ("rank", "decision"),
    "rbc.amplify": ("rank", "decision"),
    "rbc.outcome": ("rank", "decision"),
    "rbc.no_quorum": ("rank", "decision"),
    "rbc.refetch": ("rank", "decision"),
    "rbc.refetch_failed": ("rank", "decision"),
    # wire records
    "put": ("core",),
    "get": ("core",),
    "put_bytes": ("core",),
    "flag_write": ("core",),
    "slot_write": ("core",),
    "vote_write": ("core",),
    "retry_backoff": ("core",),
    "put_retry_ok": ("core", "timeline"),
    "get_retry_ok": ("core",),
    "flag_write_retry_ok": ("core", "timeline"),
    "slot_write_retry_ok": ("core",),
    "vote_write_retry_ok": ("core",),
    # the fault injector
    "fault.injected": ("faults", "timeline"),
    "fault.recovered": ("faults", "timeline"),
}


def kinds_with(fact: str) -> frozenset[str]:
    """The declared kinds whose row names ``fact`` (an emitter or a
    role)."""
    return frozenset(k for k, facts in TRACE_KINDS.items() if fact in facts)


#: The protocol decisions, as a frozenset: one lookup per record.
DECISION_KINDS = kinds_with("decision")


def decision_streams(
    records: Iterable[TraceRecord],
) -> dict[str, list[TraceRecord]]:
    """Per-rank decision records in program order, keyed by source
    (``rank0``, ``rank1``, ...)."""
    streams: dict[str, list[TraceRecord]] = {}
    for rec in records:
        if rec.kind in DECISION_KINDS and rec.source.startswith("rank"):
            streams.setdefault(rec.source, []).append(rec)
    return streams


def _rank_index(source: str) -> int:
    try:
        return int(source[4:])
    except ValueError:  # pragma: no cover - non-rank sources are filtered
        return -1


def canonical_decisions(records: Iterable[TraceRecord]) -> str:
    """The time-free canonical decision text of one run."""
    streams = decision_streams(records)
    lines: list[str] = []
    for source in sorted(streams, key=_rank_index):
        for rec in streams[source]:
            detail = ",".join(
                f"{k}={v!r}" for k, v in sorted(rec.detail.items())
            )
            lines.append(f"{source}\t{rec.kind}\t{detail}")
    return "\n".join(lines) + "\n"


def decision_digest(records: Iterable[TraceRecord]) -> str:
    """sha256 fingerprint of the canonical decision text."""
    return hashlib.sha256(canonical_decisions(records).encode()).hexdigest()
