"""Online protocol-invariant checking over the trace stream.

An :class:`InvariantChecker` subscribes to a :class:`repro.sim.Tracer`
(via :meth:`attach`) and verifies, record by record as the simulation
runs, that the OC-Bcast protocol keeps its promises:

I1 ``lost-write`` (lossless runs only)
    No protocol MPB write may be dropped or corrupted: every record that
    reports where a write landed (``flag_write``, ``slot_write``,
    ``vote_write``, ``put``, ``put_bytes``, ``get`` -- any record with a
    ``landed`` field) must carry ``landed="ok"``.  Disabled
    (``lossless=False``) when a fault injector is armed on purpose --
    then the *negative* test uses exactly this invariant to prove a
    seeded dropped flag is caught.

I2 ``flag-fifo``
    Per (writer, owner, flag line): sequence numbers are non-decreasing.
    Flags are monotonic by design (the double-buffering floor relies on
    it), and MPB writes of one core to one line are FIFO on the mesh, so
    any regression means a protocol or engine reordering bug.  Keyed per
    *writer* because FT direct fan-out legitimately lets a parent write
    seq s+1 to a child while a slower sibling still relays seq s.

I3 ``notify-before-fetch``
    A node may fetch chunk seq from its parent (``oc.fetch``) only after
    a notify-flag write with that seq (or later) *landed* in its MPB --
    "a child never gets a chunk before its notify flag".

I4 ``no-invented-notify``
    A core may only send a notify seq it is entitled to: it staged that
    chunk itself (root), a notify for it landed at its own MPB first, or
    -- service mode -- it decided the commit verdict for that seq
    (``oc.svc.commit``), which the root announces without staging a
    chunk.  Catches relays/fan-outs running ahead of the data.

I5 ``no-reuse-before-ack``
    Re-staging (root, ``oc.chunk_staged``) or re-filling (node,
    ``oc.fetch``) an MPB buffer slot whose ``floor`` is positive requires
    every child doneFlag at that core to have reached the floor --
    children declared dead (``oc.ft.child_dead``) exempted.  This is the
    double-buffering handshake of paper Section 4.2.  A new *service
    attempt* (``svc.attempt``) resets the attempting rank's done floors:
    the membership round fences the previous attempt (its readers have
    timed out or quiesced before the view installs) and the survivor
    tree may be rebuilt or re-rooted, so done acks addressed to the old
    tree's child slots no longer constrain buffer reuse.

I6 ``uniform-agreement``
    Per service message (``svc.outcome`` records, keyed by ``msg``): all
    *decisive* outcomes must agree -- ``ok`` and ``aborted`` may never
    coexist for one message, and every ``ok`` must carry the same
    payload fingerprint (``crc``).  ``evicted`` and ``self_evicted``
    outcomes are non-decisive: those ranks left the agreement set.
    This is the completion-protocol guarantee for a source that crashes
    mid-message -- no live core delivers a message that others discard.

I7 ``byzantine-agreement``
    Per RBC-delivered message (``rbc.outcome`` records, keyed by
    ``msg``), over *honest* ranks only -- ranks that actually fired an
    adversary fault (``fault.injected`` with an ``equivocate`` /
    ``forge_flag_value`` / ``lie_in_quorum`` kind) are excluded, their
    claims being worthless by definition.  **Agreement**: no two honest
    ``ok`` outcomes may carry different payload fingerprints, whatever
    the source did.  **Validity**: when the source rank is honest, every
    honest ``ok`` fingerprint must equal the source's own input
    fingerprint (``input_crc``).  This is the Bracha echo/ready promise
    the Byzantine broadcast mode makes on top of I6.

I8 ``no-false-eviction``
    A member that never missed sending a heartbeat is never suspected.
    Suspicion (``member.suspect``, detail ``member``/``round``) of rank
    m at round r is *justified* only if m crashed by fault plan
    (``fault.injected`` with a crash kind at ``core{m}``), m itself gave
    up reporting round r (``svc.report_failed``), or m's traced
    ``member.hb`` stream shows a gap or stops before round r -- it
    genuinely went silent.  Anything else is a false eviction: the
    adaptive detector's suspicion floor is sized to cover every *legal*
    response lag (paced retries, flap down phases, the lagging-orphan
    grace), so suspecting a member whose heartbeat send for round r is
    already on the trace means the timeout was wrong, not the member.
    Note the fixed-deadline legacy config makes no such promise -- churn
    campaigns attach this checker to the adaptive leg only.

Violations carry the offending record plus a window of the most recent
records for context.  By default they are collected and raised together
by :meth:`check` (call it after the run); ``strict=True`` raises at the
emitting site instead, which puts the failure at the exact virtual time
it occurred but aborts the simulation mid-flight.

Scope: rank/core identity is assumed to coincide (true for the default
and prefix communicators this repo uses); attach one checker per chip.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import TYPE_CHECKING

from ..faults.plan import FaultKind
from ..sim.trace import TraceRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..scc.chip import SccChip

#: Fault kinds that mark the firing core as Byzantine for I7.
_ADVERSARY_FAULTS = frozenset(k.value for k in FaultKind if k.adversarial)

#: Fault kinds whose injection record means the victim core is dead --
#: suspecting it afterwards is justified however regular its heartbeats
#: were (I8).
_CRASH_FAULTS = frozenset(k.value for k in FaultKind if k.crash)


class InvariantViolation(AssertionError):
    """A protocol invariant failed; carries the evidence."""

    def __init__(
        self,
        invariant: str,
        message: str,
        record: TraceRecord,
        window: list[TraceRecord],
    ) -> None:
        self.invariant = invariant
        self.record = record
        self.window = list(window)
        tail = "\n".join(f"    {r}" for r in self.window)
        super().__init__(
            f"[{invariant}] {message}\n  offending record:\n    {record}\n"
            f"  last {len(self.window)} records:\n{tail}"
        )


class InvariantChecker:
    """Streaming conformance oracle for OC-Bcast traces."""

    def __init__(
        self, *, lossless: bool = True, strict: bool = False, window: int = 16
    ) -> None:
        self.lossless = lossless
        self.strict = strict
        self.violations: list[InvariantViolation] = []
        self.records_seen = 0
        self._window: deque[TraceRecord] = deque(maxlen=window)
        # I2: (source, owner, flag-name, offset) -> last seq written.
        self._last_seq: dict[tuple, int] = {}
        # I3/I4 credits: core id -> highest notify seq landed in its MPB /
        # highest chunk seq it staged itself.
        self._notified: dict[int, int] = {}
        self._staged: dict[int, int] = {}
        # I5: (owner core, done-flag name) -> (last landed seq, writer).
        self._done: dict[tuple[int, str], tuple[int, int]] = {}
        # FT: owner core -> set of child cores it declared dead.
        self._dead: dict[int, set[int]] = {}
        # I6: msg id -> (decisive status, crc-or-None, first rank).
        self._outcomes: dict[int, tuple[str, int | None, int | None]] = {}
        # I7: ranks that fired an adversary fault; first honest ok per
        # msg; the honest source's input fingerprint per msg.
        self._compromised: set[int] = set()
        self._rbc_ok: dict[int, tuple[int, int]] = {}
        self._rbc_input: dict[int, tuple[int, int]] = {}
        # I8: rank -> (first round sent, last round sent, ever skipped a
        # round); cores crashed by fault plan; rank -> rounds whose
        # heartbeat report the member itself gave up on.
        self._hb_sent: dict[int, tuple[int, int, bool]] = {}
        self._crashed: set[int] = set()
        self._hb_failed: dict[int, set[int]] = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, chip: "SccChip") -> "InvariantChecker":
        """Subscribe to the chip's tracer (which must be enabled)."""
        if not chip.tracer.enabled:
            raise ValueError(
                "InvariantChecker needs an enabled Tracer "
                "(SccChip(tracer=Tracer(enabled=True)))"
            )
        chip.tracer.add_listener(self.feed)
        return self

    def check(self) -> None:
        """Raise the first collected violation (call after the run)."""
        if self.violations:
            raise self.violations[0]

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- streaming ---------------------------------------------------------

    def feed(self, rec: TraceRecord) -> None:
        self.records_seen += 1
        handler = _HANDLERS.get(rec.kind)
        if handler is not None:
            handler(self, rec)
        elif self.lossless and rec.detail.get("landed", "ok") != "ok":
            self._fail(
                "lost-write",
                f"{rec.kind} from {rec.source} was {rec.detail['landed']} "
                f"in a run declared lossless",
                rec,
            )
        self._window.append(rec)

    # -- per-kind handlers -------------------------------------------------

    def _on_commit(self, rec: TraceRecord) -> None:
        """The deciding root earns notify credit for the commit seq."""
        owner = _core_of(rec.source)
        seq = rec.detail.get("seq")
        if owner is not None and seq is not None and seq > self._staged.get(owner, 0):
            self._staged[owner] = seq

    def _on_child_dead(self, rec: TraceRecord) -> None:
        owner = _core_of(rec.source)
        if owner is not None:
            self._dead.setdefault(owner, set()).add(rec.detail["child"])

    def _on_attempt(self, rec: TraceRecord) -> None:
        owner = _core_of(rec.source)
        if owner is not None:
            # New attempt => membership fence => this rank's MPB done
            # slots are logically fresh (tree may be re-rooted).
            for key in [k for k in self._done if k[0] == owner]:
                del self._done[key]

    def _on_fault(self, rec: TraceRecord) -> None:
        fault = rec.detail.get("fault")
        site = rec.detail.get("site", "")
        core = _core_of(site.split(" ", 1)[0])
        if core is not None:
            if fault in _ADVERSARY_FAULTS:
                self._compromised.add(core)
            elif fault in _CRASH_FAULTS:
                self._crashed.add(core)

    def _on_report_failed(self, rec: TraceRecord) -> None:
        rank = _core_of(rec.source)
        rnd = rec.detail.get("round")
        if rank is not None and rnd is not None:
            self._hb_failed.setdefault(rank, set()).add(rnd)

    def _on_flag_write(self, rec: TraceRecord) -> None:
        d = rec.detail
        landed = d.get("landed", "ok")
        if self.lossless and landed != "ok":
            self._fail(
                "lost-write",
                f"flag write {d.get('flag')!r} from {rec.source} to "
                f"core{d.get('owner')} was {landed} in a run declared lossless",
                rec,
            )
        source = _core_of(rec.source)
        owner = d.get("owner")
        flag = d.get("flag", "")
        seq = d.get("seq")
        if source is None or owner is None or seq is None:
            return
        key = (source, owner, flag, d.get("off"))
        last = self._last_seq.get(key)
        if last is not None and seq < last:
            self._fail(
                "flag-fifo",
                f"core{source} wrote seq {seq} to {flag!r}@core{owner} "
                f"after having written seq {last} (per-writer flag "
                f"sequences must be non-decreasing)",
                rec,
            )
        self._last_seq[key] = max(seq, last if last is not None else seq)
        if flag == "oc.notify":
            # I4: the writer must itself hold the chunk it announces.
            credit = max(
                self._staged.get(source, 0), self._notified.get(source, 0)
            )
            if seq > credit:
                self._fail(
                    "no-invented-notify",
                    f"core{source} notified core{owner} of chunk seq {seq} "
                    f"but has itself only staged/been notified up to "
                    f"{credit}",
                    rec,
                )
            if landed == "ok" and seq > self._notified.get(owner, 0):
                self._notified[owner] = seq
        elif flag.startswith("oc.done") and landed == "ok":
            prev = self._done.get((owner, flag))
            if prev is None or seq > prev[0]:
                self._done[(owner, flag)] = (seq, source)

    def _on_fetch(self, rec: TraceRecord) -> None:
        d = rec.detail
        node = _core_of(rec.source)
        seq = d.get("seq")
        if node is None or seq is None:
            return
        if seq > self._notified.get(node, 0):
            self._fail(
                "notify-before-fetch",
                f"core{node} fetches chunk seq {seq} from "
                f"core{d.get('parent')} but the highest notify landed in "
                f"its MPB is {self._notified.get(node, 0)}",
                rec,
            )
        self._check_floor(node, d, rec)

    def _on_outcome(self, rec: TraceRecord) -> None:
        """I6: all decisive outcomes of one service message agree."""
        d = rec.detail
        status = d.get("status")
        if status not in ("ok", "aborted"):
            return  # evicted / self_evicted ranks left the agreement set
        msg = d.get("msg")
        rank = _core_of(rec.source)
        crc = d.get("crc")
        prev = self._outcomes.get(msg)
        if prev is None:
            self._outcomes[msg] = (status, crc, rank)
            return
        p_status, p_crc, p_rank = prev
        if status != p_status:
            self._fail(
                "uniform-agreement",
                f"message {msg}: rank{rank} decided {status!r} but "
                f"rank{p_rank} decided {p_status!r} -- live members must "
                f"all deliver or all abort",
                rec,
            )
        elif (
            status == "ok"
            and crc is not None
            and p_crc is not None
            and crc != p_crc
        ):
            self._fail(
                "uniform-agreement",
                f"message {msg}: rank{rank} delivered payload crc "
                f"{crc:#010x} but rank{p_rank} delivered {p_crc:#010x} -- "
                f"delivered payloads must be identical",
                rec,
            )

    def _on_rbc_outcome(self, rec: TraceRecord) -> None:
        """I7: honest RBC deliveries agree, and match an honest source."""
        d = rec.detail
        rank = _core_of(rec.source)
        if rank is None or rank in self._compromised:
            return
        msg = d.get("msg")
        input_crc = d.get("input_crc")
        if input_crc is not None:
            self._rbc_input[msg] = (rank, input_crc)
            ok = self._rbc_ok.get(msg)
            if ok is not None and ok[0] != input_crc:
                self._fail(
                    "byzantine-agreement",
                    f"message {msg}: honest rank{ok[1]} delivered payload "
                    f"crc {ok[0]:#010x} but the honest source rank{rank} "
                    f"broadcast {input_crc:#010x} -- validity requires "
                    f"the source's value",
                    rec,
                )
        if d.get("status") != "ok":
            return
        crc = d.get("crc")
        if crc is None:
            return
        prev = self._rbc_ok.get(msg)
        if prev is None:
            self._rbc_ok[msg] = (crc, rank)
        elif crc != prev[0]:
            self._fail(
                "byzantine-agreement",
                f"message {msg}: honest rank{rank} delivered payload crc "
                f"{crc:#010x} but honest rank{prev[1]} delivered "
                f"{prev[0]:#010x} -- an echo quorum admits one digest",
                rec,
            )
        src = self._rbc_input.get(msg)
        if src is not None and crc != src[1]:
            self._fail(
                "byzantine-agreement",
                f"message {msg}: honest rank{rank} delivered payload crc "
                f"{crc:#010x} but the honest source rank{src[0]} "
                f"broadcast {src[1]:#010x} -- validity requires the "
                f"source's value",
                rec,
            )

    def _on_heartbeat(self, rec: TraceRecord) -> None:
        """I8 bookkeeping: the heartbeat *send* stream of each member."""
        rank = _core_of(rec.source)
        rnd = rec.detail.get("round")
        if rank is None or rnd is None:
            return
        prev = self._hb_sent.get(rank)
        if prev is None:
            self._hb_sent[rank] = (rnd, rnd, False)
            return
        first, last, missed = prev
        # A jump past last+1 means rounds went by without a send (e.g. a
        # lagging orphan fast-forwarding); suspicion in the gap is fair.
        # Re-sends of the same round (re-reporting to an election winner)
        # and the next round are both contiguous.
        if rnd > last + 1:
            missed = True
        self._hb_sent[rank] = (first, max(last, rnd), missed)

    def _on_suspect(self, rec: TraceRecord) -> None:
        """I8: suspicion must be earned by actual silence."""
        d = rec.detail
        m = d.get("member")
        rnd = d.get("round")
        if m is None or rnd is None:
            return
        if m in self._crashed:
            return  # dead by fault plan -- suspicion is the point
        if rnd in self._hb_failed.get(m, ()):
            return  # the member itself gave up reporting this round
        sent = self._hb_sent.get(m)
        if sent is None:
            return  # never heartbeated at all -- silence is real
        first, last, missed = sent
        if missed or last < rnd or first > 1:
            return  # a round went unsent (or history starts late)
        coord = _core_of(rec.source)
        self._fail(
            "no-false-eviction",
            f"core{coord} suspects rank{m} at round {rnd} but rank{m} "
            f"sent every heartbeat round {first}..{last} (>= {rnd}) and "
            f"never crashed -- the suspicion timeout undercut a legal "
            f"response lag",
            rec,
        )

    def _on_staged(self, rec: TraceRecord) -> None:
        d = rec.detail
        root = _core_of(rec.source)
        seq = d.get("seq")
        if root is None or seq is None:
            return
        if seq > self._staged.get(root, 0):
            self._staged[root] = seq
        self._check_floor(root, d, rec)

    def _check_floor(self, owner: int, d: dict, rec: TraceRecord) -> None:
        """I5: buffer-slot reuse requires every live child's doneFlag at
        ``owner`` to have reached ``floor``."""
        floor = d.get("floor")
        if floor is None or floor < 1:
            return  # first fill of this slot (or pre-floor records)
        dead = self._dead.get(owner, ())
        for (flag_owner, flag), (seq, writer) in self._done.items():
            if flag_owner != owner or writer in dead:
                continue
            if seq < floor:
                self._fail(
                    "no-reuse-before-ack",
                    f"core{owner} reuses buffer slot {d.get('buf')} for "
                    f"chunk seq {d.get('seq')} but live child core{writer} "
                    f"has only acked {flag!r} up to seq {seq} "
                    f"(floor {floor})",
                    rec,
                )

    # -- plumbing ----------------------------------------------------------

    def _fail(self, invariant: str, message: str, rec: TraceRecord) -> None:
        violation = InvariantViolation(
            invariant, message, rec, list(self._window)
        )
        self.violations.append(violation)
        if self.strict:
            raise violation


#: Record kind -> the checker's handler; every other kind only answers
#: to I1 (``lost-write``, on a lossless run).
_HANDLERS = {
    "flag_write": InvariantChecker._on_flag_write,
    "oc.fetch": InvariantChecker._on_fetch,
    "oc.chunk_staged": InvariantChecker._on_staged,
    "oc.svc.commit": InvariantChecker._on_commit,
    "oc.ft.child_dead": InvariantChecker._on_child_dead,
    "svc.attempt": InvariantChecker._on_attempt,
    "svc.outcome": InvariantChecker._on_outcome,
    "fault.injected": InvariantChecker._on_fault,
    "member.hb": InvariantChecker._on_heartbeat,
    "svc.report_failed": InvariantChecker._on_report_failed,
    "member.suspect": InvariantChecker._on_suspect,
    "rbc.outcome": InvariantChecker._on_rbc_outcome,
}


@lru_cache(maxsize=4096)
def _core_of(source: str) -> int | None:
    """Core id of a ``coreN`` / ``rankN`` trace source (rank == core id
    for the communicators used here); memoised per source string -- a
    run names a few dozen sources over thousands of records."""
    if source.startswith("core"):
        tail = source[4:]
    elif source.startswith("rank"):
        tail = source[4:]
    else:
        return None
    return int(tail) if tail.isdigit() else None
