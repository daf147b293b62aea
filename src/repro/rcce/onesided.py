"""One-sided put and get (the paper's Formulas 7-12).

``put`` moves data *from the calling core's* local MPB or private memory
*to any core's MPB*; ``get`` moves data *from any core's MPB* to the
calling core's local MPB or private memory.  The calling core performs
every cache-line move itself (MPB access is RMA, not RDMA), one
transaction at a time, which is exactly how the formulas compose:

    C_put = o_put + m * C_read(src) + m * C_write(dst)
    C_get = o_get + m * C_read(src) + m * C_write(dst)

Sources/destinations are a byte offset into the core's own MPB, a byte
offset into a remote MPB (identified by core id), or a :class:`MemRef`
into the core's own private memory.

In ``EXACT`` contention mode the read and write of each cache line are
interleaved (as the hardware does), so a contended MPB port sees the true
inter-arrival gaps; in ``BATCH``/``IDEAL`` modes the read and write phases
are aggregated -- same total duration, far fewer events.  An EXACT
transfer between an MPB and private memory that finds the port idle is
charged as one coalesced run (:meth:`repro.scc.core.Core.transfer_run`),
bit-identical to the per-line loop it falls back to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..scc.config import CACHE_LINE, ContentionMode
from ..scc.core import lines_of
from ..scc.memory import MemRef
from ..sim.errors import TimeoutError as SimTimeoutError
from ..resilience.policy import RetryPolicy, plan_delays
from .flags import _ack_recovered, _backoff_pause, _timeline_suffix

if TYPE_CHECKING:  # pragma: no cover
    from ..scc.core import Core


def put(
    core: "Core",
    dst_core: int,
    dst_offset: int,
    src: "MemRef | int",
    nbytes: int,
) -> Generator:
    """Move ``nbytes`` from ``src`` (own MPB offset or own private memory)
    into ``dst_core``'s MPB at ``dst_offset``."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if nbytes == 0:
        return
    cfg = core.config
    m = lines_of(nbytes)
    exact = cfg.contention_mode is ContentionMode.EXACT

    if isinstance(src, MemRef):
        if src.owner != core.id:
            raise ValueError("put source MemRef must be in the calling core's memory")
        if src.nbytes < nbytes:
            raise ValueError(f"put of {nbytes} bytes from a {src.nbytes}-byte buffer")
        yield core.compute(cfg.o_put_mem)
        if exact:
            # read line 0, then per line: write it, read the next one --
            # the read/write interleaving of the hardware, rotated so a
            # coalesced run (which ends after a read) can hand back to it.
            run = core.coalesces_transfers(src)
            yield from core.mem_read(src.sub(0, min(CACHE_LINE, nbytes)))
            i = 0
            while i < m:
                if run:
                    done = yield from core.transfer_run(
                        dst_core, src, i, m, write=True
                    )
                    if done:
                        i += done
                        continue
                yield from core.mpb_access(dst_core, 1, write=True)
                i += 1
                if i < m:
                    span = min(CACHE_LINE, nbytes - i * CACHE_LINE)
                    yield from core.mem_read(src.sub(i * CACHE_LINE, span))
        else:
            yield from core.mem_read(src.sub(0, nbytes))
            yield from core.mpb_access(dst_core, m, write=True)
        payload = src.sub(0, nbytes).read()
    else:
        src_off = int(src)
        yield core.compute(cfg.o_put_mpb)
        if exact:
            for _ in range(m):
                yield from core.mpb_access(core.id, 1)
                yield from core.mpb_access(dst_core, 1, write=True)
        else:
            yield from core.mpb_access(core.id, m)
            yield from core.mpb_access(dst_core, m, write=True)
        payload = core.mpb.read_bytes(src_off, nbytes)

    landed = core.chip.mpbs[dst_core].write_bytes(
        dst_offset, payload, source=core.id, op="data"
    )
    if core.chip.tracer.enabled:
        core.chip.trace(
            f"core{core.id}", "put",
            dst=dst_core, off=dst_offset, n=nbytes, landed=landed,
        )
    if core.chip.metrics is not None:
        core.chip.metrics.inc("rcce.puts")
        core.chip.metrics.inc("rcce.put_bytes", nbytes)


def put_acked(
    core: "Core",
    dst_core: int,
    dst_offset: int,
    src: "MemRef | int",
    nbytes: int,
    *,
    max_retries: int = 3,
    policy: "RetryPolicy | None" = None,
) -> Generator:
    """A :func:`put` with an acknowledgment: after writing, the calling
    core reads the destination lines back and re-sends the whole transfer
    until the readback matches (at most ``max_retries`` re-sends, or the
    ``policy``'s paced schedule when one is given).

    MPB writes on the SCC are unacknowledged, so a put can silently lose
    cache lines; the verification read doubles the MPB traffic of the
    put -- the data-path robustness tax, paid only when a protocol opts
    in.  Raises :class:`repro.sim.TimeoutError` once retries are
    exhausted (the destination is presumed unreachable).
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if nbytes == 0:
        return
    chip = core.chip
    m = lines_of(nbytes)
    site = f"mpb{dst_core}@{dst_offset}"
    delays = plan_delays(policy, core.id, site, max_retries)
    for attempt in range(len(delays) + 1):
        if attempt and delays[attempt - 1] > 0.0:
            yield from _backoff_pause(core, site, delays[attempt - 1])
        yield from put(core, dst_core, dst_offset, src, nbytes)
        # The ack: read the destination region back over the mesh.
        yield from core.mpb_access(dst_core, m)
        expected = (
            src.sub(0, nbytes).read()
            if isinstance(src, MemRef)
            else core.mpb.read_bytes(int(src), nbytes)
        )
        got = chip.mpbs[dst_core].read_bytes(dst_offset, nbytes)
        if got == expected:
            if attempt > 0:
                _ack_recovered(
                    core, "put_retry_ok", f"put->core{dst_core}@{dst_offset}",
                    f"{nbytes}B re-sent x{attempt}", attempt + 1,
                    dst=dst_core, off=dst_offset,
                )
            return
    raise SimTimeoutError(
        f"core {core.id}: put of {nbytes} B to core {dst_core}@{dst_offset} "
        f"un-acked after {len(delays) + 1} attempts at t={core.sim.now:.4f}"
        f"{_timeline_suffix(chip)}",
        process=f"core{core.id}",
        sim_time=core.sim.now,
        site=site,
    )


def get_acked(
    core: "Core",
    src_core: int,
    src_offset: int,
    dst: "MemRef | int",
    nbytes: int,
    *,
    max_retries: int = 3,
    policy: "RetryPolicy | None" = None,
) -> Generator:
    """A :func:`get` with verification: the destination is read back and
    the transfer re-fetched until it matches the source lines (at most
    ``max_retries`` re-fetches, or the ``policy``'s paced schedule).

    The vulnerable leg of a get is the deposit into the caller's *own*
    MPB -- an unacknowledged write like any other -- so the readback is
    a cheap local access; a private-memory destination pays one memory
    read.  Raises :class:`repro.sim.TimeoutError` once retries are
    exhausted.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if nbytes == 0:
        return
    chip = core.chip
    m = lines_of(nbytes)
    site = f"mpb{src_core}@{src_offset}"
    delays = plan_delays(policy, core.id, site, max_retries)
    for attempt in range(len(delays) + 1):
        if attempt and delays[attempt - 1] > 0.0:
            yield from _backoff_pause(core, site, delays[attempt - 1])
        yield from get(core, src_core, src_offset, dst, nbytes)
        expected = chip.mpbs[src_core].read_bytes(src_offset, nbytes)
        if isinstance(dst, MemRef):
            yield from core.mem_read(dst.sub(0, nbytes))
            got = dst.sub(0, nbytes).read()
        else:
            yield from core.mpb_access(core.id, m)
            got = core.mpb.read_bytes(int(dst), nbytes)
        if got == expected:
            if attempt > 0:
                _ack_recovered(
                    core, "get_retry_ok", f"get<-core{src_core}@{src_offset}",
                    f"{nbytes}B re-fetched x{attempt}", attempt + 1,
                    src=src_core, off=src_offset,
                )
            return
    raise SimTimeoutError(
        f"core {core.id}: get of {nbytes} B from core {src_core}@{src_offset} "
        f"unverified after {len(delays) + 1} attempts at t={core.sim.now:.4f}"
        f"{_timeline_suffix(chip)}",
        process=f"core{core.id}",
        sim_time=core.sim.now,
        site=site,
    )


def put_bytes(
    core: "Core",
    dst_core: int,
    dst_offset: int,
    payload: bytes,
) -> Generator[object, object, str]:
    """A small register-sourced protocol write (at most a few cache
    lines): the payload comes from the calling core's registers rather
    than its MPB or memory, so only the destination write is charged.

    Used for protocol metadata that is *computed* rather than staged --
    chunk-header checksums, membership bitmaps.  Costs the put call
    overhead plus one MPB write per line; the write is a protocol
    (``op="data"``) write, so it is subject to fault injection like any
    other payload line.  Returns the landed status.
    """
    nbytes = len(payload)
    if nbytes == 0:
        return "ok"
    m = lines_of(nbytes)
    yield core.compute(core.config.o_put_mpb)
    yield from core.mpb_access(dst_core, m, write=True)
    landed = core.chip.mpbs[dst_core].write_bytes(
        dst_offset, payload, source=core.id, op="data"
    )
    core.chip.trace(
        f"core{core.id}", "put_bytes",
        dst=dst_core, off=dst_offset, n=nbytes, landed=landed,
    )
    return landed


def get_bytes(
    core: "Core",
    src_core: int,
    src_offset: int,
    nbytes: int,
) -> Generator[object, object, bytes]:
    """A small register-destined read (at most a few cache lines) from
    ``src_core``'s MPB: the lines land in the calling core's registers,
    so only the remote read is charged and no MPB deposit happens --
    which also means the *read leg cannot be faulted into a silent
    corruption* (there is no protocol write to intercept).

    Used to pull protocol metadata: remote chunk headers, membership
    bitmaps on a view change.
    """
    if nbytes <= 0:
        raise ValueError("get_bytes needs nbytes > 0")
    m = lines_of(nbytes)
    yield core.compute(core.config.o_get_mpb)
    yield from core.mpb_access(src_core, m)
    return core.chip.mpbs[src_core].read_bytes(src_offset, nbytes)


def get(
    core: "Core",
    src_core: int,
    src_offset: int,
    dst: "MemRef | int",
    nbytes: int,
) -> Generator:
    """Move ``nbytes`` from ``src_core``'s MPB at ``src_offset`` into
    ``dst`` (own MPB offset or own private memory)."""
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if nbytes == 0:
        return
    cfg = core.config
    m = lines_of(nbytes)
    exact = cfg.contention_mode is ContentionMode.EXACT

    if isinstance(dst, MemRef):
        if dst.owner != core.id:
            raise ValueError("get destination MemRef must be in the calling core's memory")
        if dst.nbytes < nbytes:
            raise ValueError(f"get of {nbytes} bytes into a {dst.nbytes}-byte buffer")
        yield core.compute(cfg.o_get_mem)
        if exact:
            run = core.coalesces_transfers(dst)
            i = 0
            while i < m:
                if run:
                    done = yield from core.transfer_run(
                        src_core, dst, i, m, write=False
                    )
                    if done:
                        i += done
                        continue
                span = min(CACHE_LINE, nbytes - i * CACHE_LINE)
                yield from core.mpb_access(src_core, 1)
                yield from core.mem_write(dst.sub(i * CACHE_LINE, span))
                i += 1
        else:
            yield from core.mpb_access(src_core, m)
            yield from core.mem_write(dst.sub(0, nbytes))
        payload = core.chip.mpbs[src_core].read_bytes(src_offset, nbytes)
        dst.sub(0, nbytes).write(payload)
        landed = "ok"
    else:
        dst_off = int(dst)
        yield core.compute(cfg.o_get_mpb)
        if exact:
            for _ in range(m):
                yield from core.mpb_access(src_core, 1)
                yield from core.mpb_access(core.id, 1, write=True)
        else:
            yield from core.mpb_access(src_core, m)
            yield from core.mpb_access(core.id, m, write=True)
        payload = core.chip.mpbs[src_core].read_bytes(src_offset, nbytes)
        landed = core.mpb.write_bytes(dst_off, payload, source=core.id, op="data")

    if core.chip.tracer.enabled:
        core.chip.trace(
            f"core{core.id}", "get",
            src=src_core, off=src_offset, n=nbytes, landed=landed,
        )
    if core.chip.metrics is not None:
        core.chip.metrics.inc("rcce.gets")
        core.chip.metrics.inc("rcce.get_bytes", nbytes)
