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
are aggregated -- same total duration, far fewer events.  Where the
per-line hooks are inert (:meth:`repro.scc.core.Core.claim_lines`: the
configuration allows it and no fault-injector occurrence among the
loop's is armed) an EXACT transfer is one leg script -- the loop's own
port holds and timers made by kernel callbacks, one wake-up per
transfer, virtual while the port it opens on stays idle:
:meth:`repro.scc.core.Core.transfer_script` between an MPB and
line-aligned private memory, and the MPB-to-MPB transfer whose two ports
alternate per line.  The generator loops below remain for the regimes
whose hooks must run in the process, and as the reference the scripts
are tested against.

These two bulk transfers are the SCC backend's ``put``/``get``
primitives; the acked/verified variants and the small register-sourced
``put_bytes``/``get_bytes`` are backend-independent and live in
:class:`repro.rcce.endpoint.Endpoint`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..scc.config import CACHE_LINE, ContentionMode
from ..scc.core import lines_of
from ..scc.memory import MemRef

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
        if exact and core.claim_transfer(src, m):
            yield from core.transfer_script(
                dst_core, src, m, write=True, overhead=cfg.o_put_mem
            )
        else:
            yield core.compute(cfg.o_put_mem)
            if exact:
                # read line 0, then per line: write it, read the next one
                # -- the read/write interleaving of the hardware.
                yield from core.mem_read(src.sub(0, min(CACHE_LINE, nbytes)))
                for i in range(1, m + 1):
                    yield from core.mpb_access(dst_core, 1, write=True)
                    if i < m:
                        span = min(CACHE_LINE, nbytes - i * CACHE_LINE)
                        yield from core.mem_read(src.sub(i * CACHE_LINE, span))
            else:
                yield from core.mem_read(src.sub(0, nbytes))
                yield from core.mpb_access(dst_core, m, write=True)
        payload = src.sub(0, nbytes).read()
    else:
        src_off = int(src)
        if core.claim_lines(1 + 2 * m, 2 * m):
            yield from core.scripted(
                (core.hold_leg(core.id), core.hold_leg(dst_core, True)) * m,
                cfg.o_put_mpb,
            )
        else:
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
        if exact and core.claim_transfer(dst, m):
            yield from core.transfer_script(
                src_core, dst, m, write=False, overhead=cfg.o_get_mem
            )
        else:
            yield core.compute(cfg.o_get_mem)
            if exact:
                for i in range(m):
                    span = min(CACHE_LINE, nbytes - i * CACHE_LINE)
                    yield from core.mpb_access(src_core, 1)
                    yield from core.mem_write(dst.sub(i * CACHE_LINE, span))
            else:
                yield from core.mpb_access(src_core, m)
                yield from core.mem_write(dst.sub(0, nbytes))
        payload = core.chip.mpbs[src_core].read_bytes(src_offset, nbytes)
        dst.sub(0, nbytes).write(payload)
        landed = "ok"
    else:
        dst_off = int(dst)
        if core.claim_lines(1 + 2 * m, 2 * m):
            yield from core.scripted(
                (core.hold_leg(src_core), core.hold_leg(core.id, True)) * m,
                cfg.o_get_mpb,
            )
        else:
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
