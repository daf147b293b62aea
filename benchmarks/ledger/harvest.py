"""Harvest the work counts of a traced pass from the worlds the program
builds.

``run_scc``, ``FaultCampaign.run_one`` and ``run_schedule`` build their
chip (or asyncio network) internally and do not hand it back, so the
counters the program already keeps -- ``MetricsRegistry`` hot-path
counters, ``collect_chip_metrics`` gauges, ``Tracer.records`` -- are out
of reach from a plain call.  For the traced run only, :class:`WorldCapture`
wraps the two world constructors so that every world built inside the
block is remembered (and every chip gets a ``MetricsRegistry`` if the
caller passed none).  Nothing under ``src/`` is edited, and the untraced
run never enters this module.  The passivity contract
(docs/OBSERVABILITY.md) says attaching a registry cannot move simulated
time; the worker asserts that by comparing the traced passes' simulated
results with the untraced ones.
"""

from __future__ import annotations

from collections import Counter

from repro.obs import MetricsRegistry, collect_chip_metrics
from repro.scc import SccChip
from repro.transport import AsyncioNetwork

#: ledger metric -> registry counter/gauge, summed over the pass's chips.
CHIP_COUNTS = {
    "sim.events_scheduled": "sim.events_scheduled",
    "scc.port_wait_us": "mpb.port.wait_time.total",
    "scc.port_busy_us": "mpb.port.busy_time.total",
    "scc.core_mpb_us": "core.mpb_time.total",
    "scc.core_mem_us": "core.mem_time.total",
    "scc.core_poll_us": "core.poll_time.total",
    "scc.core_idle_us": "core.idle_time.total",
    "scc.mpb_lines": "core.mpb_lines.total",
    "scc.mem_lines": "core.mem_lines.total",
    "scc.polls": "core.polls.total",
    "rcce.puts": "rcce.puts",
    "rcce.gets": "rcce.gets",
    "rcce.put_bytes": "rcce.put_bytes",
    "rcce.get_bytes": "rcce.get_bytes",
    "rcce.flag_writes": "flags.writes",
    "core.oc_chunks": "oc.chunks",
    "core.oc_bytes": "oc.bytes",
    "core.ft_renotifies": "oc.ft.renotifies",
    "resilience.backoffs": "resilience.backoffs",
    "resilience.retry_ok": "resilience.retry_ok",
    # The two terms of sim.coalesced_share.
    "_port.coalesced_cycles": "mpb.port.coalesced_cycles.total",
    "_port.acquisitions": "mpb.port.acquisitions.total",
}

#: ledger metric -> trace kind, counted over every world's tracer (both
#: backends emit the same kinds, so these are equal across backends).
TRACE_COUNTS = {
    "member.hb": "member.hb",
    "member.view_installs": "member.view_install",
    "member.suspects": "member.suspect",
    "member.vote_writes": "vote_write",
    "member.commit_rounds": "oc.svc.commit",
    "_svc.attempts": "svc.attempt",
    "_svc.outcomes": "svc.outcome",
}


class WorldCapture:
    """Context manager that remembers every ``SccChip`` and
    ``AsyncioNetwork`` constructed while it is active."""

    def __init__(self) -> None:
        self.worlds: list = []
        self._saved: list = []

    def __enter__(self) -> "WorldCapture":
        chip_init, net_init = SccChip.__init__, AsyncioNetwork.__init__
        self._saved = [(SccChip, chip_init), (AsyncioNetwork, net_init)]
        worlds = self.worlds

        def chip_wrapper(chip, config=None, *, tracer=None, faults=None,
                         metrics=None):
            if metrics is None:
                metrics = MetricsRegistry()
            chip_init(chip, config, tracer=tracer, faults=faults,
                      metrics=metrics)
            worlds.append(chip)

        def net_wrapper(net, *args, **kwargs):
            net_init(net, *args, **kwargs)
            worlds.append(net)

        SccChip.__init__ = chip_wrapper
        AsyncioNetwork.__init__ = net_wrapper
        return self

    def __exit__(self, *exc) -> None:
        for cls, init in self._saved:
            cls.__init__ = init

    def drain(self) -> Counter:
        """Counts of the worlds captured since the last drain."""
        counts: Counter = Counter()
        for world in self.worlds:
            if isinstance(world, SccChip):
                reg = collect_chip_metrics(world, per_entity=False)
                for name, source in CHIP_COUNTS.items():
                    metric = reg.counters.get(source) or reg.gauges.get(source)
                    if metric is not None:
                        counts[name] += metric.value
            records = world.tracer.records
            counts["transport.trace_records"] += len(records)
            kinds = Counter(rec.kind for rec in records)
            for name, kind in TRACE_COUNTS.items():
                counts[name] += kinds.get(kind, 0)
        self.worlds.clear()
        return counts
