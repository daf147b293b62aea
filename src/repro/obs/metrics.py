"""Counters, gauges and histograms + passive chip harvesting.

Two feeding modes, chosen for zero schedule perturbation:

- *Hot-path counters*: protocol layers (``rcce.flags``, ``rcce.onesided``,
  ``core.ocbcast``) bump registry counters behind one
  ``chip.metrics is not None`` branch.  Counter bumps are plain float
  adds -- they cannot create, reorder or retime simulation events.
- *Passive harvest*: :func:`collect_chip_metrics` reads the statistics
  the models already keep (``Resource`` port/link counters,
  ``CoreStats`` accruals, the kernel's sequence counter) after a run.
  This is where per-link occupancy, MPB queue depths and per-core
  busy/idle/poll breakdowns come from, at zero per-event cost.

The only in-run structure a registry attaches is a shared wait
:class:`Histogram` on each MPB port / mesh link (``SccChip.__init__``),
observed at grant time -- one ``is not None`` branch per grant, no
events.
"""

from __future__ import annotations

import bisect
import json
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from ..scc.chip import SccChip

#: Default histogram bucket upper bounds (microseconds of virtual time);
#: geometric, spanning sub-cycle waits to pathological stalls.
DEFAULT_BOUNDS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time sampled value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are inclusive upper edges; one overflow bucket is added.
    ``observe_zeros`` batches the n zero-wait grants of a leg script's
    virtual stretch in O(1) (see ``Resource``/``LegScript``).
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(sorted(bounds))
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, x: float) -> None:
        self.buckets[bisect.bisect_left(self.bounds, x)] += 1
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def observe_zeros(self, n: int) -> None:
        if n <= 0:
            return
        self.buckets[bisect.bisect_left(self.bounds, 0.0)] += n
        self.count += n
        if self.min > 0.0:
            self.min = 0.0
        if self.max < 0.0:
            self.max = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.4g}>"


class MetricsRegistry:
    """Get-or-create home of every metric of one run."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- get-or-create ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS
    ) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, bounds)
        return h

    # -- conveniences ------------------------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        """Hot-path counter bump (the one-liner protocol code calls)."""
        self.counter(name).inc(n)

    def set(self, name: str, v: float) -> None:
        self.gauge(name).set(v)

    # -- export ------------------------------------------------------------

    def flat(self) -> dict[str, float]:
        """Every metric as a flat name -> value mapping, sorted by name.

        Histograms contribute ``<name>.count/.sum/.mean/.min/.max`` plus
        one ``<name>.le_<bound>`` entry per bucket.
        """
        out: dict[str, float] = {}
        for name, c in self.counters.items():
            out[name] = c.value
        for name, g in self.gauges.items():
            out[name] = g.value
        for name, h in self.histograms.items():
            for stat, v in h.summary().items():
                out[f"{name}.{stat}"] = v
            for bound, n in zip(h.bounds, h.buckets):
                out[f"{name}.le_{bound:g}"] = float(n)
            out[f"{name}.le_inf"] = float(h.buckets[-1])
        return dict(sorted(out.items()))

    def as_dict(self) -> dict[str, dict]:
        """Structured export: one section per metric family."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: {
                    **h.summary(),
                    "bounds": list(h.bounds),
                    "buckets": list(h.buckets),
                }
                for n, h in sorted(self.histograms.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_csv(self) -> str:
        """``metric,value`` rows (header included) from :meth:`flat`."""
        lines = ["metric,value"]
        lines += [f"{k},{v:.6g}" for k, v in self.flat().items()]
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)


def _harvest_resources(
    registry: MetricsRegistry,
    prefix: str,
    named: Iterable[tuple[str, object]],
    *,
    per_entity: bool,
) -> None:
    """Fold Resource.stats() of a group into aggregate (+ optional
    per-entity) gauges."""
    agg: dict[str, float] = {}
    maxed = ("utilisation", "max_queue", "mean_queue_depth")
    for label, res in named:
        stats = res.stats()  # type: ignore[attr-defined]
        for key, v in stats.items():
            if key in maxed:
                agg[key] = max(agg.get(key, 0.0), v)
            else:
                agg[key] = agg.get(key, 0.0) + v
        if per_entity:
            registry.set(f"{prefix}.{label}.busy_time", stats["busy_time"])
            registry.set(f"{prefix}.{label}.wait_time", stats["wait_time"])
            registry.set(f"{prefix}.{label}.utilisation", stats["utilisation"])
            registry.set(f"{prefix}.{label}.max_queue", stats["max_queue"])
    for key, v in agg.items():
        suffix = "max" if key in maxed else "total"
        registry.set(f"{prefix}.{key}.{suffix}", v)


def collect_chip_metrics(
    chip: "SccChip",
    registry: MetricsRegistry | None = None,
    *,
    per_entity: bool = True,
) -> MetricsRegistry:
    """Harvest a chip's accumulated statistics into a registry.

    Reads only -- safe at any point, typically after ``run_spmd``.  Uses
    the chip's attached registry when one exists (so hot-path counters
    and harvested gauges land together); pass ``registry`` to override.
    ``per_entity=False`` keeps only chip-wide aggregates (compact CSVs
    for big sweeps).
    """
    reg = registry if registry is not None else chip.metrics
    if reg is None:
        reg = MetricsRegistry()

    for key, v in chip.sim.stats().items():
        reg.set(f"sim.{key}", v)
    reg.set("trace.records", float(len(chip.tracer.records)))

    _harvest_resources(
        reg, "mpb.port",
        ((str(mpb.owner), mpb.port) for mpb in chip.mpbs),
        per_entity=per_entity,
    )
    link_items = chip.mesh.link_items()
    if link_items:
        _harvest_resources(
            reg, "mesh.link",
            ((f"{src}-{dst}".replace(" ", ""), res)
             for (src, dst), res in link_items),
            per_entity=per_entity,
        )

    now = chip.sim.now
    totals = {"compute_time": 0.0, "mpb_time": 0.0, "mem_time": 0.0,
              "poll_time": 0.0, "mpb_lines": 0.0, "mem_lines": 0.0,
              "polls": 0.0}
    for core in chip.cores:
        s = core.stats
        busy = s.compute_time + s.mpb_time + s.mem_time
        for key in totals:
            totals[key] += getattr(s, key)
        if per_entity:
            reg.set(f"core.{core.id}.compute_time", s.compute_time)
            reg.set(f"core.{core.id}.mpb_time", s.mpb_time)
            reg.set(f"core.{core.id}.mem_time", s.mem_time)
            reg.set(f"core.{core.id}.poll_time", s.poll_time)
            reg.set(f"core.{core.id}.idle_time", max(0.0, now - busy))
    for key, v in totals.items():
        reg.set(f"core.{key}.total", v)
    busy_total = (totals["compute_time"] + totals["mpb_time"]
                  + totals["mem_time"])
    reg.set("core.idle_time.total",
            max(0.0, now * len(chip.cores) - busy_total))

    # Formula 14's "L1 ~ 0" term as a number: off-chip lines that hit.
    hits = misses = 0
    for core in chip.cores:
        hits += core.l1.hits
        misses += core.l1.misses
        if per_entity:
            reg.set(f"l1.{core.id}.hits", core.l1.hits)
            reg.set(f"l1.{core.id}.misses", core.l1.misses)
    reg.set("l1.hits.total", hits)
    reg.set("l1.misses.total", misses)
    return reg
