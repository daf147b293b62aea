"""Plain-text reporting: fixed-width tables, aligned series, CSV dumps,
and the fault / churn campaign summaries ``repro faults`` / ``repro
churn`` print.

Benches print the same rows/series the paper's tables and figures show,
with a "paper" column beside the measured one where the paper reports a
number.
"""

from __future__ import annotations

import csv
import os
from typing import Any, Iterable, Sequence

from ..scc.config import CACHE_LINE
from .churn import CHURN_OUTCOMES, ChurnResult
from .faultcampaign import BYZ_OUTCOMES, OUTCOMES, CampaignResult

#: Outcome-table column header of each campaign leg.
_COLUMNS = {
    "ft": "FT", "baseline": "baseline", "service": "service",
    "byz": "byz service", "adaptive": "adaptive", "fixed": "fixed-deadline",
}


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned fixed-width table."""
    def cell(v: Any) -> str:
        if isinstance(v, float):
            return float_fmt.format(v)
        return str(v)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, v in enumerate(row):
            widths[i] = max(widths[i], len(v))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[Any],
    series: dict[str, Sequence[float]],
    title: str | None = None,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render figure data: one x column plus one column per series."""
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(s[i] for s in series.values())] for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title, float_fmt=float_fmt)


def format_fault_timeline(
    records: Iterable[Any],
    title: str | None = "Fault timeline",
) -> str:
    """Render fault/recovery trace records as an aligned timeline.

    Accepts :class:`repro.sim.trace.TraceRecord` objects (typically the
    ``timeline`` of a :class:`repro.bench.faultcampaign.CampaignResult`,
    or a tracer filtered to ``fault.*`` / retry / ``oc.ft.*`` kinds).
    """
    rows = [
        [
            f"{r.time:.4f}",
            r.source,
            r.kind,
            " ".join(f"{k}={v}" for k, v in r.detail.items()),
        ]
        for r in records
    ]
    if not rows:
        return "(no fault events)"
    return format_table(["t (us)", "source", "event", "detail"], rows, title=title)


def _outcome_table(outcomes: Sequence[str], counts: dict, title: str) -> str:
    """One row per outcome, one column per leg of ``counts``."""
    return format_series(
        "outcome", outcomes,
        {_COLUMNS[leg]: [c[o] for o in outcomes] for leg, c in counts.items()},
        title=title,
    )


_TIME_LABELS = {
    "ttd": "time-to-detect: ", "ttr": "time-to-repair: ",
    "tte": "time-to-elect:  ",
}


def _time_lines(result: CampaignResult, leg: str, *metrics: str) -> list[str]:
    """One line per time-to-X ``metrics`` of ``leg`` that has samples."""
    lines = []
    for metric in metrics:
        s = result.times(leg, metric)
        if s["count"]:
            lines.append(
                f"{_TIME_LABELS[metric]} n={s['count']:.0f} "
                f"mean={s['mean']:.0f} us [{s['min']:.0f}, {s['max']:.0f}]"
            )
    return lines


def campaign_summary(result: CampaignResult) -> str:
    """What ``repro faults`` prints: the outcome x leg table, the
    fault-free taxes, the survival / agreement rates and the time-to-X
    lines."""
    counts, lat = result.counts, result.latency
    byz = "byz" in counts
    head = (
        f"{'Byzantine' if byz else 'Fault'} campaign: {result.n_trials} "
        f"trials, seed={result.seed}, {result.nbytes // CACHE_LINE} CL"
    )
    lines = [
        _outcome_table(BYZ_OUTCOMES if byz else OUTCOMES, counts, head), "",
    ]
    if byz:
        lines += [
            f"fault-free latency: crash-only service {lat['service']:.2f} us, "
            f"byz service {lat['byz']:.2f} us "
            f"({result.tax_pct('byz', 'service'):+.2f}% rbc tax)",
            f"byz agreement rate: "
            f"{100.0 * result.rate('byz', ('agreed', 'detected')):.1f}% "
            f"(disagreements: {counts['byz']['disagreement']})",
        ]
        return "\n".join(lines + _time_lines(result, "byz", "ttd"))
    lines += [
        f"fault-free latency: baseline {lat['baseline']:.2f} us, "
        f"FT {lat['ft']:.2f} us "
        f"({result.tax_pct('ft', 'baseline'):+.2f}% robustness tax)",
        f"FT survival rate: "
        f"{100.0 * result.rate('ft', ('delivered', 'recovered')):.1f}%",
    ]
    if (fidelity := result.fidelity) is not None:
        line = (
            f"adaptive fidelity: {fidelity.get('n_analytic', 0)} fault-free "
            f"trial(s) served analytically, {fidelity.get('n_replayed', 0)} "
            f"replayed through the kernel"
        )
        if fidelity.get("degraded"):
            line += f" (degraded: {fidelity.get('reason', '?')})"
        lines.append(line)
    if "service" in counts:
        lines += [
            f"service fault-free latency: {lat['service']:.2f} us "
            f"({result.tax_pct('service', 'baseline'):+.2f}% service tax)",
            f"service survival rate: "
            f"{100.0 * result.rate('service', ('delivered', 'recovered')):.1f}%",
            *_time_lines(result, "service", "ttd", "ttr", "tte"),
        ]
        runs = [t.service for t in result.trials]
        n_self_evict = sum(r.n_self_evict for r in runs)
        n_report_failed = sum(r.n_report_failed for r in runs)
        if n_self_evict or n_report_failed:
            lines.append(
                f"silent partitions: {n_self_evict} self-evictions, "
                f"{n_report_failed} unacked heartbeat reports"
            )
    return "\n".join(lines)


def churn_summary(result: ChurnResult) -> str:
    """What ``repro churn`` prints: the outcome x configuration table and
    the adaptive / fixed-deadline verdict lines."""
    lines = [
        _outcome_table(
            CHURN_OUTCOMES, result.counts,
            f"Churn campaign: {result.n_trials} trials, seed={result.seed}, "
            f"{result.broadcasts} broadcasts/trial",
        ),
        "",
        f"adaptive termination rate: {100.0 * result.termination_rate:.1f}% "
        f"({result.n_false_evictions} false evictions, "
        f"{result.n_i8_violations} online I8 violations)",
    ]
    if "fixed" in result.counts:
        lines.append(
            f"fixed-deadline false-evict/stall trials: "
            f"{result.fixed_failure_trials}/{result.n_trials}"
        )
    return "\n".join(lines)


def write_csv(
    path: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> str:
    """Write rows to a CSV file, creating parent directories; returns path."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)
    return path
