"""Experiment harness: everything needed to regenerate the paper's tables
and figures on the simulated chip.

- :mod:`repro.bench.harness` -- broadcast experiment runner (algorithm
  factories, iteration/warm-up policy, latency bookkeeping on the global
  clock).
- :mod:`repro.bench.microbench` -- put/get sweeps over distance and size
  (Figure 3, Table 1).
- :mod:`repro.bench.contention` -- concurrent MPB access (Figure 4) and
  the loaded-mesh-link probe (Section 3.3).
- :mod:`repro.bench.paper_data` -- the numbers the paper reports, for
  side-by-side comparison.
- :mod:`repro.bench.faultcampaign` -- seeded fault-injection campaigns
  comparing fault-tolerant OC-Bcast against the baseline.
- :mod:`repro.bench.churn` -- sustained-regime churn campaigns: many
  consecutive broadcasts under a continuously active fault process,
  adaptive (phi-accrual + backoff) vs fixed-deadline configurations.
- :mod:`repro.bench.parallel` -- fan independent grid points / campaign
  trials across worker processes with bit-identical merged results.
- :mod:`repro.bench.reporting` -- ASCII tables/series, CSV output and
  the fault / churn campaign summaries.
- :mod:`repro.bench.ascii_plot` -- terminal line charts for figure data.
"""

from .ascii_plot import ascii_chart
from .churn import ChurnCampaign, ChurnResult, ChurnTrial
from .faultcampaign import (
    CampaignResult,
    FaultCampaign,
    TrialResult,
    TrialRun,
)
from .harness import BcastResult, BcastSpec, run_broadcast, sweep_broadcast
from .microbench import PutGetSample, sweep_putget
from .parallel import default_jobs, parallel_map
from .contention import ContentionResult, concurrent_access, mesh_link_probe
from .reporting import (
    campaign_summary, churn_summary, format_fault_timeline, format_series,
    format_table, write_csv,
)

__all__ = [
    "BcastResult",
    "BcastSpec",
    "CampaignResult",
    "ChurnCampaign",
    "ChurnResult",
    "ChurnTrial",
    "ContentionResult",
    "FaultCampaign",
    "TrialResult",
    "TrialRun",
    "PutGetSample",
    "ascii_chart",
    "campaign_summary",
    "churn_summary",
    "concurrent_access",
    "default_jobs",
    "parallel_map",
    "format_fault_timeline",
    "format_series",
    "format_table",
    "mesh_link_probe",
    "run_broadcast",
    "sweep_broadcast",
    "sweep_putget",
    "write_csv",
]
