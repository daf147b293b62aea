"""Fault campaign: FT OC-Bcast survival and robustness tax under
seeded single-fault injection (extension beyond the paper).

Claims checked: on the adversarial one-chunk (96 CL) message the
baseline deadlocks on *every* dropped/corrupted final-notification flag
write, the FT mode recovers every trial, and with injection disabled the
FT mode costs under 5% latency over the baseline -- so robustness is
opt-in and nearly free when nothing fails.
"""

from repro.bench import (
    FaultCampaign, campaign_summary, format_fault_timeline, format_series,
    write_csv,
)
from repro.bench.faultcampaign import OUTCOMES, parse_kinds

TRIALS = 100
KINDS = ("drop_flag", "corrupt_flag", "crash")


def run_campaign():
    return FaultCampaign(trials=TRIALS, seed=1, kinds=parse_kinds(KINDS)).run()


def test_fault_campaign(benchmark, report, results_dir):
    result = benchmark.pedantic(run_campaign, rounds=1, iterations=1)

    series = {
        leg: [result.counts[leg][o] for o in OUTCOMES]
        for leg in ("ft", "baseline")
    }
    text = "\n\n".join(
        [
            format_series(
                "outcome", OUTCOMES, series,
                title=f"Fault campaign: {TRIALS} trials over {', '.join(KINDS)}",
            ),
            campaign_summary(result),
            format_fault_timeline(result.timeline),
        ]
    )
    report("faults_campaign", text)
    write_csv(
        f"{results_dir}/faults_campaign.csv",
        ["outcome", *series],
        zip(OUTCOMES, *series.values()),
    )

    # FT never wedges or corrupts; every faulted trial is recovered.
    assert result.counts["ft"]["deadlock"] == 0
    assert result.counts["ft"]["corrupt"] == 0
    assert result.rate("ft", ("delivered", "recovered")) == 1.0
    # Flag-write faults (2/3 of trials) are always fatal to the baseline.
    assert result.counts["baseline"]["deadlock"] >= (2 * TRIALS) // 3
    # The robustness tax with injection disabled stays under 5%.
    assert 0.0 <= result.tax_pct("ft", "baseline") < 5.0
