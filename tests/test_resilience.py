"""Property tests for :mod:`repro.resilience` (ISSUE 10 satellite).

Pinned here:

- **Phi accrual** (:class:`PhiAccrualDetector`): phi is monotone
  non-decreasing in silence, ``None`` below ``min_samples`` (fixed
  deadline fallback), deterministic across identically-fed instances,
  and the bisected :meth:`timeout` is the threshold crossing of the
  same phi curve (clamped to ``[floor, cap]``).  Under sustained
  uniform jitter the adaptive timeout sits far enough above the delay
  distribution that the false-positive rate over fresh draws is zero.
- **RetryPolicy**: schedules respect ``max_retries`` / ``cap`` /
  ``budget`` bounds, jitter stays inside the declared fraction,
  streams are deterministic per ``(policy, rank, site)`` and
  independent across ranks and sites, and ``max_total_pause`` is a
  true upper bound on any concrete schedule.  ``RetryPolicy.immediate(n)``
  reproduces the legacy immediate-re-send contract bit-for-bit.
- **End to end** (asyncio backend, UniformDelay): the adaptive service
  configuration on a fault-free run never suspects anyone -- the
  zero-false-positive property the I8 invariant checks online under
  faults.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.resilience import (
    IMMEDIATE, DetectorConfig, OverloadError, PhiAccrualDetector,
    RetryPolicy,
)
from repro.transport.models import UniformDelay
from repro.transport.scenarios import SCENARIOS, run_asyncio

# -- detector ----------------------------------------------------------------


def _fed(delays, config=None, member=3):
    det = PhiAccrualDetector(config)
    for d in delays:
        det.observe(member, d)
    return det


class TestDetectorConfig:
    def test_defaults_valid(self):
        DetectorConfig()

    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.0},
        {"window": 1},
        {"min_std": 0.0},
        {"min_samples": 1},
        {"floor": -1.0},
        {"cap": -1.0},
        {"floor": 1_000.0, "cap": 500.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DetectorConfig(**kwargs)


class TestPhiProperties:
    def test_phi_monotone_in_silence(self):
        rng = random.Random(7)
        for trial in range(20):
            delays = [rng.uniform(20.0, 400.0) for _ in range(16)]
            det = _fed(delays)
            grid = [i * 25.0 for i in range(80)]
            phis = [det.phi(3, s) for s in grid]
            assert all(p is not None for p in phis)
            for a, b in zip(phis, phis[1:]):
                assert b >= a - 1e-12

    def test_abstains_below_min_samples(self):
        cfg = DetectorConfig(min_samples=4)
        det = _fed([100.0, 110.0, 90.0], cfg)  # 3 < 4
        assert det.phi(3, 1_000.0) is None
        assert det.timeout(3, fallback=6_000.0) == 6_000.0
        det.observe(3, 105.0)
        assert det.phi(3, 1_000.0) is not None

    def test_determinism_across_instances(self):
        delays = [random.Random(3).uniform(10.0, 300.0) for _ in range(32)]
        a, b = _fed(delays), _fed(delays)
        for s in (0.0, 150.0, 600.0, 5_000.0):
            assert a.phi(3, s) == b.phi(3, s)
        assert a.timeout(3, fallback=1.0) == b.timeout(3, fallback=1.0)

    def test_timeout_is_the_threshold_crossing(self):
        cfg = DetectorConfig(threshold=8.0, floor=0.0)
        det = _fed([100.0, 130.0, 90.0, 120.0, 110.0, 95.0], cfg)
        t = det.timeout(3, fallback=6_000.0)
        assert det.phi(3, t) >= cfg.threshold - 1e-6
        assert det.phi(3, t - 1.0) <= cfg.threshold + 1e-6

    def test_floor_and_cap_clamp(self):
        tight = [50.0] * 8  # min_std guards the degenerate fit
        det = _fed(tight, DetectorConfig(floor=2_000.0))
        assert det.timeout(3, fallback=1.0) >= 2_000.0
        wide = [random.Random(5).uniform(100.0, 9_000.0) for _ in range(32)]
        det = _fed(wide, DetectorConfig(floor=100.0, cap=4_000.0))
        assert det.timeout(3, fallback=1.0) <= 4_000.0

    def test_congestion_widens_the_window(self):
        quiet = _fed([100.0 + i % 3 for i in range(32)])
        rng = random.Random(11)
        congested = _fed([rng.uniform(100.0, 2_000.0) for _ in range(32)])
        assert congested.timeout(3, fallback=1.0) \
            > quiet.timeout(3, fallback=1.0)

    def test_window_keeps_most_recent(self):
        cfg = DetectorConfig(window=4)
        det = _fed([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], cfg)
        assert det.samples(3) == (3.0, 4.0, 5.0, 6.0)

    def test_forget_drops_history(self):
        det = _fed([100.0] * 8)
        det.forget(3)
        assert det.samples(3) == ()
        assert det.phi(3, 500.0) is None

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            PhiAccrualDetector().observe(0, -1.0)

    def test_zero_false_positives_under_uniform_jitter(self):
        """Feed U(50, 150) delays, then check 1000 fresh draws from the
        same distribution: none reaches the adaptive timeout."""
        for seed in range(5):
            rng = random.Random(seed)
            det = _fed([rng.uniform(50.0, 150.0) for _ in range(32)])
            bound = det.timeout(3, fallback=6_000.0)
            draws = [rng.uniform(50.0, 150.0) for _ in range(1_000)]
            assert max(draws) < bound
            # ... while a genuinely dead member still gets suspected in
            # bounded time (the cap-free curve crosses any threshold).
            assert math.isfinite(bound)


# -- retry policy ------------------------------------------------------------

_SITES = ("hb", "view", "ft_flag", "oc.notify")


class TestRetryPolicyProperties:
    def test_schedule_length_and_bounds(self):
        p = RetryPolicy.backoff(max_retries=6, base=40.0, factor=2.0,
                                cap=600.0, jitter=0.1, seed=20)
        for rank in range(8):
            for site in _SITES:
                ds = p.delays(rank, site)
                assert len(ds) == 6
                for d in ds:
                    assert 0.0 < d <= 600.0 * 1.1

    def test_jitter_stays_inside_declared_fraction(self):
        p = RetryPolicy.backoff(max_retries=5, base=100.0, factor=2.0,
                                jitter=0.25, seed=3)
        for rank in range(8):
            ds = p.delays(rank, "s")
            for attempt, d in enumerate(ds, start=1):
                nominal = 100.0 * 2.0 ** (attempt - 1)
                assert nominal * 0.75 <= d <= nominal * 1.25

    def test_deterministic_per_rank_site(self):
        p = RetryPolicy.backoff(max_retries=4, base=50.0, jitter=0.2, seed=9)
        q = RetryPolicy.backoff(max_retries=4, base=50.0, jitter=0.2, seed=9)
        for rank in range(6):
            for site in _SITES:
                assert p.delays(rank, site) == q.delays(rank, site)

    def test_streams_independent_across_ranks_and_sites(self):
        p = RetryPolicy.backoff(max_retries=4, base=50.0, jitter=0.2, seed=9)
        schedules = {(rank, site): p.delays(rank, site)
                     for rank in range(6) for site in _SITES}
        assert len(set(schedules.values())) == len(schedules)

    def test_budget_truncates_cumulative_pause(self):
        p = RetryPolicy.backoff(max_retries=10, base=100.0, factor=2.0,
                                jitter=0.1, budget=1_000.0, seed=1)
        for rank in range(6):
            ds = p.delays(rank, "s")
            assert len(ds) < 10
            assert sum(ds) <= 1_000.0

    def test_max_total_pause_is_an_upper_bound(self):
        p = RetryPolicy.backoff(max_retries=6, base=40.0, factor=2.0,
                                cap=600.0, jitter=0.1, seed=20)
        worst = p.max_total_pause()
        for rank in range(16):
            for site in _SITES:
                assert sum(p.delays(rank, site)) <= worst + 1e-9

    def test_immediate_and_none_reproduce_legacy(self):
        assert IMMEDIATE.delays(0, "s") == (0.0, 0.0, 0.0)
        assert RetryPolicy.immediate(3).delays(0, "s") == (0.0, 0.0, 0.0)
        assert RetryPolicy.immediate(0).delays(5, "other") == ()
        assert RetryPolicy(max_retries=0).delays(0, "s") == ()

    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"base": -1.0},
        {"factor": 0.0},
        {"cap": -1.0},
        {"jitter": 1.0},
        {"jitter": -0.1},
        {"budget": -1.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_overload_error_carries_structured_fields(self):
        err = OverloadError(msg_id=7, rank=2, epoch=3, spent=5, budget=5)
        assert (err.msg_id, err.rank, err.epoch) == (7, 2, 3)
        assert "refused" in str(err)


# -- end to end: adaptive config on a jittery fault-free run -----------------


class TestAdaptiveFalsePositiveRate:
    """The ISSUE 10 acceptance property, in miniature: the adaptive
    configuration under per-operation UniformDelay jitter (asyncio
    backend) must never suspect a live member on a fault-free run."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_suspicion_without_faults(self, seed):
        sc = replace(SCENARIOS["ft_broadcast"], adaptive=True)
        res = run_asyncio(sc, seed, model=UniformDelay(0.05, 5.0),
                          with_plan=False)
        kinds = [r.kind for r in res.records]
        assert "member.suspect" not in kinds
        assert "svc.report_failed" not in kinds
        baseline = run_asyncio(SCENARIOS["ft_broadcast"], seed,
                               model=UniformDelay(0.05, 5.0),
                               with_plan=False)
        assert res.outcomes == baseline.outcomes
