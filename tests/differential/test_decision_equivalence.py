"""Cross-backend differential tests: same seed, two backends, same
decisions.

Each scenario replays on the SCC chip-model backend and the asyncio
event-loop backend (with a uniform-delay model nothing like the SCC's
calibrated timings) across many seeds; the canonical decision traces
(per-rank program order, time-free) must be identical, while the
latencies are free to -- and do -- diverge.
"""

import pytest

from repro.transport.scenarios import DIFFERENTIAL_NAMES, run_asyncio, run_scc

from . import cached_decisions

pytestmark = pytest.mark.differential

SEEDS = range(10)


@pytest.mark.parametrize("name", DIFFERENTIAL_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_decisions_identical_across_backends(name, seed):
    scc_text, scc_digest, scc_outcomes, _, _ = cached_decisions("scc", name, seed)
    aio_text, aio_digest, aio_outcomes, _, _ = cached_decisions(
        "asyncio", name, seed
    )
    assert scc_outcomes == aio_outcomes
    assert scc_text == aio_text
    assert scc_digest == aio_digest


@pytest.mark.parametrize("name", DIFFERENTIAL_NAMES)
def test_decision_stream_is_nonempty(name):
    """Equality must not be vacuous: every scenario produces decisions."""
    text, _, _, _, _ = cached_decisions("scc", name, 0)
    assert text.strip(), f"scenario {name} produced an empty decision stream"


def test_ft_broadcast_outcomes():
    _, _, outcomes, _, _ = cached_decisions("scc", "ft_broadcast", 0)
    assert outcomes == ("ok",) * 8


def test_root_crash_election_reaches_expected_states():
    text, _, outcomes, _, _ = cached_decisions("scc", "root_crash_election", 0)
    # The source dies before staging; survivors elect rank 1 and, with no
    # chunk holders anywhere, abort the broadcast.
    assert outcomes == ("crashed",) + ("aborted",) * 7
    assert "member.elect.won" in text
    assert "member.view_install" in text


def test_byz_quorum_commits_despite_liar():
    text, _, outcomes, _, _ = cached_decisions("scc", "byz_quorum", 0)
    assert outcomes == ("ok",) * 12
    assert "rbc.outcome" in text


def test_latencies_diverge_while_decisions_agree():
    """The equivalence is meaningful only if the two backends really do
    run on different clocks: compare completion times of the same run."""
    scc = run_scc("ft_broadcast", 0)
    aio = run_asyncio("ft_broadcast", 0)
    assert scc.digest == aio.digest
    scc_end = max(r.time for r in scc.records)
    aio_end = max(r.time for r in aio.records)
    assert scc_end != aio_end
