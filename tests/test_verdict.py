"""One verdict, four vocabularies.

:class:`repro.transport.world.Verdict` judges a run once -- who
delivered which crc, who refused, who is an adversary -- and every
harness words it in its own strings: the campaign's
(:func:`campaign_outcome`), the Byzantine campaign's
(:func:`byz_outcome`), the chaos runner's (:func:`chaos_status` +
:func:`chaos_classification`) and the churn campaign's
(:func:`churn_outcome`).  The expected strings below are the ones
the three separate classifiers printed for these synthetic value
tuples; ``golden_harness_outcomes.json`` pins them on real runs.  The
deliberate differences between the vocabularies are cases here too:
deliverers beside aborters are campaign ``corrupt`` but chaos
``partial``; the campaign counts only ``evicted`` survivors; the
Byzantine campaign calls any uniform crc ``agreed``; the campaign has
no word for an unexpected value, chaos calls it ``crashed``.
"""

import os

import pytest

from repro.bench.churn import CHURN_OUTCOMES, churn_outcome
from repro.bench.faultcampaign import byz_outcome, campaign_outcome
from repro.chaos import ReproBundle
from repro.chaos.runner import chaos_classification, chaos_status, execute
from repro.transport.world import Verdict

SRC, WRONG, OTHER = 0x5EED, 0xBAD, 0xBAD2


def ok(crc):
    return ("ok", crc)


#: name -> (values, adversary ranks or None, n_injected, campaign,
#: Byzantine campaign, chaos (status, detail, classification),
#: (agreement, validity, violation)).
CASES = {
    "all_ok": (
        [ok(SRC)] * 4, None, 0,
        ("delivered", ""),
        ("agreed", "source value"),
        ("delivered", "", "tolerated"),
        (True, True, False),
    ),
    "one_wrong_crc": (
        [ok(SRC)] * 3 + [ok(WRONG)], None, 1,
        ("corrupt", "1 core(s) hold wrong bytes"),
        ("disagreement", "honest members delivered 2 distinct payloads"),
        ("corrupt", "1 member(s) hold wrong bytes", "violation"),
        (False, False, True),
    ),
    "two_crcs": (
        [ok(SRC), ok(SRC), ok(WRONG), ok(WRONG), ok(OTHER)], {4}, 1,
        ("corrupt", "2 core(s) hold wrong bytes"),
        ("disagreement", "honest members delivered 2 distinct payloads"),
        ("disagreement", "honest members delivered 2 distinct payloads",
         "violation"),
        (False, False, True),
    ),
    "delivered_and_aborted": (
        [ok(SRC), ok(SRC), "aborted", "aborted"], None, 1,
        ("corrupt", "non-uniform outcome: 2 delivered, 2 aborted"),
        ("partial", "2 delivered, 0 refused, 2 other"),
        ("partial", "non-uniform outcome: 2 delivered, 2 refused",
         "violation"),
        (False, True, True),
    ),
    "delivered_and_detected": (
        [ok(SRC), ok(SRC), "detected", "detected", ok(WRONG)], {4}, 1,
        ("recovered", ""),
        ("partial", "2 delivered, 2 refused, 0 other"),
        ("partial", "non-uniform outcome: 2 delivered, 2 refused",
         "violation"),
        (False, True, True),
    ),
    "all_aborted": (
        ["crashed", "aborted", "aborted", "aborted"], None, 1,
        ("aborted", "uniform abort by 3 live member(s)"),
        ("partial", "0 delivered, 0 refused, 4 other"),
        ("aborted", "uniform refusal by 3 live member(s)", "refused"),
        (True, True, False),
    ),
    "all_detected": (
        ["detected"] * 4 + [ok(WRONG)], {4}, 1,
        ("recovered", ""),
        ("detected", "uniform refusal by 4 honest member(s)"),
        ("detected", "uniform refusal by 4 live member(s)", "refused"),
        (True, True, False),
    ),
    "crashed_evicted_self_evicted": (
        [ok(SRC), ok(SRC), "crashed", "evicted", "self_evicted"], None, 1,
        ("recovered", "1 crashed, 1 evicted, survivors delivered"),
        ("partial", "2 delivered, 0 refused, 3 other"),
        ("recovered", "1 crashed, 2 evicted, survivors delivered",
         "tolerated"),
        (True, True, False),
    ),
    "unexpected_value": (
        [ok(SRC), ok(SRC), ok(SRC), None], None, 0,
        ("delivered", ""),
        ("partial", "3 delivered, 0 refused, 1 other"),
        ("crashed", "1 rank(s) returned unexpectedly", "violation"),
        (True, True, True),
    ),
    "excluded_adversaries": (
        [ok(SRC), ok(WRONG), ok(SRC), "detected"], {1, 3}, 2,
        ("recovered", ""),
        ("agreed", "source value"),
        ("recovered", "faults masked, all delivered", "tolerated"),
        (True, True, False),
    ),
    "compromised_source_variant": (
        [ok(WRONG)] * 4, {0}, 1,
        ("corrupt", "3 core(s) hold wrong bytes"),
        ("agreed", "attacker variant"),
        ("recovered", "faults masked, all delivered", "tolerated"),
        (True, True, False),
    ),
    "honest_source_uniform_wrong": (
        [ok(WRONG)] * 4, {3}, 1,
        ("corrupt", "3 core(s) hold wrong bytes"),
        ("agreed", "attacker variant"),
        ("corrupt", "3 member(s) hold wrong bytes", "violation"),
        (True, False, True),
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_three_vocabularies_of_one_verdict(name):
    values, adversary, injected, campaign, byz, chaos, bits = CASES[name]
    v = Verdict.of(
        "", tuple(values), src_crc=SRC, n_injected=injected,
        adversary=None if adversary is None else frozenset(adversary),
    )
    assert campaign_outcome(v) == campaign
    assert byz_outcome(v) == byz
    assert (*chaos_status(v), chaos_classification(v, ())) == chaos
    assert (v.agreement, v.validity, v.violation) == bits


@pytest.mark.parametrize("ending, violation, classification", [
    ("timeout", False, "refused"),
    ("deadlock", True, "violation"),
    ("crashed", True, "violation"),
])
def test_a_run_ending_is_its_own_word(ending, violation, classification):
    v = Verdict.of(ending, (), src_crc=SRC, n_injected=1)
    assert campaign_outcome(v) == byz_outcome(v) == chaos_status(v) \
        == (ending, "")
    assert v.violation is violation
    assert chaos_classification(v, ()) == classification


def test_an_invariant_report_is_a_violation_whatever_the_values():
    v = Verdict.of("", (ok(SRC),) * 2, src_crc=SRC, n_injected=0)
    assert not v.violation
    assert chaos_classification(v, ("I6",)) == "violation"


#: name -> (ending, values, churn outcome): a churn rank's ending worded
#: as one broadcast (a budget refusal is ``detected``, an evicted crash
#: victim ``crashed``), each outcome once, then their precedence.
CHURN_CASES = {
    "survived": ("", [ok(SRC), ok(SRC), "crashed"], ("survived", "")),
    "refused": (
        "", [ok(SRC), "detected", "detected"],
        ("refused", "2 rank(s) refused on budget"),
    ),
    "false_evict": (
        "", [ok(SRC), ok(SRC), "evicted"],
        ("false_evict", "1 live rank(s) evicted"),
    ),
    "corrupt": (
        "", [ok(SRC), ok(WRONG), ok(SRC)],
        ("corrupt", "a live member holds wrong bytes"),
    ),
    "stalled": ("deadlock", [], ("stalled", "")),
    "eviction_beats_refusal": (
        "", [ok(SRC), "evicted", "detected"],
        ("false_evict", "1 live rank(s) evicted"),
    ),
    "wrong_bytes_beat_eviction": (
        "", [ok(WRONG), "evicted", "detected"],
        ("corrupt", "a live member holds wrong bytes"),
    ),
    "an_ending_beats_every_value": (
        "timeout", [ok(WRONG), "evicted"], ("stalled", ""),
    ),
}


@pytest.mark.parametrize("name", CHURN_CASES)
def test_churn_vocabulary_of_one_verdict(name):
    ending, values, want = CHURN_CASES[name]
    v = Verdict.of(ending, tuple(values), src_crc=SRC, n_injected=1)
    assert churn_outcome(v) == want


def test_churn_cases_word_every_outcome():
    assert {want for _, _, (want, _) in CHURN_CASES.values()} \
        == set(CHURN_OUTCOMES)


_BUNDLES = os.path.join(os.path.dirname(__file__), "chaos_bundles")


@pytest.mark.parametrize("backend", ["scc", "asyncio"])
def test_forged_holder_vote_agrees_on_an_invalid_payload(backend):
    """ROADMAP item 2's forged holder vote, in verdict terms: the seven
    survivors used to agree on bytes the source never sent.  With exact
    slot acks the corrupted vote is re-sent, and they uniformly abort."""
    bundle = ReproBundle.load(
        os.path.join(_BUNDLES, f"service-forged-holder-vote-{backend}.json")
    )
    _, v = execute(bundle.schedule, trace=False)
    assert (v.agreement, v.validity, v.violation) == (True, True, False)
    assert (v.n_delivered, v.n_aborted, v.n_crashed) == (0, 7, 1)
