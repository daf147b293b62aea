"""Option census: a settable value exists only if a caller sets it.

Every defaulted constructor field / keyword parameter of the
configuration surfaces below must be *set* by some caller in
``src/repro`` (CLI flags reach the constructors as keyword arguments in
``cli.py``), ``benchmarks/``, ``examples/`` or ``tools/``.  A knob nobody
sets is a configuration no golden, ledger workload or soak has ever
run -- and, historically, one nobody validated either -- so it is a
module constant next to the code that reads it, not an option.

The walk is syntactic (``ast``): keyword and positional arguments of
calls to a surface by name, of ``RetryPolicy.backoff/.immediate``, and
of ``dataclasses.replace(...)`` / ``.with_(...)`` (which count for every
surface carrying a field of that name -- the static type is unknown).

``ALLOWED`` is the escape hatch, and it is deliberately short: a value
only tests set may stay when a test exercises its *behaviour*; never
because a test checks its validation.  ``SccConfig`` is not a surface:
its fields are the paper's Table 1 and the documented calibration
constants -- the model, not harness options.
"""

import ast
import inspect
import pathlib

from repro.bench import BcastSpec, ChurnCampaign, FaultCampaign
from repro.chaos import ChaosSchedule, ScheduleGenerator, profile_counts
from repro.core import OcBcastConfig
from repro.member import MembershipConfig
from repro.resilience import DetectorConfig, RetryPolicy
from repro.scc import AnalyticEngine
from repro.transport.world import mode_config

ROOT = pathlib.Path(__file__).resolve().parent.parent
WALKED = ("src/repro", "benchmarks", "examples", "tools")

SURFACES = {
    obj.__name__: obj
    for obj in (
        OcBcastConfig, MembershipConfig, DetectorConfig, RetryPolicy,
        FaultCampaign, ChurnCampaign, ChaosSchedule, ScheduleGenerator,
        BcastSpec, AnalyticEngine, mode_config, profile_counts,
    )
}

#: (surface, option) -> the test that exercises its behaviour.
ALLOWED = {
    ("DetectorConfig", "cap"):
        "tests/test_resilience.py::test_floor_and_cap_clamp bounds the "
        "adaptive timeout from above",
    ("RetryPolicy", "budget"):
        "tests/test_resilience.py::test_budget_truncates_cumulative_pause",
    ("FaultCampaign", "watchdog_interval"):
        "the 100-trial acceptance campaigns of tests/test_member.py and "
        "tests/test_rbc.py (-m faults) run 288-line trials under a longer "
        "watchdog",
    ("BcastSpec", "notify_mode"):
        "the harness's only route to the paper's Section 7 interrupt "
        "notification, whose behaviour tests/test_ocbcast.py::"
        "test_interrupt_notification (kernel) and tests/"
        "test_analytic_levels.py (engine, interrupt_notify) exercise",
    ("AnalyticEngine", "ft_flag_timeout"):
        "tests/test_analytic_levels.py::"
        "test_single_lane_budget_overrun_refused_by_both",
}


def _params(obj) -> list[inspect.Parameter]:
    return [
        p for p in inspect.signature(obj).parameters.values()
        if p.name != "self"
    ]


def _setters() -> dict[str, set[str]]:
    """surface -> names of the options some walked call sets."""
    params = {name: _params(obj) for name, obj in SURFACES.items()}
    found: dict[str, set[str]] = {name: set() for name in SURFACES}

    def note(surface: str, signature, call: ast.Call) -> None:
        names = [p.name for p in signature[:len(call.args)]]
        names += [k.arg for k in call.keywords if k.arg]
        found[surface].update(names)

    for top in WALKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                if name in SURFACES:
                    note(name, params[name], node)
                elif name in ("backoff", "immediate") and getattr(
                    getattr(f, "value", None), "id", None
                ) == "RetryPolicy":
                    note("RetryPolicy", _params(getattr(RetryPolicy, name)), node)
                elif name in ("replace", "with_"):
                    for surface in SURFACES:
                        note(surface, (), node)
    return found


def test_every_defaulted_option_has_a_setter():
    setters = _setters()
    unset = {
        (surface, p.name)
        for surface, obj in SURFACES.items()
        for p in _params(obj)
        if p.default is not inspect.Parameter.empty
        and p.name not in setters[surface]
    }
    nobody = sorted(unset - ALLOWED.keys())
    assert not nobody, (
        f"options no caller sets (make them constants, or set them): {nobody}"
    )
    stale = sorted(ALLOWED.keys() - unset)
    assert not stale, f"allow-listed but set (or gone): {stale}"
