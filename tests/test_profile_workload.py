"""``tools/profile_workload.py``: every profiled second lands in one bucket."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "profile_workload", ROOT / "tools" / "profile_workload.py"
)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_shares_of_a_pass_sum_to_100_percent(capsys):
    assert tool.main(["analytic_fastpath"]) == 0
    out = capsys.readouterr().out
    rows = dict(re.findall(r"^  (\S+)\s+([\d.]+) %", out, re.MULTILINE))
    total = float(rows.pop("(sum)"))
    assert total == pytest.approx(100.0, abs=0.05)
    # The workload is the analytic engine: its package leads the table.
    assert next(iter(rows)) == "repro.scc"
    assert sum(map(float, rows.values())) == pytest.approx(100.0, abs=0.05 * len(rows))
    assert set(rows) <= {
        "repro", "ledger", "third-party", "stdlib/builtins",
        *(f"repro.{p.name}" for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()),
    }


@pytest.mark.parametrize("filename, expected", [
    (str(ROOT / "src/repro/sim/kernel.py"), "repro.sim"),
    (str(ROOT / "src/repro/cli.py"), "repro"),
    (str(ROOT / "benchmarks/ledger/worker.py"), "ledger"),
    ("~", "stdlib/builtins"),
    ("<string>", "stdlib/builtins"),
    ("/usr/lib/python3/site-packages/numpy/core/numeric.py", "third-party"),
])
def test_bucket(filename, expected):
    assert tool.bucket(filename) == expected
