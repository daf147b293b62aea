"""``tools/ledger_history.py``: the record shape and the append-only file."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ledger_history", ROOT / "tools" / "ledger_history.py"
)
history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(history)

#: What ``benchmarks/ledger/run.py --trace 0`` prints as its last line.
RESULT = {
    "correct": True, "attempted": 120, "failed": 0,
    "metrics": {
        "ops_per_s": {"value": 23.4, "unit": "1/s"},
        "op_ms_p50": {"value": 37.8, "unit": "ms"},
        "sim_us_per_op": {"value": 2090.7862869580013, "unit": "us_sim"},
    },
}


def test_a_record_round_trips_and_the_file_only_grows(tmp_path):
    path = tmp_path / "history.jsonl"
    first = history.make_record(
        RESULT, commit="abc123", dirty=False, workload="service_asyncio",
        seed=1, seconds=10.0,
    )
    history.append(first, path)
    before = path.read_bytes()
    second = history.make_record(
        RESULT, commit="def456", dirty=True, workload="service_asyncio",
        seed=1, seconds=10.0, pair=0, role="change", ran_first=False,
        against="abc123",
    )
    history.append(second, path)

    assert path.read_bytes().startswith(before)  # earlier rows untouched
    assert history.load(path) == [first, second]
    assert first["metrics"]["sim_us_per_op"] == 2090.7862869580013  # exact
    assert {"nproc", "python", "failed", "attempted"} <= set(first)
    assert (second["role"], second["ran_first"]) == ("change", False)


def test_from_json_records_a_finished_run(tmp_path, capsys):
    run = tmp_path / "run.json"
    run.write_text("noise on an earlier line\n" + json.dumps(RESULT) + "\n")
    path = tmp_path / "history.jsonl"
    assert history.main([
        "--workload", "service_asyncio", "--seed", "2", "--from-json",
        str(run), "--history", str(path),
    ]) == 0
    (row,) = history.load(path)
    assert (row["workload"], row["seed"]) == ("service_asyncio", 2)
    assert row["metrics"]["ops_per_s"] == 23.4
    assert "service_asyncio" in capsys.readouterr().out


def test_the_committed_history_parses():
    rows = history.load()
    assert rows, "benchmarks/history.jsonl holds this tool's first records"
    for row in rows:
        assert row["workload"] in history.workloads()
        assert row["failed"] == 0
