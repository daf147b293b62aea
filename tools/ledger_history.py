#!/usr/bin/env python
"""Append ledger runs to ``benchmarks/history.jsonl``: the per-PR trajectory.

docs/PERFORMANCE.md cites the latest of these runs per layer; this keeps
every run machine-readable, one JSON object per line and per
``(commit, seed, workload)`` run, so "unresolved within the bound" can
be re-read against every earlier measurement.  The file lives *beside*
the frozen ``benchmarks/ledger/`` directory, not in it, and is only
ever appended to.

    python tools/ledger_history.py                          # every workload, this tree
    python tools/ledger_history.py --workload service_asyncio --seed 2
    python tools/ledger_history.py --workload W --seed S --from-json run.json
    python tools/ledger_history.py --workload W --pairs 10 --against HEAD~1

A run is ``benchmarks/ledger/run.py --workload W --seed S --seconds N
--trace 0`` (the acceptance driver's form) or, with ``--from-json``, the
JSON line such a run already printed.  ``--pairs N --against REV`` is
the choosing-metrics protocol: REV is exported with ``git archive`` to
a temporary directory (nothing is registered in ``.git``, unlike a
worktree), then N pairs run with the side that goes first alternating;
every row records its pair number, its role and whether it ran first.

Each record holds: ``commit`` (``git rev-parse`` of what was measured),
``dirty`` (the tree had uncommitted changes under ``src/``: the numbers
belong to the *next* commit), ``workload``, ``seed``, ``seconds``,
``metrics`` (end-to-end name -> value), ``attempted``, ``failed``,
``nproc``, ``python``, and for paired runs ``pair``, ``role``
(``"parent"``/``"change"``), ``ran_first`` and ``against``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HISTORY_PATH = ROOT / "benchmarks" / "history.jsonl"
RUN_PY = Path("benchmarks") / "ledger" / "run.py"


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def workloads() -> list[str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in benchmark["workloads"]]


def make_record(
    result: dict, *, commit: str, dirty: bool, workload: str, seed: int,
    seconds: float, **pairing,
) -> dict:
    """One history row from one ``run.py --trace 0`` result object."""
    return {
        "commit": commit,
        "dirty": dirty,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "metrics": {
            name: entry["value"] for name, entry in result["metrics"].items()
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **pairing,
    }


def append(record: dict, path: Path = HISTORY_PATH) -> None:
    """Append-only: one line per record, earlier lines never rewritten."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def load(path: Path = HISTORY_PATH) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def run_ledger(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One acceptance-form ledger run of the program in ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed",
         str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(rev: str, into: Path) -> None:
    """The committed files of ``rev``, as the acceptance driver sees them."""
    archive = subprocess.Popen(
        ["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.wait():
        raise RuntimeError(f"git archive {rev} failed")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    ap.add_argument("--workload", action="append", choices=workloads(),
                    help="repeatable; default: every BENCHMARK.json workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--from-json", type=Path, metavar="FILE",
                    help="record this finished run (needs one --workload)")
    ap.add_argument("--pairs", type=int, default=0, metavar="N",
                    help="N alternating parent/change pairs (needs --against)")
    ap.add_argument("--against", metavar="REV", help="the parent revision")
    ap.add_argument("--history", type=Path, default=HISTORY_PATH)
    args = ap.parse_args(argv)
    names = args.workload or workloads()
    if bool(args.pairs) != bool(args.against):
        ap.error("--pairs and --against go together")
    if args.from_json and len(names) != 1:
        ap.error("--from-json needs exactly one --workload")

    head = git("rev-parse", "HEAD")
    here = dict(
        commit=head, dirty=bool(git("status", "--porcelain", "--", "src")),
        seed=args.seed, seconds=args.seconds,
    )

    def record(result: dict, **fields) -> None:
        row = make_record(result, **{**here, **fields})
        append(row, args.history)
        m = row["metrics"]
        print(
            f"{row['workload']:<18} {row.get('role', 'tree'):<7} "
            f"ops_per_s {m['ops_per_s']:9.3f}  op_ms_p50 {m['op_ms_p50']:9.3f}  "
            f"failed {row['failed']}/{row['attempted']}"
        )

    if args.from_json:
        result = json.loads(args.from_json.read_text().strip().splitlines()[-1])
        record(result, workload=names[0])
        return 0
    if not args.pairs:
        for workload in names:
            record(run_ledger(ROOT, workload, args.seed, args.seconds),
                   workload=workload)
        return 0

    parent = git("rev-parse", args.against)
    with tempfile.TemporaryDirectory(prefix="ledger-parent-") as tmp:
        export(parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        identity = {
            "parent": dict(commit=parent, dirty=False),
            "change": dict(against=parent),
        }
        for workload in names:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for role in order:
                    result = run_ledger(
                        trees[role], workload, args.seed, args.seconds
                    )
                    record(result, workload=workload, pair=pair, role=role,
                           ran_first=role == order[0], **identity[role])
    return 0


if __name__ == "__main__":
    sys.exit(main())
