#!/usr/bin/env python
"""Where one ledger pass spends its host time, by ``repro`` package.

    python tools/profile_workload.py service_scc
    python tools/profile_workload.py chaos_mixed --seed 2

Makes the workload's op list with the ledger's own functions
(``benchmarks/ledger/workloads.py``, imported read-only), runs one
untimed warm-up pass -- imports, ``lru_cache``s, first-touch allocation
-- and then one pass under :mod:`cProfile`.  Every profiled function's
*self* time goes to exactly one bucket:

- ``repro.<package>`` (``sim``, ``scc``, ``rcce``, ``core``, ``member``,
  ``faults``, ``obs``, ``transport``, ...) for code under the package,
  ``repro`` for its top-level modules;
- ``ledger`` for the benchmark's own files;
- ``third-party`` for installed packages (numpy);
- ``stdlib/builtins`` for the standard library, C functions (a C
  function's time is its own, not its Python caller's) and generated
  code such as dataclass ``__init__``s (file ``<string>``).

The shares sum to 100 %.  Profiling inflates call-heavy code more than
C-heavy code, so read the buckets against each other and against a
second profile of the same workload, not as wall time.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "ledger"
sys.path[:0] = [str(ROOT / "src"), str(LEDGER)]

import repro  # noqa: E402  (needs src on the path)
from workloads import BUILDERS  # noqa: E402  (needs the ledger on the path)

REPRO = Path(repro.__file__).resolve().parent
#: Functions listed below the shares.
TOP = 12


def bucket(filename: str) -> str:
    """The bucket one profiled function's file belongs to."""
    if filename == "~" or filename.startswith("<"):
        return "stdlib/builtins"  # C functions, frozen modules
    path = Path(filename).resolve()
    if path.is_relative_to(REPRO):
        parts = path.relative_to(REPRO).parts
        return f"repro.{parts[0]}" if len(parts) > 1 else "repro"
    if path.is_relative_to(LEDGER):
        return "ledger"
    if "site-packages" in path.parts or "dist-packages" in path.parts:
        return "third-party"
    return "stdlib/builtins"


def profile(workload: str, seed: int) -> pstats.Stats:
    """One warm-up pass, then the profile of one pass."""
    ops = BUILDERS[workload](seed)
    for op in ops:
        op.run(None)
    profiler = cProfile.Profile()
    profiler.enable()
    for op in ops:
        op.run(None)
    profiler.disable()
    return pstats.Stats(profiler)


def shares(stats: pstats.Stats) -> dict[str, float]:
    """Bucket -> percent of all self time, largest first."""
    self_s: dict[str, float] = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, _) in stats.stats.items():
        self_s[bucket(filename)] += tottime
    total = sum(self_s.values())
    return {
        name: 100.0 * s / total
        for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    ap.add_argument("workload", choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    stats = profile(args.workload, args.seed)
    total_ms = 1e3 * sum(entry[2] for entry in stats.stats.values())
    print(f"{args.workload} seed {args.seed}: one profiled pass, "
          f"{total_ms:.1f} ms self time")
    by_bucket = shares(stats)
    for name, pct in by_bucket.items():
        print(f"  {name:<20} {pct:6.1f} %  {total_ms * pct / 100.0:9.1f} ms")
    print(f"  {'(sum)':<20} {sum(by_bucket.values()):6.1f} %")
    print(f"heaviest {TOP} functions by self time:")
    heaviest = sorted(stats.stats.items(), key=lambda kv: -kv[1][2])[:TOP]
    for (filename, line, func), (_, calls, tottime, _, _) in heaviest:
        where = func if filename == "~" else f"{Path(filename).name}:{line}({func})"
        print(f"  {1e3 * tottime:8.1f} ms  {calls:>8} calls  "
              f"{bucket(filename):<16} {where}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
